"""Every JSON and CSV input is decoded by one reader per format.

`scenario.read_json` and `scenario.read_csv` map a file that does not
decode to the error that the CLI turns into exit 4. A decoder called
anywhere else would skip that mapping, so this checks the source for it.
"""

import ast
from pathlib import Path

import hydrosac

DECODERS = {("json", "load"), ("json", "loads"), ("csv", "reader")}


def decoder_calls(tree):
    """Yield (enclosing function, "module.name") for each decoder call in `tree`."""
    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            func = child.func if isinstance(child, ast.Call) else None
            if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                    and (func.value.id, func.attr) in DECODERS):
                yield function, f"{func.value.id}.{func.attr}"
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from visit(child, child.name if is_function else function)
    yield from visit(tree, None)


def test_inputs_are_decoded_only_by_the_shared_readers():
    calls = set()
    for path in sorted(Path(hydrosac.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in ("json", "csv"):
                names = {(node.module, alias.name) for alias in node.names}
                assert not names & DECODERS, f"{path.name} imports a decoder by name"
        calls |= {(path.stem, function, call) for function, call in decoder_calls(tree)}
    assert calls == {("scenario", "read_json", "json.load"), ("scenario", "read_csv", "csv.reader")}
