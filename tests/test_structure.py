"""Checks of the source for where files are read and written and exit codes decided.

`scenario.read_json` and `scenario.read_csv` map a file that does not
decode to the error that the CLI turns into exit 4. A decoder called
anywhere else would skip that mapping. Outputs go through
`scenario._write_atomic`, which only scenario.py and the checkpoint writer
call, so every CSV output shares `scenario.write_csv`. And `cli.main`
alone turns a DataError into exit 4 and a UsageError or OSError into exit
2; a handler elsewhere in cli.py that caught one could give it another
code. Every simulated year is stepped by `trainer.play`, the one episode
loop, so no second loop can drift from it. The numeric code keeps to
numpy's exp and log, whose bits the digests pin. `_kernels` only names the
backend for the benchmark's environment record, so no module imports it.
"""

import ast
from pathlib import Path

import hydrosac

DECODERS = {("json", "load"), ("json", "loads"), ("csv", "reader")}


def calls(tree):
    """Yield (enclosing function, callee as written) for each call in `tree`."""
    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                yield function, ast.unparse(child.func)
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from visit(child, child.name if is_function else function)
    yield from visit(tree, None)


def program_trees():
    """Yield (module name, parsed source) for each module of the package."""
    for path in sorted(Path(hydrosac.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def test_inputs_are_decoded_only_by_the_shared_readers():
    found = set()
    for module, tree in program_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in ("json", "csv"):
                names = {(node.module, alias.name) for alias in node.names}
                assert not names & DECODERS, f"{module}.py imports a decoder by name"
        found |= {(module, function, call) for function, call in calls(tree)
                  if tuple(call.split(".")) in DECODERS}
    assert found == {("scenario", "read_json", "json.load"), ("scenario", "read_csv", "csv.reader")}


def test_outputs_are_written_only_by_the_shared_writers():
    writers = {(module, function) for module, tree in program_trees()
               for function, call in calls(tree) if call.split(".")[-1] == "_write_atomic"}
    stray = {w for w in writers if w[0] != "scenario" and w != ("trainer", "save_checkpoint")}
    assert not stray, f"_write_atomic called outside scenario.py: {sorted(stray)}"
    assert {("scenario", "write_csv"), ("trainer", "save_checkpoint")} <= writers


def test_years_are_stepped_only_by_play():
    stepping = {(module, function, call) for module, tree in program_trees()
                for function, call in calls(tree) if call.split(".")[-1] in ("step", "reset")}
    assert stepping == {("trainer", "play", "reset"), ("trainer", "play", "step")}


# Outside main, each handler in cli.py may catch only these, in these functions.
CLI_HANDLERS = {
    "FileNotFoundError": {"_load_config_file", "_get_pools", "cmd_gen_scenarios",
                          "_load_checkpoint_or_die", "cmd_plan"},  # name the missing file
    "ValueError": {"_settings", "_seed"},
    "TrainingAborted": {"cmd_train"},
}


def handlers(tree):
    """Yield (enclosing function, caught name) for each except clause in `tree`."""
    for function in ast.walk(tree):
        if isinstance(function, ast.FunctionDef):
            for node in ast.walk(function):
                if isinstance(node, ast.ExceptHandler):
                    types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                    for t in types:
                        yield function.name, ast.unparse(t) if t else "<bare>"


def test_only_main_turns_failures_into_exit_codes():
    path = Path(hydrosac.__file__).parent / "cli.py"
    caught = set(handlers(ast.parse(path.read_text(), filename=str(path))))
    stray = {(function, name) for function, name in caught
             if function != "main" and function not in CLI_HANDLERS.get(name, ())}
    assert not stray, f"handlers outside cli.main: {sorted(stray)}"
    assert {name for function, name in caught if function == "main"} == {
        "DataError", "UsageError", "OSError"}


def imports(tree):
    """Yield each module name that `tree` imports, with a relative import's
    dots dropped and `from . import x` giving x."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                yield node.module
            else:
                yield from (alias.name for alias in node.names)


def test_numeric_code_does_not_import_math():
    # math.exp and math.log differ from numpy's on some inputs only, so a
    # float path through them could pass a small test and change a digest
    trees = dict(program_trees())
    for name in ("neural", "sac"):
        modules = {m.split(".")[0] for m in imports(trees[name])}
        assert "math" not in modules, f"{name}.py imports math"


def test_no_module_imports_kernels():
    importers = {module for module, tree in program_trees()
                 if any(m.split(".")[-1] == "_kernels" for m in imports(tree))}
    assert not importers, f"modules that import _kernels: {sorted(importers)}"
