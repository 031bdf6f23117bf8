"""Checks of the source for where files are read and written and exit codes decided.

`scenario.read_json` and `scenario.read_csv` map a file that does not
decode to the error that the CLI turns into exit 4. A decoder called
anywhere else would skip that mapping. Outputs go through
`scenario._write_atomic`, which only scenario.py and the checkpoint writer
call, so every CSV output shares `scenario.write_csv`, the one place that
formats a CSV number; `ReplayBuffer.ROWS` alone names the replay arrays.
And `cli.main` alone turns a DataError into exit 4 and a UsageError,
OSError or MemoryError into exit 2; a handler elsewhere in cli.py that
caught one could give it another code. A training year is stepped only by
`trainer.train`, through the scalar `env.step`, and evaluation and planning
years only by `trainer.rollout`, through the array `env.step_years`; each
is the one loop of its kind, and tests hold the two steps to the same
bits. The reservoir's sizes, price rule and terminal window are read only
in env.py, so the trainer and the agent cannot restate the week's
arithmetic. Only the checkpoint writer forks, and its child leaves only
through `os._exit`, so a child never returns into its caller's code. The
numeric code keeps to numpy's exp and log, whose bits the digests pin.
`_kernels` only names the backend for the benchmark's environment record,
so no module imports it.
"""

import ast
from pathlib import Path

import hydrosac
from hydrosac.sac import ReplayBuffer

DECODERS = {("json", "load"), ("json", "loads"), ("csv", "reader")}


def nodes(tree):
    """Yield (enclosing function, node) for each node in `tree`."""
    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            yield function, child
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from visit(child, child.name if is_function else function)
    yield from visit(tree, None)


def calls(tree):
    """Yield (enclosing function, callee as written) for each call in `tree`."""
    for function, node in nodes(tree):
        if isinstance(node, ast.Call):
            yield function, ast.unparse(node.func)


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


def test_numbers_are_formatted_only_by_the_shared_writers():
    # each CSV writer passes numbers to write_csv, which alone formats a row
    users = {(module, function) for module, tree in program_trees()
             for function, node in nodes(tree)
             if isinstance(node, ast.Name) and node.id == "repr"}
    assert users == {("scenario", "write_csv"), ("trainer", "_float_list_json")}


def test_replay_arrays_are_named_only_by_the_buffer():
    # load_checkpoint takes the replay's names and row shapes from ReplayBuffer.ROWS
    tree = dict(program_trees())["trainer"]
    literals = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    assert not literals & set(ReplayBuffer.ROWS), "trainer.py names a replay array"


def test_years_are_stepped_only_by_train_and_rollout():
    stepping = {(module, function, call) for module, tree in program_trees()
                for function, call in calls(tree)
                if call.split(".")[-1] in ("step", "step_years")}
    assert stepping == {("trainer", "train", "step"), ("trainer", "rollout", "step_years")}


def test_only_the_checkpoint_writer_forks_and_its_child_exits():
    forks = {(module, function) for module, tree in program_trees()
             for function, call in calls(tree) if call == "os.fork"}
    assert forks == {("trainer", "save_checkpoint")}
    tree = dict(program_trees())["trainer"]
    (writer,) = [node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "save_checkpoint"]
    (pid,) = [ast.unparse(target) for node in ast.walk(writer) if isinstance(node, ast.Assign)
              and ast.unparse(node.value) == "os.fork()" for target in node.targets]
    branches = [node.body for node in ast.walk(writer)
                if isinstance(node, ast.If) and ast.unparse(node.test) == f"{pid} == 0"]
    assert len(branches) == 1, "the child's branch is not `if pid == 0:`"
    last = branches[0][-1]
    # a try ends in os._exit on every path when its finally does
    ending = last.finalbody[-1] if isinstance(last, ast.Try) and last.finalbody else last
    assert ast.unparse(ending).startswith("os._exit("), "the child can return into the caller"


# The EnvConfig fields that the week's dynamics, price rule and observation read.
ENV_ARITHMETIC = {"f_max", "r_max", "k_price", "q_price", "terminal_low", "terminal_high",
                  "terminal_price_rule"}


def test_trainer_and_agent_leave_the_week_to_env():
    trees = dict(program_trees())
    for name in ("trainer", "sac"):
        read = {node.attr for node in ast.walk(trees[name]) if isinstance(node, ast.Attribute)}
        assert not read & ENV_ARITHMETIC, f"{name}.py reads {sorted(read & ENV_ARITHMETIC)}"


# Outside main, each handler in cli.py may catch only these, in these functions.
CLI_HANDLERS = {
    "FileNotFoundError": {"_read_input"},  # names the missing file
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
        "DataError", "UsageError", "OSError", "MemoryError"}


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
