"""The config format has one owner, qrbf.config, and the pipeline names one list."""

import ast
from pathlib import Path

from qrbf import config, harness

SRC = Path(__file__).resolve().parents[1] / "src" / "qrbf"


def _trees() -> dict:
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _constants(node) -> set:
    """The string constants a collection literal lists (a dict's keys and values)."""
    if isinstance(node, ast.Dict):
        elts = [*node.keys, *node.values]
    elif isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        elts = node.elts
    else:
        return set()
    return {elt.value for elt in elts if isinstance(elt, ast.Constant)}


def test_config_alone_holds_the_config_format_and_the_pipeline_names():
    trees = _trees()
    imported = set()
    for node in ast.walk(trees["config.py"]):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module or "", *(alias.name for alias in node.names)}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert not {"harness", "cli", "qrbf.harness", "qrbf.cli"} & imported

    holders = {name for name, tree in trees.items() for node in ast.walk(tree)
               if _constants(node) & set(config.PIPELINES)}
    assert holders == {"config.py"}

    # one checker words every config-key refusal
    wording = {name for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)
               and node.value.startswith("config key ")}
    assert wording == {"config.py"}

    kernel_functions = [node for node in ast.walk(trees["kernels.py"])
                        if isinstance(node, ast.FunctionDef)]
    parsers = [node.name for node in kernel_functions
               for arg in node.args.args
               if arg.arg == "cfg" or ast.unparse(arg.annotation or ast.Constant(None)) == "dict"]
    assert parsers == []

    assert harness._RUNNERS == {"classical": harness._run_classical,
                                "quantum-global": harness._run_global,
                                "quantum-compact": harness._run_compact}
    assert tuple(harness._RUNNERS) == config.PIPELINES
