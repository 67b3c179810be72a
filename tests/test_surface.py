"""Every public top-level name in src/qrbf has a user outside the tests.

A function or class that only tests call belongs in the test that calls
it, as its reference, and a constructor nothing calls is deleted.  This
keeps such helpers from growing back into the package.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _references(tree, strings: bool = False) -> set:
    """Identifiers a tree reads as names or attributes, and its string constants if asked."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_public_definition_is_used_by_the_package_a_demo_or_the_tracer():
    statements = [
        (path.name, stmt, _references(stmt))
        for path in sorted((ROOT / "src" / "qrbf").glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
    ]
    # the benchmark tracer wraps functions by name, owner.__dict__["name"]
    used = _references(ast.parse((ROOT / "perfbench" / "tracer.py").read_text()), strings=True)
    for demo in (ROOT / "demos").glob("*.py"):
        used |= _references(ast.parse(demo.read_text()))
    unused = [
        f"{module}: {stmt.name}"
        for module, stmt, _ in statements
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
        and stmt.name not in used
        and not any(stmt.name in refs for _, other, refs in statements if other is not stmt)
    ]
    assert unused == []


def test_a_traced_bounds_all_op_times_gen_data():
    """The suites call gen_data by harness's name, which the benchmark tracer wraps."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import tracer
    import workloads

    traced = tracer.Tracer()
    traced.install()
    try:
        traced.op = 0
        workloads.run_op("bounds-all", 0)
    finally:
        traced.restore()
    assert traced.op_metrics()[0]["harness.gen_data_s"] > 0.0
