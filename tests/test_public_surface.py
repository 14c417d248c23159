"""Every name that ``usdlab/__init__.py`` exports is used outside the tests.

A use is a reference in code: a name, an attribute, an imported name, or a
string that is the name itself (the benchmark's tracer patches functions by
name).  It counts in a package module other than ``__init__`` (the name's
own module included, but not its ``def`` or ``class`` line), in a demo, or
in a ``perfbench/`` module.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "usdlab"
# exports that only the tests reach, each with the reason it stays
ALLOWED = {
    "double_exponential_tail_sum": "ROADMAP item 5 decides",
    "double_exponential_tail_constant": "ROADMAP item 5 decides",
    "kernel_coefficient": "ROADMAP item 5 decides",
}


def exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def used_names():
    files = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return used


def test_every_export_is_used_outside_the_tests():
    unused = exports() - used_names()
    # an allowed name that gains a use leaves the list too
    assert unused == set(ALLOWED)
