"""Every definition in `src/condwrites` is used by the package itself.

A `def` or `class` whose name the package never reads, as a name, an
attribute or an import, runs on no production path. The few that only an
outside caller reaches are listed in `OUTSIDE_CALLERS`, each with that
caller; the scan must flag exactly those, so the list can only shrink.
Dunder methods are called by the language and are not scanned.
"""

import ast
from pathlib import Path

import condwrites

SRC = Path(condwrites.__file__).parent

OUTSIDE_CALLERS = {
    # `perfbench/tracing.Tracer.install` patches it by name
    "stabilise",
    # `perfbench/tracing.Tracer.install` patches it by name
    "stabilise_fix",
    # `perfbench/workloads._fits_budget` counts a thread's points with it
    "statements",
}


def unreferenced(sources=None) -> dict[str, list[str]]:
    """The names of the definitions nothing in `sources`, pairs of a file
    name and its text (by default the package's modules), refers to, each
    with the `file:line` places where it is defined."""
    if sources is None:
        sources = [(path.name, path.read_text(encoding="utf-8"))
                   for path in sorted(SRC.glob("*.py"))]
    defined: dict[str, list[str]] = {}
    used: set[str] = set()
    for name, text in sources:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, []).append(
                        f"{name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return {name: where for name, where in defined.items() if name not in used}


def test_every_definition_is_referenced():
    assert set(unreferenced()) == OUTSIDE_CALLERS, unreferenced()


def test_the_scan_sees_names_attributes_and_imports():
    # a reference by name, as an attribute or in an import keeps a
    # definition alive, in the same module or another; dunders are skipped
    a = """
class Box:
    def __init__(self): ...
    def attr(self): ...
    def dead_method(self): ...
def by_name(): ...
def imported(): ...
def dead(): ...
by_name(Box().attr())
"""
    b = "from a import imported\n"
    assert unreferenced([("a.py", a), ("b.py", b)]) == {
        "dead_method": ["a.py:5"], "dead": ["a.py:8"]}
