"""Every definition in `src/condwrites` is used by the package itself.

A `def` or `class` whose name the package never reads, as a name, an
attribute or an import, runs on no production path, and neither does a
module-level assignment such as a table or a constant. The few that only
an outside caller reaches are listed in `OUTSIDE_CALLERS`, each with that
caller; the scan must flag exactly those, so the list can only shrink.
Dunder names are read by the language and are not scanned. Writing a name
or into it, as an assignment target does, is not reading it.

Each module also reads every name that its imports bind, except
`__init__.py`, whose imports are re-exports, and `from __future__`, which
binds nothing.
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


def package_sources() -> list[tuple[str, str]]:
    """Each module of the package as a pair of its file name and its text."""
    return [(path.name, path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))]


def unreferenced(sources=None) -> dict[str, list[str]]:
    """The names of the definitions nothing in `sources`, pairs of a file
    name and its text (by default the package's modules), refers to, each
    with the `file:line` places where it is defined."""
    defined: dict[str, list[str]] = {}
    used: set[str] = set()
    for name, text in sources or package_sources():
        tree = ast.parse(text)
        # the names bound by module-level assignments, and every def and class
        targets = [target for stmt in tree.body
                   if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                   for target in (stmt.targets if isinstance(stmt, ast.Assign)
                                  else [stmt.target])]
        definitions = [(node.id, node.lineno) for target in targets
                       for node in ast.walk(target)
                       if isinstance(node, ast.Name)
                       and isinstance(node.ctx, ast.Store)]
        stored = set()  # the names a subscript writes into, by node id
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                definitions.append((node.name, node.lineno))
            elif isinstance(node, ast.Subscript):
                if not isinstance(node.ctx, ast.Load):
                    stored.add(id(node.value))
            elif isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load) and id(node) not in stored:
                    used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
        for defined_name, line in definitions:
            if not (defined_name.startswith("__")
                    and defined_name.endswith("__")):
                defined.setdefault(defined_name, []).append(f"{name}:{line}")
    return {name: where for name, where in defined.items() if name not in used}


def unread_imports(sources=None) -> dict[str, list[str]]:
    """The names that an import binds in one of `sources` (as for
    `unreferenced`) and that module never reads, each with the `file:line`
    places of those imports."""
    unread: dict[str, list[str]] = {}
    for name, text in sources or package_sources():
        if name == "__init__.py":
            continue
        tree = ast.parse(text)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unread.setdefault(bound, []).append(f"{name}:{node.lineno}")
    return unread


def test_every_definition_is_referenced():
    assert set(unreferenced()) == OUTSIDE_CALLERS, unreferenced()


def test_every_import_is_read():
    assert unread_imports() == {}


def test_the_scan_sees_names_attributes_and_imports():
    # a reference by name, as an attribute or in an import keeps a
    # definition alive, in the same module or another; dunders are skipped,
    # and a module-level name that is only written is flagged
    a = """
class Box:
    def __init__(self): ...
    def attr(self): ...
    def dead_method(self): ...
def by_name(): ...
def imported(): ...
def dead(): ...
by_name(Box().attr())
__all__ = ["by_name"]
TABLE: dict = {}
WRITTEN, READ = {}, {}
WRITTEN[1] = READ.get(1)
"""
    b = "from a import imported\n"
    assert unreferenced([("a.py", a), ("b.py", b)]) == {
        "dead_method": ["a.py:5"], "dead": ["a.py:8"],
        "TABLE": ["a.py:11"], "WRITTEN": ["a.py:12"]}


def test_the_import_scan_flags_a_name_its_module_never_reads():
    # b imports `imported` and never reads it; `__future__` and the
    # re-exports of `__init__.py` are skipped, and an alias or a dotted
    # import binds the name its module reads
    b = "from __future__ import annotations\nfrom a import imported\n"
    c = "import os.path\nfrom a import by_name as call\ncall(os.sep)\n"
    init = "from a import by_name\n"
    assert unread_imports([("b.py", b), ("c.py", c), ("__init__.py", init)]) == {
        "imported": ["b.py:2"]}
