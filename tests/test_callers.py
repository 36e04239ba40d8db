"""Every public function, class and class member in ``src/specrcv`` has a caller.

A definition counts as called when code outside its own body names it: in any
``specrcv`` module, or anywhere under ``perfbench/``, whose tracing table
names the functions it wraps as strings. The tests do not count, so an API
that only tests reach fails here.

Members are the public methods, properties and classmethods of public
classes. A member's body does not count as its own caller, but the other
members of its class do. Matching is by name, as for top-level definitions:
a member whose name is also used for something else (``mean``, ``cdf``) counts
as called wherever that name appears.
"""
import ast
from pathlib import Path

import specrcv

SRC = Path(specrcv.__file__).resolve().parent
PERFBENCH = SRC.parents[1] / "perfbench"


def _names(node, strings: bool) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def _modules() -> dict[str, list[ast.stmt]]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")).body
            for path in sorted(SRC.glob("*.py"))}


def _public(nodes, kinds) -> list:
    return [node for node in nodes if isinstance(node, kinds) and not node.name.startswith("_")]


def _units(modules) -> list[tuple[ast.stmt, ast.AST, set[str]]]:
    """(top-level statement, part, names the part uses) for every part of the program.

    A class splits into its header (decorators and bases) and its body
    statements, so that each member's names are kept apart from the others'.
    """
    units = []
    for module, body in modules.items():
        for node in body:
            if isinstance(node, ast.ClassDef):
                header = [*node.decorator_list, *node.bases, *node.keywords]
                units.append((node, node, set().union(*(_names(h, strings=False)
                                                        for h in header))))
                units += [(node, stmt, _names(stmt, strings=False)) for stmt in node.body]
            else:
                units.append((node, node, _names(node, strings=False)))
    return units


def _uncalled() -> list[str]:
    modules = _modules()
    units = _units(modules)
    bench = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        bench |= _names(ast.parse(path.read_text(encoding="utf-8")), strings=True)

    def called(name: str, skip) -> bool:
        return name in bench or any(name in names for top, part, names in units
                                    if not skip(top, part))

    out = []
    for module, body in modules.items():
        for node in _public(body, (ast.FunctionDef, ast.ClassDef)):
            if not called(node.name, lambda top, part: top is node):
                out.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                out += [f"{module}.{node.name}.{member.name}"
                        for member in _public(node.body, ast.FunctionDef)
                        if not called(member.name, lambda top, part: part is member)]
    return out


def test_every_public_definition_has_a_caller():
    assert _uncalled() == []
