"""Every public function and class in ``src/specrcv`` has a caller in the program.

A definition counts as called when code outside its own body names it: in any
``specrcv`` module, or anywhere under ``perfbench/``, whose tracing table
names the functions it wraps as strings. The package ``__init__`` does not
count, since its export table names everything, and neither do the tests, so
an API that only tests reach fails here unless it is allow-listed below.
"""
import ast
from pathlib import Path

import specrcv

SRC = Path(specrcv.__file__).resolve().parent
PERFBENCH = SRC.parents[1] / "perfbench"

# Reached only from tests, on purpose: the closed-form square-root law is the
# reference that criteria 1, 2 and 5 compare against. MPLawParams, mp_support,
# mp_density and mp_mass_at_zero are called through it.
TEST_ONLY = {"mp_law_curve"}


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


def _public_definitions(modules) -> list[tuple[str, ast.stmt]]:
    return [(module, node) for module, body in modules.items() for node in body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _uncalled() -> list[str]:
    modules = _modules()
    # Names used by each top-level statement, so that a definition's own body
    # can be left out of its callers.
    used = [(node, _names(node, strings=False))
            for module, body in modules.items() if module != "__init__" for node in body]
    bench = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        bench |= _names(ast.parse(path.read_text(encoding="utf-8")), strings=True)
    return [f"{module}.{node.name}" for module, node in _public_definitions(modules)
            if node.name not in bench | TEST_ONLY
            and not any(node.name in names for other, names in used if other is not node)]


def test_every_public_definition_has_a_caller():
    assert _uncalled() == []


def test_allow_list_names_existing_definitions():
    assert TEST_ONLY <= {node.name for _, node in _public_definitions(_modules())}
