"""Every module-level import in the package is used in its module."""

import ast
import importlib
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "mcmrep"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
assert MODULES


def unused_imports(source: str):
    """Names bound by module-level imports that no expression in the module
    reads.  __init__ re-exports are not checked here."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [(name, line) for name, line in bound if name not in used]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, sys\nfrom a import b as c, d\nprint(sys, d)\n"
    assert unused_imports(source) == [("os", 2), ("c", 3)]


def test_no_unused_module_level_imports():
    found = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in MODULES}
    assert {name: unused for name, unused in found.items() if unused} == {}


TRACER = PACKAGE.parent.parent / "perfbench" / "tracer.py"


def tracer_targets():
    """The (module, attribute path) pairs of SPANNED and COUNTED in the
    benchmark's tracer, read from its source without importing it."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    tables = {}
    for node in tree.body:
        name = getattr(node.targets[0], "id", None) if isinstance(node, ast.Assign) else None
        if name in ("SPANNED", "COUNTED"):
            tables[name] = ast.literal_eval(node.value)
    assert set(tables) == {"SPANNED", "COUNTED"}
    return [(module, path) for module, path, _ in tables["SPANNED"] + tables["COUNTED"]]


def test_tracer_targets_resolve():
    # a rename or deletion in src would otherwise surface only in a traced run
    missing = []
    for module, path in tracer_targets():
        owner = importlib.import_module(f"mcmrep.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module}.{path}")
    assert missing == []


def test_from_matrix_is_a_staticmethod():
    # the tracer rewraps GroupElement.from_matrix as a staticmethod
    from mcmrep.orbits import GroupElement

    assert isinstance(vars(GroupElement)["from_matrix"], staticmethod)
