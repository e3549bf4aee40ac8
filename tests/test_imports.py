"""Every module-level import in the package is used in its module, and every
module-level private function is referenced in the package."""

import ast
import importlib
import pathlib
import subprocess
import sys

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


def unreferenced_helpers(sources):
    """(module, name) of each module-level function whose name starts with
    an underscore and that no code in sources, a {module: text} map,
    references outside its own body."""
    trees = {module: ast.parse(text) for module, text in sources.items()}

    def referenced(node):
        return [
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        ]

    counts = {}
    for tree in trees.values():
        for name in referenced(tree):
            counts[name] = counts.get(name, 0) + 1
    return [
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and counts.get(node.name, 0) == referenced(node).count(node.name)
    ]


def test_unreferenced_helpers_are_found():
    sources = {
        "a": "def _used(): pass\ndef _dead(): return _dead()\n",
        "b": "from a import _used\n_used()\n",
    }
    assert unreferenced_helpers(sources) == [("a", "_dead")]


def test_no_unreferenced_private_helpers():
    # a helper that a rewrite replaced would otherwise linger in src
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unreferenced_helpers(sources) == []


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


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # a fresh interpreter without site, so that nothing else imports them
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
        "import mcmrep.cli\n"
        "print(sorted(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
