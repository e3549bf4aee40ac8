"""Load the mcmrep package from the checkout's own ``src`` directory.

Every benchmark call goes through the module attributes of the namespace that
``load`` returns, so a tracer that replaces those attributes sees the calls.
"""

from __future__ import annotations

import importlib
import os
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

MODULES = (
    "fields", "poly", "groebner", "graded", "matops", "linalg",
    "repvariety", "orbits", "families", "parsing", "cli",
)


class MissingProgramError(RuntimeError):
    """The checkout holds no mcmrep sources to benchmark."""


def load():
    """Import mcmrep afresh from ``<checkout>/src`` and return its modules.

    Any earlier import is dropped first, so repeated calls time a cold
    import (with warm bytecode caches) each time.
    """
    init = os.path.join(SRC, "mcmrep", "__init__.py")
    if not os.path.isfile(init):
        raise MissingProgramError(f"no mcmrep package at {init}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "mcmrep" or n.startswith("mcmrep.")]:
        del sys.modules[name]
    pkg = importlib.import_module("mcmrep")
    if os.path.abspath(pkg.__file__) != init:
        raise MissingProgramError(f"mcmrep imported from {pkg.__file__}, not {init}")
    mods = {name: importlib.import_module(f"mcmrep.{name}") for name in MODULES}
    return types.SimpleNamespace(package=pkg, **mods)


def algebra(mc, field, names, relations, normalization):
    """GradedAlgebra k[names]/(relations) over ``field``, all variables of degree 1."""
    ring = mc.poly.PolynomialRing(field, names)
    rels = tuple(mc.parsing.parse_polynomial(ring, text) for text in relations)
    return mc.graded.GradedAlgebra(ring, rels, normalization)


# name -> (variables, relations, normalization)
ALGEBRAS = {
    "x2": (("x", "y"), ("x^2",), ("y",)),
    "x3": (("x", "y"), ("x^3",), ("y",)),
    "xz": (("x", "z", "y"), ("x^2", "x*z", "z^2"), ("y",)),
    "x2y2": (("x", "y"), ("x^2 + y^2",), ("y",)),
    "x2s2": (("x", "y", "w"), ("x^2",), ("y", "w")),
}


def named_algebra(mc, name, field):
    return algebra(mc, field, *ALGEBRAS[name])


def field_of(mc, spec):
    """'QQ' or 'GF(p)' -> field object."""
    if spec == "QQ":
        return mc.fields.QQ
    return mc.fields.GF(int(spec[3:-1]))
