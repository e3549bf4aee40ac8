from fractions import Fraction

import pytest

from mcmrep.families import example_algebra_x2
from mcmrep.fields import GF, QQ
from mcmrep.graded import GradedAlgebra, validate_presentation
from mcmrep.parsing import (
    AlgebraSemanticError,
    AlgebraSyntaxError,
    format_algebra,
    parse_algebra_text,
    parse_field,
    parse_polynomial,
)
from mcmrep.poly import PolynomialRing

X2_TEXT = """\
# the running example
field: Q
vars: x:1, y:1
normalization: y
relations: x^2
"""


def test_parse_x2_preset():
    R = parse_algebra_text(X2_TEXT)
    assert R == example_algebra_x2()
    assert validate_presentation(R) == []


def test_parse_empty_relations_is_polynomial_ring():
    R = parse_algebra_text("vars: y:1\nnormalization: y\n")
    assert R.relations == ()
    assert validate_presentation(R) == []


def test_parse_prime_field():
    R = parse_algebra_text("field: Fp:5\nvars: x:1\nnormalization: x\n")
    assert R.ring.field == GF(5)


def test_parse_field_specs():
    assert parse_field("Q") == QQ
    assert parse_field(" Fp:7 ") == GF(7)
    for spec in ("F7", "Fp:abc", "Fp:", "GF(7)", "q"):
        with pytest.raises(ValueError, match=r"^unknown field .* \(use Q or Fp:<p>\)$"):
            parse_field(spec)
    with pytest.raises(ValueError, match="^4 is not prime$"):
        parse_field("Fp:4")


def test_bad_field_line_carries_its_line_number():
    for spec, message in (("Fp:abc", "unknown field 'Fp:abc'"), ("Fp:9", "9 is not prime")):
        with pytest.raises(AlgebraSyntaxError, match=message) as exc:
            parse_algebra_text(f"vars: x:1\nfield: {spec}\nnormalization: x\n")
        assert exc.value.line == 2


def test_inhomogeneous_relation_is_semantic_error():
    with pytest.raises(AlgebraSemanticError) as exc:
        parse_algebra_text("vars: x:1, y:1\nnormalization: y\nrelations: x^2 + y\n")
    assert any("not homogeneous" in v for v in exc.value.violations)


def test_syntax_error_carries_location():
    with pytest.raises(AlgebraSyntaxError) as exc:
        parse_algebra_text("vars: x:1\nnormalization: x\nrelations: x +% x\n")
    assert exc.value.line == 3
    assert exc.value.col is not None


def test_unknown_variable_rejected():
    with pytest.raises(AlgebraSyntaxError, match="unknown variable"):
        parse_algebra_text("vars: x:1\nnormalization: x\nrelations: x*z\n")


def test_round_trip():
    for text in (
        X2_TEXT,
        "field: Fp:7\nvars: x:2, y:1, z:3\nnormalization: y, z\nrelations: x^2 - y*z + 3*y^4; z^2*x\n",
    ):
        R = parse_algebra_text(text)
        assert parse_algebra_text(format_algebra(R)) == R


def test_format_algebra_text_is_pinned():
    # negative leading terms, +-1 coefficients and constant terms, over QQ
    # and F_7; relations need not be homogeneous to be printed
    ring = PolynomialRing(QQ, ("x", "y", "z"), (1, 1, 2))
    texts = ("-x^3 + 2*x*y^2 - y*z", "x*y - 1", "-3*x + y - 7", "-1", "x^2*z - z^2 + 5")
    R = GradedAlgebra(ring, [parse_polynomial(ring, t) for t in texts], ("y", "z"))
    assert format_algebra(R) == (
        "field: Q\nvars: x:1, y:1, z:2\nnormalization: y, z\n"
        "relations: -x^3 + 2*x*y^2 - y*z; x*y - 1; -3*x + y - 7; -1; x^2*z - z^2 + 5\n"
    )
    f7 = PolynomialRing(GF(7), ("x", "y"))
    R = GradedAlgebra(f7, [parse_polynomial(f7, t) for t in ("-x^2 + y", "x*y - 1")], ("y",))
    assert format_algebra(R) == (
        "field: Fp:7\nvars: x:1, y:1\nnormalization: y\nrelations: 6*x^2 + y; x*y + 6\n"
    )


def test_format_algebra_refuses_non_integer_coefficients():
    ring = PolynomialRing(QQ, ("x", "y"))
    x, y = ring.gens()
    R = GradedAlgebra(ring, (x * x * Fraction(1, 2) + y * y,), ("y",))
    with pytest.raises(ValueError, match="non-integer coefficient has no file representation"):
        format_algebra(R)


def test_expression_grammar():
    ring = PolynomialRing(QQ, ("x", "y"))
    x, y = ring.gens()
    assert parse_polynomial(ring, "x^2 - 2*x*y + y^2") == (x - y) ** 2
    assert parse_polynomial(ring, "-(x + y) * (x - y)") == y * y - x * x
    assert parse_polynomial(ring, "3") == ring.constant(3)
    with pytest.raises(AlgebraSyntaxError):
        parse_polynomial(ring, "x +")
    with pytest.raises(AlgebraSyntaxError):
        parse_polynomial(ring, "x ^ y")
