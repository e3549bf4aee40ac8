"""Line-oriented algebra input format and a polynomial expression parser.

Format (UTF-8, order of lines free, '#' starts a comment):

    field: Q            # or Fp:<prime>; optional, default Q
    vars: x:1, y:1      # name:degree pairs, declaration order is the
                        # variable order of the term order
    normalization: y    # comma-separated subset of vars
    relations: x^2; ... # semicolon-separated expressions over + - * ^ ( )
                        # with integer coefficients

An emitted presentation re-parses to a structurally identical one.
"""

from __future__ import annotations

import re

from .fields import GF, QQ
from .graded import GradedAlgebra, validate_presentation
from .poly import Polynomial, PolynomialRing


class AlgebraSyntaxError(ValueError):
    def __init__(self, message, line=None, col=None):
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", column {col}" if col is not None else "")
        super().__init__(message + loc)
        self.line = line
        self.col = col


class AlgebraSemanticError(ValueError):
    def __init__(self, violations):
        super().__init__("invalid presentation: " + "; ".join(violations))
        self.violations = list(violations)


def parse_field(spec: str):
    """The field named by a field spec: Q, or Fp:<p> for a prime p."""
    spec = spec.strip()
    m = re.fullmatch(r"Q|Fp:([0-9]+)", spec)
    if not m:
        raise ValueError(f"unknown field {spec!r} (use Q or Fp:<p>)")
    return GF(int(m.group(1))) if m.group(1) else QQ


_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|[-+*^()])")


def _tokenize(text, line=None, col0=0):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise AlgebraSyntaxError(
                    f"unexpected character {text[pos:].strip()[0]!r}", line, col0 + pos + 1
                )
            break
        tokens.append((m.group(1), col0 + m.start(1) + 1))
        pos = m.end()
    return tokens


class _ExprParser:
    """Recursive descent over: expr = term (('+'|'-') term)*;
    term = factor ('*' factor)*; factor = atom ('^' int)?;
    atom = int | var | '-' factor | '(' expr ')'."""

    def __init__(self, ring, tokens, line=None):
        self.ring = ring
        self.tokens = tokens
        self.pos = 0
        self.line = line

    def _peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def _next(self):
        if self.pos >= len(self.tokens):
            raise AlgebraSyntaxError("unexpected end of expression", self.line)
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Polynomial:
        p = self.expr()
        if self.pos != len(self.tokens):
            tok, col = self.tokens[self.pos]
            raise AlgebraSyntaxError(f"unexpected token {tok!r}", self.line, col)
        return p

    def expr(self):
        sign = 1
        if self._peek() == "-":
            self._next()
            sign = -1
        elif self._peek() == "+":
            self._next()
        acc = self.term() * sign
        while self._peek() in ("+", "-"):
            op, _ = self._next()
            t = self.term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def term(self):
        acc = self.factor()
        while self._peek() == "*":
            self._next()
            acc = acc * self.factor()
        return acc

    def factor(self):
        if self._peek() == "-":
            self._next()
            return -self.factor()
        base = self.atom()
        if self._peek() == "^":
            self._next()
            tok, col = self._next()
            if not tok.isdigit():
                raise AlgebraSyntaxError("exponent must be a non-negative integer", self.line, col)
            return base ** int(tok)
        return base

    def atom(self):
        tok, col = self._next()
        if tok == "(":
            p = self.expr()
            closing, ccol = self._next()
            if closing != ")":
                raise AlgebraSyntaxError("expected ')'", self.line, ccol)
            return p
        if tok.isdigit():
            return self.ring.constant(int(tok))
        if tok in self.ring._index:
            return self.ring.variable(tok)
        raise AlgebraSyntaxError(f"unknown variable {tok!r}", self.line, col)


def parse_polynomial(ring: PolynomialRing, text: str, line=None, col0=0) -> Polynomial:
    tokens = _tokenize(text, line, col0)
    if not tokens:
        raise AlgebraSyntaxError("empty expression", line, col0 + 1)
    return _ExprParser(ring, tokens, line).parse()


def parse_algebra_text(text: str) -> GradedAlgebra:
    field = QQ
    var_line = None
    norm_line = None
    rel_line = None
    lines = text.splitlines()
    for i, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if ":" not in stripped:
            raise AlgebraSyntaxError("expected 'key: value'", i, 1)
        key, value = stripped.split(":", 1)
        key = key.strip().lower()
        if key == "field":
            try:
                field = parse_field(value)
            except ValueError as exc:
                raise AlgebraSyntaxError(str(exc), i) from exc
        elif key == "vars":
            var_line = (i, value)
        elif key == "normalization":
            norm_line = (i, value)
        elif key == "relations":
            rel_line = (i, value)
        else:
            raise AlgebraSyntaxError(f"unknown key {key!r}", i, 1)
    if var_line is None:
        raise AlgebraSyntaxError("missing 'vars:' line")
    names, degrees = [], []
    i, value = var_line
    for piece in value.split(","):
        piece = piece.strip()
        if not piece:
            continue
        m = re.fullmatch(r"([A-Za-z_][A-Za-z_0-9]*)\s*:\s*(\d+)", piece)
        if not m:
            raise AlgebraSyntaxError(f"bad variable declaration {piece!r} (want name:degree)", i)
        names.append(m.group(1))
        degrees.append(int(m.group(2)))
    try:
        ring = PolynomialRing(field, names, degrees)
    except ValueError as exc:
        raise AlgebraSemanticError([str(exc)]) from exc
    normalization = []
    if norm_line is not None:
        i, value = norm_line
        normalization = [p.strip() for p in value.split(",") if p.strip()]
    relations = []
    if rel_line is not None:
        i, value = rel_line
        for piece in value.split(";"):
            if piece.strip():
                relations.append(parse_polynomial(ring, piece, i))
    R = GradedAlgebra(ring, tuple(relations), tuple(normalization))
    problems = validate_presentation(R)
    if problems:
        raise AlgebraSemanticError(problems)
    return R


def parse_algebra_file(path) -> GradedAlgebra:
    with open(path, encoding="utf-8") as fh:
        return parse_algebra_text(fh.read())


def format_algebra(R: GradedAlgebra) -> str:
    """Emit a presentation in the input format (round-trips by parse)."""
    lines = []
    field = R.ring.field
    lines.append("field: Q" if field == QQ else f"field: Fp:{field.p}")
    lines.append("vars: " + ", ".join(f"{n}:{d}" for n, d in zip(R.ring.names, R.ring.degrees)))
    if R.normalization:
        lines.append("normalization: " + ", ".join(R.normalization))
    if R.relations:
        lines.append("relations: " + "; ".join(_expr(rel) for rel in R.relations))
    return "\n".join(lines) + "\n"


def _expr(p: Polynomial) -> str:
    """Polynomial text that the expression grammar accepts."""
    if any(getattr(c, "denominator", 1) != 1 for c in p.terms.values()):
        raise ValueError("non-integer coefficient has no file representation")
    return str(p)
