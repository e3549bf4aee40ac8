"""Exact base fields: arbitrary-precision rationals and prime fields.

Field elements are plain Python values: a rational is an int when it is
integral and a Fraction otherwise, and a prime field element is its
canonical int representative in [0, p).  The field object supplies the
arithmetic so that polynomial code stays generic.
"""

from __future__ import annotations

from fractions import Fraction

_PRIME_CAP = 2**31


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _rational(x):
    """x (an int or a Fraction) as an int when it is integral."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


class RationalField:
    """The field of rational numbers.

    An integral element is an int and any other element a Fraction, so the
    small integer coefficients of most ideals cost no gcd.  The two types
    compare, hash and print alike, so this choice is invisible outside.
    """

    characteristic = 0

    def coerce(self, x):
        if type(x) is int:
            return x
        return _rational(x if type(x) is Fraction else Fraction(x))

    def add(self, a, b):
        return _rational(a + b)

    def sub(self, a, b):
        return _rational(a - b)

    def mul(self, a, b):
        return _rational(a * b)

    def submul(self, w, a, b):
        """w - a * b, one call for the inner step of a reduction."""
        return _rational(w - a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _rational(Fraction(1, a))

    def div(self, a, b):
        return _rational(Fraction(a, b))

    def is_zero(self, a) -> bool:
        return a == 0

    zero = 0
    one = 1

    def elements(self):
        raise TypeError("QQ is not enumerable")

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The prime field F_p; elements are ints in [0, p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p >= _PRIME_CAP:
            raise ValueError(f"prime {p} exceeds the 2^31 cap")
        self.p = p

    @property
    def characteristic(self) -> int:
        return self.p

    def coerce(self, x) -> int:
        if isinstance(x, Fraction):
            if x.denominator == 1:
                return x.numerator % self.p
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return x.numerator * self.inv(x.denominator % self.p) % self.p
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def submul(self, w, a, b):
        """w - a * b, one call for the inner step of a reduction."""
        return (w - a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def elements(self):
        return range(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)
