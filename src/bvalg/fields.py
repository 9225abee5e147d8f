"""Exact scalar arithmetic over the rationals and over prime fields.

Rationals are `fractions.Fraction` (always in lowest terms with positive
denominator); elements of F_p are canonical residues in range(p).  No
floating point is used anywhere.  `fractions` (with `decimal` and
`numbers`) is imported when the first rational field is built, and `QQ` is
built on first use, so a verb over F_p never loads it.
"""

from __future__ import annotations

from math import gcd
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    from fractions import Fraction
else:
    Fraction = None  # fractions.Fraction once a rational field is built

Scalar = Union["Fraction", int]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class FieldSpec:
    """Ground field: the rationals (characteristic 0) or F_p (characteristic p)."""

    __slots__ = ("kind", "characteristic", "_signs")

    def __init__(self, kind: str, characteristic: int):
        if kind == "rational":
            if characteristic != 0:
                raise ValueError("rational field must have characteristic 0")
            global Fraction
            import fractions
            Fraction = fractions.Fraction
        elif kind == "prime-field":
            if characteristic > 2 ** 31 - 1:  # so _is_prime tries at most 46,341 divisors
                raise ValueError(f"characteristic {characteristic} exceeds 2^31-1")
            if not _is_prime(characteristic):
                raise ValueError(f"characteristic {characteristic} is not prime")
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        self.kind = kind
        self.characteristic = characteristic
        self._signs = (self.coerce(1), self.coerce(-1))

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, FieldSpec) and self.kind == other.kind
                                 and self.characteristic == other.characteristic)

    def __hash__(self) -> int:
        return hash((self.kind, self.characteristic))

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec("rational", 0)

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        return FieldSpec("prime-field", p)

    @staticmethod
    def parse(text: str) -> "FieldSpec":
        """Parse a field name: 'Q', or 'F<p>' for a prime p."""
        t = text.strip()
        if t == "Q":
            return FieldSpec.rationals()
        if t.startswith("F") and t[1:].isdigit():
            return FieldSpec.prime(int(t[1:]))
        raise ValueError(f"unknown field {text!r} (expected Q or F<p>)")

    def __str__(self) -> str:
        return "Q" if self.kind == "rational" else f"F{self.characteristic}"

    # -- scalar arithmetic -------------------------------------------------

    def coerce(self, value) -> Scalar:
        """Bring an int or Fraction into canonical form for this field.
        A Fraction is already canonical over Q and comes back unchanged;
        over F_p it is read by its numerator and denominator, as `quotient`."""
        if type(value) is int and self.characteristic:
            return value % self.characteristic
        if isinstance(value, float):
            raise TypeError("floating point scalars are not allowed")
        if self.kind == "rational":
            return value if type(value) is Fraction else Fraction(value)
        return self.quotient(value.numerator, value.denominator)

    def quotient(self, n: int, d: int) -> Scalar:
        """n/d for integers n and d != 0: a Fraction over Q, n * d^-1 mod p
        over F_p, which needs p not to divide d once n/d is in lowest terms."""
        if self.kind == "rational":
            return Fraction(n, d)
        p = self.characteristic
        g = gcd(n, d)
        if d // g % p == 0:
            raise ZeroDivisionError(f"denominator divisible by {p}")
        return n // g * pow(d // g, -1, p) % p

    def zero(self) -> Scalar:
        return Fraction(0) if self.kind == "rational" else 0

    def one(self) -> Scalar:
        return self._signs[0]

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        s = a + b
        return s if self.kind == "rational" else s % self.characteristic

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        s = a - b
        return s if self.kind == "rational" else s % self.characteristic

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        s = a * b
        return s if self.kind == "rational" else s % self.characteristic

    def neg(self, a: Scalar) -> Scalar:
        return -a if self.kind == "rational" else (-a) % self.characteristic

    def inv(self, a: Scalar) -> Scalar:
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.kind == "rational":
            return 1 / Fraction(a)
        return pow(int(a), -1, self.characteristic)

    def is_zero(self, a: Scalar) -> bool:
        return a == 0

    def sign(self, exponent: int) -> Scalar:
        """(-1)**exponent as a field element."""
        return self._signs[exponent % 2]

    def signed(self, a: Scalar, exponent: int) -> Scalar:
        """(-1)**exponent * a, by negation: how every sign is applied."""
        return self.neg(a) if exponent % 2 else a

    # -- parsing / rendering -----------------------------------------------

    def render(self, a: Scalar) -> str:
        """Canonical exact string, parseable as a coefficient by the
        presentation parser (`dsl`)."""
        return str(a)


GF2 = FieldSpec.prime(2)


def __getattr__(name: str):
    """QQ, built on first use and then kept (PEP 562)."""
    if name != "QQ":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global QQ
    QQ = FieldSpec.rationals()
    return QQ
