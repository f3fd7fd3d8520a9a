"""Exact scalar arithmetic: the integers, the rationals and prime fields.

A field object bundles the scalar operations used by the sparse linear
algebra and the cochain complex.  Scalars are plain Python values:
``fractions.Fraction`` over the rationals, ``int`` in ``range(p)`` over a
prime field.  Floating point never appears anywhere in this package.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd


class IntegerRing:
    """The integers, scalars of the resolution and the diagonal.

    Only the ring operations a ``Combination`` needs; there is no division.
    """

    zero = 0
    add = staticmethod(operator.add)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)
    is_zero = staticmethod(operator.not_)


class RationalField:
    """The field of rational numbers, scalars are ``Fraction``."""

    name = "q"
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def div(self, a, b):
        return a / b

    def is_zero(self, a) -> bool:
        return a == 0

    def normalize_row(self, vec: dict):
        """Scale a sparse vector to a primitive integer vector.

        The result has integer entries with content 1 and a positive entry
        at the smallest index.  Returns a new dict; input is not modified.
        """
        if not vec:
            return {}
        denom_lcm = 1
        for v in vec.values():
            d = v.denominator
            denom_lcm = denom_lcm * d // gcd(denom_lcm, d)
        content = 0
        for v in vec.values():
            content = gcd(content, abs(v.numerator * (denom_lcm // v.denominator)))
        scale = Fraction(denom_lcm, content)
        if vec[min(vec)] < 0:
            scale = -scale
        return {c: v * scale for c, v in vec.items()}

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "QQ"


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve primes, which is exact for n < 2**64."""
    if n < 2 or any(n % a == 0 for a in _WITNESSES):
        return n in _WITNESSES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    d = (n - 1) >> s
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


class PrimeField:
    """The field with p elements, p < 2**64; scalars are ints in ``range(p)``."""

    def __init__(self, p: int):
        if p >= 2**64:
            raise ValueError("prime modulus must be below 2^64")
        if not _is_prime(p):
            raise ValueError(f"not a prime: {p}")
        self.p = p
        self.name = f"fp:{p}"
        self.zero = 0
        self.one = 1 % p

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def div(self, a, b):
        if b % self.p == 0:
            raise ZeroDivisionError("division by zero in prime field")
        return (a * pow(b, -1, self.p)) % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def normalize_row(self, vec: dict):
        """Scale so the entry at the smallest index is 1."""
        if not vec:
            return {}
        inv = pow(vec[min(vec)], -1, self.p)
        return {c: (v * inv) % self.p for c, v in vec.items()}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


ZZ = IntegerRing()
QQ = RationalField()


def parse_field_spec(spec: str):
    """Parse a field descriptor: ``q`` or ``fp:<prime>``, the prime below 2**64."""
    s = spec.strip().lower()
    if s == "q":
        return QQ
    if s.startswith("fp:"):
        try:
            p = int(s[3:])
        except ValueError:
            raise ValueError(f"bad prime in field spec {spec!r}") from None
        return PrimeField(p)
    raise ValueError(f"unknown field spec {spec!r} (expected 'q' or 'fp:<prime>')")
