"""Exact scalar arithmetic: the rationals and prime fields.

A field object reduces whole vectors, never single scalars.  Scalars are
plain Python values: over the rationals any exact rational, ``int`` or
``fractions.Fraction``; over a prime field an ``int`` in ``range(p)``.  A
plain ``int`` is a scalar of every field, so the integer coefficients of
the resolution, the diagonal and the bar complex enter any field as they
are, and the layers that sum scalars (cochain differentials, cup products)
do it with native ``+`` and ``*``.  Floating point never appears anywhere
in this package.

A field reduces a vector in two places only.  ``normal`` puts a vector
that a layer returns in the field: it reduces each entry mod p over a
prime field and drops the entries that are zero there.  ``to_row`` is
where a vector enters the elimination, whose rows are dicts of plain ints:
it clears denominators over the rationals, reduces mod p over a prime
field, and drops the zeros.  Over the rationals an entry of type exactly
``int`` enters as it is, with no method call, so the integer columns of
an assembled matrix cost one type test per entry.  ``pivot_step`` and
``combine`` make one reduction step ``vec ← a·vec − b·row``,
``canonical`` scales a row before it is stored or returned as a
dependency, and ``from_row`` turns integer rows back into scalars.  A canonical row is already a vector of scalars.
Over the rationals a row is an integer vector, reduced fraction-free (the
a·vec step of Bareiss, *Math. Comp.* 22, 1968) and stored primitive with a
positive pivot; over a prime field its ints lie in ``range(p)``, the pivot
is 1 and a is always 1, so a step is ``vec − b·row`` mod p.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class RationalField:
    """The field of rational numbers; scalars are ``int`` or ``Fraction``."""

    name = "q"

    @staticmethod
    def normal(vec: dict):
        """vec without its zero entries, a new dict."""
        return {c: v for c, v in vec.items() if v}

    @staticmethod
    def to_row(vec: dict):
        """(row, d): the integer row d·vec without its zeros, d the lcm of the denominators.

        The input is not modified.  An entry of type exactly ``int`` is its
        own numerator; any other (``Fraction``, ``bool``) is read through
        ``as_integer_ratio``.
        """
        row = {}
        d = 1
        for c, v in vec.items():
            if type(v) is int:
                if v:
                    row[c] = v
            elif v:
                row[c], den = v.as_integer_ratio()  # one call, not two properties
                if den != 1:
                    d = lcm(d, den)
        if d != 1:
            for c in row:
                n, den = vec[c].as_integer_ratio()
                row[c] = n * (d // den)
        return row, d

    @staticmethod
    def pivot_step(vc: int, rp: int):
        """(a, b), coprime with a > 0, such that a·vc = b·rp; rp > 0."""
        g = gcd(vc, rp)
        return rp // g, vc // g

    @staticmethod
    def combine(target: dict, a: int, b: int, source: dict):
        """target ← a·target − b·source in place; cancelled entries are removed."""
        if a != 1:
            for c in target:
                target[c] *= a
        get = target.get
        for c, v in source.items():
            x = get(c, 0) - b * v
            if x:
                target[c] = x
            else:
                del target[c]

    @staticmethod
    def canonical(vec: dict, coeffs, pivot):
        """Divide (vec, coeffs) by their common content, signed so vec[pivot] > 0.

        Only a common factor keeps vec = Σ coeffs·originals; coeffs is None
        for an untracked row, which then comes out primitive.
        """
        g = gcd(*vec.values(), *(coeffs or {}).values())
        if vec[pivot] < 0:
            g = -g
        if g == 1:
            return vec, coeffs
        vec = {c: v // g for c, v in vec.items()}
        if coeffs is not None:
            coeffs = {t: v // g for t, v in coeffs.items()}
        return vec, coeffs

    @staticmethod
    def from_row(row: dict, d: int):
        """The rational vector row / d; row itself when d is 1."""
        if d == 1:
            return row
        return {c: Fraction(v, d) for c, v in row.items()}

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

    def normal(self, vec: dict):
        """vec reduced into range(p), without the entries that vanish; a new dict."""
        p = self.p
        return {c: x for c, v in vec.items() if (x := v % p)}

    def to_row(self, vec: dict):
        """(row, 1): the integer row of vec is its ``normal`` form."""
        return self.normal(vec), 1

    @staticmethod
    def pivot_step(vc: int, rp: int):
        """(1, vc): a stored row's pivot rp is 1, so vec − vc·row clears it."""
        return 1, vc

    def combine(self, target: dict, a: int, b: int, source: dict):
        """target ← target − b·source mod p in place; cancelled entries are removed.

        a is always 1 here (see ``pivot_step``).
        """
        p = self.p
        get = target.get
        for c, v in source.items():
            x = (get(c, 0) - b * v) % p
            if x:
                target[c] = x
            else:
                del target[c]

    def canonical(self, vec: dict, coeffs, pivot):
        """Scale (vec, coeffs) so that vec[pivot] is 1; coeffs may be None."""
        p = self.p
        inv = pow(vec[pivot], -1, p)
        if inv == 1:
            return vec, coeffs
        vec = {c: v * inv % p for c, v in vec.items()}
        if coeffs is not None:
            coeffs = {t: v * inv % p for t, v in coeffs.items()}
        return vec, coeffs

    def from_row(self, row: dict, d: int):
        """The vector row / d, entries reduced into range(p)."""
        p = self.p
        inv = pow(d, -1, p)
        return {c: v * inv % p for c, v in row.items()}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


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
