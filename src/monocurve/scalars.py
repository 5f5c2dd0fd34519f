"""Exact coefficient arithmetic.

The default field is the rationals (``fractions.Fraction``); an odd prime
field GF(p) can be selected instead for faster cross-checking runs.  The
active field is run-level configuration, chosen once before any computation
starts; the two coefficient types never mix in one run.
"""

from __future__ import annotations

import contextlib
from fractions import Fraction

DEFAULT_PRIME = 32003


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class GFElement:
    """An element of GF(p), stored as the canonical representative in [0, p)."""

    __slots__ = ("val", "p")

    def __init__(self, val: int, p: int):
        self.val = val % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, GFElement):
            if other.p != self.p:
                raise ValueError("mixed prime fields: GF(%d) vs GF(%d)" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return GFElement(other, self.p)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return GFElement(self.val + o.val, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return GFElement(self.val - o.val, self.p)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return GFElement(o.val - self.val, self.p)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return GFElement(self.val * o.val, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.val == 0:
            raise ZeroDivisionError("division by zero in GF(%d)" % self.p)
        return GFElement(self.val * pow(o.val, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GFElement(-self.val, self.p)

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.p == other.p and self.val == other.val
        if isinstance(other, int):
            return self.val == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.val, self.p))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return "GF(%d)(%d)" % (self.p, self.val)

    def __str__(self):
        return str(self.val)


class RationalField:
    name = "rational"
    key = ("rational",)
    characteristic = 0

    def coerce(self, n) -> Fraction:
        return Fraction(n)

    def __repr__(self):
        return "RationalField()"


class PrimeField:
    name = "fp"

    def __init__(self, p: int = DEFAULT_PRIME):
        if p == 2 or not is_prime(p):
            raise ValueError("prime field characteristic must be an odd prime, got %r" % (p,))
        self.p = self.characteristic = p
        self.key = ("fp", p)

    def coerce(self, n) -> GFElement:
        if isinstance(n, GFElement):
            if n.p != self.p:
                raise ValueError("element of GF(%d) in GF(%d) context" % (n.p, self.p))
            return n
        if isinstance(n, Fraction):
            if n.denominator % self.p == 0:
                raise ZeroDivisionError("denominator vanishes mod %d" % self.p)
            return GFElement(n.numerator, self.p) / GFElement(n.denominator, self.p)
        return GFElement(n, self.p)

    def __repr__(self):
        return "PrimeField(%d)" % self.p


RATIONALS = RationalField()

_active_field = RATIONALS


def active_field():
    return _active_field


def set_active_field(field) -> None:
    global _active_field
    _active_field = field


@contextlib.contextmanager
def using_field(field):
    """Temporarily switch the active field (intended for tests and suites)."""
    global _active_field
    saved = _active_field
    _active_field = field
    try:
        yield field
    finally:
        _active_field = saved


def field_from_spec(spec: str):
    """Parse a field choice: "rational", "fp", or "fp:<p>"."""
    if spec == "rational":
        return RATIONALS
    if spec == "fp":
        return PrimeField()
    if spec.startswith("fp:"):
        try:
            p = int(spec[3:])
        except ValueError:
            raise ValueError("field spec %r: the prime must be an integer" % spec) from None
        return PrimeField(p)
    raise ValueError("unknown field spec %r (expected rational|fp|fp:<p>)" % spec)
