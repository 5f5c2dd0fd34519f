"""Monomial ideals in T': minimal generators, sums, colons by a monomial,
membership, the Artinian test, and the staircase of an Artinian ideal.
One exponent trie answers membership and yields each standard monomial once
(after Bigatti, JPAA 1997); lengths count that walk and `monomials_between`
filters it.

Generators are exponent tuples, always stored minimal and sorted by
(degree, exponents), so two equal ideals are structurally identical and
every report is deterministic.
"""

from __future__ import annotations

from .order import GREVELEX
from .poly import sort_key


class _DivisorIndex:
    """Exponent trie answering "does a stored monomial divide m".

    The stored monomials must be minimal: none divides another.  Levels are
    keyed by the exponent of x_d, then x_{d-1}, down to x_3; the deepest level
    maps the x_3 exponent to the x_2 exponent of the one monomial stored under
    that path, so it needs no further recursion.  (With one variable the
    deepest level has the single key 0.)  The curve ideals are sums of
    powers of (x_{i+1}, ..., x_d), so the last variables split the stored
    monomials best, which is why the trie starts there.
    """

    __slots__ = ("root", "top")

    def __init__(self, varcount: int):
        self.root: dict = {}
        self.top = varcount - 1  # position of the variable keyed at the root

    def insert(self, exps) -> None:
        node = self.root
        for p in range(self.top, 1, -1):
            node = node.setdefault(exps[p], {})
        node[exps[1] if self.top else 0] = exps[0]

    def has_divisor(self, exps) -> bool:
        return _has_divisor(self.root, exps, self.top)

    def standard_monomials(self):
        """Each monomial divisible by no stored monomial, once.  Needs a pure
        power of every variable among the stored monomials (a finite staircase)."""
        if self.top == 0:
            return ((e,) for e in range(self.root[0]))
        return _standard_walk([self.root], self.top)


def _has_divisor(node: dict, exps, p: int) -> bool:
    if p <= 1:
        e1 = exps[1] if p else 0
        e0 = exps[0]
        for key, low in node.items():
            if key <= e1 and low <= e0:
                return True
        return False
    e = exps[p]
    for key, child in node.items():
        if key <= e and _has_divisor(child, exps, p - 1):
            return True
    return False


def _standard_walk(nodes: list, p: int):
    """Yield the standard monomials in x_2..x_{p+2}, as tuples of length p+1,
    over a fixed prefix of the later exponents; `nodes` are the level-p
    subtries whose paths divide it.

    The monomials under an exponent e of x_{p+2} change only where e reaches
    a key, so they are walked once per key and reused up to the next.
    Standard monomials form an order ideal: once a key has none, no later
    key has any, and the staircase is finite, so the last key has none.
    """
    by_key: dict = {}
    for node in nodes:
        for key, sub in node.items():
            by_key.setdefault(key, []).append(sub)
    keys = sorted(by_key)
    below: list = []
    least = None
    for key, next_key in zip(keys, keys[1:]):
        if p == 1:
            # the least x_2 exponent among the monomials with x_3 exponent <= key
            low = min(by_key[key])
            least = low if least is None else min(least, low)
            lower = [(e,) for e in range(least)]
        else:
            below += by_key[key]
            lower = list(_standard_walk(below, p - 1))
        if not lower:
            return
        for e in range(key, next_key):
            for m in lower:
                yield m + (e,)


def minimal_generators(monomials) -> tuple:
    """Minimalize: drop every monomial divisible by another; idempotent."""
    out: list[tuple] = []
    index = None
    for m in sorted(set(monomials), key=sort_key):
        if not any(m):
            return (m,)  # unit ideal
        if index is None:
            index = _DivisorIndex(len(m))
        elif index.has_divisor(m):
            continue
        index.insert(m)
        out.append(m)
    return tuple(out)


def monomials_of_degree(varcount: int, degree: int):
    """All exponent tuples of the given total degree, lexicographically."""
    if varcount == 0:
        if degree == 0:
            yield ()
        return
    if varcount == 1:
        yield (degree,)
        return
    for e in range(degree, -1, -1):
        for rest in monomials_of_degree(varcount - 1, degree - e):
            yield (e,) + rest


class MonomialIdeal:
    """A monomial ideal, generated by exponent tuples of length `varcount`.

    The zero ideal is the empty generator set; the unit ideal is generated by
    the constant monomial.
    """

    __slots__ = ("gens", "varcount", "_index")

    def __init__(self, monomials, varcount: int):
        if varcount < 1:
            raise ValueError("a monomial ideal needs at least one variable")
        monomials = list(monomials)
        for m in monomials:
            if len(m) != varcount:
                raise ValueError("generator %r has %d variables, ideal has %d"
                                 % (m, len(m), varcount))
            if min(m) < 0:
                raise ValueError("negative exponent in %r" % (m,))
        self.gens = minimal_generators(monomials)
        self.varcount = varcount
        self._index = None  # the divisor index, built on the first membership test

    @classmethod
    def zero(cls, varcount: int) -> "MonomialIdeal":
        return cls((), varcount)

    @classmethod
    def unit(cls, varcount: int) -> "MonomialIdeal":
        return cls(((0,) * varcount,), varcount)

    def is_zero(self) -> bool:
        return not self.gens

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.varcount == other.varcount
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.varcount, self.gens))

    def __repr__(self):
        return "MonomialIdeal[%s]" % ", ".join("x^%r" % (g,) for g in self.gens)

    # -- membership -----------------------------------------------------

    def contains(self, m: tuple) -> bool:
        """Monomial membership: some generator divides m."""
        return (self._index or self._build_index()).has_divisor(m)

    def _build_index(self) -> _DivisorIndex:
        index = self._index = _DivisorIndex(self.varcount)
        for g in self.gens:
            index.insert(g)
        return index

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        return all(self.contains(g) for g in other.gens)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if self.varcount != other.varcount:
            raise ValueError("variable count mismatch: %d vs %d" % (self.varcount, other.varcount))
        return MonomialIdeal(self.gens + other.gens, self.varcount)

    def colon_mon(self, m: tuple) -> "MonomialIdeal":
        """(I : m), generated by g / gcd(g, m)."""
        if len(m) != self.varcount:
            raise ValueError("variable count mismatch")
        return MonomialIdeal(
            [tuple(max(a - b, 0) for a, b in zip(g, m)) for g in self.gens], self.varcount
        )

    # -- Artinian structure ----------------------------------------------

    def is_artinian(self) -> bool:
        """True iff every variable has a pure power among the generators."""
        for v in range(self.varcount):
            if not any(sum(g) == g[v] for g in self.gens):
                return False
        return True

    def length_quotient(self) -> int:
        """Number of monomials outside the ideal (the staircase length)."""
        if not self.is_artinian():
            raise ValueError("length of a non-Artinian quotient is infinite")
        return sum(1 for _ in (self._index or self._build_index()).standard_monomials())


def monomials_between(inner: MonomialIdeal, outer: MonomialIdeal) -> list[tuple]:
    """Monomials lying in `outer` but not in `inner`, by degree and then in
    decreasing lex order; `inner` must be Artinian.

    Filters the staircase of `inner` through `outer`.
    """
    if not inner.is_artinian():
        raise ValueError("difference against a non-Artinian ideal is infinite")
    walk = (inner._index or inner._build_index()).standard_monomials()
    return sorted(filter(outer.contains, walk), key=GREVELEX.key)
