"""Monomial ideals in T': minimal generators, sums, colons by a monomial,
membership, the Artinian test, and the staircase of an Artinian ideal.

Divisibility masks answer "does a stored generator divide m", for
minimalization and membership alike (after Bachmann & Schoenemann, ISSAC
1998).  An exponent trie only walks or counts the staircase, per range of
exponent keys (after Bigatti, JPAA 1997): lengths count it without listing
it, and `monomials_between` filters the walk.

Generators are exponent tuples, always stored minimal and sorted by
(degree, exponents), so two equal ideals are structurally identical and
every report is deterministic.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import reduce
from itertools import groupby
from operator import and_, getitem, sub

from .order import GREVELEX


class _DivisorMasks:
    """Bitsets answering "does a stored monomial divide m".

    Bit i stands for the i-th stored monomial, and bit i of below[p][e] is
    set iff that monomial's exponent of variable p is at most e.  So some
    stored monomial divides m iff the AND over p of below[p][m[p]] is
    nonzero.  The tables run from exponent 0 to the largest stored one, and
    a query exponent above it reads the top entry.
    """

    __slots__ = ("below", "tops", "size")

    def __init__(self, tops: list):
        self.below = [[0] * (top + 1) for top in tops]
        self.tops = tops
        self.size = 0

    def add(self, batch: list) -> None:
        """Store the monomials of `batch` as the next bits; their exponents
        must lie within the tables."""
        shift = self.size
        ones = [1 << i for i in range(len(batch))]
        for table, column in zip(self.below, zip(*batch)):
            exact = [0] * len(table)
            for e, one in zip(column, ones):
                exact[e] |= one
            run = 0
            for e, bits in enumerate(exact):
                run |= bits
                if run:
                    table[e] |= run << shift
        self.size += len(batch)

    def has_divisor(self, m: tuple) -> bool:
        if min(m) < 0:
            return False  # no monomial divides one with a negative exponent
        return reduce(and_, map(getitem, self.below, map(min, m, self.tops))) != 0


class _Staircase:
    """Exponent trie over minimal monomials that walks or counts the monomials
    none of them divides; needs a pure power of every variable among them (a
    finite staircase).

    Levels are keyed by the exponent of x_d, then x_{d-1}, down to x_3; the
    deepest level maps the x_3 exponent to the x_2 exponent of the one
    monomial stored under that path.  (With one variable the deepest level
    has the single key 0.)  The curve ideals are sums of powers of
    (x_{i+1}, ..., x_d), so the last variables split the stored monomials
    best, which is why the trie starts there.
    """

    __slots__ = ("root", "top")

    def __init__(self, gens):
        self.root: dict = {}
        self.top = len(gens[0]) - 1  # position of the variable keyed at the root
        for g in gens:
            node = self.root
            for p in range(self.top, 1, -1):
                node = node.setdefault(g[p], {})
            node[g[1] if self.top else 0] = g[0]

    def standard_monomials(self):
        """Each monomial divisible by no stored monomial, once."""
        if self.top == 0:
            return ((e,) for e in range(self.root[0]))
        return _walk(self._top_level(), self.top)

    def count(self) -> int:
        """How many monomials no stored monomial divides."""
        if self.top == 0:
            return self.root[0]
        return _count(self._top_level(), self.top)

    def _top_level(self) -> dict:
        return {key: [child] for key, child in self.root.items()}


def _key_ranges(level: dict, p: int):
    """Merge one trie level by key, for the walk and the count alike.

    `level` maps each x_{p+2} exponent key to the list of level-(p-1)
    subtries stored under it.  For each range [key, next_key) between
    consecutive keys, in order, yield it with what lies under it: if p == 1,
    the least x_2 exponent among the monomials whose x_3 exponent is at most
    key; else the level-(p-1) subtries under keys at most key, merged by
    their own keys (one dict, extended from range to range).  The standard
    monomials over a fixed prefix of the later exponents change only where
    the x_{p+2} exponent reaches a key.
    """
    keys = sorted(level)
    merged: dict = {}
    least = None
    for key, next_key in zip(keys, keys[1:]):
        if p == 1:
            low = min(level[key])
            least = low if least is None else min(least, low)
            yield key, next_key, least
            continue
        for node in level[key]:
            for k, child in node.items():
                merged.setdefault(k, []).append(child)
        yield key, next_key, merged


def _walk(level: dict, p: int):
    """Yield the standard monomials in x_2..x_{p+2}, as tuples of length p+1,
    over a fixed prefix of the later exponents; `level` holds the level-p
    subtries whose paths divide it, merged by key.

    Those under a key range are walked once and reused across it.  Standard
    monomials form an order ideal: once a key has none, no later key has
    any, and the staircase is finite, so the last key has none.
    """
    for key, next_key, under in _key_ranges(level, p):
        lower = [(e,) for e in range(under)] if p == 1 else list(_walk(under, p - 1))
        if not lower:
            return
        for e in range(key, next_key):
            for m in lower:
                yield m + (e,)


def _count(level: dict, p: int) -> int:
    """How many monomials `_walk(level, p)` yields, one product per key range."""
    total = 0
    for key, next_key, under in _key_ranges(level, p):
        lower = under if p == 1 else _count(under, p - 1)
        if not lower:
            break
        total += (next_key - key) * lower
    return total


def minimal_generators(monomials) -> tuple:
    """Minimalize: drop every monomial divisible by another; idempotent.

    The monomials, exponent tuples of one length, are walked by degree; one
    is kept iff no monomial kept at a lower degree divides it, since no
    monomial properly divides another of its degree.
    """
    ms = list(set(monomials))
    if not ms:
        return ()
    ms.sort()
    ms.sort(key=sum)  # stable: by (degree, exponents), as `poly.sort_key`
    if len(set(map(len, ms))) > 1:
        raise ValueError("monomials of different lengths: %r" % (sorted(set(map(len, ms))),))
    columns = list(zip(*ms))
    if min(map(min, columns), default=0) < 0:
        raise ValueError("negative exponent in %r" % (min(ms, key=min),))
    if not any(ms[0]):
        return (ms[0],)  # unit ideal
    masks = _DivisorMasks(list(map(max, columns)))
    below = masks.below
    out: list[tuple] = []
    batch: list[tuple] = []
    for _, same_degree in groupby(ms, key=sum):
        masks.add(batch)  # the survivors of the degree below
        # every exponent lies within the tables, so they are read unclamped
        batch = [m for m in same_degree if not reduce(and_, map(getitem, below, m))]
        out += batch
    return tuple(out)


def colon_exps(g: tuple, m: tuple) -> tuple:
    """g / gcd(g, m): the generator of (g) : m."""
    return tuple(map(sub, map(max, g, m), m))


def monomials_of_degree(varcount: int, degree: int):
    """All exponent tuples of the given total degree, lexicographically."""
    if degree < 0:
        return
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

    __slots__ = ("gens", "varcount", "_masks", "_trie")

    def __init__(self, monomials, varcount: int):
        if varcount < 1:
            raise ValueError("a monomial ideal needs at least one variable")
        monomials = list(monomials)
        if set(map(len, monomials)) - {varcount}:
            m = next(m for m in monomials if len(m) != varcount)
            raise ValueError("generator %r has %d variables, ideal has %d"
                             % (m, len(m), varcount))
        self.gens = minimal_generators(monomials)
        self.varcount = varcount
        # built on the first membership test and the first staircase query
        self._masks = None
        self._trie = None

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
        if len(m) != self.varcount:
            raise ValueError("variable count mismatch")
        if self._masks is None:
            if not self.gens:
                return False
            self._masks = _DivisorMasks(list(map(max, zip(*self.gens))))
            self._masks.add(self.gens)
        return self._masks.has_divisor(m)

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
        return MonomialIdeal([colon_exps(g, m) for g in self.gens], self.varcount)

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
        return self._staircase().count()

    def _staircase(self) -> _Staircase:
        """The staircase trie over the generators; the ideal must be Artinian."""
        if self._trie is None:
            self._trie = _Staircase(self.gens)
        return self._trie


def monomials_between(inner: MonomialIdeal, in_outer: Callable[[tuple], bool]) -> list[tuple]:
    """Monomials passing the membership test `in_outer` (such as an outer
    ideal's `contains`) but not in `inner`, by degree and then in decreasing
    lex order; `inner` must be Artinian.

    Filters the staircase of `inner` through `in_outer`.
    """
    if not inner.is_artinian():
        raise ValueError("difference against a non-Artinian ideal is infinite")
    walk = inner._staircase().standard_monomials()
    return sorted(filter(in_outer, walk), key=GREVELEX.key)
