"""Monomial ideals in T': minimal generators, sums, colons by a monomial,
membership, the Artinian test, the staircase length of an Artinian ideal,
and the monomials between two ideals.

Divisibility masks answer "does a stored generator divide m", for
minimalization and membership alike (after Bachmann & Schoenemann, ISSAC
1998).  An exponent trie counts the staircase per range of exponent keys
without listing it (after Bigatti, JPAA 1997).  The monomials between two
ideals are listed by one upward walk from the outer ideal's generators,
which prunes every monomial the inner membership test accepts.

Generators are exponent tuples, always stored minimal and sorted by
(degree, exponents), so two equal ideals are structurally identical and
every report is deterministic.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import reduce
from itertools import groupby
from operator import and_, getitem

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


def _staircase_count(gens: tuple) -> int:
    """How many monomials none of the minimal `gens` divides; needs a pure
    power of every variable among them (a finite staircase).

    The gens go into an exponent trie keyed by the exponent of x_d, then
    x_{d-1}, down to x_3; the deepest level maps the x_3 exponent to the x_2
    exponent of the one monomial stored under that path.  The curve ideals
    are sums of powers of (x_{i+1}, ..., x_d), so the last variables split
    the stored monomials best, which is why the trie starts there.
    """
    top = len(gens[0]) - 1  # position of the variable keyed at the root
    if top == 0:
        return gens[0][0]  # one variable: the one minimal generator is a pure power
    root: dict = {}
    for g in gens:
        node = root
        for p in range(top, 1, -1):
            node = node.setdefault(g[p], {})
        node[g[1]] = g[0]
    return _count({key: [child] for key, child in root.items()}, top)


def _count(level: dict, p: int) -> int:
    """How many standard monomials in x_2..x_{p+2} there are over a fixed
    prefix of the later exponents; `level` maps each x_{p+2} exponent key
    to the list of level-(p-1) subtries (x_2 exponents if p == 1) stored
    under it whose paths divide the prefix.

    The standard monomials change only where the x_{p+2} exponent reaches
    a key (after Bigatti, JPAA 1997), so each range [key, next_key) between
    consecutive keys adds its width times the count under the keys at most
    key: if p == 1, the least x_2 exponent among them; else the count of
    their subtries, merged by their own keys (one dict, extended from range
    to range).  Standard monomials form an order ideal: once a range counts
    none, no later one counts any, and the staircase is finite, so the last
    key counts none.
    """
    keys = sorted(level)
    merged: dict = {}
    least = None
    total = 0
    for key, next_key in zip(keys, keys[1:]):
        if p == 1:
            low = min(level[key])
            lower = least = low if least is None else min(least, low)
        else:
            for node in level[key]:
                for k, child in node.items():
                    merged.setdefault(k, []).append(child)
            lower = _count(merged, p - 1)
        if not lower:
            break
        total += (next_key - key) * lower
    return total


def multiples_outside(gens, varcount: int, in_ideal: Callable[[tuple], bool]) -> list[tuple]:
    """The multiples of `gens` that the membership test `in_ideal` rejects,
    by degree and then in decreasing lex order; there must be finitely many.

    Walks up from the gens one variable at a time, pruning every monomial
    `in_ideal` accepts.  That reaches each multiple outside the ideal, since
    every divisor of a monomial outside an ideal is outside it too.
    """
    seen = set(gens)
    stack = [g for g in seen if not in_ideal(g)]
    found = list(stack)
    while stack:
        m = stack.pop()
        for p in range(varcount):
            up = m[:p] + (m[p] + 1,) + m[p + 1:]
            if up not in seen:
                seen.add(up)
                if not in_ideal(up):
                    stack.append(up)
                    found.append(up)
    return sorted(found, key=GREVELEX)


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

    __slots__ = ("gens", "varcount", "_masks")

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
        self._masks = None  # built on the first membership test

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
        """(I : m), generated by g / gcd(g, m), lowered one variable of m's
        support at a time (the colons in this package are by pure powers)."""
        if len(m) != self.varcount:
            raise ValueError("variable count mismatch")
        if min(m) < 0:
            raise ValueError("negative exponent in %r" % (m,))
        gens = self.gens
        for v, e in enumerate(m):
            if e:
                gens = [g[:v] + (max(g[v] - e, 0),) + g[v + 1:] for g in gens]
        return MonomialIdeal(gens, self.varcount)

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
        return _staircase_count(self.gens)


def monomials_between(outer: MonomialIdeal, inner: MonomialIdeal) -> list[tuple]:
    """Monomials in `outer` but not in `inner`, by degree and then in
    decreasing lex order; `inner` must be Artinian."""
    if not inner.is_artinian():
        raise ValueError("difference against a non-Artinian ideal is infinite")
    return multiples_outside(outer.gens, inner.varcount, inner.contains)
