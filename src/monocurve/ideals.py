"""Monomial ideals in T': minimal generators, sums, colons by a monomial,
membership, the Artinian test, the staircase length of an Artinian ideal,
and the monomials between two ideals.

An ideal keeps one structure, divisibility masks: they answer "does a
stored generator divide m" (after Bachmann & Schoenemann, ISSAC 1998).
`contains` asks it for one monomial, reading an exponent above the tables
without growing them; `outside` asks it for a list, one variable at a time,
as do minimalization, sums, colons and containment of ideals.  The
Artinian test reads the masks' entries for exponent 0.  The staircase is
counted on them one variable at a time from the last, which splits the
curve ideals best (after Bigatti, JPAA 1997), down to the second variable,
whose loop reads the first's count inline.  The monomials between two
ideals are listed by an upward walk from the outer ideal's generators, one
layer at a time, each layer filtered by `outside` as one list.

Generators are exponent tuples, always stored minimal and sorted by
(degree, exponents), so two equal ideals are structurally identical and
every report is deterministic.  The constructor minimalizes; the private
`MonomialIdeal._of_minimal` keeps the same invariant for a list its caller
proves minimal and free of duplicates, by sorting it alone.  The colon by a
monomial and the sum of two ideals build their results that way: both read
what the minimality of their inputs proves, filter against divisibility
masks, and never minimalize; the colon's masks hold quotients free of the
variable divided out, so it filters each slice of generators undivided.
`generated_by` tells whether a generating list, minimal or not, generates a
known ideal, again on the masks alone, which test only the monomials of the
list outside the ideal's minimal generators.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from functools import reduce
from itertools import compress, groupby, repeat
from operator import add, and_, getitem, not_

from .order import GREVELEX

_CHUNK = 4096  # monomials `_DivisorMasks.undivided` filters at once


class _DivisorMasks:
    """Bitsets answering "does a stored monomial divide m".

    Bit i stands for the i-th stored monomial, and bit i of below[p][e] is
    set iff that monomial's exponent of variable p is at most e.  So some
    stored monomial divides m iff the AND over p of below[p][m[p]] is
    nonzero.  The tables run from exponent 0 to `tops`, at least the largest
    stored exponent, and a query exponent above it reads the top entry.
    """

    __slots__ = ("below", "tops", "size")

    def __init__(self, tops: list):
        self.below = [[0] * (top + 1) for top in tops]
        self.tops = tops
        self.size = 0

    def _reach(self, tops) -> None:
        """Extend each variable's table that is shorter than the exponent
        `tops` gives it, by its top entry, which stands for every exponent
        above it."""
        below, have = self.below, self.tops
        for p, top in enumerate(tops):
            if top > have[p]:
                below[p] += [below[p][-1]] * (top - have[p])
                have[p] = top

    def add(self, batch: list) -> None:
        """Store the monomials of `batch`, nonnegative exponent tuples, as
        the next bits; a table too short for them is first extended, so the
        masks need not be built with their final tops."""
        columns = list(zip(*batch))
        self._reach(map(max, columns))
        shift = self.size
        for table, column in zip(self.below, columns):
            exact = [0] * len(table)
            for i, e in enumerate(column):
                exact[e] |= 1 << i
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

    def undivided(self, batch: list) -> list:
        """The monomials of `batch`, in order, that no stored monomial
        divides: `has_divisor` for a list of exponent tuples, which must be
        nonnegative.  With nothing stored nothing is divided, and `batch`
        itself is returned.  Otherwise the test runs over `_CHUNK` monomials
        at a time, one variable at a time, ANDing each column's table
        entries into the running hits; the chunks bound the columns held at
        once.  A table too short for a chunk is first extended, as `add`
        extends it."""
        if not self.size:
            return batch
        below = self.below
        out: list[tuple] = []
        for start in range(0, len(batch), _CHUNK):
            chunk = batch[start:start + _CHUNK]
            columns = list(zip(*chunk))
            self._reach(map(max, columns))
            hits = map(below[0].__getitem__, columns[0])
            for table, column in zip(below[1:], columns[1:]):
                hits = map(and_, hits, map(table.__getitem__, column))
            out += compress(chunk, map(not_, hits))
        return out


def _count(below: list, active: int, p: int) -> int:
    """How many standard monomials in the variables 0..p lie over a fixed
    choice of the later exponents, which the stored monomials in `active`
    divide; p is at least 1.  Along variable p the set `below[p][e] & active`
    grows with e, and the variables below are recounted only where it
    changes (after Bigatti, JPAA 1997).  At p = 1 that recount is the
    exponent of variable 0's first hit, read in a plain loop.  The pure
    power of variable p ends the loop at the first zero; those of the
    variables below are always active, so variable 0 is always hit.
    """
    total, last = 0, None
    for bits in below[p]:
        bits &= active
        if bits != last:
            last = bits
            if p > 1:
                lower = _count(below, bits, p - 1)
            else:
                lower = 0
                for zero in below[0]:
                    if zero & bits:
                        break
                    lower += 1
            if not lower:
                break
        total += lower
    return total


def multiples_outside(gens, varcount: int, outside: Callable[[list], Iterable]) -> list[tuple]:
    """The multiples of `gens` outside an ideal, by degree and then in
    decreasing lex order; there must be finitely many.  `outside` filters
    a list of monomials down to those outside the ideal.

    Walks up from the gens one layer at a time: each layer's monomials
    times each variable, less those already tested, are handed to
    `outside` as one list, and its survivors are the next layer.  That
    reaches each multiple outside the ideal, since every divisor of a
    monomial outside an ideal is outside it too.
    """
    seen = set(gens)
    layer = list(outside(list(seen)))
    found = []
    while layer:
        found += layer
        columns = list(zip(*layer))
        ups = set()
        for p in range(varcount):
            ups.update(zip(*columns[:p], map(add, columns[p], repeat(1)), *columns[p + 1:]))
        ups -= seen
        seen |= ups
        layer = list(outside(list(ups)))
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
    out: list[tuple] = []
    batch: list[tuple] = []
    for _, same_degree in groupby(ms, key=sum):
        masks.add(batch)  # the survivors of the degree below
        batch = masks.undivided(list(same_degree))
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
        self._masks = None  # built on the first membership test or count

    @classmethod
    def _of_minimal(cls, gens: list, varcount: int) -> "MonomialIdeal":
        """The ideal of `gens`, which must be minimal, free of duplicates
        and of length `varcount`: sorted as the constructor sorts, not
        minimalized."""
        gens = sorted(gens)
        gens.sort(key=sum)  # stable: by (degree, exponents), as `minimal_generators`
        ideal = cls.__new__(cls)
        ideal.gens = tuple(gens)
        ideal.varcount = varcount
        ideal._masks = None
        return ideal

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
        if not self.gens:
            return False
        return (self._masks or self._divisor_masks()).has_divisor(m)

    def _divisor_masks(self) -> _DivisorMasks:
        """The masks of the generators, built on first use."""
        if self._masks is None:
            self._masks = _DivisorMasks([0] * self.varcount)
            self._masks.add(self.gens)
        return self._masks

    def outside(self, monomials: list) -> list:
        """The monomials of the list that this ideal does not contain, in
        order: `contains` for a batch, tested on the masks a chunk at a
        time.  Each must be a nonnegative exponent tuple of length
        `varcount`.  The zero ideal's masks store nothing, so it returns
        the list as it is."""
        if set(map(len, monomials)) - {self.varcount}:
            m = next(m for m in monomials if len(m) != self.varcount)
            raise ValueError("monomial %r has %d variables, ideal has %d"
                             % (m, len(m), self.varcount))
        if min(map(min, monomials), default=0) < 0:
            raise ValueError("negative exponent in %r" % (min(monomials, key=min),))
        return self._divisor_masks().undivided(monomials)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        """True iff every generator of `other` lies in this ideal."""
        if other.varcount != self.varcount:
            raise ValueError("variable count mismatch: %d vs %d" % (self.varcount, other.varcount))
        return not self.outside(other.gens)

    def generated_by(self, gens: list) -> bool:
        """True iff the monomials `gens` generate this ideal.  A monomial
        ideal's minimal generators lie in every monomial generating set, so
        that is: each minimal generator is among `gens`, and each of the
        rest, which `outside` checks are nonnegative exponent tuples of
        length `varcount`, lies in the ideal."""
        rest = set(gens)
        if not rest.issuperset(self.gens):
            return False
        rest.difference_update(self.gens)
        return not self.outside(list(rest))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """The sum, from the two minimal generating sets as they stand.

        Both sides are minimal, so a generator of one side leaves the sum
        only if a generator of the other side divides it: each side is
        filtered against the other's masks.  A generator both sides share
        divides itself on the other side and leaves both, so one copy of it
        is put back.
        """
        if self.varcount != other.varcount:
            raise ValueError("variable count mismatch: %d vs %d" % (self.varcount, other.varcount))
        if not other.gens:
            return self
        if not self.gens:
            return other
        gens = (other._divisor_masks().undivided(self.gens)
                + self._divisor_masks().undivided(other.gens))
        gens += set(self.gens).intersection(other.gens)
        return MonomialIdeal._of_minimal(gens, self.varcount)

    def colon_mon(self, m: tuple) -> "MonomialIdeal":
        """(I : m), one variable of m's support at a time, as I : ab = (I : a) : b.

        Colon by x_v^e takes each minimal generator g to g / gcd(g, x_v^e).
        Where g_v > e that quotient stays minimal: a quotient h' dividing it
        would make h divide g.  It keeps x_v, so it divides no quotient that
        lost x_v.  The quotients that lost x_v, from g_v <= e, fall into
        slices S_c by c = g_v.  Within a slice, s - c e_v divides t - c e_v
        only if s divides t, so no quotient of a slice divides another.  A
        quotient t' of S_c' divides s' of S_c only if c' > c, since for
        c' <= c it would make t divide s.  So S_e is kept whole, and each
        slice below it is filtered against the masks of the quotients kept
        above it; nothing is minimalized afresh.  Every quotient in those
        masks has exponent 0 at v, so it divides s - c e_v iff it divides s:
        column v never filters, and an exponent above its table's top reads
        the top entry.  So each slice is filtered as it stands, and only
        its survivors are divided by x_v^c.
        """
        if len(m) != self.varcount:
            raise ValueError("variable count mismatch")
        if min(m) < 0:
            raise ValueError("negative exponent in %r" % (m,))
        gens = self.gens
        for v, e in enumerate(m):
            if not e:
                continue
            out: list[tuple] = []
            slices: list[list] = [[] for _ in range(e + 1)]
            for g in gens:
                c = g[v]
                if c > e:
                    out.append(g[:v] + (c - e,) + g[v + 1:])
                else:
                    slices[c].append(g)
            masks = _DivisorMasks([0] * self.varcount)
            for c in range(e, 0, -1):
                kept = [g[:v] + (0,) + g[v + 1:] for g in masks.undivided(slices[c])]
                masks.add(kept)
                out += kept
            gens = out + masks.undivided(slices[0])
        return MonomialIdeal._of_minimal(gens, self.varcount)

    # -- Artinian structure ----------------------------------------------

    def is_artinian(self) -> bool:
        """True iff every variable has a pure power among the generators.
        Variable v has one iff some generator has exponent 0 at every other
        variable: iff the AND of the masks' entries for exponent 0 over the
        other variables is nonzero.  The zero ideal is not Artinian."""
        if not self.gens:
            return False
        zeros = [table[0] for table in self._divisor_masks().below]
        return all(reduce(and_, zeros[:v] + zeros[v + 1:], -1) for v in range(self.varcount))

    def length_quotient(self) -> int:
        """Number of monomials outside the ideal (the staircase length)."""
        if not self.is_artinian():
            raise ValueError("length of a non-Artinian quotient is infinite")
        if self.varcount == 1:
            return self.gens[0][0]  # (x^a) leaves 1, x, ..., x^(a-1)
        masks = self._divisor_masks()
        return _count(masks.below, (1 << masks.size) - 1, self.varcount - 1)


def monomials_between(outer: MonomialIdeal, inner: MonomialIdeal) -> list[tuple]:
    """Monomials in `outer` but not in `inner`, by degree and then in
    decreasing lex order; `inner` must be Artinian."""
    if not inner.is_artinian():
        raise ValueError("difference against a non-Artinian ideal is infinite")
    return multiples_outside(outer.gens, inner.varcount, inner.outside)
