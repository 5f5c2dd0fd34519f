"""Leading ideals of homogeneous ideals, and reduced Groebner bases.

`echelon_walk`, which `leading_ideal` and the suites call, reads the
leading ideal off one degree-by-degree echelon form of the Macaulay
matrices (Lazard, EUROCAL 1983), eliminating over Python ints: fraction-free
over Q, residues over GF(p).  Its generators are polynomials times echelon
rows of another walk, made lazily, and it stops at the first full degree.
`buchberger` is the general reduced-basis routine and the tests'
independent route: Gebauer-Moeller pair update, pairs by increasing lcm
degree with ties broken by the order, so output is deterministic; it
reduces through `normal_form`.  Everything here uses the one order of
`monocurve.order`."""

from __future__ import annotations

import heapq
from functools import lru_cache
from itertools import chain
from math import comb, gcd, lcm
from operator import sub

from .ideals import MonomialIdeal, monomials_of_degree
from .order import GREVELEX, leading_term
from .poly import Polynomial, divides, pure_power, times
from .scalars import active_field


class PolyIdeal:
    """An ideal of T' given by a finite list of nonzero generators."""

    __slots__ = ("gens", "varcount")

    def __init__(self, gens, varcount: int):
        gens = tuple(g for g in gens if g)
        for g in gens:
            if g.varcount != varcount:
                raise ValueError("generator has %d variables, ideal has %d" % (g.varcount, varcount))
        self.gens = gens
        self.varcount = varcount

    def __repr__(self):
        return "PolyIdeal(%d gens, %d vars)" % (len(self.gens), self.varcount)


class GroebnerBasis:
    __slots__ = ("elements",)

    def __init__(self, elements):
        self.elements = tuple(elements)

    def leading_monomials(self) -> list[tuple]:
        return [leading_term(g)[0] for g in self.elements]

    def __repr__(self):
        return "GroebnerBasis(%d elements)" % len(self.elements)


class _Divisors(list):
    """(leading monomial, leading coefficient, polynomial) triples whose
    leading terms are computed once, when the triple is appended."""

    __slots__ = ()


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Remainder of f under full division by `basis`, tried in list order.

    No monomial of the result is divisible by any leading monomial of the
    basis, and f minus the result lies in the ideal the basis generates.
    `basis` holds polynomials, or is the `_Divisors` list `buchberger`
    keeps, whose leading terms are not computed again.
    """
    if not isinstance(basis, _Divisors):
        basis = [leading_term(g) + (g,) for g in basis if g]

    def find(m):
        for t in basis:
            if divides(t[0], m):
                return t
        return None

    work = dict(f.terms)
    remainder: dict = {}
    while work:
        m = max(work, key=GREVELEX)
        c = work.pop(m)
        hit = find(m)
        if hit is None:
            remainder[m] = c
            continue
        lm, lc, g = hit
        shift = tuple(map(sub, m, lm))
        factor = c / lc
        for gm, gc in g.terms.items():
            if gm is lm:
                continue  # the lead, g's own key, cancels against the popped term
            mm = times(gm, shift)
            s = work.get(mm)
            s = -factor * gc if s is None else s - factor * gc
            if s:
                work[mm] = s
            elif mm in work:
                del work[mm]
    return Polynomial(remainder, f.varcount)


def _s_poly(tf, tg) -> Polynomial:
    """S-polynomial of two (leading monomial, leading coefficient, polynomial) triples."""
    mf, cf, f = tf
    mg, cg, g = tg
    lcm = tuple(map(max, mf, mg))
    uf, ug = tuple(map(sub, lcm, mf)), tuple(map(sub, lcm, mg))
    return f.mul_term(uf, 1 / cf) - g.mul_term(ug, 1 / cg)


def _update_pairs(heap, live, lms, t):
    """Gebauer-Moeller pair update after appending the basis element t.

    New pairs are filtered in ascending lcm order: a pair survives only if no
    already-kept new pair's lcm divides its lcm (coprime pairs are kept for
    this filtering, then dropped by the product criterion).  Old pairs whose
    lcm the new leading monomial strictly refines are discarded.
    """
    lm_t = lms[t]

    lcms = {i: tuple(map(max, lm_t, lms[i])) for i in range(t)}
    candidates = sorted(range(t), key=lambda i: (GREVELEX(lcms[i]), i))
    kept: list[int] = []
    for i in candidates:
        coprime = not any(map(min, lm_t, lms[i]))
        if coprime or not any(divides(lcms[j], lcms[i]) for j in kept):
            kept.append(i)

    for (i, j) in list(live):
        lij = live[(i, j)]
        if divides(lm_t, lij) and lcms[i] != lij and lcms[j] != lij:
            del live[(i, j)]

    for i in kept:
        if not any(map(min, lm_t, lms[i])):
            continue  # product criterion: that S-polynomial reduces to zero
        li = lcms[i]
        live[(i, t)] = li
        heapq.heappush(heap, (sum(li), GREVELEX(li), i, t))


def buchberger(ideal: PolyIdeal) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal."""
    seeds = sorted((g for g in ideal.gens if g), key=lambda g: GREVELEX(leading_term(g)[0]))

    # one (lm, lc, element) triple per basis element, made monic when added
    divisors = _Divisors()
    lms: list[tuple] = []
    heap: list = []
    live: dict = {}

    def add(h: Polynomial) -> None:
        lm, lc = leading_term(h)
        if lc != 1:
            h = h.scale(1 / lc)
        divisors.append((lm, h.terms[lm], h))
        lms.append(lm)
        _update_pairs(heap, live, lms, len(lms) - 1)

    for g in seeds:
        r = normal_form(g, divisors)
        if r:
            add(r)

    while heap:
        _, _, i, j = heapq.heappop(heap)
        if (i, j) not in live:
            continue
        del live[(i, j)]
        r = normal_form(_s_poly(divisors[i], divisors[j]), divisors)
        if r:
            add(r)

    # minimalize leading monomials, then tail-reduce; a kept leading monomial
    # is divisible by no other kept one, so it survives as the monic lead
    keep = []
    for i, lm in enumerate(lms):
        if any(j != i and divides(lms[j], lm) and (lms[j] != lm or j < i) for j in range(len(lms))):
            continue
        keep.append(i)
    reduced = [
        normal_form(divisors[i][2], _Divisors(divisors[j] for j in keep if j != i))
        for i in sorted(keep, key=lambda i: GREVELEX(lms[i]))
    ]
    return GroebnerBasis(reduced)


def integer_terms(terms: dict, p: int) -> dict:
    """A generator's terms as nonzero ints, which is how an int enters the
    field of characteristic p: over Q (p = 0) times the least common
    denominator of its coefficients, over GF(p) as residues mod p, the
    terms that vanish there dropped.  Coefficients are ints, or elements of
    the active field."""
    if not p:
        if all(type(c) is int for c in terms.values()):
            return terms
        den = lcm(*(c.denominator for c in terms.values()))
        return {m: c.numerator * (den // c.denominator) for m, c in terms.items()}
    coerce = active_field().coerce
    residues = {m: c % p if type(c) is int else coerce(c).val for m, c in terms.items()}
    return {m: c for m, c in residues.items() if c}


def _top_reduce(row: dict, pivots: dict, p: int) -> int | None:
    """Cancel the row's leading column against the pivot there until no
    pivot leads where the row does.  The row is updated in place; returns
    its leading column, or None when it reduced to zero.

    Over GF(p) pivots are monic.  Over Q, with lc the pivot's leading
    coefficient and c the row's, r <- (lc/g) r - (c/g) pivot, g = gcd(c, lc),
    stays in the integers (Bareiss, Math. Comp. 22, 1968).
    """
    while row:
        lead = max(row)
        pivot = pivots.get(lead)
        if pivot is None:
            return lead
        c = row[lead]
        if p:
            for k, x in pivot.items():
                s = (row.get(k, 0) - c * x) % p
                if s:
                    row[k] = s
                else:
                    del row[k]
            continue
        lc = pivot[lead]
        g = gcd(c, lc)
        if g != lc:
            a = lc // g
            for k in row:
                row[k] *= a
        b = c // g
        for k, x in pivot.items():
            s = row.get(k, 0) - b * x
            if s:
                row[k] = s
            else:
                del row[k]
    return None


def _pivot(row: dict, lead: int, p: int) -> dict:
    """The row made monic over GF(p), and over Q divided by its content with
    the leading coefficient positive."""
    if p:
        inv = pow(row[lead], -1, p)
        return {k: x * inv % p for k, x in row.items()}
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    return {k: x // g for k, x in row.items()} if g != 1 else row


# The echelon rows of the unit ideal, by degree: the constant 1, in degree 0.
UNIT_ROWS = ([{0: 1}],)


def leading_ideal(ideal: PolyIdeal) -> MonomialIdeal:
    """The leading ideal of a homogeneous ideal, each generator a piece of
    `echelon_walk` times the unit ideal's rows; the zero ideal maps to the
    zero ideal."""
    v = ideal.varcount
    leads = echelon_walk([[(g, UNIT_ROWS) for g in ideal.gens]], v)[0]
    return MonomialIdeal._of_minimal(leads, v)


@lru_cache(maxsize=None)
def _columns(v: int, e: int) -> tuple:
    """The monomials of degree e in v variables, in `monomials_of_degree`'s
    order, ascending in the order: a monomial's place is its column."""
    return tuple(monomials_of_degree(v, e))


@lru_cache(maxsize=None)
def _ints(n: int) -> tuple:
    """0, ..., n-1, one tuple per n, so shift tables of one size share ints."""
    return tuple(range(n))


@lru_cache(maxsize=None)
def _shift(v: int, e: int, m: tuple) -> tuple:
    """For each column of degree e, the column of degree e + |m| that
    multiplying by the monomial m sends it to; () for e < 0.

    Degree E lists its monomials in blocks by the first exponent b, from E
    down, block b starting at column C(E-b+v-2, v-1).  So x_0 keeps every
    column, and x_k, k >= 1, sends block a of degree e to block a of degree
    e+1, as x_{k-1} sends degree e-a in v-1 variables.  A monomial of
    higher degree composes the one-variable steps, lowest variable first."""
    if e < 0:
        return ()
    if sum(m) == 1:
        k = m.index(1)
        if k == 0:
            return _ints(comb(e + v - 1, v - 1))
        low = pure_power(k - 1, v - 1)
        up = chain.from_iterable(map(comb(e - a + v - 1, v - 1).__add__, _shift(v - 1, e - a, low))
                                 for a in range(e, -1, -1))
        return tuple(map(_ints(comb(e + v, v - 1)).__getitem__, up))
    up = range(len(_columns(v, e)))
    for k, power in enumerate(m):
        for _ in range(power):
            up = tuple(map(_shift(v, e, pure_power(k, v)).__getitem__, up))
            e += 1
    return tuple(up)


def echelon_walk(groups, v: int) -> tuple[list, list]:
    """Minimal generators of the leading ideal of the homogeneous ideal in
    v variables generated by g * r over the pieces (g, rows) of each group:
    g a polynomial whose coefficients are elements of the active field, or
    ints, which are read in it; rows[e] a list of rows of degree e.  Returns
    them and, per group and degree e walked, the echelon rows new[j][e] that
    group j's products gave: degree e of the ideal is x times degree e-1
    plus the span of the new[j][e].  No leading monomial means the zero ideal.

    A row maps a column (see `_columns`) to an int coefficient.  Degree e
    reads x_k times rows of degree e-1, k ascending, then g * r for each
    piece and r in rows[e - deg g], one at a time.  Each row, top-reduced
    against the pivots so far, is zero or a new pivot; any row echelon form
    of a span has the same leading monomials, so the row order does not
    change them, and a lead u is minimal when no u / x_k leads in degree
    e-1.  A pivot is labelled k if the block of x_k made it, 0 if a product
    did, and block k reads x_k times the pivots labelled <= k.  That spans
    x times degree e-1, a sum of s q, q a pivot a product made and s a
    monomial: with x_m the largest variable of s = x_m s', s' q lies, by
    induction on deg s, in the span of pivots labelled <= m, which block m
    reads before any pivot labelled above m exists.  The walk stops at the
    first degree where every monomial leads a pivot and makes no product
    after that row.  Raises ValueError on a g that is not homogeneous,
    every g being read before any elimination, or past degree v(D-1)+1, D
    the largest degree of a product, where only a non-Artinian quotient has
    standard monomials left.
    """
    p = active_field().characteristic
    factors = []  # per group, (deg g, g's terms, rows) for each g nonzero in the field
    for group in groups:
        read = []
        for g, rows in group:
            terms = integer_terms(g.terms, p)
            degrees = set(map(sum, terms))
            if len(degrees) > 1:
                raise ValueError("leading_ideal requires homogeneous generators")
            if degrees:
                read.append((degrees.pop(), terms, rows))
        factors.append(read)
    top = max((dg + e for read in factors for dg, _, rows in read for e, r in enumerate(rows) if r),
              default=-1)
    cap = max(v * (top - 1) + 1, 0)

    xs = [pure_power(k, v) for k in range(v)]
    leads: list[tuple] = []
    new: list[list] = [[] for _ in factors]
    prev: list[dict] = []  # degree e-1's pivots: blocks 0..v-1, then the products'
    prev_leads: list[int] = []
    ends = [0] * v  # ends[k]: where block k's pivots end in prev
    for e in range(cap + 1):
        if e > top and not leads:
            break  # every generator vanished in the field
        monomials = _columns(v, e)
        size = len(monomials)
        ups = [_shift(v, e - 1, x) for x in xs]
        pivots: dict = {}  # leading column -> row
        full = False
        blocks = []
        for k, up in enumerate(ups):
            labelled = chain(prev[:ends[k]], prev[ends[-1]:])  # the pivots labelled <= k
            full = full or _fill(pivots, ({up[i]: c for i, c in r.items()} for r in labelled), size, p)
            blocks.append(len(pivots))
        cuts = [len(pivots)]
        for read in factors:
            full = full or _fill(pivots, _products(read, v, e, p), size, p)
            cuts.append(len(pivots))
        rows = list(pivots.values())
        for made, start, end in zip(new, cuts, cuts[1:]):
            made.append(rows[start:end])
        below = {up[i] for up in ups for i in prev_leads}  # x times degree e-1's leads
        leads += [monomials[i] for i in pivots if i not in below]
        if full:
            return leads, new
        prev, prev_leads, ends = rows, list(pivots), blocks
    if not leads:
        return leads, new
    raise ValueError("quotient is not Artinian")


def _fill(pivots: dict, rows, size: int, p: int) -> bool:
    """Top-reduce each row, keeping the nonzero ones as pivots; stops,
    returning True, once there are `size`."""
    for row in rows:
        lead = _top_reduce(row, pivots, p)
        if lead is not None:
            pivots[lead] = _pivot(row, lead, p)
            if len(pivots) == size:
                return True
    return False


def _products(factors: list, v: int, e: int, p: int):
    """The rows of degree e of the products g * r, made one at a time, for
    each factor (deg g, g's terms, rows) and r in rows[e - deg g]."""
    for dg, terms, rows in factors:
        if not 0 <= e - dg < len(rows):
            continue
        ups = [(_shift(v, e - dg, m), c) for m, c in terms.items()]
        for row in rows[e - dg]:
            out: dict = {}
            for up, b in ups:
                for i, a in row.items():
                    k = up[i]
                    out[k] = out.get(k, 0) + a * b
            yield {k: x % p for k, x in out.items() if x % p} if p else {k: x for k, x in out.items() if x}
