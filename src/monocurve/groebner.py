"""Leading ideals of homogeneous ideals, and reduced Groebner bases.

`leading_ideal`, which the suites call, reads the leading ideal off one
degree-by-degree echelon form of the Macaulay matrices (Lazard, EUROCAL
1983).  `buchberger` is the general reduced-basis routine and the tests'
independent route: Gebauer-Moeller pair update, pairs by increasing lcm
degree with ties broken by the order, so output is deterministic.
"""

from __future__ import annotations

import heapq
from math import comb
from operator import sub

from .ideals import MonomialIdeal
from .order import GREVELEX, MonomialOrder, leading_term
from .poly import Polynomial, divides, pure_power, times


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
    __slots__ = ("elements", "order")

    def __init__(self, elements, order: MonomialOrder):
        self.elements = tuple(elements)
        self.order = order

    def leading_monomials(self) -> list[tuple]:
        return [leading_term(g, self.order)[0] for g in self.elements]

    def __repr__(self):
        return "GroebnerBasis(%d elements, %s)" % (len(self.elements), self.order.name)


class _Divisors(list):
    """(leading monomial, leading coefficient, polynomial) triples whose
    leading terms are computed once, when the triple is appended."""

    __slots__ = ()


def normal_form(f: Polynomial, basis, order: MonomialOrder = GREVELEX) -> Polynomial:
    """Remainder of f under full division by `basis`, tried in list order.

    No monomial of the result is divisible by any leading monomial of the
    basis, and f minus the result lies in the ideal the basis generates.
    `basis` holds polynomials; or is the `_Divisors` list `buchberger`
    keeps, whose leading terms are not computed again; or is a dict from
    leading monomial to such a triple, as `leading_ideal` keeps, with every
    lead of the degree of a homogeneous f: a lead then divides a monomial
    of f only by being it, so the divisor is looked up, not searched for.
    """
    if isinstance(basis, dict):
        find = basis.get
    else:
        if not isinstance(basis, _Divisors):
            basis = [leading_term(g, order) + (g,) for g in basis if g]

        def find(m):
            for t in basis:
                if divides(t[0], m):
                    return t
            return None

    key = order.key
    work = dict(f.terms)
    remainder: dict = {}
    while work:
        m = max(work, key=key)
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


def _update_pairs(heap, live, lms, t, order):
    """Gebauer-Moeller pair update after appending the basis element t.

    New pairs are filtered in ascending lcm order: a pair survives only if no
    already-kept new pair's lcm divides its lcm (coprime pairs are kept for
    this filtering, then dropped by the product criterion).  Old pairs whose
    lcm the new leading monomial strictly refines are discarded.
    """
    lm_t = lms[t]
    key = order.key

    lcms = {i: tuple(map(max, lm_t, lms[i])) for i in range(t)}
    candidates = sorted(range(t), key=lambda i: (key(lcms[i]), i))
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
        heapq.heappush(heap, (sum(li), key(li), i, t))


def buchberger(ideal: PolyIdeal, order: MonomialOrder = GREVELEX) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal under the given order."""
    key = order.key
    seeds = sorted(
        (g for g in ideal.gens if g),
        key=lambda g: key(leading_term(g, order)[0]),
    )

    # one (lm, lc, element) triple per basis element, made monic when added
    divisors = _Divisors()
    lms: list[tuple] = []
    heap: list = []
    live: dict = {}

    def add(h: Polynomial) -> None:
        lm, lc = leading_term(h, order)
        if lc != 1:
            h = h.scale(1 / lc)
        divisors.append((lm, h.terms[lm], h))
        lms.append(lm)
        _update_pairs(heap, live, lms, len(lms) - 1, order)

    for g in seeds:
        r = normal_form(g, divisors, order)
        if r:
            add(r)

    while heap:
        _, _, i, j = heapq.heappop(heap)
        if (i, j) not in live:
            continue
        del live[(i, j)]
        r = normal_form(_s_poly(divisors[i], divisors[j]), divisors, order)
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
        normal_form(divisors[i][2], _Divisors(divisors[j] for j in keep if j != i), order)
        for i in sorted(keep, key=lambda i: key(lms[i]))
    ]
    return GroebnerBasis(reduced, order)


def leading_ideal(ideal: PolyIdeal, order: MonomialOrder = GREVELEX) -> MonomialIdeal:
    """The leading ideal of a homogeneous ideal, degree by degree; the zero
    ideal maps to the zero ideal.

    Degree e of the ideal is spanned by its degree-e generators and x_k times
    the echelon rows of degree e-1, for every k.  Each row's `normal_form`
    against the pivots so far is zero or a new pivot; the pivots' leading
    monomials are the leading ideal in degree e.  The walk stops at the first
    degree where every monomial is a pivot.  Raises ValueError on
    inhomogeneous generators, or past degree v(D-1)+1, D the largest
    generator degree, where only a non-Artinian quotient has standard
    monomials left.
    """
    v = ideal.varcount
    if not ideal.gens:
        return MonomialIdeal.zero(v)
    by_degree: dict[int, list] = {}
    for g in ideal.gens:
        if not g.is_homogeneous():
            raise ValueError("leading_ideal requires homogeneous generators")
        by_degree.setdefault(g.degree(), []).append(g)
    cap = max(v * (max(by_degree) - 1) + 1, 0)

    xs = [pure_power(k, v) for k in range(v)]
    leads: list[tuple] = []
    prev: list[Polynomial] = []  # the echelon rows of degree e-1
    for e in range(cap + 1):
        size = comb(e + v - 1, v - 1)  # the monomials of degree e
        rows = list(by_degree.get(e, ()))
        below = {m for row in prev for m in row.terms}
        for x in xs:
            up = {m: times(m, x) for m in below}
            rows += [Polynomial({up[m]: c for m, c in row.terms.items()}, v) for row in prev]
        pivots: dict = {}  # leading monomial -> (lm, lc, row), as normal_form takes
        for row in rows:
            if len(pivots) == size:
                break
            r = normal_form(row, pivots, order)
            if r:
                lm, lc = leading_term(r, order)
                pivots[lm] = (lm, lc, r)
        leads += pivots
        if len(pivots) == size:
            return MonomialIdeal(leads, v)
        prev = [r for _, _, r in pivots.values()]
    raise ValueError("quotient is not Artinian")
