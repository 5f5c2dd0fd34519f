"""Reduced Groebner bases, leading ideals, and quotient lengths.

Buchberger's algorithm with the Gebauer-Moeller pair update; pairs are
processed by increasing lcm degree with ties broken by the monomial order,
so output is deterministic for a fixed generator ordering.  A separate
linear-algebra rank computation (`hilbert_oracle`) recovers the same
quotient lengths without ever forming a basis, as an independent check.
"""

from __future__ import annotations

import heapq

from .ideals import MonomialIdeal, monomials_of_degree
from .order import GREVELEX, MonomialOrder, leading_term
from .poly import Monomial, Polynomial


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
    __slots__ = ("elements", "order", "reduced")

    def __init__(self, elements, order: MonomialOrder, reduced: bool):
        self.elements = tuple(elements)
        self.order = order
        self.reduced = reduced

    def leading_monomials(self) -> list[Monomial]:
        return [leading_term(g, self.order)[0] for g in self.elements]

    def __repr__(self):
        return "GroebnerBasis(%d elements, %s%s)" % (
            len(self.elements),
            self.order.name,
            ", reduced" if self.reduced else "",
        )


class _Divisors(list):
    """(leading monomial, leading coefficient, polynomial) triples whose
    leading terms are computed once, when the triple is appended."""

    __slots__ = ()


def normal_form(f: Polynomial, basis, order: MonomialOrder = GREVELEX) -> Polynomial:
    """Remainder of f under full division by the list `basis`, tried in list order.

    No monomial of the result is divisible by any leading monomial of the
    basis, and f minus the result lies in the ideal the basis generates.
    `basis` holds polynomials, or is the `_Divisors` list `buchberger`
    keeps, whose leading terms are not computed again.
    """
    if not isinstance(basis, _Divisors):
        basis = [leading_term(g, order) + (g,) for g in basis if g]
    key = order.key
    work = dict(f.terms)
    remainder: dict = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        hit = None
        for lm, lc, g in basis:
            if lm.divides(m):
                hit = (lm, lc, g)
                break
        if hit is None:
            remainder[m] = c
            continue
        lm, lc, g = hit
        shift = m.quo(lm)
        factor = c / lc
        for gm, gc in g.terms.items():
            if gm is lm:
                continue  # the lead cancels against the popped term
            mm = gm.times(shift)
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
    lcm = mf.lcm(mg)
    return f.mul_term(lcm.quo(mf), 1 / cf) - g.mul_term(lcm.quo(mg), 1 / cg)


def _update_pairs(heap, live, lms, t, order):
    """Gebauer-Moeller pair update after appending the basis element t.

    New pairs are filtered in ascending lcm order: a pair survives only if no
    already-kept new pair's lcm divides its lcm (coprime pairs are kept for
    this filtering, then dropped by the product criterion).  Old pairs whose
    lcm the new leading monomial strictly refines are discarded.
    """
    lm_t = lms[t]
    key = order.key

    lcms = {i: lm_t.lcm(lms[i]) for i in range(t)}
    candidates = sorted(range(t), key=lambda i: (key(lcms[i]), i))
    kept: list[int] = []
    for i in candidates:
        if lm_t.coprime(lms[i]) or not any(lcms[j].divides(lcms[i]) for j in kept):
            kept.append(i)

    for (i, j) in list(live):
        lij = live[(i, j)]
        if lm_t.divides(lij) and lcms[i] != lij and lcms[j] != lij:
            del live[(i, j)]

    for i in kept:
        if lm_t.coprime(lms[i]):
            continue  # product criterion: that S-polynomial reduces to zero
        li = lcms[i]
        live[(i, t)] = li
        heapq.heappush(heap, (li.degree, key(li), i, t))


def buchberger(ideal: PolyIdeal, order: MonomialOrder = GREVELEX) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal under the given order."""
    key = order.key
    seeds = sorted(
        (g for g in ideal.gens if g),
        key=lambda g: key(leading_term(g, order)[0]),
    )

    # one (lm, lc, element) triple per basis element, made monic when added
    divisors = _Divisors()
    lms: list[Monomial] = []
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
        if any(j != i and lms[j].divides(lm) and (lms[j] != lm or j < i) for j in range(len(lms))):
            continue
        keep.append(i)
    reduced = [
        normal_form(divisors[i][2], _Divisors(divisors[j] for j in keep if j != i), order)
        for i in sorted(keep, key=lambda i: key(lms[i]))
    ]
    return GroebnerBasis(reduced, order, reduced=True)


def leading_ideal(ideal: PolyIdeal, order: MonomialOrder = GREVELEX) -> MonomialIdeal:
    """The ideal of leading monomials; the zero ideal maps to the zero ideal."""
    if not ideal.gens:
        return MonomialIdeal.zero(ideal.varcount)
    gb = buchberger(ideal, order)
    return MonomialIdeal(gb.leading_monomials(), ideal.varcount)


def hilbert_oracle(ideal: PolyIdeal, order: MonomialOrder = GREVELEX) -> int:
    """Quotient length by degreewise rank counting; no Groebner bases involved.

    For each degree e the span of {m*g : deg(m*g) = e} is row-reduced over
    the degree-e monomial basis; the number of standard monomials at degree e
    is the corank.  Summation stops at the first degree with no standard
    monomial: the generators are homogeneous, so every later degree lies
    in the ideal too.
    """
    gens = ideal.gens
    if not gens:
        raise ValueError("the zero ideal has an infinite quotient")
    for g in gens:
        if not g.is_homogeneous():
            raise ValueError("hilbert_oracle requires homogeneous generators")
    v = ideal.varcount
    maxdeg = max(g.degree() for g in gens)
    cap = v * (maxdeg - 1) + 1 if maxdeg > 0 else 0
    key = order.key

    total = 0
    e = 0
    while True:
        if e > cap:
            raise ValueError("quotient does not appear to be Artinian")
        pivots: dict[Monomial, dict] = {}
        for g in gens:
            shift_deg = e - g.degree()
            if shift_deg < 0:
                continue
            for exps in monomials_of_degree(v, shift_deg):
                shift = Monomial(exps)
                row = {m.times(shift): c for m, c in g.terms.items()}
                while row:
                    lead = max(row, key=key)
                    hit = pivots.get(lead)
                    if hit is None:
                        lc = row[lead]
                        pivots[lead] = {m: c / lc for m, c in row.items()}
                        break
                    factor = row[lead]
                    for m, c in hit.items():
                        s = row.get(m)
                        s = -factor * c if s is None else s - factor * c
                        if s:
                            row[m] = s
                        elif m in row:
                            del row[m]
        n_monomials = len(list(monomials_of_degree(v, e)))
        std = n_monomials - len(pivots)
        if std == 0:
            return total
        total += std
        e += 1
