"""Leading ideals of homogeneous ideals, and reduced Groebner bases.

`leading_ideal`, which the suites call, reads the leading ideal off one
degree-by-degree echelon form of the Macaulay matrices (Lazard, EUROCAL
1983), eliminating over Python ints: fraction-free over Q, residues over
GF(p).  `buchberger` is the general reduced-basis routine and the tests'
independent route: Gebauer-Moeller pair update, pairs by increasing lcm
degree with ties broken by the order, so output is deterministic; it
reduces through `normal_form`.
"""

from __future__ import annotations

import heapq
from math import gcd, lcm
from operator import sub

from .ideals import MonomialIdeal, monomials_of_degree
from .order import GREVELEX, MonomialOrder, leading_term
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
    `basis` holds polynomials, or is the `_Divisors` list `buchberger`
    keeps, whose leading terms are not computed again.
    """
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


def leading_ideal(ideal: PolyIdeal, order: MonomialOrder = GREVELEX) -> MonomialIdeal:
    """The leading ideal of a homogeneous ideal, degree by degree; the zero
    ideal maps to the zero ideal.  Coefficients are elements of the active
    field, or ints, which are read in it.

    Degree e of the ideal is spanned by its degree-e generators and x_k times
    the echelon rows of degree e-1, for every k.  A row is a map from column
    to int coefficient, the column of a monomial its rank under the order
    among the monomials of degree e.  Each row, top-reduced against the
    pivots so far, is zero or a new pivot; the leading monomials of any row
    echelon form of a span are the same set, and the pivots' are the leading
    ideal in degree e.  Over Q the rows stay integral, over GF(p) they hold
    residues.  The walk stops at the first degree where every monomial
    leads a pivot.  Raises ValueError on inhomogeneous generators, or past
    degree v(D-1)+1, D the largest generator degree, where only a
    non-Artinian quotient has standard monomials left.
    """
    v = ideal.varcount
    p = active_field().characteristic
    by_degree: dict[int, list] = {}
    for g in ideal.gens:
        terms = integer_terms(g.terms, p)
        degrees = set(map(sum, terms))
        if len(degrees) > 1:
            raise ValueError("leading_ideal requires homogeneous generators")
        if degrees:
            by_degree.setdefault(degrees.pop(), []).append(terms)
    if not by_degree:
        return MonomialIdeal.zero(v)
    cap = max(v * (max(by_degree) - 1) + 1, 0)

    xs = [pure_power(k, v) for k in range(v)]
    leads: list[tuple] = []
    below: list[tuple] = []  # the monomials of degree e-1, ranked
    prev: list[dict] = []  # the echelon rows of degree e-1
    for e in range(cap + 1):
        monomials = sorted(monomials_of_degree(v, e), key=order.key)
        column = {m: i for i, m in enumerate(monomials)}
        size = len(monomials)
        pivots: dict = {}  # leading column -> row
        for row in _degree_rows(by_degree.pop(e, ()), column, xs, below, prev):
            lead = _top_reduce(row, pivots, p)
            if lead is not None:
                pivots[lead] = _pivot(row, lead, p)
                if len(pivots) == size:
                    break
        leads += [monomials[i] for i in pivots]
        if len(pivots) == size:
            return MonomialIdeal(leads, v)
        below = monomials
        prev = list(pivots.values())
    raise ValueError("quotient is not Artinian")


def _degree_rows(gens: list, column: dict, xs: list, below: list, prev: list):
    """The rows spanning one degree, made one at a time: each generator's,
    then x times each row of `prev`, which are over the ranked monomials
    `below` of one degree less, for each x in `xs`."""
    for g in gens:
        yield {column[m]: c for m, c in g.items()}
    for x in xs:
        up = [column[times(m, x)] for m in below]
        for row in prev:
            yield {up[i]: c for i, c in row.items()}
