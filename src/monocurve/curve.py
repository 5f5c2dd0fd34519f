"""Constructions attached to the monomial curve with exponents d + (i-1)m.

Everything ideal-theoretic lives modulo x_1, in T' = k[x_2, ..., x_d]:
the structured matrix and its minors, the determinantal ideals and their
weighted-composition sums, their monomial counterparts, and the S sets.
The parameter m only enters through the full-ring matrix and the curve's
parametrization, which the sanity checks use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import gcd

from .groebner import PolyIdeal
from .ideals import MonomialIdeal, monomials_of_degree
from .poly import Polynomial, PolyMatrix, pure_power, times
from .scalars import active_field


class InvariantViolation(RuntimeError):
    """A consistency condition that should be a theorem failed on real data."""


@dataclass(frozen=True)
class CurveParams:
    d: int
    m: int = 1

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("d must be at least 2")
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if gcd(self.d, self.m) != 1:
            raise ValueError("d and m must be coprime")

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(self.d + i * self.m for i in range(self.d))


def substitute_parametrization(f: Polynomial, d: int, m: int) -> Polynomial:
    """Evaluate a full-ring polynomial on the curve x_i = t^(d + (i-1)m).

    The result is collected as a univariate polynomial in t; callers test it
    against zero for membership sanity checks.
    """
    weights = CurveParams(d, m).exponents
    if f.varcount != d:
        raise ValueError("expected a polynomial in the full set of %d variables" % d)
    out: dict = {}
    for mono, c in f.terms.items():
        key = (sum(e * w for e, w in zip(mono, weights)),)
        s = out.get(key)
        s = c if s is None else s + c
        if s:
            out[key] = s
        elif key in out:
            del out[key]
    return Polynomial(out, 1)


# -- the structured matrix and its minors --------------------------------


def build_matrix(params: CurveParams, mod_x1: bool = False) -> PolyMatrix:
    """The structured d x d matrix: row i reads x_i, ..., x_d and then wraps
    to x_1^m x_1, x_1^m x_2, ...

    Entry (i, j) is x_{i+j-1} while j <= d-i+1 and x_1^m x_{i+j-d-1} after the
    wrap.  With mod_x1 every entry involving x_1 becomes zero and the matrix
    lives in x_2, ..., x_d.  Every entry is a monomial with the integer
    coefficient 1, so every minor has integer coefficients in any field.
    """
    d, m = params.d, params.m
    drop = 1 if mod_x1 else 0  # leading exponents left out of each entry
    rows = []
    for i in range(1, d + 1):
        row = []
        for j in range(1, d + 1):
            exps = [0] * d
            if j <= d - i + 1:
                exps[i + j - 2] = 1
            else:
                exps[0] = m
                exps[i + j - d - 2] += 1
            terms = {} if mod_x1 and exps[0] else {tuple(exps[drop:]): 1}
            row.append(Polynomial(terms, d - drop))
        rows.append(row)
    return PolyMatrix(rows)


# The matrix has integer entries, so its minors are computed once over the
# integers and cached for every field.  The field-coefficient copies are
# keyed by the active field's key: a run under GF(p) never sees Q
# coefficients.  The products that generate cal_I are taken over the
# integers too.


@lru_cache(maxsize=None)
def _int_minors(d: int, i: int) -> tuple:
    X = build_matrix(CurveParams(d), mod_x1=True)
    return tuple(X.submatrix(range(i + 1), cols).det() for cols in combinations(range(d), i + 1))


def _in_field(f: Polynomial, coerce) -> Polynomial:
    """f with its integer coefficients mapped into a field by `coerce`."""
    return Polynomial({m: coerce(c) for m, c in f.terms.items()}, f.varcount)


@lru_cache(maxsize=None)
def _minors(field_key, d: int, i: int) -> tuple:
    coerce = active_field().coerce
    return tuple(_in_field(f, coerce) for f in _int_minors(d, i))


def f_poly(d: int, i: int) -> Polynomial:
    """Determinant of the leading principal (i+1) x (i+1) block, mod x_1."""
    if not 1 <= i <= d - 1:
        raise ValueError("need 1 <= i <= d-1, got i=%d d=%d" % (i, d))
    return _minors(active_field().key, d, i)[0]


def minor_polynomials(d: int, i: int) -> list[Polynomial]:
    """All (i+1) x (i+1) minors of the first i+1 rows of the mod-x_1 matrix,
    column selections in lexicographic order."""
    if not 1 <= i <= d - 1:
        raise ValueError("need 1 <= i <= d-1, got i=%d d=%d" % (i, d))
    return list(_minors(active_field().key, d, i))


def cal_J(d: int, i: int) -> PolyIdeal:
    return PolyIdeal(minor_polynomials(d, i), d - 1)


def full_minors(params: CurveParams, i: int) -> list[Polynomial]:
    """Full-ring minors over column selections; used by parametrization checks."""
    if not 1 <= i <= params.d - 1:
        raise ValueError("need 1 <= i <= d-1")
    X = build_matrix(params, mod_x1=False)
    return [X.submatrix(range(i + 1), cols).det() for cols in combinations(range(params.d), i + 1)]


@lru_cache(maxsize=None)
def compositions(d: int, n: int) -> tuple:
    """All (a_1, ..., a_{d-1}) with sum of i*a_i equal to n, in colex order."""

    def rec(j, rem):
        if j == 0:
            if rem == 0:
                yield ()
            return
        for last in range(rem // j + 1):
            for head in rec(j - 1, rem - j * last):
                yield head + (last,)

    return tuple(rec(d - 1, n))


def _slot_products(slots: list, k: int, lo: int, prefix, out: list) -> None:
    """Append to `out` every product that fills factor slots k, k+1, ... .

    slots[k] is (minors, opens_block).  Inside a block the minor index never
    decreases, so slot k starts at index `lo` unless it opens a block.  Each
    product is its prefix times one minor, so a shared prefix is multiplied
    once; the walk is the lexicographic order of the index tuples and the
    products associate left to right.  It recurses at module level, like
    `_minor`.
    """
    minors, opens_block = slots[k]
    last = k + 1 == len(slots)
    for j in range(0 if opens_block else lo, len(minors)):
        f = minors[j] if prefix is None else prefix * minors[j]
        if last:
            out.append(f)
        else:
            _slot_products(slots, k + 1, j, f, out)


def integer_cal_I(d: int, n: int) -> list[Polynomial]:
    """The generators of cal_I(d, n) with their integer coefficients, before
    any field sees them; n = 0 gives the constant 1.

    For each composition a of n (colex order) the generators are the products
    of a_1 minors of size 2, then a_2 of size 3, and so on, each block a
    multiset of minors in lexicographic order.  The products are taken over
    the integers, sharing prefixes.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    if n < 0:
        raise ValueError("n must be non-negative")
    v = d - 1
    if n == 0:
        return [Polynomial({(0,) * v: 1}, v)]
    gens: list = []
    for a in compositions(d, n):
        slots = []
        for i, ai in enumerate(a, start=1):
            slots += [(_int_minors(d, i), s == 0) for s in range(ai)]
        _slot_products(slots, 0, 0, None, gens)
    return gens


def cal_I(d: int, n: int) -> PolyIdeal:
    """Weighted sum of products of the minor ideals; n = 0 is the unit ideal.
    Its generators are `integer_cal_I`'s, each mapped into the active field
    once; `PolyIdeal` drops any that vanish there."""
    coerce = active_field().coerce
    return PolyIdeal([_in_field(f, coerce) for f in integer_cal_I(d, n)], d - 1)


# -- the monomial side -----------------------------------------------------


def range_monomials(d: int, lo: int, hi: int, degree: int) -> list[tuple]:
    """Monomials of T' of the given degree supported on x_lo, ..., x_hi."""
    if not 2 <= lo or not hi <= d:
        raise ValueError("variable range out of bounds")
    if lo > hi:
        return [(0,) * (d - 1)] if degree == 0 else []
    width = hi - lo + 1
    offset = lo - 2
    v = d - 1
    out = []
    for exps in monomials_of_degree(width, degree):
        full = [0] * v
        full[offset : offset + width] = exps
        out.append(tuple(full))
    return out


def mono_J(d: int, i: int) -> MonomialIdeal:
    """The (i+1)-st power of (x_{i+1}, ..., x_d) as a monomial ideal."""
    if not 1 <= i <= d - 1:
        raise ValueError("need 1 <= i <= d-1, got i=%d d=%d" % (i, d))
    return MonomialIdeal(range_monomials(d, i + 1, d, i + 1), d - 1)


def nu(u) -> int:
    """The order of a monomial of T' in the filtration: the largest n with u in I_n.

    u is an exponent tuple over x_2, ..., x_d; u_i below is the exponent of
    x_i.  A product J_1^{a_1} ... J_{d-1}^{a_{d-1}} contains u iff every
    suffix sum S_j(u) = u_{j+1} + ... + u_d is at least the sum over i >= j of
    (i+1) a_i (the variable sets are nested suffixes, so Hall's condition
    reduces to these), so nu(u) is the largest sum of i a_i under those
    constraints.  Greedy from x_d down takes a_j = (S_j - used) // (j+1) and
    adds (j+1) a_j to `used`; the leftover passes down with x_j's exponent.

    Greedy is optimal, by an exchange argument and induction on d.  Fixing
    a_L at the top level L = d-1 leaves the same problem one level lower,
    with x_L's exponent raised by the leftover u_d - (L+1) a_L.  So lowering
    a_L by one gives up L and hands L+1 units of x_L down, which buy at most L
    there: one extra unit on any variable raises the order by at most 1
    (shrinking the highest block by one unit undoes it), and with L+1 extra
    units on x_L the lower greedy optimum (induction) holds a block of index
    L-1; removing it returns L of the units at a loss of L-1, and the last
    unit adds at most 1.  So a_L as large as possible is optimal, and the
    levels below are greedy by induction.
    """
    slack = order = 0
    for j in range(len(u), 0, -1):
        a, slack = divmod(slack + u[j - 1], j + 1)
        order += j * a
    return order


def _emit_generators(n: int, exps: list, p: int, slack: int, order: int, budget: int,
                     out: list) -> bool:
    """Append the minimal generators of I_n whose exponents above position p
    are those of `exps`, and return whether that prefix with zeros at
    positions p, ..., 0 already lies in I_n.

    `slack` and `order` are nu's greedy state after the levels above p, and
    `budget` is what is left of the degree bound 2n: nu(u) >= deg(u) // 2
    (blocks of size 2 alone), so u of degree above 2n keeps order n without
    any one unit and is not minimal.  Once a prefix lies in I_n, raising its
    last exponent gives no new generator.  It recurses at module level: a
    nested recursive closure is a reference cycle that keeps `out` alive
    until the cyclic collector runs.
    """
    if p == 0:
        low = max(2 * (n - order) - slack, 0)  # the least x_2 exponent reaching n
        u = (low,) + tuple(exps[1:])
        # minimal in x_2 by the choice of low; test the other variables
        if all(nu(u[:q] + (u[q] - 1,) + u[q + 1:]) < n for q in range(1, len(u)) if u[q]):
            out.append(u)
        return low == 0
    for e in range(budget + 1):
        exps[p] = e
        a, rest = divmod(slack + e, p + 2)
        if _emit_generators(n, exps, p - 1, rest, order + (p + 1) * a, budget - e, out):
            exps[p] = 0
            return e == 0
    exps[p] = 0
    return False


@lru_cache(maxsize=None)
def mono_I(d: int, n: int) -> MonomialIdeal:
    """The weighted-composition sum of powers of the mono_J ideals: the
    monomials u with nu(u) >= n.  Its minimal generators are the u with
    nu(u) >= n and nu(u - e_p) < n for every p in the support of u.

    By convention I_n is the unit ideal for n <= 0 (needed so the alternating
    length sums telescope at the boundary).
    """
    v = d - 1
    if n <= 0:
        return MonomialIdeal.unit(v)
    gens: list = []
    _emit_generators(n, [0] * v, v - 1, 0, 0, 2 * n, gens)
    return MonomialIdeal(gens, v)


def pure_powers(d: int, k: int) -> list[tuple]:
    """The list x_2^2, ..., x_k^k (empty when k < 2)."""
    v = d - 1
    return [pure_power(j - 2, v, j) for j in range(2, k + 1)]


# -- weighted compositions and the S sets ----------------------------------


def lambda_set(d: int, j: int, n: int) -> list[tuple]:
    """Compositions (a_1, ..., a_j) of weight n with a_j nonzero, colex order."""
    if not 1 <= j <= d - 1:
        raise ValueError("need 1 <= j <= d-1")
    return [a for a in compositions(j + 1, n) if a[-1]]


def s_set(d: int, a) -> frozenset:
    """The recursively defined monomial set S(a_1, ..., a_j).

    The base layer is a single power of x_{j+1}; when an earlier index k has
    a_k nonzero the set is the elementwise product of the head power, the set
    for the truncation at k, and all degree-k monomials in x_{k+1..j+1}.
    """
    a = tuple(a)
    j = len(a)
    if not 1 <= j <= d - 1:
        raise ValueError("composition length out of range")
    if min(a) < 0:
        raise ValueError("composition entries must be non-negative, got %r" % (a,))
    if a[-1] == 0:
        raise ValueError("the last entry of the composition must be nonzero")
    v = d - 1
    head = pure_power(j - 1, v, (j + 1) * a[-1] - j)
    earlier = [idx for idx in range(1, j) if a[idx - 1] != 0]
    if not earlier:
        return frozenset({head})
    k = max(earlier)
    bridge = range_monomials(d, k + 1, j + 1, k)
    return frozenset(times(times(head, s), mu) for s in s_set(d, a[:k]) for mu in bridge)
