"""Constructions attached to the monomial curve with exponents d + (i-1)m.

Everything ideal-theoretic lives modulo x_1, in T' = k[x_2, ..., x_d]:
the structured matrix and its minors, the determinantal ideals and their
weighted-composition sums, with the leading ideals and generator counts
the suites read of them, their monomial counterparts, and the S sets.
The parameter m only enters through the full-ring matrix and the curve's
parametrization, which the sanity checks use.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import comb, gcd, prod

from .groebner import UNIT_ROWS, PolyIdeal, echelon_walk, integer_terms
from .ideals import MonomialIdeal, monomials_of_degree
from .poly import Polynomial, PolyMatrix, pure_power, times
from .scalars import active_field


class InvariantViolation(RuntimeError):
    """A consistency condition that should be a theorem failed on real data."""


_Params = namedtuple("_Params", "d m", defaults=(1,))


class CurveParams(_Params):
    """The curve's d and m, checked: d >= 2, m >= 1, gcd(d, m) = 1."""

    __slots__ = ()

    def __new__(cls, d: int, m: int = 1):
        if d < 2:
            raise ValueError("d must be at least 2")
        if m < 1:
            raise ValueError("m must be at least 1")
        if gcd(d, m) != 1:
            raise ValueError("d and m must be coprime")
        return super().__new__(cls, d, m)

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
        out[key] = out.get(key, 0) + c
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
# integers, in one table per (params, mod_x1); each call maps them into the
# active field afresh, so no field-coefficient copy outlives a change of
# field.


@lru_cache(maxsize=None)
def _minor_table(params: CurveParams, mod_x1: bool) -> tuple:
    """Entry i: the (i+1)-minors of the first i+1 rows, with int coefficients."""
    return build_matrix(params, mod_x1).leading_minors()


def _int_minors(d: int, i: int) -> tuple:
    return _minor_table(CurveParams(d), True)[i]


def _in_field(f: Polynomial, coerce) -> Polynomial:
    """f with its integer coefficients mapped into a field by `coerce`."""
    return Polynomial({m: coerce(c) for m, c in f.terms.items()}, f.varcount)


def f_poly(d: int, i: int) -> Polynomial:
    """Determinant of the leading principal (i+1) x (i+1) block, mod x_1."""
    if not 1 <= i <= d - 1:
        raise ValueError("need 1 <= i <= d-1, got i=%d d=%d" % (i, d))
    return _in_field(_int_minors(d, i)[0], active_field().coerce)


def minor_polynomials(d: int, i: int) -> list[Polynomial]:
    """All (i+1) x (i+1) minors of the first i+1 rows of the mod-x_1 matrix,
    column selections in lexicographic order."""
    if not 1 <= i <= d - 1:
        raise ValueError("need 1 <= i <= d-1, got i=%d d=%d" % (i, d))
    coerce = active_field().coerce
    return [_in_field(f, coerce) for f in _int_minors(d, i)]


def cal_J(d: int, i: int) -> PolyIdeal:
    return PolyIdeal(minor_polynomials(d, i), d - 1)


def full_minors(params: CurveParams, i: int) -> list[Polynomial]:
    """Full-ring minors over column selections; used by parametrization checks."""
    if not 1 <= i <= params.d - 1:
        raise ValueError("need 1 <= i <= d-1")
    return list(_minor_table(params, False)[i])


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


def _slot_products(slots: list, k: int, lo: int, prefix):
    """Yield every product that fills factor slots k, k+1, ... .

    slots[k] is (minors, opens_block).  Inside a block the minor index never
    decreases, so slot k starts at index `lo` unless it opens a block.  Each
    product is its prefix times one minor, so a shared prefix is multiplied
    once, when the first product under it is pulled; the walk is the
    lexicographic order of the index tuples and the products associate left
    to right.  It recurses at module level, so no closure forms a cycle.
    """
    minors, opens_block = slots[k]
    last = k + 1 == len(slots)
    for j in range(0 if opens_block else lo, len(minors)):
        f = minors[j] if prefix is None else prefix * minors[j]
        if last:
            yield f
        else:
            yield from _slot_products(slots, k + 1, j, f)


def _composition_products(d: int, a: tuple):
    """Yield the integer products of one composition a, lazily: a_1 minors
    of size 2, then a_2 of size 3, and so on, each block a multiset of
    minors in lexicographic order; the empty composition yields 1."""
    slots = []
    for i, ai in enumerate(a, start=1):
        slots += [(_int_minors(d, i), s == 0) for s in range(ai)]
    if slots:
        yield from _slot_products(slots, 0, 0, None)
    else:
        yield Polynomial({(0,) * (d - 1): 1}, d - 1)


def cal_I(d: int, n: int) -> PolyIdeal:
    """Weighted sum of products of the minor ideals; n = 0 is the unit ideal.
    Its generators are the products of every composition in colex order,
    each multiplied out over the integers and mapped into the active field
    once; `PolyIdeal` drops any that vanish there."""
    if d < 2:
        raise ValueError("d must be at least 2")
    if n < 0:
        raise ValueError("n must be non-negative")
    coerce = active_field().coerce
    gens = [_in_field(f, coerce) for a in compositions(d, n) for f in _composition_products(d, a)]
    return PolyIdeal(gens, d - 1)


# -- the leading ideal of cal_I and its generator counts --------------------
#
# The suites build no product of minors: they walk cal_I degree by degree
# from the minors, and count its generators from them.  What they read
# depends on the field, so it is cached by the active field's key, which
# each reader below looks up itself.  A walk that `echelon_walk` refuses
# raises its ValueError through the reader; the cache keeps no refusal.


@lru_cache(maxsize=None)
def _cal_I_basis(field_key, d: int, n: int) -> tuple:
    """LI(cal_I(d, n)) and its echelon rows `new` by degree, both from
    `echelon_walk` in the active field, the rows as pairs (t, new_t), new_t
    the rows the minors of J_t gave, t = 0 for the unit ideal's.

    Every composition of n has some a_i > 0, so cal_I(n) is the sum over
    1 <= i <= min(n, d-1) of J_i cal_I(n-i), with cal_I(0) = (1).  For K =
    cal_I(n-i) the walk gives K_e = x K_{e-1} + span new(n-i)_e, so for f
    a minor of J_i, of degree s, f K_{e-s} = x f K_{e-s-1} + f new(n-i)_{e-s},
    where f K_{e-s-1} lies in cal_I(n)_{e-1}.  Hence cal_I(n)_e is x
    cal_I(n)_{e-1} plus the sum of f new(n-i)_{e-s} over i and f, which the
    walk reads from the pieces (f, new(n-i)); new(n-i) ends at the first
    full degree of cal_I(n-i).

    The pieces of J_i take only the rows new_t of cal_I(n-i) with t <= i.
    By descending induction on i from d-1, where every row is read, the
    groups above i span J_t cal_I(n-t) modulo x cal_I(n)_{e-1} for t > i.
    A row q of new_t, t > i, is c f' r' less earlier pivots of its walk, f'
    a minor of J_t and r' a row of cal_I(n-i-t), so f q is c f' (f r'), with
    f r' in cal_I(n-t), less f times those pivots: f times a pivot x made
    lies in x cal_I(n)_{e-1}, and f times one a product made is read, or is
    the same case for a pivot read earlier.  The walk reads the groups for
    i descending, which is faster past the default grid.

    A refused cal_I(n-i) refuses cal_I(n), its ValueError raised here: a
    minor of J_i expands along its last row into minors of J_{i-1}, so
    cal_I(n) lies in cal_I(n-i), and its quotient is no nearer Artinian.
    """
    v = d - 1
    if n == 0:
        return MonomialIdeal.unit(v), ((0, UNIT_ROWS),)
    belows = [_cal_I_basis(field_key, d, n - i)[1] for i in range(1, min(n, v) + 1)]
    tags = range(len(belows), 0, -1)
    groups = [[(f, rows) for f in _int_minors(d, i) for t, rows in belows[i - 1] if t <= i]
              for i in tags]
    leads, new = echelon_walk(groups, v)
    return MonomialIdeal._of_minimal(leads, v), tuple(zip(tags, new))


def leading_cal_I(d: int, n: int) -> MonomialIdeal:
    """LI(cal_I(d, n)) in the active field, read off its cached basis."""
    return _cal_I_basis(active_field().key, d, n)[0]


def leading_cal_I_with_f(d: int, n: int, k: int) -> MonomialIdeal:
    """LI(cal_I(d, n) + (f_1, ..., f_k)) in the active field, walked from
    each f_i and the new rows of the cached basis of cal_I(d, n), which
    generate it; a refused cal_I(d, n) raises its ValueError here."""
    basis = _cal_I_basis(active_field().key, d, n)
    v = d - 1
    one = Polynomial({(0,) * v: 1}, v)
    pieces = [(_int_minors(d, i)[0], UNIT_ROWS) for i in range(1, k + 1)]
    pieces += [(one, rows) for _, rows in basis[1]]
    return MonomialIdeal._of_minimal(echelon_walk([pieces], v)[0], v)


def _multisets(z: int, a: int) -> int:
    """The number of multisets of a elements drawn from z."""
    return comb(z + a - 1, a) if a else 1


@lru_cache(maxsize=None)
def _cal_I_counts(field_key, d: int, n: int) -> tuple:
    """The number of generators of cal_I(d, n), and the number of
    inhomogeneous ones, as in the active field.

    The counts need no product.  The generators are the products of a
    multiset of a_i minors of size i+1 for each i, over the compositions a
    of n, and T' over a field is a domain, so a product of nonzero factors
    is nonzero, and homogeneous exactly when each factor is (the product of
    the factors' lowest-degree parts, and of their highest, is nonzero).
    With z_i the minors of size i+1 that are nonzero as `integer_terms`
    reads them in the field, the generators that survive there number
    sum_a prod_i C(z_i + a_i - 1, a_i); the homogeneous ones are the same
    sum over the homogeneous minors.
    """
    p = active_field().characteristic
    nonzero, homogeneous = [], []
    for i in range(1, d):
        read = [t for t in (integer_terms(f.terms, p) for f in _int_minors(d, i)) if t]
        nonzero.append(len(read))
        homogeneous.append(sum(1 for t in read if len(set(map(sum, t))) == 1))

    def products(z: list) -> int:
        return sum(prod(map(_multisets, z, a)) for a in compositions(d, n))

    count = products(nonzero)
    return count, count - products(homogeneous)


def cal_I_generator_counts(d: int, n: int) -> tuple:
    """(generators, inhomogeneous generators) of cal_I(d, n) in the active
    field, counted from the minors."""
    return _cal_I_counts(active_field().key, d, n)


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


def _emit_generators(n: int, exps: list, p: int, slack: int, weight: int, budget: int,
                     out: list) -> bool:
    """Append the minimal generators of I_n whose exponents above position p
    are those of `exps`, and return whether that prefix with zeros at
    positions p, ..., 0 already lies in I_n.

    `slack` and `weight` (the sum of i a_i so far) are nu's greedy state
    after the levels above p, and `budget` is what is left of the degree
    bound 2n: nu(u) >= deg(u) // 2 (blocks of size 2 alone), so u of degree
    above 2n keeps order n without any one unit and is not minimal.  Once a
    prefix lies in I_n, raising its last exponent gives no new generator, so
    each level stops there.

    Every u appended is minimal without a test of its own.  Moving a unit
    from one variable to a later one lowers no suffix sum S_j (see nu), so
    it keeps a monomial in I_n.  Suppose u - e_q lies in I_n for some q >= 1
    in the support of u, and let s <= q be the first position where u is
    nonzero.  Moving a unit of u - e_q from s to q puts u - e_s in I_n.  If
    s = 0, that contradicts the least x_2 exponent.  Otherwise u - e_s is
    the prefix of u with u_s - 1 at s and zeros below, which level s tried
    before u_s and found outside I_n, else it would have stopped there.
    Level 1 is folded into one loop: for each x_3 exponent it computes the
    least x_2 exponent inline, as level 0 would, and stops at the first
    that is zero, so the argument is unchanged; level 0 runs on its own
    only at d = 2, where x_2 is the one variable.

    It recurses at module level: a nested recursive closure is a reference
    cycle that keeps `out` alive until the cyclic collector runs.
    """
    if p == 0:
        low = max(2 * (n - weight) - slack, 0)  # the least x_2 exponent reaching n
        out.append((low,))
        return low == 0
    if p == 1:
        rest = tuple(exps[2:])
        for e in range(budget + 1):
            a, r = divmod(slack + e, 3)
            low = 2 * (n - weight - 2 * a) - r  # as at level 0
            if low < 0:
                low = 0
            out.append((low, e) + rest)
            if not low:
                return e == 0
        return False
    for e in range(budget + 1):
        exps[p] = e
        a, rest = divmod(slack + e, p + 2)
        if _emit_generators(n, exps, p - 1, rest, weight + (p + 1) * a, budget - e, out):
            exps[p] = 0
            return e == 0
    exps[p] = 0
    return False


def mono_I_generators(d: int, n: int) -> list[tuple]:
    """The minimal generators of I_n in the emitter's order, each once: the
    u with nu(u) >= n and nu(u - e_p) < n for every p in the support of u;
    the constant 1 for n <= 0.  Uncached, for readers that need only the
    list and not the ideal."""
    v = d - 1
    if n <= 0:
        return [(0,) * v]
    gens: list = []
    _emit_generators(n, [0] * v, v - 1, 0, 0, 2 * n, gens)
    return gens


@lru_cache(maxsize=None)
def mono_I(d: int, n: int) -> MonomialIdeal:
    """The weighted-composition sum of powers of the mono_J ideals: the
    monomials u with nu(u) >= n, generated by `mono_I_generators`.

    By convention I_n is the unit ideal for n <= 0 (needed so the alternating
    length sums telescope at the boundary).  The emitter's list is minimal
    and free of duplicates (see `_emit_generators`), so it is sorted and
    not minimalized again.
    """
    return MonomialIdeal._of_minimal(mono_I_generators(d, n), d - 1)


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
