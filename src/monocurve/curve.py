"""Constructions attached to the monomial curve with exponents d + (i-1)m.

Everything ideal-theoretic lives modulo x_1, in T' = k[x_2, ..., x_d]:
the structured matrix and its minors, the determinantal ideals and their
weighted-composition sums, their monomial counterparts, and the S sets.
The parameter m only enters through the full-ring matrix used in
parametrization sanity checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
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


# -- the structured matrix and its minors --------------------------------


def build_matrix(params: CurveParams, mod_x1: bool = False) -> PolyMatrix:
    """The structured d x d matrix: row i reads x_i, ..., x_d and then wraps
    to x_1^m x_1, x_1^m x_2, ...

    Entry (i, j) is x_{i+j-1} while j <= d-i+1 and x_1^m x_{i+j-d-1} after the
    wrap.  With mod_x1 every entry involving x_1 becomes zero and the matrix
    lives in x_2, ..., x_d.
    """
    d, m = params.d, params.m
    one = active_field().one
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
            terms = {} if mod_x1 and exps[0] else {tuple(exps[drop:]): one}
            row.append(Polynomial(terms, d - drop))
        rows.append(row)
    return PolyMatrix(rows)


# The minors hold coefficients, so their cache is keyed by the active
# field's key: a run under GF(p) never sees Q coefficients.


@lru_cache(maxsize=None)
def _minors(field_key, d: int, i: int) -> tuple:
    X = build_matrix(CurveParams(d), mod_x1=True)
    return tuple(X.submatrix(range(i + 1), cols).det() for cols in combinations(range(d), i + 1))


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


def cal_I(d: int, n: int) -> PolyIdeal:
    """Weighted sum of products of the minor ideals; n = 0 is the unit ideal."""
    if n < 0:
        raise ValueError("n must be non-negative")
    v = d - 1
    if n == 0:
        return PolyIdeal([Polynomial.constant(1, v)], v)
    gens = []
    minors = {i: minor_polynomials(d, i) for i in range(1, d)}
    for a in compositions(d, n):
        block_choices = []
        for i, ai in enumerate(a, start=1):
            if ai:
                block_choices.append(list(combinations_with_replacement(minors[i], ai)))
        for combo in product(*block_choices):
            f = None
            for block in combo:
                for g in block:
                    f = g if f is None else f * g
            if f:
                gens.append(f)
    return PolyIdeal(gens, v)


# -- the monomial side -----------------------------------------------------


def range_monomials(d: int, lo: int, hi: int, degree: int) -> list[tuple]:
    """Monomials of T' of the given degree supported on x_lo, ..., x_hi."""
    if not 2 <= lo or not hi <= d:
        raise ValueError("variable range out of bounds")
    if lo > hi:
        return [] if degree > 0 else [(0,) * (d - 1)]
    width = hi - lo + 1
    offset = lo - 2
    v = d - 1
    out = []
    for exps in monomials_of_degree(width, degree):
        full = [0] * v
        full[offset : offset + width] = exps
        out.append(tuple(full))
    return out


@lru_cache(maxsize=None)
def mono_J(d: int, i: int) -> MonomialIdeal:
    """The (i+1)-st power of (x_{i+1}, ..., x_d) as a monomial ideal."""
    if not 1 <= i <= d - 1:
        raise ValueError("need 1 <= i <= d-1, got i=%d d=%d" % (i, d))
    return MonomialIdeal(range_monomials(d, i + 1, d, i + 1), d - 1)


@lru_cache(maxsize=None)
def _composition_demands(d: int, n: int) -> tuple:
    """Per composition, the suffix demand vector: entry j-1 holds the degree
    the product forces into variables x_{j+1}, ..., x_d."""
    out = []
    for a in compositions(d, n):
        dem = [0] * (d - 1)
        acc = 0
        for j in range(d - 1, 0, -1):
            acc += (j + 1) * a[j - 1]
            dem[j - 1] = acc
        out.append(tuple(dem))
    return tuple(out)


def _emit_block_product_gens(dem: tuple, exps: list, p: int, s: int, out: set) -> None:
    """Generators of one product of variable-power ideals: monomials of exact
    degree dem[0] whose suffix sums dominate the demand vector.

    Fills positions p, ..., 0 of `exps`, whose later positions sum to s.  It
    recurses at module level: a nested recursive closure is a reference
    cycle that keeps `out` alive until the cyclic collector runs.
    """
    if p == 0:
        exps[0] = dem[0] - s
        out.add(tuple(exps))
        return
    for e in range(max(0, dem[p] - s), dem[0] - s + 1):
        exps[p] = e
        _emit_block_product_gens(dem, exps, p - 1, s + e, out)
    exps[p] = 0


@lru_cache(maxsize=None)
def mono_I(d: int, n: int) -> MonomialIdeal:
    """The weighted-composition sum of powers of the mono_J ideals.

    By convention I_n is the unit ideal for n <= 0 (needed so the alternating
    length sums telescope at the boundary).
    """
    v = d - 1
    if n <= 0:
        return MonomialIdeal.unit(v)
    candidates: set = set()
    for dem in set(_composition_demands(d, n)):
        _emit_block_product_gens(dem, [0] * v, v - 1, 0, candidates)
    return MonomialIdeal(candidates, v)


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
