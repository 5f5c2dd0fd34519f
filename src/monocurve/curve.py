"""Constructions attached to the monomial curve with exponents d + (i-1)m.

Everything ideal-theoretic lives modulo x_1, in T' = k[x_2, ..., x_d]:
the structured matrix and its minors, the determinantal ideals and their
weighted-composition sums, the monomial counterparts, and the witness
machinery for colon computations.  The parameter m only enters through the
full-ring matrix used in parametrization sanity checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from math import gcd

from .groebner import PolyIdeal
from .ideals import MonomialIdeal, monomials_of_degree
from .poly import Monomial, Polynomial, PolyMatrix
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


def weight(a) -> int:
    """Weight of a composition: sum of i * a_i."""
    return sum((i + 1) * ai for i, ai in enumerate(a))


# -- the structured matrix and its minors --------------------------------


def build_matrix(params: CurveParams, mod_x1: bool = False) -> PolyMatrix:
    """The structured d x d matrix: row i reads x_i, ..., x_d and then wraps
    to x_1^m x_1, x_1^m x_2, ...

    Entry (i, j) is x_{i+j-1} while j <= d-i+1 and x_1^m x_{i+j-d-1} after the
    wrap.  With mod_x1 every entry involving x_1 becomes zero and the matrix
    lives in x_2, ..., x_d.
    """
    d, m = params.d, params.m
    rows = []
    if mod_x1:
        v = d - 1
        for i in range(1, d + 1):
            row = []
            for j in range(1, d + 1):
                idx = i + j - 1
                if j <= d - i + 1 and idx >= 2:
                    row.append(Polynomial.variable(idx - 2, v))
                else:
                    row.append(Polynomial.zero(v))
            rows.append(row)
    else:
        field = active_field()
        for i in range(1, d + 1):
            row = []
            for j in range(1, d + 1):
                if j <= d - i + 1:
                    exps = [0] * d
                    exps[i + j - 2] = 1
                else:
                    exps = [0] * d
                    exps[0] = m
                    exps[i + j - d - 2] += 1
                row.append(Polynomial({Monomial(exps): field.one}, d))
            rows.append(row)
    return PolyMatrix(rows)


# The cached values below hold coefficients, so their caches are keyed by
# the active field's key: a run under GF(p) never sees Q coefficients.


@lru_cache(maxsize=None)
def _mod_matrix(field_key, d: int) -> PolyMatrix:
    return build_matrix(CurveParams(d, 1), mod_x1=True)


@lru_cache(maxsize=None)
def _f_poly(field_key, d: int, i: int) -> Polynomial:
    X = _mod_matrix(field_key, d)
    return X.submatrix(range(i + 1), range(i + 1)).det()


def f_poly(d: int, i: int) -> Polynomial:
    """Determinant of the leading principal (i+1) x (i+1) block, mod x_1."""
    if not 1 <= i <= d - 1:
        raise ValueError("need 1 <= i <= d-1, got i=%d d=%d" % (i, d))
    return _f_poly(active_field().key, d, i)


def minor_polynomials(d: int, i: int) -> list[Polynomial]:
    """All (i+1) x (i+1) minors of the first i+1 rows of the mod-x_1 matrix,
    column selections in lexicographic order."""
    if not 1 <= i <= d - 1:
        raise ValueError("need 1 <= i <= d-1, got i=%d d=%d" % (i, d))
    X = _mod_matrix(active_field().key, d)
    return [X.submatrix(range(i + 1), cols).det() for cols in combinations(range(d), i + 1)]


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


def range_monomials(d: int, lo: int, hi: int, degree: int) -> list[Monomial]:
    """Monomials of T' of the given degree supported on x_lo, ..., x_hi."""
    if not 2 <= lo or not hi <= d:
        raise ValueError("variable range out of bounds")
    if lo > hi:
        return [] if degree > 0 else [Monomial.one(d - 1)]
    width = hi - lo + 1
    offset = lo - 2
    v = d - 1
    out = []
    for exps in monomials_of_degree(width, degree):
        full = [0] * v
        full[offset : offset + width] = exps
        out.append(Monomial(full))
    return out


@lru_cache(maxsize=None)
def mono_J(d: int, i: int) -> MonomialIdeal:
    """The (i+1)-st power of (x_{i+1}, ..., x_d) as a monomial ideal."""
    if not 1 <= i <= d - 1:
        raise ValueError("need 1 <= i <= d-1, got i=%d d=%d" % (i, d))
    return MonomialIdeal(range_monomials(d, i + 1, d, i + 1), d - 1, _trusted_minimal=True)


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


def _suffix_sums(exps) -> tuple:
    out = []
    acc = 0
    for e in reversed(exps):
        acc += e
        out.append(acc)
    out.reverse()
    return tuple(out)


@lru_cache(maxsize=None)
def _member_suffix(d: int, n: int, suffix: tuple) -> bool:
    return any(
        all(dm <= s for dm, s in zip(dem, suffix)) for dem in _composition_demands(d, n)
    )


def in_ideal_family(d: int, n: int, m: Monomial) -> bool:
    """Membership of a monomial in I_n, decided from suffix degree sums."""
    if n <= 0:
        return True
    return _member_suffix(d, n, _suffix_sums(m.exps))


def _emit_block_product_gens(dem: tuple, v: int, out: set) -> None:
    """Generators of one product of variable-power ideals: monomials of exact
    degree dem[0] whose suffix sums dominate the demand vector."""
    total = dem[0]
    exps = [0] * v

    def rec(p, s):
        if p == 0:
            exps[0] = total - s
            out.add(Monomial(tuple(exps)))
            return
        for e in range(max(0, dem[p] - s), total - s + 1):
            exps[p] = e
            rec(p - 1, s + e)
        exps[p] = 0

    rec(v - 1, 0)


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
        _emit_block_product_gens(dem, v, candidates)
    return MonomialIdeal(candidates, v)


def pure_powers(d: int, k: int) -> list[Monomial]:
    """The list x_2^2, ..., x_k^k (empty when k < 2)."""
    v = d - 1
    return [Monomial.variable(j - 2, v, j) for j in range(2, k + 1)]


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
    head = Monomial.variable(j - 1, v, (j + 1) * a[-1] - j)
    earlier = [idx for idx in range(1, j) if a[idx - 1] != 0]
    if not earlier:
        return frozenset({head})
    k = max(earlier)
    bridge = range_monomials(d, k + 1, j + 1, k)
    return frozenset(
        head.times(s).times(mu) for s in s_set(d, a[:k]) for mu in bridge
    )


# -- colon witnesses --------------------------------------------------------


def algorithm1(b: dict, i: int, g: int, k: int | None = None):
    """Division-with-bounded-remainder chain over j = i-1 down to k-1.

    ``b`` maps j -> b_j for k <= j <= i-1.  Starting from r_i = 0, each step
    solves b_j - r_{j+1} = (j+1) q_j - r_j with 0 <= r_j <= j; then
    c = g - sum(b) and, when c > 0, c - r_k = k q_{k-1} - r_{k-1} with
    0 <= r_{k-1} <= k-1.  Returns (q, r, c) as dicts plus the integer c.
    """
    if k is None:
        if not b:
            raise ValueError("k must be given explicitly when b is empty")
        k = min(b)
    if b:
        if set(b) != set(range(k, i)):
            raise ValueError("b must be indexed by k..i-1")
        if any(v < 0 for v in b.values()):
            raise ValueError("b entries must be non-negative")
    q: dict = {}
    r: dict = {i: 0}
    for j in range(i - 1, k - 1, -1):
        if b[j] == 0:
            q[j], r[j] = 0, r[j + 1]
        else:
            # q_j may be any integer here; only 0 <= r_j <= j is required
            t = b[j] - r[j + 1]
            qj = -(-t // (j + 1))  # ceiling division
            rj = (j + 1) * qj - t
            if not 0 <= rj <= j:
                raise InvariantViolation("no admissible (q_%d, r_%d) for t=%d" % (j, j, t))
            q[j], r[j] = qj, rj
    c = g - sum(b.values())
    if c == 0:
        q[k - 1], r[k - 1] = 0, r[k]
    else:
        # as above, q_{k-1} is occasionally negative on valid inputs; the
        # remainder range is what pins the solution
        t = c - r[k]
        qk = -(-t // k)
        rk = k * qk - t
        if not 0 <= rk <= k - 1:
            raise InvariantViolation("no admissible (q_%d, r_%d) for c=%d" % (k - 1, k - 1, c))
        q[k - 1], r[k - 1] = qk, rk
    return q, r, c


@dataclass(frozen=True)
class ColonWitness:
    """Certificate that dividing a block product by x_i^g stays deep in the family.

    ``mprime[j]`` is the adjusted block for 1 <= j <= i-1, ``aprime`` the
    adjusted composition (unchanged from index i on), and ``leftover`` the
    spare monomial N with (prod M_j) / x_i^g = (prod M'_j) * N.
    """

    qr: dict
    aprime: tuple
    mprime: dict
    leftover: Monomial
    k: int
    g: int
    c: int


def _degree_divisor(w: Monomial, degree: int) -> Monomial:
    """A fixed divisor of w of the given degree: greedy from the top variable."""
    if degree > w.degree:
        raise InvariantViolation("no degree-%d divisor of %r" % (degree, w.exps))
    exps = [0] * len(w.exps)
    need = degree
    for p in range(len(w.exps) - 1, -1, -1):
        take = min(w.exps[p], need)
        exps[p] = take
        need -= take
        if need == 0:
            break
    return Monomial(exps)


def colon_witness(d: int, mons, a, i: int) -> ColonWitness:
    """Build and verify the witness for ((prod M_j) : x_i^i) membership.

    ``mons[j-1]`` must lie in mono_J(d, j) to the power a_j, with degree
    exactly (j+1) a_j.  The three verified facts: each M'_j stays in its block
    power, the quotient identity holds exactly, and the adjusted weight is at
    least wt(a) - i + 1.  A failure raises InvariantViolation.
    """
    v = d - 1
    a = tuple(a)
    mons = list(mons)
    if len(a) != d - 1 or len(mons) != d - 1:
        raise ValueError("need d-1 blocks and composition entries")
    if not 2 <= i <= d:
        raise ValueError("need 2 <= i <= d")
    for j in range(1, d):
        mj = mons[j - 1]
        if mj.degree != (j + 1) * a[j - 1]:
            raise ValueError("block %d has degree %d, expected %d" % (j, mj.degree, (j + 1) * a[j - 1]))
        if any(mj.exps[p] and p < j - 1 for p in range(v)):
            raise ValueError("block %d uses variables below x_%d" % (j, j + 1))
    n = weight(a)
    pos_i = i - 2
    b = {j: mons[j - 1].exps[pos_i] for j in range(1, i)}
    total_b = sum(b.values())

    if total_b == 0:
        witness = ColonWitness(
            qr={},
            aprime=a,
            mprime={j: mons[j - 1] for j in range(1, i)},
            leftover=Monomial.one(v),
            k=i,
            g=0,
            c=0,
        )
        _verify_witness(d, mons, a, i, witness)
        return witness

    g = min(i, total_b)
    k = i
    acc = 0
    for l in range(i - 1, 0, -1):
        acc += b[l]
        if acc <= i - 1:
            k = l
        else:
            break
    restricted = {j: b[j] for j in range(k, i)}
    q, r, c = algorithm1(restricted, i, g, k=k)

    try:
        nmons = {i: Monomial.one(v)}
        for j in range(i - 1, k - 1, -1):
            if b[j] == 0:
                nmons[j] = nmons[j + 1]
            else:
                w = mons[j - 1].times(nmons[j + 1]).quo(Monomial.variable(pos_i, v, b[j]))
                nmons[j] = _degree_divisor(w, r[j])
        m_last = mons[k - 2] if k >= 2 else Monomial.one(v)
        w = m_last.times(nmons[k]).quo(Monomial.variable(pos_i, v, c))
        nmons[k - 1] = _degree_divisor(w, r[k - 1])

        aprime = list(a)
        for j in range(max(k - 1, 1), i):
            aprime[j - 1] = a[j - 1] - q[j]
        rk1 = r[k - 1]
        if rk1 >= 2:
            # the bumped index never coincides with k-1 itself: in the c > 0
            # branch r_{k-1} <= k-1, and c = 0 forces k = 1
            aprime[rk1 - 2] = a[rk1 - 2] + 1

        mprime: dict = {}
        for j in range(1, i):
            if j == k - 1:
                mprime[j] = m_last.times(nmons[k]).quo(
                    Monomial.variable(pos_i, v, c).times(nmons[k - 1])
                )
            elif j >= k:
                mprime[j] = mons[j - 1].times(nmons[j + 1]).quo(
                    Monomial.variable(pos_i, v, b[j]).times(nmons[j])
                )
            else:
                mprime[j] = mons[j - 1]
        if rk1 >= 2:
            mprime[rk1 - 1] = mons[rk1 - 2].times(nmons[k - 1])

        leftover = nmons[k - 1] if rk1 <= 1 else Monomial.one(v)
    except ValueError as exc:
        raise InvariantViolation("witness construction failed: %s" % exc) from exc

    witness = ColonWitness(
        qr={j: (q[j], r[j]) for j in q},
        aprime=tuple(aprime),
        mprime=mprime,
        leftover=leftover,
        k=k,
        g=g,
        c=c,
    )
    _verify_witness(d, mons, a, i, witness)
    return witness


def _verify_witness(d, mons, a, i, witness: ColonWitness) -> None:
    v = d - 1
    n = weight(a)
    for j in range(1, i):
        ap = witness.aprime[j - 1]
        mp = witness.mprime[j]
        if ap < 0:
            raise InvariantViolation("negative adjusted exponent a'_%d" % j)
        if mp.degree != (j + 1) * ap:
            raise InvariantViolation(
                "block %d has degree %d, expected %d" % (j, mp.degree, (j + 1) * ap)
            )
        if any(mp.exps[p] and p < j - 1 for p in range(v)):
            raise InvariantViolation("adjusted block %d leaves its variable range" % j)
    lhs = Monomial.one(v)
    for j in range(1, i):
        lhs = lhs.times(mons[j - 1])
    lhs = lhs.quo(Monomial.variable(i - 2, v, witness.g))
    rhs = witness.leftover
    for j in range(1, i):
        rhs = rhs.times(witness.mprime[j])
    if lhs != rhs:
        raise InvariantViolation("quotient identity fails: %r vs %r" % (lhs.exps, rhs.exps))
    adjusted = sum(j * witness.aprime[j - 1] for j in range(1, i)) + sum(
        j * a[j - 1] for j in range(i, d)
    )
    if adjusted < n - i + 1:
        raise InvariantViolation("adjusted weight %d below %d" % (adjusted, n - i + 1))
