"""Independent reference implementations the tests check the engine against.

Nothing here shares an algorithm with the package: determinants come from
the permutation sum, minimal generators from the all-pairs definition,
products and powers of monomial ideals from generator-by-generator
products, colons by a monomial from each generator's quotient, staircase
lengths from degree-capped enumeration, the monomials between two ideals
from a walk over every monomial of each degree, quotient lengths of
polynomial ideals, and every leading monomial up to the first full
degree, from the rank of every generator times every monomial of each
degree (the package shifts only its echelon rows), the columns of a
shifted monomial from one lookup per product (the package composes
one-variable steps), the order from a literal transcription of its
definition, S-polynomials from theirs with leading terms picked by that
order, leading monomials of minors from their anti-diagonals, membership
in products of variable-range powers from Hall's condition, membership in I_n from suffix
degree sums against each composition's demands, the order function nu by
maximising over every composition, the generators of I_n from each
composition's block products minimalized together, the filtration sums from
one generator list minimalized once and from the package's ideal sums
chained one summand at a time (the package's cached sums chain the same
`+`, so for them the list minimalized once is the independent route), the
generators of cal_I from every product of field-coefficient minors
multiplied out on its own, the text of a monomial from a loop that
formats each factor afresh, and an ideal's from those texts joined (the
package renders every generator at once, column by column), the Artinian
test from a scan of the generators for pure powers (the package reads its
divisibility masks), and the multiples of a generating set outside an
ideal from a depth-first walk that tests one monomial at a time (the
package walks layer by layer and filters each layer as one list).
The submatrices and the homogeneity test are here because only the tests
use them.
"""

from itertools import combinations, combinations_with_replacement, permutations, product

from monocurve.curve import compositions, minor_polynomials, mono_I
from monocurve.groebner import PolyIdeal
from monocurve.ideals import MonomialIdeal, monomials_of_degree
from monocurve.order import GREVELEX
from monocurve.poly import Polynomial, PolyMatrix, pure_power, times
from monocurve.scalars import active_field


def int_poly(int_terms: dict, varcount: int) -> Polynomial:
    """A polynomial from {exponent tuple: integer coefficient} over the active field."""
    field = active_field()
    return Polynomial({e: field.coerce(c) for e, c in int_terms.items()}, varcount)


def field_matrix(matrix) -> PolyMatrix:
    """The matrix with every coefficient mapped into the active field."""
    coerce = active_field().coerce
    return PolyMatrix(
        [[Polynomial({e: coerce(c) for e, c in p.terms.items()}, p.varcount) for p in row]
         for row in matrix.entries]
    )


def submatrix(matrix, rows, cols) -> PolyMatrix:
    """The matrix of the given rows and columns of `matrix`, in that order."""
    return PolyMatrix([[matrix.entries[r][c] for c in cols] for r in rows])


def is_homogeneous(f: Polynomial) -> bool:
    """Whether every term of f has one degree; the zero polynomial has."""
    return len(set(map(sum, f.terms))) <= 1


def compare(a, b) -> int:
    """The package's order as a three-way comparison for the axiom tests:
    -1, 0 or 1 as a is below, equal to or above b."""
    ka, kb = GREVELEX(a), GREVELEX(b)
    return (ka > kb) - (ka < kb)


def leibniz_determinant(matrix) -> Polynomial:
    """Sum over permutations of signed entry products."""
    n = matrix.size
    det = Polynomial.zero(matrix.varcount)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = None
        for r in range(n):
            e = matrix.entries[r][perm[r]]
            term = e if term is None else term * e
        det = det + term if sign > 0 else det - term
    return det


def antidiagonal_product(matrix) -> tuple:
    """Product of the anti-diagonal entries; entries must be single terms."""
    n = matrix.size
    out = (0,) * matrix.varcount
    for r in range(n):
        entry = matrix.entries[r][n - 1 - r]
        if len(entry.terms) != 1:
            raise ValueError("anti-diagonal entry is not a single term")
        (m,) = entry.terms
        out = times(out, m)
    return out


def divides_tuple(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def minimal_generators_naive(gen_exps) -> list:
    """Exponent tuples divisible by no other one in the list, deduplicated and
    sorted by (degree, exponents): the all-pairs definition."""
    distinct = set(map(tuple, gen_exps))
    keep = [g for g in distinct if not any(h != g and divides_tuple(h, g) for h in distinct)]
    return sorted(keep, key=lambda g: (sum(g), g))


def staircase_count(gen_exps, varcount: int) -> int:
    """Monomials outside an Artinian ideal, enumerated degree by degree.

    If x_i^a_i is the least pure power of x_i among the generators, no
    monomial of degree above sum(a_i - 1) is standard, so the enumeration
    stops there.
    """
    cap = sum(min(g[i] for g in gen_exps if sum(g) == g[i]) - 1 for i in range(varcount))
    count = 0
    for degree in range(cap + 1):
        for exps in monomials_of_degree(varcount, degree):
            if not any(divides_tuple(g, exps) for g in gen_exps):
                count += 1
    return count


def monomials_between_box(outer: MonomialIdeal, inner: MonomialIdeal) -> list[tuple]:
    """Monomials lying in `outer` but not in `inner`; `inner` must be Artinian.

    Enumerates degree by degree and stops at the first degree fully contained
    in `inner`.
    """
    if not inner.is_artinian():
        raise ValueError("difference against a non-Artinian ideal is infinite")
    varcount = outer.varcount
    out = []
    degree = 0
    while True:
        full = True
        for m in monomials_of_degree(varcount, degree):
            if inner.contains(m):
                continue
            full = False
            if outer.contains(m):
                out.append(m)
        if full:
            return out
        degree += 1


def _degreewise_leads(ideal: PolyIdeal):
    """For each degree e from 0 to the first with no standard monomial, the
    leading monomials of the span of {m*g : deg(m*g) = e}, row-reduced over
    the degree-e monomial basis: the generators are homogeneous, so every
    later degree lies in the ideal too."""
    gens = ideal.gens
    if not gens:
        raise ValueError("the zero ideal has an infinite quotient")
    for g in gens:
        if not is_homogeneous(g):
            raise ValueError("hilbert_oracle requires homogeneous generators")
    v = ideal.varcount
    maxdeg = max(g.degree() for g in gens)
    cap = v * (maxdeg - 1) + 1 if maxdeg > 0 else 0
    e = 0
    while True:
        if e > cap:
            raise ValueError("quotient does not appear to be Artinian")
        pivots: dict[tuple, dict] = {}
        for g in gens:
            shift_deg = e - g.degree()
            if shift_deg < 0:
                continue
            for shift in monomials_of_degree(v, shift_deg):
                row = {times(m, shift): c for m, c in g.terms.items()}
                while row:
                    lead = max(row, key=GREVELEX)
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
        yield e, list(pivots)
        if len(pivots) == len(list(monomials_of_degree(v, e))):
            return
        e += 1


def hilbert_oracle(ideal: PolyIdeal) -> int:
    """Quotient length by degreewise rank counting; no Groebner bases involved.

    For each degree e the span of {m*g : deg(m*g) = e} is row-reduced over
    the degree-e monomial basis; the number of standard monomials at degree e
    is the corank.  Summation stops at the first degree with no standard
    monomial.
    """
    v = ideal.varcount
    return sum(len(list(monomials_of_degree(v, e))) - len(leads) for e, leads in _degreewise_leads(ideal))


def leading_monomials_by_rank(ideal: PolyIdeal) -> list[tuple]:
    """Every leading monomial of the ideal up to its first full degree, from
    the degreewise row reduction of `hilbert_oracle`: not minimalized."""
    return [u for _, leads in _degreewise_leads(ideal) for u in leads]


def shift_by_columns(v: int, e: int, m: tuple) -> tuple:
    """For each monomial of degree e, in `monomials_of_degree` order, the
    place of its product with m among the monomials of degree e + |m|: one
    dict lookup of each product."""
    column = {u: i for i, u in enumerate(monomials_of_degree(v, e + sum(m)))}
    return tuple(column[times(u, m)] for u in monomials_of_degree(v, e))


def ideal_product(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """The product ideal, generated by every product of two generators."""
    return MonomialIdeal([times(g, h) for g in a.gens for h in b.gens], a.varcount)


def ideal_power(ideal: MonomialIdeal, k: int) -> MonomialIdeal:
    """The k-th power as k ideal products; the empty product is the unit ideal."""
    out = MonomialIdeal.unit(ideal.varcount)
    for _ in range(k):
        out = ideal_product(out, ideal)
    return out


def scaled_ideal(ideal: MonomialIdeal, m) -> MonomialIdeal:
    """The ideal m * I."""
    return MonomialIdeal([times(g, m) for g in ideal.gens], ideal.varcount)


def format_monomial_loop(m: tuple, first_index: int = 2) -> str:
    """A monomial's text, each factor formatted afresh: x<p>^<e>, or x<p>
    for e = 1, joined by '*'; "1" for the constant."""
    if not any(m):
        return "1"
    parts = []
    for p, e in enumerate(m):
        if e:
            name = "x%d" % (p + first_index)
            parts.append(name if e == 1 else "%s^%d" % (name, e))
    return "*".join(parts)


def format_ideal_loop(ideal: MonomialIdeal, first_index: int = 2) -> str:
    """An ideal's text, generator by generator: "0" for the zero ideal,
    else each generator's `format_monomial_loop`, joined by ", "."""
    if ideal.is_zero():
        return "0"
    return ", ".join(format_monomial_loop(g, first_index) for g in ideal.gens)


def is_artinian_scan(ideal: MonomialIdeal) -> bool:
    """True iff every variable has a pure power among the generators,
    looked for generator by generator."""
    for v in range(ideal.varcount):
        if not any(sum(g) == g[v] for g in ideal.gens):
            return False
    return True


def multiples_outside_dfs(gens, varcount: int, in_ideal) -> list[tuple]:
    """The multiples of `gens` that the one-monomial membership test
    `in_ideal` rejects, by degree and then in decreasing lex order: a
    depth-first walk up from the gens, one monomial and one variable at a
    time, pruning each monomial `in_ideal` accepts."""
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


def colon_generators(gens, m) -> list[tuple]:
    """The quotients g / gcd(g, m), over every variable at once, of any
    generating list: they generate its ideal's colon by m, since
    (A + B) : m = (A : m) + (B : m) for monomial ideals."""
    return [tuple(max(a - b, 0) for a, b in zip(g, m)) for g in gens]


def filtration_sum(d: int, N: int, i: int) -> list[tuple]:
    """Generators, not minimalized, of I_N + sum over 2 <= j < i of x_j^j I_{N-j},
    in one pass over the summands."""
    v = d - 1
    gens = list(mono_I(d, N).gens)
    for j in range(2, i):
        pw = pure_power(j - 2, v, j)
        gens += [times(g, pw) for g in mono_I(d, N - j).gens]
    return gens


def filtration_sum_chained(d: int, N: int, i: int) -> MonomialIdeal:
    """I_N + sum over 2 <= j < i of x_j^j I_{N-j}, one ideal sum at a time,
    each scaled summand minimalized with the running sum."""
    v = d - 1
    out = mono_I(d, N)
    for j in range(2, i):
        out = out + scaled_ideal(mono_I(d, N - j), pure_power(j - 2, v, j))
    return out


def in_ideal_family(d: int, n: int, m) -> bool:
    """Membership of a monomial in I_n: some composition a of n demands at
    most the degree m has in every suffix x_{j+1}, ..., x_d, where a demands
    sum over i >= j of (i+1) a_i there."""
    if n <= 0:
        return True
    suffix = [sum(m[j - 1:]) for j in range(1, d)]
    for a in compositions(d, n):
        demand = [sum((i + 1) * a[i - 1] for i in range(j, d)) for j in range(1, d)]
        if all(dm <= s for dm, s in zip(demand, suffix)):
            return True
    return False


def nu_bruteforce(d: int, m) -> int:
    """The largest n with m in I_n, over every composition of weight up to
    deg(m) (at least 0, where the unit ideal contains m)."""
    return max(n for n in range(sum(m) + 1) if in_ideal_family(d, n, m))


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

    Fills positions p, ..., 0 of `exps`, whose later positions sum to s.
    """
    if p == 0:
        exps[0] = dem[0] - s
        out.add(tuple(exps))
        return
    for e in range(max(0, dem[p] - s), dem[0] - s + 1):
        exps[p] = e
        _emit_block_product_gens(dem, exps, p - 1, s + e, out)
    exps[p] = 0


def block_product_generators(d: int, n: int) -> tuple:
    """The minimal generators of I_n (n >= 1): every composition's block
    product generators, minimalized together."""
    candidates: set = set()
    for dem in set(_composition_demands(d, n)):
        _emit_block_product_gens(dem, [0] * (d - 1), d - 2, 0, candidates)
    return MonomialIdeal(candidates, d - 1).gens


def grevelex_greater(a, b) -> bool:
    """Literal definition: higher degree wins; at equal degree the tuple whose
    difference has a negative left-most nonzero entry is the larger."""
    da, db = sum(a), sum(b)
    if da != db:
        return da > db
    for x, y in zip(a, b):
        if x != y:
            return x - y < 0
    return False


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """lcm/lt(f) * f - lcm/lt(g) * g, with lcm the lcm of the two leading
    monomials and leading terms picked by `grevelex_greater`."""
    def lead(p):
        top = None
        for m in p.terms:
            if top is None or grevelex_greater(m, top):
                top = m
        return top, p.terms[top]

    (mf, cf), (mg, cg) = lead(f), lead(g)
    lcm = tuple(map(max, mf, mg))
    uf = tuple(x - y for x, y in zip(lcm, mf))
    ug = tuple(x - y for x, y in zip(lcm, mg))
    return f.mul_term(uf, 1 / cf) - g.mul_term(ug, 1 / cg)


# -- factored products of variable-range powers -----------------------------
#
# A "term" is (fixed, blocks): a fixed exponent tuple times a product of
# ideals (x_lo..x_hi)^deg, encoded as (lo_pos, hi_pos, deg) over positions.


def block_member(exps, fixed, blocks) -> bool:
    """Is x^exps in fixed * prod(blocks)?  Hall's condition on every subset."""
    rem = [e - f for e, f in zip(exps, fixed)]
    if any(r < 0 for r in rem):
        return False
    for size in range(1, len(blocks) + 1):
        for subset in combinations(blocks, size):
            demand = sum(b[2] for b in subset)
            positions = set()
            for lo, hi, _ in subset:
                positions.update(range(lo, hi + 1))
            if demand > sum(rem[p] for p in positions):
                return False
    return True


def term_member(exps, terms) -> bool:
    return any(block_member(exps, fixed, blocks) for fixed, blocks in terms)


def block_generators(varcount: int, fixed, blocks):
    """All products of one degree-deg monomial per block, times the fixed part."""
    gens = [tuple(fixed)]
    for lo, hi, deg in blocks:
        width = hi - lo + 1
        grown = []
        for base in gens:
            for part in monomials_of_degree(width, deg):
                exps = list(base)
                for off, e in enumerate(part):
                    exps[lo + off] += e
                grown.append(tuple(exps))
        gens = grown
    return set(gens)


def terms_equal(varcount: int, lhs_terms, rhs_terms) -> bool:
    """Ideal equality of two sums of factored terms, by mutual membership of
    every generator."""
    for fixed, blocks in lhs_terms:
        for g in block_generators(varcount, fixed, blocks):
            if not term_member(g, rhs_terms):
                return False
    for fixed, blocks in rhs_terms:
        for g in block_generators(varcount, fixed, blocks):
            if not term_member(g, lhs_terms):
                return False
    return True


def cal_I_products(d: int, n: int) -> list[Polynomial]:
    """The generators of cal_I(d, n), n >= 1, in the package's order: per
    composition, every choice of a multiset of minors per block, each
    product multiplied out from scratch, left to right, over the field."""
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
    return gens
