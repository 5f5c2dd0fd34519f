"""Sparse multivariate polynomials over the active coefficient field.

A monomial is a plain tuple of non-negative exponents, here and in every
other module; a polynomial is a map monomial -> nonzero scalar.  The
constructor is the one place that drops a zero coefficient: the arithmetic
accumulates each coefficient from 0 (ints, Fractions and GF(p) elements
all take 0 + c and 0 - c) and hands its sums, zeros included, to it.

The scalars are the active field's, except that the structured matrix, its
minors and the products that generate cal_I have Python int coefficients.
`curve` maps them into the field for its public results, and the suites
hand the integer products to the echelon kernel in `groebner`, which reads
them in the field through `groebner.integer_terms`; ints mix with either
field's elements.

Variable names are contextual: position ``p`` means x_{p+2} when working
modulo x_1 (the usual case) and x_{p+1} for full-ring polynomials.
"""

from __future__ import annotations

from itertools import combinations
from operator import add, le


def times(a: tuple, b: tuple) -> tuple:
    """The product of two monomials."""
    return tuple(map(add, a, b))


def divides(a: tuple, b: tuple) -> bool:
    """Whether the monomial a divides b."""
    return all(map(le, a, b))


def pure_power(index: int, varcount: int, power: int = 1) -> tuple:
    """The monomial x^power in the variable at position `index`."""
    if not 0 <= index < varcount:
        raise ValueError("variable index %d out of range for %d variables" % (index, varcount))
    return (0,) * index + (power,) + (0,) * (varcount - index - 1)


def sort_key(m: tuple):
    """Canonical listing key for generator sets and reports: degree, then lex."""
    return (sum(m), m)


class Polynomial:
    """A finite map monomial -> nonzero coefficient over the active field."""

    __slots__ = ("terms", "varcount")

    def __init__(self, terms: dict, varcount: int):
        self.terms = {m: c for m, c in terms.items() if c}
        self.varcount = varcount

    @classmethod
    def zero(cls, varcount: int) -> "Polynomial":
        return cls({}, varcount)

    def _check(self, other: "Polynomial") -> None:
        if self.varcount != other.varcount:
            raise ValueError("variable count mismatch: %d vs %d" % (self.varcount, other.varcount))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.varcount == other.varcount
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.varcount, frozenset(self.terms.items())))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Polynomial(out, self.varcount)

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self.terms.items()}, self.varcount)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) - c
        return Polynomial(out, self.varcount)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = times(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return Polynomial(out, self.varcount)

    def mul_term(self, m: tuple, c) -> "Polynomial":
        """Multiply by the single term c*m."""
        return Polynomial({times(mm, m): cc * c for mm, cc in self.terms.items()}, self.varcount)

    def scale(self, c) -> "Polynomial":
        return Polynomial({m: cc * c for m, cc in self.terms.items()}, self.varcount)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(sum, self.terms), default=-1)

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        items = ", ".join(
            "%r: %s" % (m, c) for m, c in sorted(self.terms.items(), key=lambda t: sort_key(t[0]))
        )
        return "Polynomial{%s}" % items


class PolyMatrix:
    """A square matrix of polynomials with its exact leading-row minors."""

    __slots__ = ("entries", "size", "varcount")

    def __init__(self, entries):
        entries = [list(row) for row in entries]
        size = len(entries)
        if any(len(row) != size for row in entries):
            raise ValueError("matrix is not square")
        if size == 0:
            raise ValueError("empty matrix")
        varcounts = {p.varcount for row in entries for p in row}
        if len(varcounts) != 1:
            raise ValueError("mixed variable counts in matrix entries")
        self.entries = entries
        self.size = size
        self.varcount = varcounts.pop()

    def leading_minors(self) -> tuple:
        """For s = 1..size, the s x s minors of the first s rows, columns in
        lexicographic order, at entry s-1.  Each expands along its last row
        r as the sum of (-1)^(r+k) row_r[c_k] times the minor below on cols
        without c_k: each minor is computed once, and zero costs no product."""
        below = {(c,): f for c, f in enumerate(self.entries[0])}
        levels = [tuple(below.values())]
        for r in range(1, self.size):
            level = {}
            for cols in combinations(range(self.size), r + 1):
                out: dict = {}
                for k, c in enumerate(cols):
                    entry, minor = self.entries[r][c], below[cols[:k] + cols[k + 1 :]]
                    if entry and minor:
                        for m, cc in (entry * minor).terms.items():
                            out[m] = out.get(m, 0) + (-cc if (r + k) % 2 else cc)
                level[cols] = Polynomial(out, self.varcount)
            levels.append(tuple(level.values()))
            below = level
        return tuple(levels)

    def det(self) -> Polynomial:
        """The determinant: the one minor of the table's last level."""
        return self.leading_minors()[-1][0]
