"""The monomial order on T' = k[x_2, ..., x_d] and leading-term extraction.

The package uses one order, the one the paper's LI(cal_I_n) = I_n is stated
for: a graded order in which, at equal degree, the monomial whose
exponent-difference vector has a negative left-most nonzero entry is the
larger one.  This makes x_2 < x_3 < ... < x_d.  `GREVELEX` is its sort key
on exponent tuples; `monomials_of_degree` lists each degree ascending in it.
"""

from __future__ import annotations

from operator import neg

from .poly import Polynomial


def GREVELEX(m: tuple) -> tuple:
    """The sort key: degree first, then the left-most negative difference wins."""
    return (sum(m), tuple(map(neg, m)))


def leading_term(f: Polynomial):
    """The order-maximal (monomial, coefficient) pair of a nonzero polynomial."""
    if not f.terms:
        raise ValueError("the zero polynomial has no leading term")
    m = max(f.terms, key=GREVELEX)
    return m, f.terms[m]
