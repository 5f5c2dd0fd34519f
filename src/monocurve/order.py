"""Monomial orders on T' = k[x_2, ..., x_d] and leading-term extraction.

One order ships by default: a graded order in which, at equal degree, the
monomial whose exponent-difference vector has a negative left-most nonzero
entry is the larger one.  This makes x_2 < x_3 < ... < x_d.  An order is a
named sort key on exponent tuples, so tests can plug in an alternative for
differential checks.
"""

from __future__ import annotations

from operator import neg
from typing import Callable, NamedTuple

from .poly import Polynomial, sort_key


class MonomialOrder(NamedTuple):
    """Total, graded, multiplicative order given by a sort key."""

    name: str
    key: Callable[[tuple], tuple]


def _grevelex_key(m: tuple) -> tuple:
    """Degree first, then the left-most negative difference wins."""
    return (sum(m), tuple(map(neg, m)))


GREVELEX = MonomialOrder("grevelex", _grevelex_key)
# Plain graded lex with x_2 > x_3 > ... > x_d, the listing key of `poly`;
# used for differential testing.
GRLEX = MonomialOrder("grlex", sort_key)


def leading_term(f: Polynomial, order: MonomialOrder = GREVELEX):
    """The order-maximal (monomial, coefficient) pair of a nonzero polynomial."""
    if not f.terms:
        raise ValueError("the zero polynomial has no leading term")
    m = max(f.terms, key=order.key)
    return m, f.terms[m]
