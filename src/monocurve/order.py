"""Monomial orders on T' = k[x_2, ..., x_d] and leading-term extraction.

One order ships by default: a graded order in which, at equal degree, the
monomial whose exponent-difference vector has a negative left-most nonzero
entry is the larger one.  This makes x_2 < x_3 < ... < x_d.  An order is a
sort key on exponent tuples, so tests can plug in an alternative for
differential checks.
"""

from __future__ import annotations

from operator import neg

from .poly import Polynomial


class MonomialOrder:
    """Total, graded, multiplicative order given by a sort key."""

    name = "abstract"

    def key(self, m: tuple):
        raise NotImplementedError


class GrevelexOrder(MonomialOrder):
    """The shipped order: degree first, then left-most negative difference wins."""

    name = "grevelex"

    def key(self, m: tuple):
        return (sum(m), tuple(map(neg, m)))


class GradedLexOrder(MonomialOrder):
    """Plain graded lex with x_2 > x_3 > ... > x_d; used for differential testing."""

    name = "grlex"

    def key(self, m: tuple):
        return (sum(m), m)


GREVELEX = GrevelexOrder()
GRLEX = GradedLexOrder()


def leading_term(f: Polynomial, order: MonomialOrder = GREVELEX):
    """The order-maximal (monomial, coefficient) pair of a nonzero polynomial."""
    if not f.terms:
        raise ValueError("the zero polynomial has no leading term")
    m = max(f.terms, key=order.key)
    return m, f.terms[m]
