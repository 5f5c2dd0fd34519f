"""Monomial orders on T' = k[x_2, ..., x_d] and leading-term extraction.

One order ships by default: a graded order in which, at equal degree, the
monomial whose exponent-difference vector has a negative left-most nonzero
entry is the larger one.  This makes x_2 < x_3 < ... < x_d.  Orders are
plain comparator objects so tests can plug in an alternative for
differential checks.
"""

from __future__ import annotations

from .poly import Monomial, Polynomial

LESS, EQUAL, GREATER = -1, 0, 1


class MonomialOrder:
    """Total, graded, multiplicative order given by a sort key."""

    name = "abstract"

    def key(self, m: Monomial):
        raise NotImplementedError

    def compare(self, a: Monomial, b: Monomial) -> int:
        if len(a.exps) != len(b.exps):
            raise ValueError("variable count mismatch: %d vs %d" % (len(a.exps), len(b.exps)))
        ka, kb = self.key(a), self.key(b)
        if ka < kb:
            return LESS
        if ka > kb:
            return GREATER
        return EQUAL


class GrevelexOrder(MonomialOrder):
    """The shipped order: degree first, then left-most negative difference wins."""

    name = "grevelex"

    def key(self, m: Monomial):
        return (m.degree, tuple(-e for e in m.exps))


class GradedLexOrder(MonomialOrder):
    """Plain graded lex with x_2 > x_3 > ... > x_d; used for differential testing."""

    name = "grlex"

    def key(self, m: Monomial):
        return (m.degree, m.exps)


GREVELEX = GrevelexOrder()
GRLEX = GradedLexOrder()


def compare(a: Monomial, b: Monomial, order: MonomialOrder = GREVELEX) -> int:
    return order.compare(a, b)


def leading_term(f: Polynomial, order: MonomialOrder = GREVELEX):
    """The order-maximal (monomial, coefficient) pair of a nonzero polynomial."""
    if not f.terms:
        raise ValueError("the zero polynomial has no leading term")
    m = max(f.terms, key=order.key)
    return m, f.terms[m]


def leading_monomial(f: Polynomial, order: MonomialOrder = GREVELEX) -> Monomial:
    return leading_term(f, order)[0]
