"""Text rendering shared by the CLI and the verification reports.

Polynomial terms print in descending GREVELEX order; ideal generators
print sorted by (degree, exponents) ascending.  Variables are x2..xd by
default; full-ring values pass first_index=1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .ideals import MonomialIdeal
from .order import GREVELEX
from .poly import Polynomial, PolyMatrix


@lru_cache(maxsize=None)
def _factor(p: int, e: int) -> str:
    """The factor x<p>^<e> of a monomial, e nonzero: x<p> for e = 1."""
    return "x%d" % p if e == 1 else "x%d^%d" % (p, e)


def format_monomial(m: tuple, first_index: int = 2) -> str:
    return "*".join([_factor(p, e) for p, e in enumerate(m, first_index) if e]) or "1"


def _sign_split(c):
    if isinstance(c, (int, Fraction)) and c < 0:
        return "-", -c
    return "+", c


def format_polynomial(f: Polynomial, first_index: int = 2) -> str:
    if f.is_zero():
        return "0"
    out = []
    for m in sorted(f.terms, key=GREVELEX, reverse=True):
        sign, mag = _sign_split(f.terms[m])
        if not any(m):
            body = str(mag)
        elif mag == 1:
            body = format_monomial(m, first_index)
        else:
            body = "%s*%s" % (mag, format_monomial(m, first_index))
        if not out:
            out.append(body if sign == "+" else "-" + body)
        else:
            out.append("%s %s" % (sign, body))
    return " ".join(out)


def format_ideal(ideal: MonomialIdeal, first_index: int = 2) -> str:
    if ideal.is_zero():
        return "0"
    # MonomialIdeal stores its generators sorted by (degree, exponents)
    return ", ".join(format_monomial(g, first_index) for g in ideal.gens)


def format_matrix(matrix: PolyMatrix, first_index: int = 1) -> str:
    rows = []
    for row in matrix.entries:
        rows.append("[" + ", ".join(format_polynomial(p, first_index) for p in row) + "]")
    return "\n".join(rows)
