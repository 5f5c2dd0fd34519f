"""Text rendering shared by the CLI and the verification reports.

Polynomial terms print in descending GREVELEX order; ideal generators
print sorted by (degree, exponents) ascending.  Variables are x2..xd by
default; full-ring values pass first_index=1.  One renderer writes every
monomial, column by column: all of an ideal's generators, or of a
polynomial's terms, at once, and a single monomial as a list of one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .ideals import MonomialIdeal
from .order import GREVELEX
from .poly import Polynomial, PolyMatrix


class _Factors(dict):
    """The factors x<p>^<e> of a monomial by exponent e, each followed by
    "*": "" for e = 0, x<p>* for e = 1; each is made on its first lookup."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        super().__init__()
        self.p = p

    def __missing__(self, e: int) -> str:
        text = self[e] = "" if not e else "x%d*" % self.p if e == 1 else "x%d^%d*" % (self.p, e)
        return text


@lru_cache(maxsize=None)
def _factors(p: int):
    """The lookup of variable x<p>'s factors, one table per variable."""
    return _Factors(p).__getitem__


def _monomials(ms, first_index: int) -> str:
    """The monomials `ms`, exponent tuples of one length, rendered and
    joined by ", "; the constant renders as "".

    The monomials are rendered by columns: each variable's exponents are
    mapped through one table of its factors, each factor ending in "*",
    and each monomial's factors are joined.  The "*" that then ends each
    monomial is dropped from the joined text at once."""
    columns = [map(_factors(p), column) for p, column in enumerate(zip(*ms), first_index)]
    return ", ".join(map("".join, zip(*columns))).replace("*, ", ", ").removesuffix("*")


def format_monomial(m: tuple, first_index: int = 2) -> str:
    return _monomials((m,), first_index) or "1"


def _sign_split(c):
    if isinstance(c, (int, Fraction)) and c < 0:
        return "-", -c
    return "+", c


def format_polynomial(f: Polynomial, first_index: int = 2) -> str:
    if f.is_zero():
        return "0"
    out = []
    ms = sorted(f.terms, key=GREVELEX, reverse=True)
    for m, text in zip(ms, _monomials(ms, first_index).split(", ")):
        sign, mag = _sign_split(f.terms[m])
        if not text:  # the constant
            body = str(mag)
        elif mag == 1:
            body = text
        else:
            body = "%s*%s" % (mag, text)
        if not out:
            out.append(body if sign == "+" else "-" + body)
        else:
            out.append("%s %s" % (sign, body))
    return " ".join(out)


def format_ideal(ideal: MonomialIdeal, first_index: int = 2) -> str:
    if ideal.is_zero():
        return "0"
    # MonomialIdeal stores its generators sorted by (degree, exponents)
    return _monomials(ideal.gens, first_index) or "1"


def format_matrix(matrix: PolyMatrix, first_index: int = 1) -> str:
    rows = []
    for row in matrix.entries:
        rows.append("[" + ", ".join(format_polynomial(p, first_index) for p in row) + "]")
    return "\n".join(rows)
