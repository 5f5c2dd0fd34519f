"""Exact ideal families of monomial curves and their machine verification."""

from .curve import (
    CurveParams,
    InvariantViolation,
    build_matrix,
    cal_I,
    cal_J,
    compositions,
    f_poly,
    lambda_set,
    mono_I,
    mono_J,
    pure_powers,
    range_monomials,
    s_set,
    substitute_parametrization,
)
from .groebner import PolyIdeal, leading_ideal
from .ideals import MonomialIdeal, minimal_generators, monomials_between, monomials_of_degree
from .order import GREVELEX
from .poly import Polynomial, PolyMatrix
from .scalars import (
    GFElement,
    PrimeField,
    RATIONALS,
    RationalField,
    active_field,
    field_from_spec,
    set_active_field,
    using_field,
)
from .verify import (
    VerificationReport,
    check_alternating_lengths,
    check_assoc_graded_regseq,
    check_colon_identity,
    check_construction_sanity,
    check_gs_colon_chain,
    check_leading_ideal_equality,
    check_length_formula,
    check_s_counts_and_spanning,
    check_socle,
    expected_length,
    run_all,
    run_suite,
)

__version__ = "0.1.0"
