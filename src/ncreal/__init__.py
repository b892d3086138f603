"""Realness of left ideals in the free *-algebra R<x1, x1*, ..., xg, xg*>.

The main entry point is real_test, which decides whether the left ideal
generated by a list of polynomials is real, producing an exact certificate
of non-realness whenever it can and falling back to a semidefinite
feasibility argument with rational post-checks otherwise.
"""

from .algebra import (
    MonomialOrder,
    Poly,
    letter,
    shrink_length,
    word_star,
    word_str,
    words_of_degree,
    words_up_to,
)
from .evaluation import MatrixPoint, apply_to_vector, common_kernel, evaluate
from .exactla import psd_check_exact
from .factor import (
    Factorization,
    factor_homogeneous,
    is_irreducible_homogeneous,
    rank_one_split,
)
from .gram import (
    SosCertificate,
    decompose_quadratic_univariate,
    is_sos_homogeneous,
    pm_sos_kind,
    quad_coeffs,
    quad_poly,
    sos_quadratic_univariate,
)
from .groebner import LeftGroebnerBasis, left_groebner
from .parsing import ParseError, parse_generators, parse_poly, parse_word, poly_str
from .realness import (
    INCONCLUSIVE,
    NOT_REAL,
    NUMERICALLY_REAL,
    REAL,
    NonRealCertificate,
    RealnessVerdict,
    real_analytic_antianalytic,
    real_linear,
    real_monomial_ideal,
    real_principal_homogeneous,
    real_quadratic_univariate,
    real_test,
    realness_prefilter_principal,
    verify_nonreal_certificate,
)
from .sdp import solve_feasibility
from .sdp_build import build_real_sdp, exact_infeasibility_check, exact_lift

__version__ = "0.1.0"

__all__ = [
    "MonomialOrder", "Poly", "letter", "shrink_length",
    "word_star", "word_str", "words_of_degree", "words_up_to",
    "MatrixPoint", "apply_to_vector", "common_kernel", "evaluate",
    "psd_check_exact",
    "Factorization", "factor_homogeneous", "is_irreducible_homogeneous",
    "rank_one_split",
    "SosCertificate", "decompose_quadratic_univariate",
    "is_sos_homogeneous", "pm_sos_kind", "quad_coeffs",
    "quad_poly", "sos_quadratic_univariate",
    "LeftGroebnerBasis", "left_groebner",
    "ParseError", "parse_generators", "parse_poly", "parse_word", "poly_str",
    "INCONCLUSIVE", "NOT_REAL", "NUMERICALLY_REAL", "REAL",
    "NonRealCertificate", "RealnessVerdict",
    "real_analytic_antianalytic", "real_linear", "real_monomial_ideal",
    "real_principal_homogeneous", "real_quadratic_univariate", "real_test",
    "realness_prefilter_principal", "verify_nonreal_certificate",
    "solve_feasibility",
    "build_real_sdp", "exact_infeasibility_check", "exact_lift",
]
