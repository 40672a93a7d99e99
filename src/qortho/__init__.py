"""qortho: four-parameter q-orthogonal functions and identity verification.

The package evaluates the circle functions C_n and their two-variable
companions Phi_n defined by quotient-of-products generating functions, the
orthogonality weights, diagonal normalizations and connection coefficients,
and numerically verifies the orthogonality, product-integral and expansion
identities they satisfy, with controlled truncation and quadrature error.
"""

from .errors import (
    DivergentSeries,
    DomainError,
    NearSingular,
    QOrthoError,
    TruncationExceeded,
)
from .qcore import (
    DEFAULT_POLICY,
    QBase,
    TruncationPolicy,
    qpoch_finite,
    qpoch_infinite,
)
from .hyper import PhiSpec, phi_series, qbinomial_product_ratio, rogers_6w5_rhs, very_well_poised
from .qfun import (
    ParamSet4,
    ReducedParams,
    big_c_coeffs,
    big_c_eval_many,
    connection_coeffs,
    diag_rhs_thm11,
    growth_root,
    h_norm,
    phi_eval,
    weight_omega_many,
)
from .quad import (
    DEFAULT_QUADRATURE,
    FULL_PERIOD,
    HALF_PERIOD,
    QLattice,
    QuadratureSpec,
    QuadResult,
    jackson_integral,
    periodic_integral,
    phi_qintegral_repr,
)
from .verify import (
    IdentityId,
    SweepSpec,
    VerificationReport,
    check_prop_2_1_2,
    check_prop_2_1_3,
    check_prop_2_2,
    check_prop_2_4,
    check_prop_3_1,
    check_qbinomial,
    check_rogers_6w5,
    check_thm_1_1,
    check_thm_1_2,
    check_thm_1_3,
    check_ultra_ortho,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "QOrthoError", "DomainError", "TruncationExceeded", "DivergentSeries", "NearSingular",
    # core types and products
    "QBase", "TruncationPolicy", "DEFAULT_POLICY",
    "qpoch_finite", "qpoch_infinite",
    # series
    "PhiSpec", "phi_series", "very_well_poised", "rogers_6w5_rhs",
    "qbinomial_product_ratio",
    # the function family
    "ParamSet4", "ReducedParams",
    "big_c_coeffs", "big_c_eval_many", "phi_eval", "weight_omega_many",
    "h_norm", "diag_rhs_thm11", "connection_coeffs", "growth_root",
    # integration
    "QuadratureSpec", "DEFAULT_QUADRATURE", "QuadResult", "QLattice",
    "FULL_PERIOD", "HALF_PERIOD",
    "periodic_integral", "jackson_integral", "phi_qintegral_repr",
    # verification
    "IdentityId", "VerificationReport", "SweepSpec",
    "check_thm_1_1", "check_thm_1_2", "check_thm_1_3",
    "check_prop_2_1_2", "check_prop_2_1_3", "check_prop_2_2", "check_prop_2_4",
    "check_prop_3_1", "check_rogers_6w5", "check_qbinomial", "check_ultra_ortho",
    "run_sweep",
]
