"""qortho: four-parameter q-orthogonal functions and identity verification.

The package evaluates the circle functions C_n and their two-variable
companions Phi_n defined by quotient-of-products generating functions, the
orthogonality weights, diagonal normalizations and connection coefficients,
and numerically verifies the orthogonality, product-integral and expansion
identities they satisfy, with controlled truncation and quadrature error.
"""

__version__ = "0.1.0"

# The public names, by the module that defines them.  The package imports
# none of these modules: `__getattr__` (PEP 562) binds each name, and each
# module named here, on first use by importing only the defining module, the
# package's one way to defer a module, as a function elsewhere imports what it
# calls where it calls it.  So `import qortho` costs no numpy (`quad`) and no
# compile time of a module the process never uses.
_EXPORTS = {
    "errors": ("QOrthoError", "DomainError", "TruncationExceeded", "DivergentSeries",
               "NearSingular"),
    # core types and products
    "qcore": ("qpoch_finite", "qpoch_infinite", "ParamSet4", "ReducedParams",
              "FULL_PERIOD", "HALF_PERIOD", "big_c_coeffs", "connection_coeffs"),
    # series
    "hyper": ("PhiSpec", "phi_series", "very_well_poised", "rogers_6w5_rhs",
              "qbinomial_product_ratio"),
    # verification
    "verify": ("IdentityId", "VerificationReport", "SweepSpec",
               "check_thm_1_1", "check_thm_1_2", "check_thm_1_3",
               "check_prop_2_1_2", "check_prop_2_1_3", "check_prop_2_2", "check_prop_2_4",
               "check_prop_3_1", "check_rogers_6w5", "check_qbinomial", "check_ultra_ortho",
               "run_sweep"),
    # the function family
    "qfun": ("laurent_at", "phi_eval", "weight_omega_many", "h_norm", "diag_rhs_thm11",
             "growth_root", "phi_qintegral_repr"),
    # the circle rule
    "quad": ("QuadResult", "periodic_integral"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = ["__version__", *(name for names in _EXPORTS.values() for name in names)]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the __import__ built-in, as an import statement calls it: `-X importtime`
    # lists its imports, and not those of importlib.import_module
    module = __import__(f"{__name__}.{_HOME[name]}", fromlist=[name])
    value = globals()[name] = module if name in _EXPORTS else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys())
