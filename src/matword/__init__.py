"""matword: dynamics of word-indexed products of nonnegative matrices.

The library classifies the commutativity structure of a finite matrix
family, computes its common eigenvectors and periods, evaluates limits of
word products and of their exp/log-conjugated cone maps, and certifies the
mod-q congruences generated by infinite words.

``import matword`` loads no submodule: a public name imports the submodule
that owns it on first use (PEP 562), so a caller pays only for the modules
it reaches.
"""

import importlib

__version__ = "0.1.0"

#: submodule -> the public names it exports
_EXPORTS = {
    "collection": ("MatrixCollection",),
    "conemaps": ("ConeMap", "cone_apply", "cone_limit", "cone_point_period", "exp_map",
                 "homogeneity_report", "log_map", "word_cone_apply"),
    "exceptions": ("BoundaryPoint", "BudgetExhausted", "DimensionMismatch",
                   "EigenSolverFailure", "HypothesesNotMet", "InvalidLetter",
                   "MatwordError", "NonFiniteValue", "NotPeriodic", "NotRootOfUnity",
                   "ParseError", "Reducible", "SpectralRadiusViolation"),
    "infinite": ("InfiniteWord", "OrbitTuple", "Q2Certificate", "a_tilde", "phi",
                 "q2_certificate", "tuple_first_component_stability"),
    "numeric": ("mat_mul", "mat_vec", "rank_and_nullspace"),
    "spectral": ("EigenPair", "PeripheralReport", "eigendecompose", "eigenvalues",
                 "index_of_imprimitivity", "peripheral_period", "root_of_unity_order",
                 "spectral_radius"),
    "structure": ("CommonEigenSystem", "LCCoefficients", "PairClassification",
                  "classify_pair", "common_eigenvectors", "commutator",
                  "is_quasi_commuting", "lc_membership", "shemesh_subspace"),
    "words": ("LimitResult", "OrbitBoundReport", "PeriodCertificate", "Word",
              "global_period", "limit_point", "orbit_bounded", "point_period",
              "spectral_limit", "word_period", "word_product"),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
