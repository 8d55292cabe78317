"""matword: dynamics of word-indexed products of nonnegative matrices.

The library classifies the commutativity structure of a finite matrix
family, computes its common eigenvectors and periods, evaluates limits of
word products and of their exp/log-conjugated cone maps, and certifies the
mod-q congruences generated by infinite words.
"""

# first, so that modules imported below can report it
__version__ = "0.1.0"

from .collection import MatrixCollection
from .conemaps import (
    ConeMap,
    cone_apply,
    cone_limit,
    cone_point_period,
    exp_map,
    homogeneity_report,
    log_map,
    word_cone_apply,
)
from .exceptions import (
    BoundaryPoint,
    BudgetExhausted,
    DimensionMismatch,
    EigenSolverFailure,
    HypothesesNotMet,
    InvalidLetter,
    MatwordError,
    NotPeriodic,
    NotRootOfUnity,
    ParseError,
    Reducible,
    SpectralRadiusViolation,
)
from .infinite import (
    InfiniteWord,
    OrbitTuple,
    Q2Certificate,
    a_tilde,
    phi,
    q2_certificate,
    tuple_first_component_stability,
)
from .numeric import mat_mul, mat_vec, operator_norm, rank_and_nullspace
from .spectral import (
    EigenPair,
    PeripheralReport,
    eigendecompose,
    eigenvalues,
    index_of_imprimitivity,
    peripheral_period,
    root_of_unity_order,
    spectral_radius,
)
from .structure import (
    CommonEigenSystem,
    LCCoefficients,
    PairClassification,
    classify_pair,
    common_eigenvectors,
    commutator,
    is_quasi_commuting,
    lc_membership,
    shemesh_subspace,
    simultaneous_triangularization,
)
from .words import (
    LimitResult,
    OrbitBoundReport,
    PeriodCertificate,
    Word,
    global_period,
    limit_point,
    orbit_bounded,
    point_period,
    skew_product_step,
    spectral_limit,
    word_period,
    word_product,
)


__all__ = [
    "MatrixCollection",
    "Word",
    "InfiniteWord",
    "ConeMap",
    "CommonEigenSystem",
    "EigenPair",
    "LimitResult",
    "Q2Certificate",
    "a_tilde",
    "classify_pair",
    "common_eigenvectors",
    "commutator",
    "cone_apply",
    "cone_limit",
    "cone_point_period",
    "eigendecompose",
    "eigenvalues",
    "exp_map",
    "global_period",
    "homogeneity_report",
    "index_of_imprimitivity",
    "is_quasi_commuting",
    "lc_membership",
    "limit_point",
    "log_map",
    "mat_mul",
    "mat_vec",
    "operator_norm",
    "orbit_bounded",
    "peripheral_period",
    "phi",
    "point_period",
    "q2_certificate",
    "rank_and_nullspace",
    "root_of_unity_order",
    "shemesh_subspace",
    "simultaneous_triangularization",
    "skew_product_step",
    "spectral_limit",
    "spectral_radius",
    "tuple_first_component_stability",
    "word_cone_apply",
    "word_period",
    "word_product",
]
