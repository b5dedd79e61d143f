"""Tensor T-product algebra, TSVD, sequence extrapolation, and an
extrapolated truncated-decomposition solver for ill-posed tensor equations.

The public surface re-exports the core layers:

- dense third-order tensors, stacks, and the TNS3/TNS4 file formats
- the T-product with its transpose, inverse, and structural predicates
- the diamond / star / bar-star stack products
- the tensor SVD, truncation, pseudoinverse, and least-squares solve
- polynomial-type sequence transforms (TMPE, TRRE, TMMPE, TTEA)
- the reduced-rank solver on truncated-decomposition partial sums
"""

from .errors import (
    BadMagicError,
    DimensionMismatchError,
    DimensionOverflowError,
    FaceSvdError,
    InsufficientSequenceError,
    NumericalConsistencyError,
    OracleCapError,
    SingularFaceError,
    TensorFileError,
    TextrapError,
    TruncatedPayloadError,
    UnsupportedVersionError,
)
from .tensor_core import (
    Stack4,
    Stack5,
    Tensor3,
    TubalScalar,
    bcirc,
    fold,
    frobenius_norm,
    identity_tensor,
    identity_tube,
    matvec_unfold,
    read_tns3,
    read_tns4,
    write_tns3,
    write_tns4,
)
from .tproduct_algebra import (
    InvertibilityReport,
    PenroseReport,
    check_moore_penrose,
    is_invertible,
    is_orthogonal,
    is_positive_definite,
    slice_product_entry,
    tinverse,
    tprod,
    tscalar_product,
    ttranspose,
)
from .stack_products import (
    adjoint_swap,
    bar_star,
    diamond,
    left_inverse,
    star,
    verify_left_inverse,
)
from .tsvd import (
    TsvdFactors,
    load_factors,
    save_factors,
    tls_solve,
    truncated_expansion,
    tsvd,
    ttsvd,
    tubal_rank,
)
from .extrapolation import (
    METHODS,
    ExtrapolationResult,
    TensorSequence,
    beta_to_gamma,
    build_y_stack,
    default_tmmpe_y,
    difference_stacks,
    extrapolate,
    gamma_to_alpha,
    solve_beta_system,
    ttea_solve,
)
from .trre_tsvd_solver import (
    SolverReport,
    TtsvdSequenceState,
    build_sequence,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "BadMagicError",
    "DimensionMismatchError",
    "DimensionOverflowError",
    "FaceSvdError",
    "InsufficientSequenceError",
    "NumericalConsistencyError",
    "OracleCapError",
    "SingularFaceError",
    "TensorFileError",
    "TextrapError",
    "TruncatedPayloadError",
    "UnsupportedVersionError",
    "Stack4",
    "Stack5",
    "Tensor3",
    "TubalScalar",
    "bcirc",
    "fold",
    "frobenius_norm",
    "identity_tensor",
    "identity_tube",
    "matvec_unfold",
    "read_tns3",
    "read_tns4",
    "write_tns3",
    "write_tns4",
    "InvertibilityReport",
    "PenroseReport",
    "check_moore_penrose",
    "is_invertible",
    "is_orthogonal",
    "is_positive_definite",
    "slice_product_entry",
    "tinverse",
    "tprod",
    "tscalar_product",
    "ttranspose",
    "adjoint_swap",
    "bar_star",
    "diamond",
    "left_inverse",
    "star",
    "verify_left_inverse",
    "TsvdFactors",
    "load_factors",
    "save_factors",
    "tls_solve",
    "truncated_expansion",
    "tsvd",
    "ttsvd",
    "tubal_rank",
    "METHODS",
    "ExtrapolationResult",
    "TensorSequence",
    "beta_to_gamma",
    "build_y_stack",
    "default_tmmpe_y",
    "difference_stacks",
    "extrapolate",
    "gamma_to_alpha",
    "solve_beta_system",
    "ttea_solve",
    "SolverReport",
    "TtsvdSequenceState",
    "build_sequence",
    "solve",
]
