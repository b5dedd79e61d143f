"""Tensor T-product algebra, TSVD, sequence extrapolation, and an
extrapolated truncated-decomposition solver for ill-posed tensor equations.

The public surface re-exports the core layers:

- dense third-order tensors, stacks, and the TNS3/TNS4 file formats
- the T-product with its transpose, inverse, and structural predicates
- the diamond / star / bar-star stack products
- the tensor SVD, truncation, pseudoinverse, and least-squares solve
- polynomial-type sequence transforms (TMPE, TRRE, TMMPE, TTEA)
- the reduced-rank solver on truncated-decomposition partial sums

Each module's ``__all__`` lists its public names; the package exports
exactly those lists, in the order of the imports below.
"""

import sys as _sys

from .errors import *
from .tensor_core import *
from .tproduct_algebra import *
from .stack_products import *
from .tsvd import *
from .extrapolation import *
from .trre_tsvd_solver import *

__version__ = "0.1.0"

# found through sys.modules, since the function ``tsvd`` shadows its module
__all__ = [
    name
    for module in ("errors", "tensor_core", "tproduct_algebra", "stack_products",
                   "tsvd", "extrapolation", "trre_tsvd_solver")
    for name in _sys.modules[f"{__name__}.{module}"].__all__
]
