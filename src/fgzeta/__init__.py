"""Exact zeta series of matrices over free group algebras.

The pipeline: a square matrix with noncommutative Laurent polynomial
entries yields integer trace counts (the identity coefficient of each
power's trace), a generating series, and a zeta series given by the
exponential of the weighted counts.  The same series factors as an Euler
product over primitive cycle words, stays integral for integer matrices,
and satisfies a bivariate polynomial that :func:`guess_annihilator` can
recover from enough coefficients.

The package exports the names below; everything else is imported from
its own module, such as ``fgzeta.grammars.parse_system``.
"""

from .algebra import AlgebraElement
from .cyclic import euler_product
from .errors import (FgzetaError, ParseError, ResourceLimitError,
                     ValidationError)
from .families import (build_two_by_two, closed_generating_series,
                       closed_zeta, dxd_zeta_prefix)
from .guess import evaluate_at_series, guess_annihilator
from .matrix import AlgebraMatrix, trace_counts
from .series import log_derivative, zeta_series
from .words import GeneratorTable

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "AlgebraMatrix",
    "FgzetaError",
    "GeneratorTable",
    "ParseError",
    "ResourceLimitError",
    "ValidationError",
    "build_two_by_two",
    "closed_generating_series",
    "closed_zeta",
    "dxd_zeta_prefix",
    "euler_product",
    "evaluate_at_series",
    "guess_annihilator",
    "log_derivative",
    "trace_counts",
    "zeta_series",
]
