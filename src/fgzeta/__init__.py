"""Exact zeta series of matrices over free group algebras.

The pipeline: a square matrix with noncommutative Laurent polynomial
entries yields integer trace counts (the identity coefficient of each
power's trace), a generating series, and a zeta series given by the
exponential of the weighted counts.  The same series factors as an Euler
product over primitive cycle words, stays integral for integer matrices,
and satisfies a bivariate polynomial that :func:`guess_annihilator` can
recover from enough coefficients.
"""

from .algebra import AlgebraElement, format_element, multiply, parse_element
from .cyclic import (Letter, alphabet_of, cycle_weight, cycle_weight_sum,
                     euler_product, lyndon_words)
from .errors import (FgzetaError, ParseError, ResourceLimitError,
                     ValidationError)
from .families import (build_d_by_d, build_kontsevich, build_two_by_two,
                       builtin_matrix, closed_generating_series, closed_zeta,
                       dxd_zeta_prefix, rooted_loop_series)
from .grammars import (ProperSystem, TruncatedNCSeries, is_lukasiewicz_word,
                       parse_system, solve_truncated)
from .guess import (BivariatePolynomial, evaluate_at_series, exact_kernel,
                    format_bivariate, guess_annihilator, parse_bivariate)
from .matrix import AlgebraMatrix, trace_count_by_paths, trace_counts
from .series import (TruncatedSeries, format_series, generating_series,
                     log_derivative, zeta_series)
from .words import (GeneratorTable, concat, format_word, invert, parse_word,
                    reduce_word)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "AlgebraMatrix",
    "BivariatePolynomial",
    "FgzetaError",
    "GeneratorTable",
    "Letter",
    "ParseError",
    "ProperSystem",
    "ResourceLimitError",
    "TruncatedNCSeries",
    "TruncatedSeries",
    "ValidationError",
    "alphabet_of",
    "build_d_by_d",
    "build_kontsevich",
    "build_two_by_two",
    "builtin_matrix",
    "closed_generating_series",
    "closed_zeta",
    "concat",
    "cycle_weight",
    "cycle_weight_sum",
    "dxd_zeta_prefix",
    "euler_product",
    "evaluate_at_series",
    "exact_kernel",
    "format_bivariate",
    "format_element",
    "format_series",
    "format_word",
    "generating_series",
    "guess_annihilator",
    "invert",
    "is_lukasiewicz_word",
    "log_derivative",
    "lyndon_words",
    "multiply",
    "parse_bivariate",
    "parse_element",
    "parse_system",
    "parse_word",
    "reduce_word",
    "rooted_loop_series",
    "solve_truncated",
    "trace_count_by_paths",
    "trace_counts",
    "zeta_series",
]
