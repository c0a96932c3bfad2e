"""Built-in matrix families and exact evaluations of their closed forms.

Three families ship with the package, addressable by name from the CLI:

* ``kontsevich:n``   the 1x1 matrix [x_1 + x_1^-1 + ... + x_n + x_n^-1]
* ``paper2x2``       [[a + a^-1, b], [b^-1, d + d^-1]]
* ``paperdxd:d``     the d x d analogue (d >= 3) with doubled diagonal
                     letters and a single off-diagonal letter b_ij shared
                     between entries (i,j) and (j,i) as inverses.

A seeded random family (:func:`random_matrix`) serves the tests and
``fgzeta selfcheck``: small integer matrices over a few generators.

The closed forms below are evaluated with the exact series primitives of
:mod:`fgzeta.series`; the bookkeeping cross-checks are between pipeline
counts and closed forms, never against floating point.
"""

from fractions import Fraction

from .algebra import AlgebraElement
from .errors import ValidationError
from .matrix import AlgebraMatrix
from .series import TruncatedSeries
from .words import GeneratorTable, free_reduce

KONTSEVICH = "kontsevich"
TWO_BY_TWO = "paper2x2"
D_BY_D = "paperdxd"


def parse_builtin_name(name: str) -> tuple[str, int | None]:
    """Split ``kontsevich:2`` style names into (family, parameter)."""
    family, _, arg = name.partition(":")
    if family == TWO_BY_TWO:
        if arg:
            raise ValidationError(f"{TWO_BY_TWO} takes no parameter")
        return family, None
    if family in (KONTSEVICH, D_BY_D):
        if not arg:
            raise ValidationError(f"{family} needs a parameter, e.g. {family}:3")
        try:
            value = int(arg)
        except ValueError:
            raise ValidationError(f"bad parameter {arg!r} for {family}") from None
        return family, value
    raise ValidationError(
        f"unknown builtin {name!r}; available: kontsevich:<n>, "
        f"{TWO_BY_TWO}, {D_BY_D}:<d>")


def builtin_matrix(name: str) -> AlgebraMatrix:
    family, arg = parse_builtin_name(name)
    if family == KONTSEVICH:
        return build_kontsevich(arg)
    if family == TWO_BY_TWO:
        return build_two_by_two()
    return build_d_by_d(arg)


def build_kontsevich(n_gens: int) -> AlgebraMatrix:
    """1x1 matrix: the sum of all generators and their inverses."""
    if n_gens < 1:
        raise ValidationError("kontsevich needs at least one generator")
    table = GeneratorTable(f"x{k}" for k in range(1, n_gens + 1))
    entry = AlgebraElement({(k,): 1 for k in range(1, n_gens + 1)}
                           | {(-k,): 1 for k in range(1, n_gens + 1)})
    return AlgebraMatrix([[entry]], table)


def build_two_by_two() -> AlgebraMatrix:
    """[[a + a^-1, b], [b^-1, d + d^-1]] over generators a, b, d."""
    table = GeneratorTable(["a", "b", "d"])
    a, b, d = 1, 2, 3
    entries = [
        [AlgebraElement({(a,): 1, (-a,): 1}), AlgebraElement({(b,): 1})],
        [AlgebraElement({(-b,): 1}), AlgebraElement({(d,): 1, (-d,): 1})],
    ]
    return AlgebraMatrix(entries, table)


def build_d_by_d(d: int) -> AlgebraMatrix:
    """Diagonal a_i + a_i^-1, entry (i,j) = b_ij for i < j, its inverse below."""
    if d < 3:
        raise ValidationError("the d x d family needs d >= 3")
    table = GeneratorTable()
    diag = [table.declare(f"a{i}") for i in range(1, d + 1)]
    off = {}
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            off[(i, j)] = table.declare(f"b{i}{j}")
    entries = []
    for i in range(1, d + 1):
        row = []
        for j in range(1, d + 1):
            if i == j:
                g = diag[i - 1]
                row.append(AlgebraElement({(g,): 1, (-g,): 1}))
            elif i < j:
                row.append(AlgebraElement({(off[(i, j)],): 1}))
            else:
                row.append(AlgebraElement({(-off[(j, i)],): 1}))
        entries.append(row)
    return AlgebraMatrix(entries, table)


def random_reduced_word(rng, n_gens, max_len):
    """A free reduction of up to ``max_len`` random letters."""
    raw = [rng.choice([1, -1]) * rng.randint(1, n_gens)
           for _ in range(rng.randint(0, max_len))]
    return free_reduce(raw)


def random_element(rng, n_gens=2, max_support=2, max_len=2, coeff_range=3):
    """Up to ``max_support`` random words with nonzero coefficients in
    ``-coeff_range .. coeff_range``; words that coincide are summed."""
    terms = {}
    for _ in range(rng.randint(0, max_support)):
        w = random_reduced_word(rng, n_gens, max_len)
        c = rng.choice([k for k in range(-coeff_range, coeff_range + 1) if k])
        terms[w] = terms.get(w, 0) + c
    return AlgebraElement(terms)


def random_matrix(rng, dim=None, n_gens=2, max_support=2, max_len=2,
                  coeff_range=3):
    """A nonzero integer matrix from the random family; ``dim`` defaults
    to a draw from 1..3."""
    if dim is None:
        dim = rng.randint(1, 3)
    table = GeneratorTable(f"g{k}" for k in range(1, n_gens + 1))
    while True:
        entries = [[random_element(rng, n_gens, max_support, max_len,
                                   coeff_range)
                    for _ in range(dim)] for _ in range(dim)]
        if any(not e.is_zero() for row in entries for e in row):
            return AlgebraMatrix(entries, table)


def _sqrt_one_minus(c: int, order: int) -> TruncatedSeries:
    """(1 - c t^2)^(1/2) as an exact series."""
    base = TruncatedSeries.one(order) - TruncatedSeries.monomial(c, 2, order)
    return base.sqrt()


def closed_generating_series(name: str, order: int) -> TruncatedSeries:
    """Exact closed-form generating series, where one is known.

    Available for ``paper2x2`` and ``paperdxd:d``; the kontsevich family
    has a closed zeta instead (differentiate its log for the generating
    series).
    """
    family, arg = parse_builtin_name(name)
    if family == TWO_BY_TWO:
        num = (_sqrt_one_minus(8, order) - TruncatedSeries.one(order)
               + TruncatedSeries.monomial(6, 2, order))
        den = TruncatedSeries.one(order) - TruncatedSeries.monomial(9, 2, order)
        return 3 * (num / den)
    if family == D_BY_D:
        d = arg
        if d < 3:
            raise ValidationError("the d x d family needs d >= 3")
        num = (_sqrt_one_minus(4 * d, order) - TruncatedSeries.one(order)
               + TruncatedSeries.monomial(2 * (d + 1), 2, order))
        den = (TruncatedSeries.one(order)
               - TruncatedSeries.monomial((d + 1) ** 2, 2, order))
        return Fraction(d * (d + 1), 2) * (num / den)
    raise ValidationError(
        f"no closed generating series for {name!r}; use the closed zeta "
        "and the logarithmic derivative")


def closed_zeta(name: str, order: int) -> TruncatedSeries:
    """Exact closed-form zeta series for kontsevich:n and paper2x2."""
    family, arg = parse_builtin_name(name)
    if family == KONTSEVICH:
        return _kontsevich_zeta(arg, order)
    if family == TWO_BY_TWO:
        return _two_by_two_zeta(order)
    raise ValidationError(
        f"no closed zeta is known for {name!r}; compare against "
        "dxd_zeta_prefix or the count pipeline instead")


def _kontsevich_zeta(n: int, order: int) -> TruncatedSeries:
    if n < 1:
        raise ValidationError("kontsevich needs at least one generator")
    s = _sqrt_one_minus(4 * (2 * n - 1), order)
    num = (TruncatedSeries.constant(n - 1, order) + n * s) ** (n - 1)
    den = (TruncatedSeries.one(order) + s) ** n
    prefactor = Fraction(2 ** n, (2 * n - 1) ** (n - 1))
    return prefactor * (num / den)


def _two_by_two_zeta(order: int) -> TruncatedSeries:
    # numerator vanishes through t^5, so work 6 orders higher and shift
    work = order + 6
    s = _sqrt_one_minus(8, work)
    num = (s * s * s - TruncatedSeries.one(work)
           + TruncatedSeries.monomial(12, 2, work)
           - TruncatedSeries.monomial(24, 4, work))
    result = num.shift_down(6) / 32
    for n in range(1, order // 2 + 1):
        expected = Fraction(3 * 2 ** n, (n + 2) * (n + 3)) * _binom(2 * n + 2, n + 1)
        if result[2 * n] != expected:
            raise AssertionError(
                "closed zeta disagrees with its coefficient formula "
                f"at t^{2 * n}")
    return result


def _binom(n: int, k: int) -> int:
    result = 1
    for i in range(k):
        result = result * (n - i) // (i + 1)
    return result


def _dxd_zeta_coefficients(d: int) -> dict[int, Fraction]:
    """Known zeta coefficients of the d x d family, as polynomials in d."""
    return {
        2: Fraction(d * (d + 1), 2),
        4: Fraction(d * (d + 1) * (d * d + 5 * d + 2), 8),
        6: Fraction(d * (d + 1)
                    * (d ** 4 + 14 * d ** 3 + 59 * d ** 2 + 38 * d + 8), 48),
        8: Fraction(d * (d + 1)
                    * (d ** 6 + 27 * d ** 5 + 271 * d ** 4 + 1105 * d ** 3
                       + 904 * d ** 2 + 332 * d + 48), 384),
    }


def dxd_zeta_prefix(d: int, order: int) -> TruncatedSeries:
    """Zeta series of the d x d family through t^8, from its d-polynomials."""
    if d < 3:
        raise ValidationError("the d x d family needs d >= 3")
    if not 0 <= order <= 8:
        raise ValidationError("the d x d zeta prefix is only known through order 8")
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[0] = Fraction(1)
    for degree, value in _dxd_zeta_coefficients(d).items():
        if degree <= order:
            coeffs[degree] = value
    return TruncatedSeries(coeffs, order)


def rooted_loop_series(d: int, order: int) -> TruncatedSeries:
    """The series u with u(0) = 0 and u(1 - d u) = t^2.

    Explicitly (1 - (1 - 4d t^2)^(1/2)) / (2d); the coefficient of t^(2k)
    is d^(k-1) times the (k-1)-st Catalan number.
    """
    if d < 1:
        raise ValidationError("d must be >= 1")
    s = _sqrt_one_minus(4 * d, order)
    return (TruncatedSeries.one(order) - s) / (2 * d)


__all__ = [
    "build_d_by_d",
    "build_kontsevich",
    "build_two_by_two",
    "builtin_matrix",
    "closed_generating_series",
    "closed_zeta",
    "dxd_zeta_prefix",
    "parse_builtin_name",
    "random_element",
    "random_matrix",
    "random_reduced_word",
    "rooted_loop_series",
]
