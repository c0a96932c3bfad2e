"""Annihilating-polynomial search for truncated series.

Given f known to order N, a bivariate integer polynomial P with
P(t, f(t)) = 0 through t^N certifies algebraicity empirically: the
certificate is only as strong as the truncation, which the docstrings
below state explicitly.  The search is a nullspace computation: the
coefficients of P are an exact-rational kernel vector of the linear map
sending (c_ij) to the series coefficients of sum c_ij t^i f^j.
"""

import math
import re
from fractions import Fraction

from .errors import ParseError, ResourceLimitError, ValidationError
from .series import TruncatedSeries

# A prime.  Ranks taken modulo it screen candidate degree pairs in
# guess_annihilator before any exact kernel is computed.
MODULUS = 2 ** 61 - 1

# Ceiling on top * (order+1)^2, the coefficient products needed to form
# the powers f^0 .. f^top of a series of that order.  At the ceiling, on a
# 2-core Intel Xeon VM (CPython 3.11), the zeta series of kontsevich:1
# takes 3.2 s to y-degree 826446 at order 10 and 2.6 s to y-degree 621 at
# order 400, and 9.4 s to y-degree 24 at order 2000, where the integers
# are long; paperdxd:4 takes 9.2 s to y-degree 155 at order 800.  Memory
# stays at about one power.
MAX_POWER_WORK = 100_000_000


class BivariatePolynomial:
    """Integer polynomial in t and y, stored as {(t_degree, y_degree): coeff}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], int]):
        self.coeffs = {k: int(c) for k, c in coeffs.items() if c}

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def deg_t(self) -> int:
        return max((i for i, _ in self.coeffs), default=0)

    @property
    def deg_y(self) -> int:
        return max((j for _, j in self.coeffs), default=0)

    def normalized(self) -> "BivariatePolynomial":
        """Canonical form: primitive, monomial-reduced, sign-fixed.

        Divides out the integer content and any common t^a or y^b factor,
        then flips the sign so the coefficient of the lexicographically
        largest (y_degree, t_degree) monomial is positive.
        """
        if not self.coeffs:
            return self
        t_shift = min(i for i, _ in self.coeffs)
        y_shift = min(j for _, j in self.coeffs)
        return _content_sign_only(BivariatePolynomial(
            {(i - t_shift, j - y_shift): c for (i, j), c in self.coeffs.items()}))

    def rescale_t(self, factor: int) -> "BivariatePolynomial":
        """Substitute t -> factor*t."""
        return BivariatePolynomial(
            {(i, j): c * factor ** i for (i, j), c in self.coeffs.items()})

    def sorted_terms(self) -> list[tuple[int, int, int]]:
        """(i, j, coeff) triples sorted by (y_degree, t_degree)."""
        return [(i, j, self.coeffs[(i, j)])
                for (i, j) in sorted(self.coeffs, key=lambda ij: (ij[1], ij[0]))]

    def __eq__(self, other):
        return (isinstance(other, BivariatePolynomial)
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        return f"BivariatePolynomial({self.coeffs!r})"


def format_bivariate(p: BivariatePolynomial) -> str:
    """Display as ``c * t^i * y^j`` terms sorted by (j, i); zero is ``0``."""
    if p.is_zero():
        return "0"
    return " + ".join(f"{c} * t^{i} * y^{j}" for i, j, c in p.sorted_terms())


_TERM_RE = re.compile(
    r"^\s*(-?\d+)\s*\*\s*t\^(\d+)\s*\*\s*y\^(\d+)\s*$")


def parse_bivariate(text: str) -> BivariatePolynomial:
    """Inverse of :func:`format_bivariate`."""
    text = text.strip()
    if text == "0":
        return BivariatePolynomial({})
    coeffs: dict[tuple[int, int], int] = {}
    for chunk in text.split("+"):
        m = _TERM_RE.match(chunk)
        if not m:
            raise ParseError(
                f"bad polynomial term {chunk.strip()!r}; expected 'c * t^i * y^j'")
        try:
            c, i, j = int(m.group(1)), int(m.group(2)), int(m.group(3))
        except ValueError:  # more digits than int() accepts from text
            raise ParseError(
                f"number too long in polynomial term {chunk.strip()[:40]!r}...") from None
        key = (i, j)
        coeffs[key] = coeffs.get(key, 0) + c
    return BivariatePolynomial(coeffs)


def evaluate_at_series(p: BivariatePolynomial, f: TruncatedSeries,
                       powers=None) -> TruncatedSeries:
    """sum c_ij t^i f^j truncated to f's order.

    ``powers``, when given, are the coefficient lists of f^0 .. f^k for
    some k >= the y-degree of p, as :func:`_series_powers` returns them.
    Otherwise the powers are formed one at a time and dropped once used.
    """
    n = f.order
    by_y: dict[int, list[tuple[int, int]]] = {}
    for (i, j), c in p.coeffs.items():
        if i <= n:
            by_y.setdefault(j, []).append((i, c))
    top = max(by_y, default=0)
    if not f.coeffs[0]:
        top = min(top, n)  # f^j vanishes through t^n for every j > n
    if powers is None:
        powers = _power_lists(f, top)
    out = [0] * (n + 1)
    for j, fj in zip(range(top + 1), powers):
        for i, c in by_y.get(j, ()):
            for k in range(n + 1 - i):
                if fj[k]:
                    out[i + k] += c * fj[k]
    return TruncatedSeries(out, n)


def _series_powers(f: TruncatedSeries, top: int) -> list[list]:
    """Coefficient lists of f^0 .. f^top; see :func:`_power_lists`."""
    return list(_power_lists(f, top))


def _power_lists(f: TruncatedSeries, top: int):
    """Yield the coefficient lists of f^0 .. f^top, truncated to f's order.

    The entries are ints when every coefficient of f is an integer and
    Fractions otherwise; the loop is the same.  Raises ResourceLimitError,
    before any power is formed, when top * (order+1)^2 exceeds
    MAX_POWER_WORK.
    """
    n = f.order
    if top * (n + 1) ** 2 > MAX_POWER_WORK:
        raise ResourceLimitError(
            f"the powers of the series up to y-degree {top} at order {n} "
            f"need y-degree * (order+1)^2 = {top * (n + 1) ** 2} "
            f"coefficient products, over the limit MAX_POWER_WORK = "
            f"{MAX_POWER_WORK}; lower the y-degree or the order")
    coeffs = f.coeffs
    if all(c.denominator == 1 for c in coeffs):
        coeffs = [c.numerator for c in coeffs]
    support = [(j, c) for j, c in enumerate(coeffs) if c]
    power = [1] + [0] * n
    yield power
    for _ in range(top):
        out = [0] * (n + 1)
        for i, a in enumerate(power):
            if a:
                for j, c in support:
                    if i + j > n:
                        break
                    out[i + j] += a * c
        power = out
        yield power


def exact_kernel(rows) -> list[list[int]]:
    """Basis of the right kernel of a matrix of exact rationals.

    Rows are scaled to integers, eliminated integer-preservingly (cross
    multiplication followed by a gcd reduction of the row, pivots chosen
    by maximal absolute value), and the free variables back-substituted.
    Each basis vector is returned as a primitive integer vector and
    satisfies A v = 0 exactly.
    """
    rows = [list(r) for r in rows]
    if not rows:
        raise ValidationError("kernel of an empty row set is ambiguous")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValidationError("ragged rows")
    mat = [_integerize(r) for r in rows]

    pivots: list[tuple[int, int]] = []  # (row, col) in elimination order
    pivot_row = 0
    for col in range(width):
        best = None
        for r in range(pivot_row, len(mat)):
            if mat[r][col] and (best is None or abs(mat[r][col]) > abs(mat[best][col])):
                best = r
        if best is None:
            continue
        mat[pivot_row], mat[best] = mat[best], mat[pivot_row]
        p = mat[pivot_row][col]
        for r in range(pivot_row + 1, len(mat)):
            q = mat[r][col]
            if not q:
                continue
            row = [p * a - q * b for a, b in zip(mat[r], mat[pivot_row])]
            g = 0
            for a in row:
                g = math.gcd(g, abs(a))
            mat[r] = [a // g for a in row] if g > 1 else row
        pivots.append((pivot_row, col))
        pivot_row += 1
        if pivot_row == len(mat):
            break

    pivot_cols = [c for _, c in pivots]
    free_cols = [c for c in range(width) if c not in pivot_cols]
    basis = []
    for free in free_cols:
        v = [Fraction(0)] * width
        v[free] = Fraction(1)
        for r, c in reversed(pivots):
            acc = Fraction(0)
            for cc in range(c + 1, width):
                if mat[r][cc]:
                    acc += mat[r][cc] * v[cc]
            v[c] = -acc / mat[r][c]
        basis.append(_primitive(v))
    return basis


def _integerize(row) -> list[int]:
    fracs = [x if type(x) is int else Fraction(x) for x in row]
    scale = 1
    for x in fracs:
        scale = scale * x.denominator // math.gcd(scale, x.denominator)
    return [x.numerator * (scale // x.denominator) for x in fracs]


def _primitive(vector: list[Fraction]) -> list[int]:
    scale = 1
    for x in vector:
        scale = scale * x.denominator // math.gcd(scale, x.denominator)
    ints = [int(x * scale) for x in vector]
    g = 0
    for a in ints:
        g = math.gcd(g, abs(a))
    if g > 1:
        ints = [a // g for a in ints]
    for a in ints:
        if a:
            if a < 0:
                ints = [-b for b in ints]
            break
    return ints


def required_order(deg_t: int, deg_y: int) -> int:
    """Smallest series order guess_annihilator accepts for these bounds.

    The largest candidate system has (deg_t+1)(deg_y+1) unknowns; eight
    more equations than unknowns make an accidental kernel unlikely.
    """
    return (deg_t + 1) * (deg_y + 1) + 8


def guess_annihilator(f: TruncatedSeries, deg_t: int,
                      deg_y: int) -> BivariatePolynomial | None:
    """Smallest annihilator of f within the degree bounds, or None.

    Scans candidate degrees in lexicographic (y_degree, t_degree) order
    and returns the first normalized kernel element that kills f through
    its full truncation order.  The order must comfortably overdetermine
    the largest candidate system, hence the guard below.

    Pairs whose system has full column rank modulo MODULUS are skipped
    without an exact kernel.  That is sound: a nonzero rational kernel
    vector scales to a primitive integer one, which stays a nonzero
    kernel vector modulo any prime, so the rank modulo a prime is at most
    the rank over Q.  When a denominator of a power of f is divisible by
    MODULUS, the systems have no image modulo it and every pair gets an
    exact kernel.
    """
    required = required_order(deg_t, deg_y)
    if f.order < required:
        raise ValidationError(
            f"series order {f.order} is too small for bounds "
            f"(deg_t={deg_t}, deg_y={deg_y}); need order >= {required}")
    powers = _series_powers(f, deg_y)
    powers_mod = _powers_mod_p(powers)
    for dy in range(deg_y + 1):
        first = 0 if powers_mod is None else _first_dependent_dt(powers_mod, dy, deg_t)
        for dt in range(first, deg_t + 1):
            raw = _kernel_candidate(f, powers, dt, dy)
            if raw is None:
                continue
            candidate = raw.normalized()
            if evaluate_at_series(candidate, f, powers).is_zero():
                return candidate
            # monomial reduction can cost truncation precision; retry
            # with content and sign normalization only
            fallback = _content_sign_only(raw)
            if evaluate_at_series(fallback, f, powers).is_zero():
                return fallback
    return None


def _powers_mod_p(powers: list[list]) -> list[list[int]] | None:
    """The power lists of :func:`_series_powers` reduced modulo MODULUS,
    or None if an entry has a denominator divisible by MODULUS."""
    reduced = []
    for power in powers:
        row = []
        for x in power:
            if type(x) is not int:
                if x.denominator % MODULUS == 0:
                    return None
                x = x.numerator * pow(x.denominator, -1, MODULUS)
            row.append(x % MODULUS)
        reduced.append(row)
    return reduced


def _first_dependent_dt(powers: list[list[int]], dy: int, deg_t: int) -> int:
    """Smallest dt <= deg_t whose columns t^i f^j (i <= dt, j <= dy) are
    linearly dependent modulo MODULUS, or deg_t + 1 if there is none.

    The columns of dt contain those of dt - 1, so one echelon basis grows
    as dt does; each basis vector is stored from its pivot on, scaled so
    that the pivot entry is 1.
    """
    n = len(powers[0])
    basis: list[tuple[int, list[int]]] = []
    for dt in range(deg_t + 1):
        for j in range(dy + 1):
            v = [0] * dt + powers[j][:n - dt]
            for pivot, tail in basis:
                c = v[pivot]
                if c:
                    v[pivot:] = [(a - c * b) % MODULUS
                                 for a, b in zip(v[pivot:], tail)]
            pivot = next((k for k, a in enumerate(v) if a), None)
            if pivot is None:
                return dt
            scale = pow(v[pivot], -1, MODULUS)
            basis.append((pivot, [a * scale % MODULUS for a in v[pivot:]]))
    return deg_t + 1


def _kernel_candidate(f, powers, dt, dy):
    columns = [(i, j) for j in range(dy + 1) for i in range(dt + 1)]
    rows = []
    for k in range(f.order + 1):
        row = []
        for i, j in columns:
            row.append(powers[j][k - i] if k >= i else 0)
        rows.append(row)
    basis = exact_kernel(rows)
    if not basis:
        return None
    vec = basis[0]
    poly = BivariatePolynomial({ij: c for ij, c in zip(columns, vec)})
    if poly.is_zero():
        return None
    return poly


def _content_sign_only(p: BivariatePolynomial) -> BivariatePolynomial:
    """``p`` divided by its integer content, with the coefficient of its
    largest (y_degree, t_degree) monomial made positive."""
    content = 0
    for c in p.coeffs.values():
        content = math.gcd(content, abs(c))
    out = {k: c // content for k, c in p.coeffs.items()}
    lead = max(out, key=lambda ij: (ij[1], ij[0]))
    if out[lead] < 0:
        out = {k: -c for k, c in out.items()}
    return BivariatePolynomial(out)


__all__ = [
    "BivariatePolynomial",
    "evaluate_at_series",
    "exact_kernel",
    "format_bivariate",
    "guess_annihilator",
    "parse_bivariate",
    "required_order",
]
