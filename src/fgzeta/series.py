"""Truncated power series over exact rationals.

Everything here is exact: coefficients are ``fractions.Fraction`` values
and no floating point is used anywhere, so integrality questions have
definite answers.  A series carries an explicit truncation order; binary
operations require equal orders and refuse to re-truncate silently.

exp, log and sqrt are computed by the coefficient recurrences that follow
from their defining differential equations, O(N^2) coefficient operations
each.
"""

from fractions import Fraction

from .errors import ValidationError


class TruncatedSeries:
    """Coefficients for t^0 .. t^order, exact rationals in lowest terms."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order: int | None = None):
        coeffs = [Fraction(c) for c in coeffs]
        if order is None:
            if not coeffs:
                raise ValidationError("empty coefficient list needs an explicit order")
            order = len(coeffs) - 1
        if order < 0:
            raise ValidationError("order must be >= 0")
        if len(coeffs) < order + 1:
            coeffs = coeffs + [Fraction(0)] * (order + 1 - len(coeffs))
        elif len(coeffs) > order + 1:
            raise ValidationError(
                f"{len(coeffs)} coefficients do not fit order {order}")
        self.order = order
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([Fraction(0)], order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([Fraction(1)], order)

    @classmethod
    def constant(cls, value, order: int) -> "TruncatedSeries":
        return cls([Fraction(value)], order)

    @classmethod
    def monomial(cls, value, degree: int, order: int) -> "TruncatedSeries":
        if degree > order:
            return cls.zero(order)
        coeffs = [Fraction(0)] * (order + 1)
        coeffs[degree] = Fraction(value)
        return cls(coeffs, order)

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k]

    def _check(self, other: "TruncatedSeries"):
        if self.order != other.order:
            raise ValidationError(
                f"order mismatch: {self.order} vs {other.order}")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries([a + b for a, b in zip(self.coeffs, other.coeffs)],
                               self.order)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries([a - b for a, b in zip(self.coeffs, other.coeffs)],
                               self.order)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-a for a in self.coeffs], self.order)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check(other)
            n = self.order
            out = [Fraction(0)] * (n + 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j in range(n + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
            return TruncatedSeries(out, n)
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries([a * other for a in self.coeffs], self.order)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check(other)
            if other.coeffs[0] == 0:
                raise ValidationError("division by a series with zero constant term")
            n = self.order
            g0 = other.coeffs[0]
            out = [Fraction(0)] * (n + 1)
            for k in range(n + 1):
                acc = self.coeffs[k]
                for i in range(k):
                    acc -= out[i] * other.coeffs[k - i]
                out[k] = acc / g0
            return TruncatedSeries(out, n)
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries([a / Fraction(other) for a in self.coeffs],
                                   self.order)
        return NotImplemented

    def __pow__(self, n: int) -> "TruncatedSeries":
        if n < 0:
            raise ValidationError("negative powers not supported; divide instead")
        result = TruncatedSeries.one(self.order)
        base = self
        while n > 0:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def exp(self) -> "TruncatedSeries":
        """exp(f) for f with zero constant term, via F' = f'.F."""
        if self.coeffs[0] != 0:
            raise ValidationError("exp needs zero constant term")
        n = self.order
        out = [Fraction(0)] * (n + 1)
        out[0] = Fraction(1)
        for k in range(1, n + 1):
            acc = Fraction(0)
            for i in range(1, k + 1):
                if self.coeffs[i]:
                    acc += i * self.coeffs[i] * out[k - i]
            out[k] = acc / k
        return TruncatedSeries(out, n)

    def log(self) -> "TruncatedSeries":
        """log(f) for f with constant term 1, via f.g' = f'."""
        if self.coeffs[0] != 1:
            raise ValidationError("log needs constant term 1")
        n = self.order
        out = [Fraction(0)] * (n + 1)
        for k in range(1, n + 1):
            acc = k * self.coeffs[k]
            for i in range(1, k):
                acc -= i * out[i] * self.coeffs[k - i]
            out[k] = acc / k
        return TruncatedSeries(out, n)

    def sqrt(self) -> "TruncatedSeries":
        """The square root with constant term 1, via g_k from g*g = f."""
        if self.coeffs[0] != 1:
            raise ValidationError("sqrt needs constant term 1")
        n = self.order
        out = [Fraction(0)] * (n + 1)
        out[0] = Fraction(1)
        for k in range(1, n + 1):
            acc = self.coeffs[k]
            for i in range(1, k):
                acc -= out[i] * out[k - i]
            out[k] = acc / 2
        return TruncatedSeries(out, n)

    def derivative(self) -> "TruncatedSeries":
        """Termwise d/dt; order drops by one (constants map to 0)."""
        if self.order == 0:
            return TruncatedSeries.zero(0)
        return TruncatedSeries([k * self.coeffs[k] for k in range(1, self.order + 1)],
                               self.order - 1)

    def shift_up(self) -> "TruncatedSeries":
        """Multiply by t; order grows by one and no coefficient is lost."""
        return TruncatedSeries([Fraction(0), *self.coeffs], self.order + 1)

    def shift_down(self, k: int) -> "TruncatedSeries":
        """Divide by t^k; the k lowest coefficients must vanish."""
        if any(self.coeffs[i] for i in range(min(k, self.order + 1))):
            raise ValidationError(f"series is not divisible by t^{k}")
        if k > self.order:
            raise ValidationError("shift_down exceeds the truncation order")
        return TruncatedSeries(list(self.coeffs[k:]), self.order - k)

    def truncate(self, order: int) -> "TruncatedSeries":
        """Explicitly drop to a lower order (never done implicitly)."""
        if order > self.order:
            raise ValidationError("cannot extend a truncated series")
        return TruncatedSeries(list(self.coeffs[: order + 1]), order)

    def rescale(self, factor) -> "TruncatedSeries":
        """Substitute t -> factor*t: coefficient k picks up factor^k."""
        factor = Fraction(factor)
        out = []
        power = Fraction(1)
        for c in self.coeffs:
            out.append(c * power)
            power *= factor
        return TruncatedSeries(out, self.order)

    def is_integral(self) -> bool:
        """True iff every stored coefficient is an integer."""
        return all(c.denominator == 1 for c in self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries)
                and self.order == other.order and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"<TruncatedSeries order {self.order}: [{head}{tail}]>"


def generating_series(counts) -> TruncatedSeries:
    """sum a_n t^n (zero constant term); order equals len(counts)."""
    counts = list(counts)
    return TruncatedSeries([Fraction(0)] + [Fraction(c) for c in counts],
                           len(counts))


def zeta_series(counts) -> TruncatedSeries:
    """exp(sum a_n t^n / n); satisfies t*z'/z = sum a_n t^n exactly.

    For integer counts, t*P' = g*P gives n*P_n = sum_{k=1..n} a_k P_{n-k},
    which stays in the integers while every division by n is exact (always,
    for the counts of an integer matrix).  The first inexact division falls
    back to exp over the rationals.
    """
    counts = list(counts)
    if all(type(c) is int for c in counts):
        nonzero = [(k, c) for k, c in enumerate(counts, start=1) if c]
        out = [1] + [0] * len(counts)
        for n in range(1, len(counts) + 1):
            acc = 0
            for k, c in nonzero:
                if k > n:
                    break
                acc += c * out[n - k]
            out[n], rest = divmod(acc, n)
            if rest:
                break
        else:
            return TruncatedSeries(out, len(counts))
    arg = TruncatedSeries([Fraction(0)] + [Fraction(c, n + 1)
                                           for n, c in enumerate(counts)],
                          len(counts))
    return arg.exp()


def log_derivative(f: TruncatedSeries) -> TruncatedSeries:
    """t * f'/f at order f.order (exact: f' knows enough coefficients)."""
    return f.derivative().shift_up() / f


def format_series(f: TruncatedSeries) -> str:
    """One line per coefficient, ``k: p/q`` with ``p`` alone for integers."""
    lines = []
    for k, c in enumerate(f.coeffs):
        value = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
        lines.append(f"{k}: {value}")
    return "\n".join(lines)


__all__ = [
    "TruncatedSeries",
    "format_series",
    "generating_series",
    "log_derivative",
    "zeta_series",
]
