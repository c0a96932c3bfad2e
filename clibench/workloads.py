"""The benchmark's workloads: CLI invocations and the check of each output.

No expected output goes through the count engine under test
(``fgzeta.matrix.trace_counts``).  Counts and series come from the closed
forms in ``fgzeta.families`` or from the Euler product of
``fgzeta.cyclic``; a printed annihilating polynomial is re-evaluated,
by the code below, on the closed-form series at twice its order.
"""

import re
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from fgzeta import (AlgebraElement, AlgebraMatrix, GeneratorTable,
                    closed_generating_series, closed_zeta, dxd_zeta_prefix,
                    euler_product, log_derivative)

from documents import random_documents

@dataclass
class Invocation:
    """One ``python -m fgzeta`` call and the check of its stdout.

    ``check`` returns None for a correct output and a reason otherwise.
    """

    argv: tuple[str, ...]
    check: Callable[[bytes], str | None]
    stdin: bytes = b""


def _coeff_text(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def series_text(coeffs) -> str:
    """``k: c`` for k = 0, 1, ...: the output of ``g``, ``zeta`` and ``euler``."""
    return "".join(f"{k}: {_coeff_text(Fraction(c))}\n" for k, c in enumerate(coeffs))


def counts_text(coeffs) -> str:
    """``n: a_n`` for n = 1, 2, ...: the output of ``an``, from a series."""
    return "".join(f"{n}: {_coeff_text(Fraction(c))}\n"
                   for n, c in enumerate(coeffs) if n >= 1)


class Exact:
    """Output must equal a text derived independently."""

    def __init__(self, text: str):
        self.expected = text.encode()

    def __call__(self, out: bytes):
        if out == self.expected:
            return None
        got, want = out.splitlines(), self.expected.splitlines()
        for k, (a, b) in enumerate(zip(got, want), start=1):
            if a != b:
                return f"line {k}: got {a[:60]!r}, want {b[:60]!r}"
        return f"{len(got)} lines, want {len(want)}"


_TERM = re.compile(r"(-?\d+) \* t\^(\d+) \* y\^(\d+)")


def parse_polynomial(text: str) -> dict[tuple[int, int], int]:
    """``c * t^i * y^j + ...`` as {(i, j): c}; raises ValueError if malformed."""
    poly: dict[tuple[int, int], int] = {}
    for chunk in text.strip().split(" + "):
        m = _TERM.fullmatch(chunk)
        if not m:
            raise ValueError(f"bad term {chunk[:40]!r}")
        key = (int(m.group(2)), int(m.group(3)))
        poly[key] = poly.get(key, 0) + int(m.group(1))
    return {k: c for k, c in poly.items() if c}


def _times(a, b, order):
    out = [0] * (order + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(order + 1 - i):
                if b[j]:
                    out[i + j] += x * b[j]
    return out


def first_residue(poly, f) -> int | None:
    """Lowest k with [t^k] P(t, f) != 0 through f's order, else None."""
    order = len(f) - 1
    top = max(j for _, j in poly)
    powers = [[1] + [0] * order]
    for _ in range(top):
        powers.append(_times(powers[-1], f, order))
    residue = [0] * (order + 1)
    for (i, j), c in poly.items():
        for k in range(order + 1 - i):
            residue[i + k] += c * powers[j][k]
    return next((k for k, r in enumerate(residue) if r), None)


class Annihilates:
    """Output must be one nonzero polynomial within the degree bounds that
    annihilates ``f``, the closed-form series at twice the guessed order.

    The first accepted output is kept; later passes must repeat its bytes.
    """

    def __init__(self, f, deg_t: int, deg_y: int):
        self.f = [int(c) if c.denominator == 1 else c for c in f.coeffs]
        self.deg_t, self.deg_y = deg_t, deg_y
        self.accepted = None

    def __call__(self, out: bytes):
        if self.accepted is not None:
            return None if out == self.accepted else "differs from the accepted polynomial"
        lines = out.decode(errors="replace").splitlines()
        if len(lines) != 1:
            return f"{len(lines)} lines, want one polynomial"
        try:
            poly = parse_polynomial(lines[0])
        except ValueError as exc:
            return str(exc)
        if not poly:
            return "zero polynomial"
        if any(i > self.deg_t or j > self.deg_y for i, j in poly):
            return f"degree outside t^{self.deg_t} y^{self.deg_y}"
        k = first_residue(poly, self.f)
        if k is not None:
            return f"residue at t^{k} of order {len(self.f) - 1}"
        self.accepted = out
        return None


def _counts_workload():
    return [
        Invocation(("zeta", "--builtin", "paper2x2", "--order", "30"),
                   Exact(series_text(closed_zeta("paper2x2", 30).coeffs))),
        Invocation(("an", "--builtin", "paperdxd:3", "--order", "20"),
                   Exact(counts_text(closed_generating_series("paperdxd:3", 20).coeffs))),
        Invocation(("g", "--builtin", "paperdxd:4", "--order", "16"),
                   Exact(series_text(closed_generating_series("paperdxd:4", 16).coeffs))),
        Invocation(("an", "--builtin", "kontsevich:2", "--order", "20"),
                   Exact(counts_text(log_derivative(closed_zeta("kontsevich:2", 20)).coeffs))),
    ]


CATALAN_POLY = "1 * t^0 * y^0 + -1 * t^0 * y^1 + 1 * t^2 * y^2"


def _certify_workload():
    def guess(name, target, deg_t, deg_y, order, f):
        argv = ("guess", "--builtin", name, "--target", target, "--degt",
                str(deg_t), "--degy", str(deg_y), "--order", str(order))
        return Invocation(argv, Annihilates(f, deg_t, deg_y))

    kont_p = closed_zeta("kontsevich:1", 280)
    verify_order = 400
    catalan = closed_zeta("kontsevich:1", verify_order)
    if first_residue(parse_polynomial(CATALAN_POLY),
                     [int(c) for c in catalan.coeffs]) is not None:
        raise AssertionError("the verify polynomial does not annihilate the closed zeta")
    return [
        guess("kontsevich:1", "g", 24, 3, 140, log_derivative(kont_p)),
        guess("kontsevich:1", "p", 20, 4, 140, kont_p),
        Invocation(("verify", "--builtin", "kontsevich:1", "--target", "p",
                    "--order", str(verify_order), "--poly", CATALAN_POLY),
                   Exact(f"ANNIHILATES to order {verify_order}\n")),
        guess("paper2x2", "g", 4, 2, 23, closed_generating_series("paper2x2", 46)),
    ]


def _euler_text(zeta, length):
    return series_text(zeta.coeffs) + f"EQUAL to order {length}\n"


def _euler_workload():
    return [
        Invocation(("euler", "--builtin", "paper2x2", "--length", "12"),
                   Exact(_euler_text(closed_zeta("paper2x2", 12), 12))),
        Invocation(("euler", "--builtin", "paperdxd:3", "--length", "8"),
                   Exact(_euler_text(dxd_zeta_prefix(3, 8), 8))),
        Invocation(("euler", "--builtin", "kontsevich:2", "--length", "10"),
                   Exact(_euler_text(closed_zeta("kontsevich:2", 10), 10))),
    ]


RANDOM_ORDER = 10


def _random_workload(seed):
    invocations = []
    for doc in random_documents(seed):
        rows = [[AlgebraElement(doc.entries.get((i, j), {}))
                 for j in range(1, doc.dim + 1)] for i in range(1, doc.dim + 1)]
        m = AlgebraMatrix(rows, GeneratorTable(f"g{k}" for k in range(1, doc.n_gens + 1)))
        counts = log_derivative(euler_product(m, RANDOM_ORDER))
        invocations.append(Invocation(
            ("an", "--matrix", "-", "--order", str(RANDOM_ORDER)),
            Exact(counts_text(counts.coeffs)), doc.text.encode()))
    return invocations


def build(name: str, seed: int) -> list[Invocation]:
    """The invocation list of workload ``name``, with references computed."""
    if name == "counts":
        return _counts_workload()
    if name == "certify":
        return _certify_workload()
    if name == "euler":
        return _euler_workload()
    if name == "random":
        return _random_workload(seed)
    raise ValueError(f"unknown workload {name!r}")
