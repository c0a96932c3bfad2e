"""In-process traced run of ``fgzeta.cli.main``.

While installed, a :class:`Tracer` replaces public functions of the
program's modules by wrappers that time each call and count its work.
The program's own code is untouched: the wrappers are bound into every
``fgzeta`` module namespace that holds the original function (``cli``
imports names directly, ``matrix`` calls ``_kernel.mul_terms`` through
the module) and removed again on exit.

Spans nest: a wrapped call's time is charged to its caller as child
time, so a layer's self time is its time minus its wrapped callees'.
"""

import io
import sys
import time
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout

import fgzeta.cli

# (span name, module, attribute); attribute of a class for methods.
SPANS = (
    ("kernel.mul_terms", "fgzeta._kernel", "mul_terms"),
    ("matrix.trace_counts", "fgzeta.matrix", "trace_counts"),
    ("series.zeta_series", "fgzeta.series", "zeta_series"),
    ("series.generating_series", "fgzeta.series", "generating_series"),
    ("series.div", "fgzeta.series", "TruncatedSeries.__truediv__"),
    ("guess.guess_annihilator", "fgzeta.guess", "guess_annihilator"),
    ("guess.exact_kernel", "fgzeta.guess", "exact_kernel"),
    ("guess.evaluate_at_series", "fgzeta.guess", "evaluate_at_series"),
    ("cyclic.euler_product", "fgzeta.cyclic", "euler_product"),
    ("cli.main", "fgzeta.cli", "main"),
    ("cli.parse_matrix_document", "fgzeta.cli", "parse_matrix_document"),
    ("families.builtin_matrix", "fgzeta.families", "builtin_matrix"),
    ("cli.format", "fgzeta.series", "format_series"),
    ("cli.format", "fgzeta.guess", "format_bivariate"),
)


class Tracer:
    """Per-span totals for one traced pass; a context manager installs it."""

    def __init__(self):
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []  # [span name, child seconds] per open span
        self._undo = []

    def _observe(self, name, parent, args, result):
        if name == "kernel.mul_terms":
            a, b = args[0], args[1]
            self.counts["pair_ops"] += len(a) * len(b)
            self.counts["out_terms"] += len(result)
            self.counts["out_terms_max"] = max(self.counts["out_terms_max"], len(result))
        elif name == "guess.exact_kernel":
            rows = args[0]
            self.counts["kernel_cells"] += len(rows) * len(rows[0])
            self.counts["kernel_hits"] += bool(result)
        elif name == "series.div" and parent == "cyclic.euler_product":
            self.counts["lyndon_factors"] += 1

    def _wrap(self, name, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.time[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                self.calls[name] += 1
            self._observe(name, parent, args, result)
            return result

        return traced

    def __enter__(self):
        for name, module_name, attr in SPANS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                targets = [owner]
            else:
                targets = [m for key, m in list(sys.modules.items())
                           if key == "fgzeta" or key.startswith("fgzeta.")]
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for target in targets:
                if target.__dict__.get(attr) is original:
                    setattr(target, attr, wrapper)
                    self._undo.append((target, attr, original))
        return self

    def __exit__(self, *exc):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()
        return False

    def metrics(self) -> dict[str, float]:
        """Per-layer values of this pass, keyed as in BENCHMARK.json."""
        t, s, n, c = self.time, self.self_time, self.calls, self.counts
        return {
            "kernel.mul_terms_s": t["kernel.mul_terms"],
            "kernel.mul_terms_calls": n["kernel.mul_terms"],
            "kernel.pair_ops": c["pair_ops"],
            "kernel.out_terms": c["out_terms"],
            "kernel.out_terms_max": c["out_terms_max"],
            "kernel.out_per_pair": c["out_terms"] / c["pair_ops"] if c["pair_ops"] else 0.0,
            "matrix.trace_counts_s": t["matrix.trace_counts"],
            "matrix.trace_counts.self_s": s["matrix.trace_counts"],
            "series.zeta_series_s": t["series.zeta_series"],
            "series.generating_series_s": t["series.generating_series"],
            "series.div_calls": n["series.div"],
            "series.div_s": t["series.div"],
            "guess.guess_annihilator_s": t["guess.guess_annihilator"],
            "guess.exact_kernel_s": t["guess.exact_kernel"],
            "guess.exact_kernel_calls": n["guess.exact_kernel"],
            "guess.exact_kernel_cells": c["kernel_cells"],
            "guess.kernel_hit_ratio": (c["kernel_hits"] / n["guess.exact_kernel"]
                                       if n["guess.exact_kernel"] else 0.0),
            "guess.evaluate_at_series_s": t["guess.evaluate_at_series"],
            "guess.evaluate_at_series_calls": n["guess.evaluate_at_series"],
            "cyclic.euler_product_s": t["cyclic.euler_product"],
            "cyclic.euler_product.self_s": s["cyclic.euler_product"],
            "cyclic.lyndon_factors": c["lyndon_factors"],
            "cli.main_s": t["cli.main"],
            "cli.self_s": s["cli.main"],
            "cli.parse_matrix_document_s": t["cli.parse_matrix_document"],
            "families.builtin_matrix_s": t["families.builtin_matrix"],
            "cli.format_s": t["cli.format"],
        }


def run_in_process(argv, stdin: bytes = b"") -> tuple[int, bytes]:
    """``fgzeta.cli.main(argv)`` with stdin fed and stdout captured.

    ``main`` is looked up at call time so that a traced wrapper is used.
    """
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = fgzeta.cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue().encode()
