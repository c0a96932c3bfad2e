#!/usr/bin/env python3
"""Benchmark the compiled convolution kernel against the pure-Python one.

The workloads are iterated matrix powers with pruning, run through
:func:`fgzeta.matrix.power_trace_counts`, the oracle that calls the
kernel (the default first-passage engine does not).  Each workload runs
under both backends (when the compiled one is available) by swapping the
dispatcher's function, and the outputs are compared to be identical
before timings are reported.

Usage: python benchmarks/bench_kernel.py [--repeat K]
"""

import argparse
import time

from fgzeta import _kernel
from fgzeta.families import build_d_by_d, build_two_by_two
from fgzeta.matrix import power_trace_counts


def workloads():
    counts = power_trace_counts
    return [
        ("paper2x2 counts N=28", lambda: counts(build_two_by_two(), 28)),
        ("paper2x2 counts N=16, no pruning",
         lambda: counts(build_two_by_two(), 16, prune=False)),
        ("paperdxd:3 counts N=18", lambda: counts(build_d_by_d(3), 18)),
        ("paperdxd:4 counts N=14", lambda: counts(build_d_by_d(4), 14)),
    ]


def run_with_backend(module, job, repeat):
    original = _kernel.mul_terms
    _kernel.mul_terms = module.mul_terms
    try:
        best = None
        result = None
        for _ in range(repeat):
            start = time.perf_counter()
            result = job()
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        return result, best
    finally:
        _kernel.mul_terms = original


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing repetitions per workload (default 3)")
    args = parser.parse_args()

    backends = _kernel.available_backends()
    print(f"available backends: {', '.join(backends)}")
    print(f"active backend: {_kernel.BACKEND}")
    print()
    header = f"{'workload':38} " + " ".join(f"{name:>10}" for name in backends)
    if len(backends) > 1:
        header += f" {'speedup':>9}"
    print(header)
    print("-" * len(header))

    for label, job in workloads():
        times = {}
        results = {}
        for name, module in backends.items():
            results[name], times[name] = run_with_backend(module, job,
                                                          args.repeat)
        values = list(results.values())
        assert all(v == values[0] for v in values), f"backends disagree on {label}"
        row = f"{label:38} " + " ".join(f"{times[name]:9.3f}s" for name in backends)
        if "cython" in times and "python" in times:
            row += f" {times['python'] / times['cython']:8.2f}x"
        print(row)


if __name__ == "__main__":
    main()
