#!/usr/bin/env python3
"""End-to-end benchmark of the ``fgzeta`` command line.

Usage, from the root of a source checkout:

    python3 clibench/run.py --workload counts --seed 1 --seconds 20 --trace 0

One client runs a closed loop: each invocation is a fresh
``python -m fgzeta`` subprocess with ``src`` on ``PYTHONPATH``, started
when the previous one has ended, under a timeout and an address-space
cap.  A pass runs the workload's invocation list once, in an order drawn
from the seed; passes repeat for ``--seconds``, and at least
``MIN_PASSES`` times.  Every output is checked against a reference that
does not use the count engine (see ``workloads.py``).

With ``--trace 1`` the invocations instead run in this process through
``fgzeta.cli.main``, with the program's public functions wrapped (see
``tracer.py``), and the per-layer metrics are reported.  The traced
stdout must be byte-identical to the subprocess stdout.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it record
the environment (Python version, core count, kernel backend: numbers
from different backends must not be compared) and the inputs.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

from guarded import run_guarded

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# With at least 11 passes the tail sample (the 11th slowest) always lies
# among the slowest invocation's samples, so a run that fits one pass
# more or less does not move it to another invocation.
MIN_PASSES = 11
# No pass starts after this many seconds of measuring, whatever
# MIN_PASSES asks, so that a slower program still ends within 180 s.
HARD_STOP_S = 120.0
SETUP_RUNS = 9
MIN_TRACED_PASSES = 3


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    # Children read and write the bytecode cache under src, as an installed
    # package would; without it every start-up also compiles fgzeta
    # (about 44 ms instead of 35 ms for a bare import on a 2-core x86 VM).
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def fgzeta_argv(inv) -> list[str]:
    return [sys.executable, "-m", "fgzeta", *inv.argv]


def tail(samples: list[float]) -> tuple[float, float]:
    """The sample with exactly ten samples above it, and its percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Client:
    """The closed-loop client: runs invocations and checks their output."""

    def __init__(self, invocations):
        self.invocations = invocations
        self.env = child_env()
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, inv, reason: str):
        k = self.invocations.index(inv)
        self.failures.append(f"[{k}] {' '.join(inv.argv)}: {reason}")

    def invoke(self, inv):
        """Run one invocation; the outcome, or None when it failed."""
        self.attempted += 1
        outcome = run_guarded(fgzeta_argv(inv), stdin=inv.stdin,
                              env=self.env, cwd=ROOT)
        if not outcome.ok:
            detail = outcome.stderr.decode(errors="replace").strip().splitlines()
            self.fail(inv, outcome.status + (f" ({detail[-1][:120]})" if detail else ""))
            return None
        reason = inv.check(outcome.stdout)
        if reason:
            self.fail(inv, reason)
            return None
        return outcome

    def run_pass(self, order) -> dict:
        walls, cpu, peak = [], 0.0, 0.0
        for k in order:
            outcome = self.invoke(self.invocations[k])
            if outcome is not None:
                walls.append(outcome.wall_s)
                cpu += outcome.cpu_s
                peak = max(peak, outcome.maxrss_mib)
        return {"walls": walls, "run_s": sum(walls), "cpu_s": cpu,
                "peak_rss_mib": peak}


def measure_setup(client) -> float:
    """Median wall time of a fresh interpreter that imports fgzeta.cli."""
    argv = [sys.executable, "-c", "import fgzeta.cli"]
    times = []
    for k in range(SETUP_RUNS + 1):
        outcome = run_guarded(argv, env=client.env, cwd=ROOT)
        if not outcome.ok:
            raise SystemExit(f"error: importing fgzeta.cli failed: {outcome.status}")
        if k:  # the first run warms the bytecode cache
            times.append(outcome.wall_s)
    return statistics.median(times)


def end_to_end(client, rng, seconds: float) -> tuple[dict, list[str]]:
    n = len(client.invocations)

    def order():
        ks = list(range(n))
        rng.shuffle(ks)
        return ks

    client.run_pass(order())  # warm-up: fills caches, runs the costly checks
    passes = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if passes:
            typical = statistics.median(p["run_s"] for p in passes)
            enough = len(passes) >= MIN_PASSES and elapsed + typical > seconds
            if enough or elapsed > HARD_STOP_S:
                break
        passes.append(client.run_pass(order()))
    walls = [w for p in passes for w in p["walls"]]
    if not walls:
        return {}, []
    tail_s, tail_pct = tail(walls)
    metrics = {
        "run_s": statistics.median(p["run_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "invocation_s.p50": statistics.median(
            statistics.median(p["walls"]) for p in passes if p["walls"]),
        "invocation_s.tail": tail_s,
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
    }
    notes = [f"passes: {len(passes)} timed after 1 warm-up, {len(walls)} timed invocations",
             f"invocation_s.tail: p{tail_pct:.1f} of {len(walls)} samples"]
    return metrics, notes


def traced(client, seconds: float) -> tuple[dict, list[str]]:
    from tracer import Tracer, run_in_process

    expected = {}
    for k, inv in enumerate(client.invocations):
        outcome = client.invoke(inv)
        if outcome is not None:
            expected[k] = outcome.stdout
    if not expected:
        return {}, []

    def in_process_pass(tracer=None):
        total = 0.0
        for k, stdout in expected.items():
            inv = client.invocations[k]
            where = "traced" if tracer else "in-process"
            client.attempted += 1
            start = time.perf_counter()
            try:
                if tracer is None:
                    code, out = run_in_process(inv.argv, inv.stdin)
                else:
                    with tracer:
                        code, out = run_in_process(inv.argv, inv.stdin)
            except Exception as exc:  # a crash is one failed invocation
                client.fail(inv, f"{where} run raised {exc!r}")
                continue
            finally:
                total += time.perf_counter() - start
            if code != 0:
                client.fail(inv, f"{where} exit {code}")
            elif out != stdout:
                client.fail(inv, f"{where} stdout differs from the subprocess stdout")
        return total

    in_process_pass()  # warm-up
    plain, traced_walls, layers = [], [], []
    start = time.perf_counter()
    while (len(layers) < MIN_TRACED_PASSES
           or time.perf_counter() - start + plain[-1] + traced_walls[-1] <= seconds):
        plain.append(in_process_pass())
        tracer = Tracer()
        traced_walls.append(in_process_pass(tracer))
        layers.append(tracer.metrics())
    metrics = {name: statistics.median_low(pass_[name] for pass_ in layers)
               for name in layers[0]}
    metrics["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                       / statistics.median(plain))
    notes = [f"traced passes: {len(layers)}, compared with as many untraced "
             "in-process passes"]
    return metrics, notes


def metric_units(trace: int) -> dict[str, str]:
    """Name and unit of each metric this mode reports, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def inputs_digest(invocations) -> str:
    h = hashlib.sha256()
    for inv in invocations:
        h.update("\0".join(inv.argv).encode() + b"\0" + inv.stdin + b"\1")
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("counts", "certify", "euler", "random"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fgzeta" / "cli.py").is_file():
        print(f"error: no fgzeta sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fgzeta
    import workloads

    env_record = {"python": platform.python_version(),
                  "nproc": len(os.sched_getaffinity(0)),
                  "kernel_backend": getattr(fgzeta, "KERNEL_BACKEND", "absent")}
    units = metric_units(args.trace)
    invocations = workloads.build(args.workload, args.seed)
    client = Client(invocations)
    print(f"env: {json.dumps(env_record)}")
    print(f"inputs: workload {args.workload}, seed {args.seed}, "
          f"{len(invocations)} invocations, sha256 {inputs_digest(invocations)}")

    if args.trace:
        metrics, notes = traced(client, args.seconds)
    else:
        setup_s = measure_setup(client)
        metrics, notes = end_to_end(client, random.Random(args.seed), args.seconds)
        metrics["setup_s"] = setup_s
    for line in notes:
        print(line)
    for failure in client.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    failed = len(client.failures)
    print(f"failed_ratio: {failed}/{client.attempted} = "
          f"{failed / max(client.attempted, 1):.4f}")
    result = {
        "correct": failed == 0 and all(m in metrics for m in units),
        "attempted": max(client.attempted, 1),
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": u}
                    for m, u in units.items() if m in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
