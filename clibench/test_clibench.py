"""Checks of the benchmark itself: ``python3 -m pytest clibench``."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fgzeta import closed_generating_series, trace_counts  # noqa: E402
from fgzeta.cli import parse_matrix_document  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from documents import random_documents  # noqa: E402
from guarded import run_guarded  # noqa: E402
from tracer import Tracer, run_in_process  # noqa: E402

PAPER2X2_G = (b"36 * t^2 * y^0 + -6 * t^0 * y^1 + 36 * t^2 * y^1"
              b" + -1 * t^0 * y^2 + 9 * t^2 * y^2\n")


def corrupt(text: bytes, line: int) -> bytes:
    """Add one to the last number on ``line``."""
    lines = text.split(b"\n")
    head, _, value = lines[line].rpartition(b" ")
    lines[line] = head + b" " + str(int(value) + 1).encode()
    return b"\n".join(lines)


def test_a_single_corrupted_coefficient_is_caught():
    invocations = (workloads.build("counts", 1) + workloads.build("euler", 1)
                   + workloads.build("random", 1)[:4])
    for inv in invocations:
        good = inv.check.expected
        assert inv.check(good) is None
        assert inv.check(corrupt(good, 3)) is not None, inv.argv


def test_a_corrupted_polynomial_is_caught():
    def fresh():
        return workloads.Annihilates(closed_generating_series("paper2x2", 46), 4, 2)

    assert fresh()(PAPER2X2_G) is None
    assert fresh()(PAPER2X2_G.replace(b"9 * t^2", b"8 * t^2")) is not None
    assert fresh()(b"none\n") is not None
    accepted = fresh()
    accepted(PAPER2X2_G)
    assert accepted(PAPER2X2_G.replace(b"+ -1 *", b"+ -2 *")) is not None


def test_one_seed_always_yields_identical_documents():
    first = [doc.text for doc in random_documents(7)]
    assert first == [doc.text for doc in random_documents(7)]
    assert first != [doc.text for doc in random_documents(8)]


def test_seeds_change_the_presentation_not_the_counts():
    for a, b in zip(random_documents(7)[:8], random_documents(8)[:8]):
        assert (trace_counts(parse_matrix_document(a.text), 6)
                == trace_counts(parse_matrix_document(b.text), 6))


def test_guards_turn_a_blow_up_into_a_failure():
    argv = [sys.executable, "-m", "fgzeta", "an", "--builtin", "kontsevich:3",
            "--order", "60"]
    outcome = run_guarded(argv, env=run.child_env(), cwd=ROOT, timeout_s=30,
                          memory_cap=256 << 20)
    assert not outcome.ok
    assert outcome.status != "timeout"
    outcome = run_guarded([sys.executable, "-c", "import time; time.sleep(60)"],
                          timeout_s=0.5)
    assert outcome.status == "timeout"
    assert outcome.wall_s < 10


def test_traced_stdout_is_byte_identical_to_the_subprocess():
    import fgzeta.cli
    original = fgzeta.cli.trace_counts
    doc = random_documents(3)[0]
    cases = [(("euler", "--builtin", "paperdxd:3", "--length", "6"), b""),
             (("an", "--matrix", "-", "--order", "6"), doc.text.encode())]
    for argv, stdin in cases:
        sub = run_guarded([sys.executable, "-m", "fgzeta", *argv], stdin=stdin,
                          env=run.child_env(), cwd=ROOT)
        assert sub.ok
        tracer = Tracer()
        with tracer:
            code, out = run_in_process(argv, stdin)
        assert code == 0 and out == sub.stdout
        assert tracer.metrics()["matrix.trace_counts_s"] > 0
        assert fgzeta.cli.trace_counts is original


def test_tail_has_ten_samples_beyond_it():
    samples = [float(k) for k in range(40)]
    value, percentile = run.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert percentile == 75.0
