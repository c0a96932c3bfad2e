"""The convolution kernel against a direct route through free reduction."""

import pytest

from fgzeta import _kernel
from fgzeta.algebra import AlgebraElement
from fgzeta.families import build_two_by_two
from fgzeta.matrix import power_trace_counts
from fgzeta.words import free_reduce

from conftest import random_element

BIG_COEFFICIENTS = ({(1,): 10 ** 40, (-1,): -(10 ** 38 + 7)},
                    {(1,): 3 ** 50, (-1, -1): 1})


def random_terms(rng):
    return random_element(rng, n_gens=3, max_support=5, max_len=4,
                          coeff_range=9).terms


def reduced_concatenation(a, b, max_len):
    """Every pair concatenated and freely reduced, words longer than
    ``max_len`` (when it is >= 0) dropped, then zero coefficients."""
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = free_reduce(wa + wb)
            if max_len < 0 or len(w) <= max_len:
                out[w] = out.get(w, 0) + ca * cb
    return {w: c for w, c in out.items() if c}


def test_mul_terms_cancels_at_the_join():
    a = {(1,): 2}
    b = {(-1,): 3, (2,): 1}
    assert _kernel.mul_terms(a, b, -1) == {(): 6, (1, 2): 2}


def test_pure_python_reference_semantics():
    a = {(1, 2): 1, (): 2}
    b = {(-2, -1): 5}
    # (xy)(y^-1 x^-1) = 1, and 2 * (y^-1 x^-1)
    assert _kernel.mul_terms(a, b, -1) == {(): 5, (-2, -1): 10}
    # bounded: the length-2 product is dropped
    assert _kernel.mul_terms(a, b, 0) == {(): 5}


def test_zero_coefficients_are_dropped():
    a = {(1,): 1, (-1,): -1}
    # (x - x^-1) * (x + x^-1): the two identity contributions cancel
    b = {(1,): 1, (-1,): 1}
    result = _kernel.mul_terms(a, b, -1)
    assert () not in result
    assert result == {(1, 1): 1, (-1, -1): -1}


@pytest.mark.parametrize("max_len", [-1, 0, 1, 3])
def test_matches_reduced_concatenation(rng, max_len):
    pairs = [(random_terms(rng), random_terms(rng)) for _ in range(300)]
    for a, b in pairs + [BIG_COEFFICIENTS]:
        assert _kernel.mul_terms(a, b, max_len) == reduced_concatenation(
            a, b, max_len)


def test_results_reduce_words(rng):
    for _ in range(50):
        a = random_terms(rng)
        b = random_terms(rng)
        for w in _kernel.mul_terms(a, b, -1):
            assert free_reduce(w) == w


def test_products_call_the_kernel_late_bound(monkeypatch):
    # clibench/tracer.py times the kernel by replacing this name
    calls = []
    kernel = _kernel.mul_terms

    def counted(a, b, max_len):
        calls.append(max_len)
        return kernel(a, b, max_len)

    monkeypatch.setattr(_kernel, "mul_terms", counted)
    x = AlgebraElement({(1,): 1, (-1,): 1})
    assert x * x == AlgebraElement({(1, 1): 1, (): 2, (-1, -1): 1})
    assert calls == [-1]
    calls.clear()
    assert power_trace_counts(build_two_by_two(), 4) == [0, 6, 0, 30]
    assert calls
