"""Acceptance suite: every release criterion, one test each.

All arithmetic is exact, so every comparison below is strict equality;
the only tolerances are the two wall-clock budgets, asserted as stated.
Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import functools
import random
import time
from fractions import Fraction

from fgzeta.cyclic import alphabet_of, cycle_weight, cycle_weight_sum, euler_product
from fgzeta.families import (build_d_by_d, build_kontsevich, build_two_by_two,
                             closed_generating_series, closed_zeta,
                             dxd_zeta_prefix, rooted_loop_series)
from fgzeta.grammars import is_lukasiewicz_word, parse_system, solve_truncated
from fgzeta.guess import BivariatePolynomial, guess_annihilator
from fgzeta.matrix import trace_count_by_paths, trace_counts
from fgzeta.series import TruncatedSeries, generating_series, zeta_series

from conftest import random_matrix

GOLDEN_2X2_COUNTS = [0, 6, 0, 30, 0, 174, 0, 1086, 0, 7086]


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE FAIL criterion {number:2d}: {description}")
                raise
            print(f"ACCEPTANCE PASS criterion {number:2d}: {description}")
        return inner
    return wrap


def builtin_suite():
    return [build_kontsevich(1), build_kontsevich(2), build_two_by_two(),
            build_d_by_d(3)]


def even_series(values, order):
    coeffs = [Fraction(0)] * (order + 1)
    for k, v in enumerate(values):
        coeffs[2 * k] = Fraction(v)
    return TruncatedSeries(coeffs, order)


def binom(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


@criterion(1, "2x2 golden trace counts to N=10, under 60 s")
def test_criterion_01_two_by_two_counts():
    start = time.monotonic()
    counts = trace_counts(build_two_by_two(), 10)
    elapsed = time.monotonic() - start
    assert counts == GOLDEN_2X2_COUNTS
    assert elapsed < 60.0


@criterion(2, "2x2 zeta expansion, closed form, Euler product, coefficient formula")
def test_criterion_02_two_by_two_zeta():
    zeta = zeta_series(GOLDEN_2X2_COUNTS)
    assert zeta == even_series([1, 3, 12, 56, 288, 1584], 10)
    assert zeta == closed_zeta("paper2x2", 10)
    assert zeta.truncate(6) == euler_product(build_two_by_two(), 6)
    for n in range(1, 6):
        assert zeta[2 * n] == Fraction(3 * 2 ** n,
                                       (n + 2) * (n + 3)) * binom(2 * n + 2, n + 1)


@criterion(3, "kontsevich closed forms match the pipeline at n=1 and n=2")
def test_criterion_03_kontsevich():
    pipeline1 = zeta_series(trace_counts(build_kontsevich(1), 8))
    assert pipeline1 == even_series([1, 1, 2, 5, 14], 8)
    assert pipeline1 == closed_zeta("kontsevich:1", 8)
    pipeline2 = zeta_series(trace_counts(build_kontsevich(2), 8))
    assert pipeline2 == closed_zeta("kontsevich:2", 8)


@criterion(4, "d x d family matches closed forms at d=3,4; d=3 under 10 min")
def test_criterion_04_dxd_family():
    start = time.monotonic()
    counts3 = trace_counts(build_d_by_d(3), 8)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    assert generating_series(counts3) == closed_generating_series("paperdxd:3", 8)
    assert zeta_series(counts3) == dxd_zeta_prefix(3, 8)
    counts4 = trace_counts(build_d_by_d(4), 8)
    assert generating_series(counts4) == closed_generating_series("paperdxd:4", 8)
    assert zeta_series(counts4) == dxd_zeta_prefix(4, 8)


@criterion(5, "zeta series of 20 random integer matrices are integral at N=10")
def test_criterion_05_integrality():
    rng = random.Random(501)
    for _ in range(20):
        m = random_matrix(rng, n_gens=2, max_support=2, max_len=2,
                          coeff_range=3)
        assert zeta_series(trace_counts(m, 10)).is_integral()


@criterion(6, "cycle weights are cyclic over 200 random cases")
def test_criterion_06_cyclicity():
    rng = random.Random(601)
    checked = 0
    while checked < 200:
        m = random_matrix(rng)
        alphabet = alphabet_of(m)
        if not alphabet:
            continue
        u = [rng.choice(alphabet) for _ in range(rng.randint(0, 3))]
        v = [rng.choice(alphabet) for _ in range(rng.randint(1, 3))]
        w = [rng.choice(alphabet) for _ in range(rng.randint(1, 3))]
        r = rng.choice([2, 3])
        assert cycle_weight(m, u + v) == cycle_weight(m, v + u)
        assert cycle_weight(m, w * r) == cycle_weight(m, w) ** r
        checked += 1


@criterion(7, "weight sums equal trace counts (n<=4 random, n<=6 builtins)")
def test_criterion_07_identification():
    rng = random.Random(701)
    for _ in range(10):
        m = random_matrix(rng)
        counts = trace_counts(m, 4)
        for n in range(1, 5):
            assert cycle_weight_sum(m, n) == counts[n - 1]
    for m in builtin_suite():
        counts = trace_counts(m, 6)
        for n in range(1, 7):
            assert cycle_weight_sum(m, n) == counts[n - 1]


@criterion(8, "Euler product equals the exp pipeline at L=5 on the random family")
def test_criterion_08_euler_product():
    rng = random.Random(801)
    for _ in range(10):
        m = random_matrix(rng)
        assert euler_product(m, 5) == zeta_series(trace_counts(m, 5))


@criterion(9, "annihilator certificates: loop series, 2x2 zeta, exp control")
def test_criterion_09_certificates():
    u = rooted_loop_series(2, 20)
    assert guess_annihilator(u, 2, 2) == BivariatePolynomial(
        {(0, 2): 2, (0, 1): -1, (2, 0): 1})

    f = closed_zeta("paper2x2", 50)
    p = guess_annihilator(f, 12, 2)
    assert p is not None and p.deg_y == 2
    reference = _expand_reference_certificate()
    assert p == reference.normalized()

    exp_t = TruncatedSeries.monomial(1, 1, 40).exp()
    assert guess_annihilator(exp_t, 4, 4) is None


def _expand_reference_certificate():
    """(32 t^6 y + 24 t^4 - 12 t^2 + 1)^2 - (1 - 8 t^2)^3, by hand."""
    def mul(p, q):
        out = {}
        for (i1, j1), c1 in p.items():
            for (i2, j2), c2 in q.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
        return out

    left = {(6, 1): 32, (4, 0): 24, (2, 0): -12, (0, 0): 1}
    right = {(0, 0): 1, (2, 0): -8}
    square = mul(left, left)
    cube = mul(mul(right, right), right)
    for key, c in cube.items():
        square[key] = square.get(key, 0) - c
    return BivariatePolynomial(square)


@criterion(10, "bracket-language solution at L=7 matches the predicate")
def test_criterion_10_proper_system():
    from itertools import product
    solution = solve_truncated(parse_system("xi1 = a xi1 xi1 + b"), 7)[0]
    expected = {w for n in range(1, 8) for w in product("ab", repeat=n)
                if is_lukasiewicz_word(w)}
    assert set(solution.terms) == expected
    assert all(c == 1 for c in solution.terms.values())


@criterion(11, "path oracle equals the count engine for n<=5 everywhere")
def test_criterion_11_oracle_equivalence():
    rng = random.Random(1101)
    matrices = builtin_suite() + [random_matrix(rng) for _ in range(8)]
    for m in matrices:
        counts = trace_counts(m, 5)
        for n in range(1, 6):
            assert trace_count_by_paths(m, n) == counts[n - 1]


@criterion(12, "rescaling: counts scale by powers, zeta rescales, at N=8")
def test_criterion_12_rescaling():
    for m in builtin_suite():
        base_counts = trace_counts(m, 8)
        base_zeta = zeta_series(base_counts)
        for factor in (-1, 2):
            scaled = m.scale(factor)
            assert trace_counts(scaled, 8) == [
                factor ** n * c for n, c in enumerate(base_counts, start=1)]
            assert zeta_series(trace_counts(scaled, 8)) == base_zeta.rescale(factor)
