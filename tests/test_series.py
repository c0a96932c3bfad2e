from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fgzeta.errors import ValidationError
from fgzeta.series import (TruncatedSeries, format_series, generating_series,
                           log_derivative, zeta_series)

from conftest import random_matrix
from fgzeta.matrix import trace_counts


def S(coeffs, order=None):
    return TruncatedSeries([Fraction(c) for c in coeffs], order)


def catalan(n):
    if n == 0:
        return 1
    return catalan(n - 1) * 2 * (2 * n - 1) // (n + 1)


small_rationals = st.builds(Fraction,
                            st.integers(min_value=-6, max_value=6),
                            st.integers(min_value=1, max_value=4))


@st.composite
def rational_series(draw, min_order=1, max_order=12):
    order = draw(st.integers(min_value=min_order, max_value=max_order))
    coeffs = [draw(small_rationals) for _ in range(order + 1)]
    return S(coeffs, order)


class TestRingOps:
    def test_product(self):
        assert S([1, 1, 0]) * S([1, -1, 0]) == S([1, 0, -1])

    def test_geometric_inverse(self):
        one = TruncatedSeries.one(5)
        geo = one / S([1, -1, 0, 0, 0, 0])
        assert geo == S([1, 1, 1, 1, 1, 1])

    def test_self_division(self):
        f = S([2, 3, 5, 7])
        assert f / f == TruncatedSeries.one(3)

    def test_division_needs_unit(self):
        with pytest.raises(ValidationError):
            S([1, 1]) / S([0, 1])

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            S([1, 1]) + S([1, 1, 1])
        with pytest.raises(ValidationError):
            S([1, 1]) * S([1, 1, 1])

    def test_mul_div_round_trip(self, rng):
        for _ in range(20):
            order = rng.randint(1, 10)
            f = S([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                   for _ in range(order + 1)], order)
            g_coeffs = [Fraction(rng.randint(1, 5))] + [
                Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                for _ in range(order)]
            g = S(g_coeffs, order)
            assert (f / g) * g == f


class TestExpLog:
    def test_exp_zero(self):
        assert TruncatedSeries.zero(5).exp() == TruncatedSeries.one(5)

    def test_exp_of_harmonic_sum_is_geometric(self):
        n = 8
        f = S([0] + [Fraction(1, k) for k in range(1, n + 1)], n)
        assert f.exp() == S([1] * (n + 1), n)

    def test_exp_coefficients_are_reciprocal_factorials(self):
        e = TruncatedSeries.monomial(1, 1, 6).exp()
        fact = 1
        for k in range(1, 7):
            fact *= k
            assert e[k] == Fraction(1, fact)
        assert not e.is_integral()

    def test_log_one(self):
        assert TruncatedSeries.one(4).log() == TruncatedSeries.zero(4)

    def test_log_of_geometric(self):
        n = 8
        geo = S([1] * (n + 1), n)
        assert geo.log() == S([0] + [Fraction(1, k) for k in range(1, n + 1)], n)

    def test_round_trip_example(self):
        f = S([0, 1, 1, 0, 0])
        assert f.exp().log() == f

    def test_preconditions(self):
        with pytest.raises(ValidationError):
            S([1, 1]).exp()
        with pytest.raises(ValidationError):
            S([2, 1]).log()

    @given(rational_series())
    @settings(max_examples=40, deadline=None)
    def test_round_trips_both_ways(self, f):
        g = S([Fraction(0)] + list(f.coeffs[1:]), f.order)
        assert g.exp().log() == g
        h = S([Fraction(1)] + list(f.coeffs[1:]), f.order)
        assert h.log().exp() == h


class TestSqrt:
    def test_sqrt_one(self):
        assert TruncatedSeries.one(4).sqrt() == TruncatedSeries.one(4)

    def test_sqrt_of_perfect_square(self):
        f = S([1, 1, 0, 0])
        assert (f * f).sqrt() == f

    def test_binomial_expansion_of_sqrt_one_minus_4t(self):
        # frozen from the Catalan formula; double checked by squaring
        n = 6
        f = S([1, -4] + [0] * (n - 1), n)
        root = f.sqrt()
        expected = [1] + [-2 * catalan(k - 1) for k in range(1, n + 1)]
        assert root == S(expected, n)
        assert root * root == f

    def test_precondition(self):
        with pytest.raises(ValidationError):
            S([4, 0]).sqrt()

    @given(rational_series())
    @settings(max_examples=40, deadline=None)
    def test_square_of_sqrt(self, f):
        g = S([Fraction(1)] + list(f.coeffs[1:]), f.order)
        assert g.sqrt() * g.sqrt() == g


class TestDerivative:
    def test_basic(self):
        assert S([1, 0, 3]).derivative() == S([0, 6])

    def test_constant(self):
        assert S([5]).derivative() == TruncatedSeries.zero(0)

    def test_log_derivative_of_geometric(self):
        geo = S([1] * 7, 6)
        assert log_derivative(geo) == S([0] + [1] * 6, 6)


class TestCountsBridge:
    def test_generating_series_examples(self):
        assert generating_series([0, 6, 0, 30]) == S([0, 0, 6, 0, 30])
        assert generating_series([]) == TruncatedSeries.zero(0)
        assert generating_series([1, 1, 1]) == S([0, 1, 1, 1])

    def test_zeta_of_all_ones_is_geometric(self):
        assert zeta_series([1] * 8) == S([1] * 9, 8)

    def test_zeta_of_golden_counts(self):
        z = zeta_series([0, 6, 0, 30, 0, 174, 0, 1086, 0, 7086])
        assert z == S([1, 0, 3, 0, 12, 0, 56, 0, 288, 0, 1584])

    def test_zeta_of_single_count_is_exp(self):
        z = zeta_series([1, 0, 0])
        assert z == TruncatedSeries.monomial(1, 1, 3).exp()
        assert not z.is_integral()

    def test_integer_recurrence_matches_exp(self, rng):
        # a_n = sum_{d | n} d b_d makes P = prod_d (1 - t^d)^(-b_d), which is
        # integral; unconstrained counts mostly take the rational fallback
        integral = fallback = 0
        for _ in range(40):
            n = rng.randint(1, 24)
            if rng.random() < 0.5:
                b = [rng.randint(-3, 3) for _ in range(n)]
                counts = [sum(d * b[d - 1] for d in range(1, k + 1) if k % d == 0)
                          for k in range(1, n + 1)]
            else:
                counts = [rng.randint(-9, 9) for _ in range(n)]
            z = zeta_series(counts)
            oracle = TruncatedSeries([0] + [Fraction(c, k) for k, c in
                                            enumerate(counts, start=1)], n).exp()
            assert z == oracle
            if z.is_integral():
                integral += 1
            else:
                fallback += 1
        assert integral >= 10 and fallback >= 10

    def test_log_derivative_identity(self, rng):
        for _ in range(25):
            counts = [rng.randint(-6, 6) for _ in range(rng.randint(1, 9))]
            z = zeta_series(counts)
            assert log_derivative(z) == generating_series(counts)

    def test_integrality_from_integer_matrices(self, rng):
        for _ in range(20):
            m = random_matrix(rng)
            assert zeta_series(trace_counts(m, 10)).is_integral()


class TestRescale:
    def test_identity_factor(self):
        f = S([1, 2, 3])
        assert f.rescale(1) == f

    def test_simple(self):
        assert S([1, 1]).rescale(2) == S([1, 2])

    def test_commutes_with_zeta_pipeline(self, rng):
        for factor in (-1, 2):
            m = random_matrix(rng, dim=2)
            scaled = m.scale(factor)
            lhs = zeta_series(trace_counts(scaled, 6))
            rhs = zeta_series(trace_counts(m, 6)).rescale(factor)
            assert lhs == rhs


class TestIntegrality:
    def test_examples(self):
        assert S([1, 0, 3]).is_integral()
        assert not S([1, Fraction(1, 2)]).is_integral()
        assert zeta_series([0, 6, 0, 30, 0, 174]).is_integral()


class TestDisplay:
    def test_format(self):
        f = S([1, 0, Fraction(3, 2)])
        assert format_series(f) == "0: 1\n1: 0\n2: 3/2"

    def test_strict_truncation_semantics(self):
        f = S([1, 2, 3])
        assert f.truncate(1) == S([1, 2])
        with pytest.raises(ValidationError):
            f.truncate(5)
        with pytest.raises(ValidationError):
            f.shift_down(1)
