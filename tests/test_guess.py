from fractions import Fraction

import pytest

from fgzeta import guess
from fgzeta.errors import ParseError, ResourceLimitError, ValidationError
from fgzeta.families import (closed_generating_series, closed_zeta,
                             rooted_loop_series)
from fgzeta.guess import (MODULUS, BivariatePolynomial, evaluate_at_series,
                          exact_kernel, format_bivariate, guess_annihilator,
                          parse_bivariate)
from fgzeta.series import TruncatedSeries


def poly_mul(p, q):
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def poly_sub(p, q):
    out = dict(p)
    for k, c in q.items():
        out[k] = out.get(k, 0) - c
    return {k: c for k, c in out.items() if c}


def reference_two_by_two_certificate():
    """(32 t^6 y + 24 t^4 - 12 t^2 + 1)^2 - (1 - 8 t^2)^3, expanded."""
    left = {(6, 1): 32, (4, 0): 24, (2, 0): -12, (0, 0): 1}
    right = {(0, 0): 1, (2, 0): -8}
    cube = poly_mul(poly_mul(right, right), right)
    return BivariatePolynomial(poly_sub(poly_mul(left, left), cube))


def geometric(order):
    return TruncatedSeries([Fraction(1)] * (order + 1), order)


class TestEvaluate:
    def test_y_minus_one_on_constant_one(self):
        p = BivariatePolynomial({(0, 1): 1, (0, 0): -1})
        f = TruncatedSeries.one(6)
        assert evaluate_at_series(p, f).is_zero()

    def test_catalan_quadratic(self):
        # f = 1 + t^2 f^2 for the Catalan-in-t^2 series
        f = closed_zeta("kontsevich:1", 12)
        p = BivariatePolynomial({(2, 2): 1, (0, 1): -1, (0, 0): 1})
        assert evaluate_at_series(p, f).is_zero()

    def test_projection(self):
        p = BivariatePolynomial({(0, 1): 1})
        f = TruncatedSeries([1, 2, 3], 2)
        assert evaluate_at_series(p, f) == f


def random_series(rng, order, integral, constant=None):
    if integral:
        coeffs = [rng.randint(-5, 5) for _ in range(order + 1)]
    else:
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                  for _ in range(order + 1)]
    if constant is not None:
        coeffs[0] = constant
    return TruncatedSeries(coeffs, order)


def random_polynomial(rng, order, deg_y):
    """Terms up to y^deg_y, some with a t-degree beyond the order."""
    return BivariatePolynomial({
        (rng.randint(0, order + 3), rng.randint(0, deg_y)): rng.randint(-9, 9)
        for _ in range(rng.randint(0, 8))})


def rational_evaluation(p, f):
    """sum c_ij t^i f^j with every product taken over Fraction series."""
    out = TruncatedSeries.zero(f.order)
    for (i, j), c in p.coeffs.items():
        out = out + TruncatedSeries.monomial(c, i, f.order) * f ** j
    return out


class TestSeriesPowers:
    @pytest.mark.parametrize("integral", [True, False])
    def test_powers_match_repeated_products(self, rng, integral):
        for _ in range(20):
            order = rng.randint(0, 12)
            f = random_series(rng, order, integral)
            top = rng.randint(0, 6)
            expected = [TruncatedSeries.one(order)]
            for _ in range(top):
                expected.append(expected[-1] * f)
            powers = guess._series_powers(f, top)
            assert [TruncatedSeries(pw, order) for pw in powers] == expected
            if integral:
                assert all(type(c) is int for pw in powers for c in pw)

    def test_rational_series_take_the_fraction_route(self):
        f = TruncatedSeries([Fraction(1, 2), Fraction(1, 3)], 1)
        assert guess._series_powers(f, 2)[2] == [Fraction(1, 4), Fraction(1, 3)]

    @pytest.mark.parametrize("integral", [True, False])
    def test_evaluation_matches_rational_products(self, rng, integral):
        for _ in range(40):
            order = rng.randint(0, 10)
            constant = rng.choice([None, 0])
            f = random_series(rng, order, integral, constant)
            # without a constant term, y-degrees above the order vanish
            deg_y = order + 3 if constant == 0 else 4
            p = random_polynomial(rng, order, deg_y)
            expected = rational_evaluation(p, f)
            assert evaluate_at_series(p, f) == expected
            powers = guess._series_powers(f, deg_y)
            assert evaluate_at_series(p, f, powers) == expected

    def test_power_work_is_bounded_before_any_power(self):
        n = 10
        top = guess.MAX_POWER_WORK // (n + 1) ** 2 + 1
        p = BivariatePolynomial({(0, top): 1})
        with pytest.raises(ResourceLimitError, match="MAX_POWER_WORK"):
            evaluate_at_series(p, TruncatedSeries.one(n))
        # f^top vanishes through t^n when f has no constant term
        f = TruncatedSeries.monomial(1, 1, n)
        assert evaluate_at_series(p, f).is_zero()


class TestExactKernel:
    def test_identity_has_trivial_kernel(self):
        assert exact_kernel([[1, 0], [0, 1]]) == []

    def test_single_difference_row(self):
        assert exact_kernel([[1, -1]]) == [[1, 1]]

    def test_rank_deficient_rectangular(self, rng):
        # rows drawn from a 2-dimensional row space, so the kernel of the
        # 4x6 matrix has dimension >= 4
        for _ in range(5):
            r1 = [rng.randint(-4, 4) for _ in range(6)]
            r2 = [rng.randint(-4, 4) for _ in range(6)]
            rows = []
            for _ in range(4):
                c1, c2 = rng.randint(-3, 3), rng.randint(-3, 3)
                rows.append([c1 * a + c2 * b for a, b in zip(r1, r2)])
            basis = exact_kernel(rows)
            assert len(basis) >= 4
            for v in basis:
                assert all(sum(x * y for x, y in zip(row, v)) == 0
                           for row in rows)

    def test_rational_entries(self):
        basis = exact_kernel([[Fraction(1, 2), Fraction(-1, 3)]])
        assert basis == [[2, 3]]

    def test_random_square_round_trip(self, rng):
        for _ in range(10):
            rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                     for _ in range(5)] for _ in range(3)]
            for v in exact_kernel(rows):
                assert any(v)
                for row in rows:
                    assert sum(x * y for x, y in zip(row, v)) == 0


class TestGuess:
    def test_geometric_series(self):
        p = guess_annihilator(geometric(20), 1, 1)
        assert p == BivariatePolynomial({(0, 0): 1, (0, 1): -1, (1, 1): 1})

    def test_loop_series_quadratic(self):
        u = rooted_loop_series(2, 20)
        p = guess_annihilator(u, 2, 2)
        assert p == BivariatePolynomial({(0, 2): 2, (0, 1): -1, (2, 0): 1})

    def test_two_by_two_zeta_certificate(self):
        f = closed_zeta("paper2x2", 32)
        p = guess_annihilator(f, 6, 2)
        assert p is not None
        assert p.deg_y == 2
        assert p == reference_two_by_two_certificate().normalized()

    def test_kontsevich_two_certificate(self):
        # derived by isolating the radical in the closed form and squaring
        f = closed_zeta("kontsevich:2", 30)
        p = guess_annihilator(f, 4, 2)
        assert p == BivariatePolynomial(
            {(4, 2): 27, (2, 1): -18, (0, 1): 1, (2, 0): 16, (0, 0): -1})
        assert evaluate_at_series(p, closed_zeta("kontsevich:2", 60)).is_zero()

    def test_soundness_of_returned_polynomials(self):
        cases = [
            (geometric(24), 2, 2),
            (rooted_loop_series(3, 24), 2, 2),
            (closed_zeta("kontsevich:1", 24), 2, 2),
        ]
        for f, dt, dy in cases:
            p = guess_annihilator(f, dt, dy)
            assert p is not None
            assert evaluate_at_series(p, f).is_zero()

    def test_stability_under_longer_input(self):
        from fgzeta.families import closed_generating_series
        for make, bounds in [
            (lambda n: rooted_loop_series(2, n), (2, 2)),
            (lambda n: closed_zeta("paper2x2", n), (6, 2)),
            (lambda n: closed_zeta("kontsevich:1", n), (2, 2)),
            (lambda n: closed_zeta("kontsevich:2", n), (4, 2)),
            (lambda n: closed_generating_series("paperdxd:3", n), (4, 2)),
            (lambda n: geometric(n), (1, 1)),
        ]:
            short = guess_annihilator(make(40), *bounds)
            long = guess_annihilator(make(64), *bounds)
            assert short is not None
            assert short == long

    def test_rescaling_covariance(self):
        f = rooted_loop_series(2, 24)
        p = guess_annihilator(f, 2, 2)
        for factor in (-1, 2):
            q = p.rescale_t(factor)
            assert evaluate_at_series(q, f.rescale(factor)).is_zero()

    def test_exp_is_not_algebraic(self):
        f = TruncatedSeries.monomial(1, 1, 40).exp()
        assert guess_annihilator(f, 4, 4) is None

    def test_order_guard_states_requirement(self):
        f = geometric(10)
        with pytest.raises(ValidationError, match="need order >= 20"):
            guess_annihilator(f, 3, 2)


# every (series, deg_t, deg_y) that TestGuess passes to guess_annihilator
GUESS_CASES = [
    (geometric(20), 1, 1),
    (rooted_loop_series(2, 20), 2, 2),
    (closed_zeta("paper2x2", 32), 6, 2),
    (closed_zeta("kontsevich:2", 30), 4, 2),
    (geometric(24), 2, 2),
    (rooted_loop_series(3, 24), 2, 2),
    (closed_zeta("kontsevich:1", 24), 2, 2),
    *[(make(n), *bounds) for n in (40, 64) for make, bounds in [
        (lambda n: rooted_loop_series(2, n), (2, 2)),
        (lambda n: closed_zeta("paper2x2", n), (6, 2)),
        (lambda n: closed_zeta("kontsevich:1", n), (2, 2)),
        (lambda n: closed_zeta("kontsevich:2", n), (4, 2)),
        (lambda n: closed_generating_series("paperdxd:3", n), (4, 2)),
        (geometric, (1, 1)),
    ]],
    (rooted_loop_series(2, 24), 2, 2),
    (TruncatedSeries.monomial(1, 1, 40).exp(), 4, 4),
]


def count_exact_kernels(monkeypatch):
    calls = []

    def counted(rows):
        calls.append(len(rows[0]))
        return exact_kernel(rows)

    monkeypatch.setattr(guess, "exact_kernel", counted)
    return calls


class TestModularScreen:
    @pytest.mark.parametrize("f, deg_t, deg_y", GUESS_CASES)
    def test_screened_scan_matches_unscreened(self, monkeypatch, f, deg_t, deg_y):
        screened = guess_annihilator(f, deg_t, deg_y)
        monkeypatch.setattr(guess, "_powers_mod_p", lambda powers: None)
        assert guess_annihilator(f, deg_t, deg_y) == screened

    @pytest.mark.parametrize("f, deg_t, deg_y", GUESS_CASES)
    def test_skipped_pairs_have_no_exact_kernel(self, f, deg_t, deg_y):
        powers = guess._series_powers(f, deg_y)
        powers_mod = guess._powers_mod_p(powers)
        for dy in range(deg_y + 1):
            first = guess._first_dependent_dt(powers_mod, dy, deg_t)
            for dt in range(min(first, deg_t + 1)):
                assert guess._kernel_candidate(f, powers, dt, dy) is None
            if first <= deg_t:
                assert guess._kernel_candidate(f, powers, first, dy) is not None

    @pytest.mark.parametrize("integral", [True, False])
    def test_reduced_powers_are_powers_of_the_image(self, rng, integral):
        for _ in range(20):
            order = rng.randint(0, 10)
            f = random_series(rng, order, integral)
            image = [c.numerator * pow(c.denominator, -1, MODULUS) % MODULUS
                     for c in f.coeffs]
            expected = [[1] + [0] * order]
            for _ in range(rng.randint(0, 4)):
                last = expected[-1]
                expected.append([sum(last[i] * image[k - i]
                                     for i in range(k + 1)) % MODULUS
                                 for k in range(order + 1)])
            powers = guess._series_powers(f, len(expected) - 1)
            assert guess._powers_mod_p(powers) == expected

    def test_no_exact_kernel_when_every_pair_has_full_rank(self, monkeypatch):
        calls = count_exact_kernels(monkeypatch)
        assert guess_annihilator(TruncatedSeries.monomial(1, 1, 40).exp(), 4, 4) is None
        assert calls == []

    def test_denominator_divisible_by_the_modulus_turns_the_screen_off(
            self, monkeypatch):
        # f = 1/(1 - t/p) has denominators p^k, so it has no image mod p
        f = TruncatedSeries([Fraction(1, MODULUS ** k) for k in range(13)], 12)
        assert guess._powers_mod_p(guess._series_powers(f, 1)) is None
        calls = count_exact_kernels(monkeypatch)
        p = guess_annihilator(f, 1, 1)
        assert p == BivariatePolynomial({(1, 1): 1, (0, 1): -MODULUS,
                                         (0, 0): MODULUS})
        # every pair up to the hit: (0,0), (1,0), (0,1), (1,1)
        assert calls == [1, 2, 2, 4]


class TestNormalization:
    def test_content_and_monomial_reduction(self):
        p = BivariatePolynomial({(3, 1): 4, (2, 0): -8})
        n = p.normalized()
        assert n == BivariatePolynomial({(1, 1): 1, (0, 0): -2})

    def test_sign_convention(self):
        p = BivariatePolynomial({(0, 2): -2, (0, 0): 4})
        n = p.normalized()
        assert n.coeffs[(0, 2)] > 0

    def test_reference_certificate_normalizes_to_primitive_part(self):
        ref = reference_two_by_two_certificate()
        n = ref.normalized()
        assert n.coeffs == {(6, 2): 16, (4, 1): 24, (2, 1): -12, (0, 1): 1,
                            (2, 0): 9, (0, 0): -1}


class TestPolynomialText:
    def test_format_sorted_by_y_then_t(self):
        p = BivariatePolynomial({(0, 2): 2, (0, 1): -1, (2, 0): 1})
        assert format_bivariate(p) == (
            "1 * t^2 * y^0 + -1 * t^0 * y^1 + 2 * t^0 * y^2")

    def test_round_trip(self):
        p = reference_two_by_two_certificate()
        assert parse_bivariate(format_bivariate(p)) == p

    def test_zero(self):
        assert format_bivariate(BivariatePolynomial({})) == "0"
        assert parse_bivariate("0").is_zero()

    def test_parse_error(self):
        with pytest.raises(ParseError):
            parse_bivariate("2y^2")

    def test_overlong_number_is_a_parse_error(self):
        with pytest.raises(ParseError, match="too long"):
            parse_bivariate("1 * t^0 * y^" + "9" * 5000)
