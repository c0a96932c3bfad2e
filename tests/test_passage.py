"""The first-passage count engine against its oracles.

``trace_counts`` solves the first-passage system; the power pipeline and
the path enumeration are exponential, so they are called at small N
only.  The closed forms in ``families`` check high orders.
"""

import random

import pytest

from fgzeta.algebra import AlgebraElement
from fgzeta.errors import ResourceLimitError, ValidationError
from fgzeta.families import (build_d_by_d, build_kontsevich, builtin_matrix,
                             closed_generating_series, closed_zeta)
from fgzeta.matrix import (AlgebraMatrix, power_trace_counts,
                           trace_count_by_paths, trace_counts)
from fgzeta.passage import WORK_LIMIT, FirstPassageSystem
from fgzeta.series import log_derivative
from fgzeta.words import GeneratorTable

from conftest import random_matrix


def long_word_matrix(rng):
    """Words of up to 3 letters over 2-3 generators, identity words included."""
    return random_matrix(rng, n_gens=rng.randint(2, 3), max_support=3,
                         max_len=3)


def with_cancelling_pair(rng, m):
    """``m`` plus a generator in one entry and its inverse in another.

    Many unforced draws have trivial counts, because no walk can cancel.
    """
    d = m.dim
    entries = [[dict(e.terms) for e in row] for row in m.entries]
    g = rng.randint(1, len(m.table))
    for letter in (g, -g):
        cell = entries[rng.randrange(d)][rng.randrange(d)]
        cell[(letter,)] = cell.get((letter,), 0) + rng.choice([-2, -1, 1, 2])
    return AlgebraMatrix([[AlgebraElement(t) for t in row] for row in entries],
                         m.table)


def two_letter_words():
    """Each intermediate state has one step, so some of its K and B rows
    copy one F row."""
    table = GeneratorTable(["x", "y"])
    x, y = 1, 2
    return AlgebraMatrix([
        [AlgebraElement({(x, y): 1, (-x,): 1}), AlgebraElement({(-y, -x): 1})],
        [AlgebraElement({(x,): 1}), AlgebraElement({(y, -x): 2, (): 1})],
    ], table)


def integer_coeffs(series):
    assert all(c.denominator == 1 for c in series.coeffs)
    return [int(c) for c in series.coeffs[1:]]


class TestAgainstOracles:
    def test_random_family_matches_power_pipeline(self):
        rng = random.Random(20261019)
        for _ in range(60):
            m = long_word_matrix(rng)
            assert trace_counts(m, 8) == power_trace_counts(m, 8)

    def test_cancelling_draws_match_power_pipeline(self):
        rng = random.Random(4711)
        nontrivial = 0
        for _ in range(60):
            m = with_cancelling_pair(rng, long_word_matrix(rng))
            counts = trace_counts(m, 7)
            assert counts == power_trace_counts(m, 7)
            nontrivial += len(set(counts)) > 2
        assert nontrivial > 30

    def test_random_family_matches_paths(self):
        rng = random.Random(99)
        for _ in range(25):
            m = with_cancelling_pair(rng, random_matrix(rng, dim=rng.randint(1, 2),
                                                        max_len=3))
            counts = trace_counts(m, 4)
            assert counts == [trace_count_by_paths(m, n) for n in range(1, 5)]

    @pytest.mark.parametrize("name,order", [
        ("paper2x2", 120), ("paperdxd:3", 120), ("paperdxd:4", 60)])
    def test_closed_generating_series(self, name, order):
        expected = integer_coeffs(closed_generating_series(name, order))
        assert trace_counts(builtin_matrix(name), order) == expected

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_kontsevich_closed_zeta(self, n):
        expected = integer_coeffs(log_derivative(closed_zeta(f"kontsevich:{n}", 120)))
        assert trace_counts(build_kontsevich(n), 120) == expected

    def test_many_letters_against_closed_zeta(self):
        # one state with 400 steps and 400 unknowns
        expected = integer_coeffs(log_derivative(closed_zeta("kontsevich:200", 40)))
        assert trace_counts(build_kontsevich(200), 40) == expected

    def test_eight_by_eight_against_closed_generating_series(self):
        expected = integer_coeffs(closed_generating_series("paperdxd:8", 100))
        assert trace_counts(build_d_by_d(8), 100) == expected


class TestSystem:
    def test_words_expand_into_single_letter_steps(self):
        table = GeneratorTable(["x", "y"])
        # [x y^-1 x + 2*1]: one three-letter word and one identity word.
        m = AlgebraMatrix([[AlgebraElement({(1, -2, 1): 1, (): 2})]], table)
        system = FirstPassageSystem(m)
        assert system.size == 3
        assert system.steps[0] == {1: [(1, 1, 1)], 0: [(2, 1, 0)]}
        assert system.steps[1] == {-2: [(1, 0, 2)]}
        assert system.steps[2] == {1: [(1, 0, 0)]}
        assert system.solve_order == (0, 2, 1)
        assert system.unknowns == ()
        assert trace_counts(m, 5) == [2, 4, 8, 16, 32]

    def test_unknowns_need_both_signs(self):
        system = FirstPassageSystem(build_d_by_d(3))
        assert len(system.unknowns) == 12
        table = GeneratorTable(["x", "y"])
        m = AlgebraMatrix([[AlgebraElement({(1,): 1, (-1,): 1, (2,): 1})]], table)
        assert FirstPassageSystem(m).unknowns == (1, -1)

    def test_unreduced_word_is_refused(self):
        table = GeneratorTable(["x", "y"])
        m = AlgebraMatrix([[AlgebraElement({(2, 1, -1): 1})]], table)
        with pytest.raises(ValidationError, match="reduced"):
            trace_counts(m, 3)


class TestGuards:
    def test_work_estimate_refuses_huge_orders(self):
        system = FirstPassageSystem(build_d_by_d(8))
        assert system.work_estimate(200) < WORK_LIMIT
        with pytest.raises(ResourceLimitError, match="order 1000000"):
            trace_counts(build_d_by_d(8), 1_000_000)

    @pytest.mark.parametrize("name,order,smallest", [
        ("kontsevich:1", 30, 186), ("paper2x2", 10, 176), ("paper2x2", 60, 976),
        ("paperdxd:3", 20, 630), ("kontsevich:3", 40, 574),
        ("two-letter words", 12, 793)] + [
        # F_x, F_{x^-1}, B_x and B_{x^-1} per generator, plus K and G:
        # 4n + 2 lists of N + 1 entries each.
        (f"kontsevich:{n}", 17, (4 * n + 2) * (17 + 1)) for n in range(1, 5)])
    def test_term_ceiling_counts_the_stored_terms(self, name, order, smallest):
        # The smallest ceiling that passes: every entry of every F, B_s, K
        # and G list, zeros and lists that copy another included.
        m = two_letter_words() if name == "two-letter words" else builtin_matrix(name)
        assert len(trace_counts(m, order, max_terms=smallest)) == order
        with pytest.raises(ResourceLimitError,
                           match=f"^term ceiling {smallest - 1} exceeded at power "
                                 r"\d+ \(\d+ stored series terms\); raise "
                                 "--max-terms or lower the order$"):
            trace_counts(m, order, max_terms=smallest - 1)

    def test_term_ceiling_is_checked_per_degree(self):
        m = build_kontsevich(1)
        assert trace_counts(m, 30, max_terms=200) == trace_counts(m, 30)
        with pytest.raises(ResourceLimitError, match="power 2"):
            trace_counts(m, 30, max_terms=10)
