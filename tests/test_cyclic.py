import tracemalloc
from itertools import product

import pytest

from fgzeta.cyclic import (DEFAULT_EDGE_BOUND, MAX_CHAIN_LENGTH, Letter,
                           _closed_chains, alphabet_of, cycle_weight,
                           cycle_weight_sum, euler_product, lyndon_words)
from fgzeta.errors import ResourceLimitError, ValidationError
from fgzeta.families import build_kontsevich, build_two_by_two, builtin_matrix
from fgzeta.matrix import AlgebraMatrix, trace_counts
from fgzeta.series import TruncatedSeries, zeta_series
from fgzeta.algebra import parse_element
from fgzeta.words import GeneratorTable

from conftest import random_matrix


def kontsevich_1x1():
    table = GeneratorTable(["x"])
    return AlgebraMatrix([[parse_element("x + x^-1", table)]], table)


def lyndon_chains(m, max_length):
    """The (length, weight) of each Lyndon chain the walk emits."""
    chains = []
    _closed_chains(m, max_length, DEFAULT_EDGE_BOUND, True,
                   lambda n, weight: chains.append((n, weight)))
    return chains


def brute_force_lyndon_count(q, m):
    """Oracle: filter all q^m words by the strict minimal-rotation test."""
    count = 0
    for w in product(range(q), repeat=m):
        doubled = w + w
        if all(doubled[s: s + m] > w for s in range(1, m)):
            count += 1
    return count


def moebius(n):
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def necklace_count(q, m):
    divisors = [e for e in range(1, m + 1) if m % e == 0]
    return sum(moebius(e) * q ** (m // e) for e in divisors) // m


class TestAlphabet:
    def test_one_generator(self):
        m = kontsevich_1x1()
        assert alphabet_of(m) == [Letter((1,), 1, 1), Letter((-1,), 1, 1)]

    def test_two_by_two_order(self):
        m = build_two_by_two()
        a, b, d = 1, 2, 3
        assert alphabet_of(m) == [
            Letter((a,), 1, 1), Letter((-a,), 1, 1),
            Letter((b,), 1, 2),
            Letter((-b,), 2, 1),
            Letter((d,), 2, 2), Letter((-d,), 2, 2),
        ]

    def test_zero_matrix(self):
        assert alphabet_of(AlgebraMatrix.zero(2)) == []


class TestCycleWeight:
    def test_inverse_pair_closes(self):
        m = kontsevich_1x1()
        x, xinv = alphabet_of(m)
        assert cycle_weight(m, [x, xinv]) == 1

    def test_single_nontrivial_letter(self):
        m = kontsevich_1x1()
        x, _ = alphabet_of(m)
        assert cycle_weight(m, [x]) == 0

    def test_power_multiplicativity_example(self):
        m = build_two_by_two()
        b = Letter((2,), 1, 2)
        binv = Letter((-2,), 2, 1)
        w = [b, binv]
        assert cycle_weight(m, w) == 1
        assert cycle_weight(m, w + w) == cycle_weight(m, w) ** 2

    def test_empty_word_weighs_the_dimension(self):
        assert cycle_weight(build_two_by_two(), []) == 2

    def test_open_path_weighs_zero(self):
        m = build_two_by_two()
        b = Letter((2,), 1, 2)
        assert cycle_weight(m, [b, b]) == 0

    def test_foreign_letter_rejected(self):
        m = build_two_by_two()
        with pytest.raises(ValidationError):
            cycle_weight(m, [Letter((1, 1), 1, 1)])
        with pytest.raises(ValidationError):
            cycle_weight(m, [Letter((1,), 5, 1)])

    def test_cyclic_invariance(self, rng):
        for _ in range(60):
            m = random_matrix(rng)
            alphabet = alphabet_of(m)
            if not alphabet:
                continue
            u = [rng.choice(alphabet) for _ in range(rng.randint(0, 3))]
            v = [rng.choice(alphabet) for _ in range(rng.randint(1, 3))]
            assert cycle_weight(m, u + v) == cycle_weight(m, v + u)

    def test_power_multiplicativity(self, rng):
        for _ in range(60):
            m = random_matrix(rng)
            alphabet = alphabet_of(m)
            if not alphabet:
                continue
            w = [rng.choice(alphabet) for _ in range(rng.randint(1, 3))]
            r = rng.choice([2, 3])
            assert cycle_weight(m, w * r) == cycle_weight(m, w) ** r


class TestWeightSums:
    def test_one_generator_length_two(self):
        assert cycle_weight_sum(kontsevich_1x1(), 2) == 2

    def test_two_by_two_length_two(self):
        assert cycle_weight_sum(build_two_by_two(), 2) == 6

    def test_length_one_is_the_constant_trace(self, rng):
        for _ in range(8):
            m = random_matrix(rng)
            assert cycle_weight_sum(m, 1) == m.trace_identity()

    def test_matches_trace_counts(self, rng):
        for _ in range(8):
            m = random_matrix(rng)
            counts = trace_counts(m, 5)
            for n in range(1, 6):
                assert cycle_weight_sum(m, n) == counts[n - 1]

    def test_guards(self):
        with pytest.raises(ValidationError):
            cycle_weight_sum(kontsevich_1x1(), 0)
        with pytest.raises(ResourceLimitError):
            cycle_weight_sum(build_two_by_two(), 6, edge_bound=10)


class TestLyndonWords:
    def test_binary_length_two(self):
        assert lyndon_words("pm", 2) == [("p",), ("m",), ("p", "m")]

    def test_binary_length_four(self):
        words = lyndon_words("pm", 4)
        assert words == [
            ("p",), ("m",),
            ("p", "m"),
            ("p", "p", "m"), ("p", "m", "m"),
            ("p", "p", "p", "m"), ("p", "p", "m", "m"), ("p", "m", "m", "m"),
        ]

    def test_counts_match_rotation_filter_oracle(self):
        for q, m in [(2, 1), (2, 4), (3, 3), (6, 3)]:
            generated = [w for w in lyndon_words(range(q), m) if len(w) == m]
            assert len(generated) == brute_force_lyndon_count(q, m)

    def test_six_letters_length_three(self):
        exact = [w for w in lyndon_words(range(6), 3) if len(w) == 3]
        assert len(exact) == 70 == necklace_count(6, 3)

    def test_counts_match_necklace_polynomial(self):
        for q in (2, 3):
            words = lyndon_words(range(q), 5)
            for m in range(1, 6):
                assert sum(1 for w in words if len(w) == m) == necklace_count(q, m)

    def test_rotation_class_mass_check(self):
        # every length-n word is a power of a rotation of exactly one
        # Lyndon word, contributing |class| = m words
        for q in (2, 3):
            for n in range(1, 5):
                mass = sum(m for m in range(1, n + 1) if n % m == 0
                           for _ in range(necklace_count(q, m)))
                assert mass == q ** n

    def test_all_generated_words_are_minimal_rotations(self):
        for w in lyndon_words(range(3), 4):
            doubled = w + w
            assert all(doubled[s: s + len(w)] > w for s in range(1, len(w)))

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ValidationError):
            lyndon_words([], 3)


class TestEulerProduct:
    def test_one_generator_by_hand(self):
        # only the Lyndon words x x^-1 and x x x^-1 x^-1 weigh anything,
        # giving 1/(1-t^2) * 1/(1-t^4) = 1 + t^2 + 2 t^4
        result = euler_product(kontsevich_1x1(), 4)
        assert result == TruncatedSeries([1, 0, 1, 0, 2], 4)

    def test_two_by_two_golden(self):
        result = euler_product(build_two_by_two(), 6)
        assert result == TruncatedSeries([1, 0, 3, 0, 12, 0, 56], 6)

    def test_zero_matrix(self):
        assert euler_product(AlgebraMatrix.zero(2), 5) == TruncatedSeries.one(5)

    def test_matches_exp_pipeline_on_builtins(self):
        from fgzeta.families import build_d_by_d
        for m in (kontsevich_1x1(), build_two_by_two(), build_d_by_d(3)):
            assert euler_product(m, 6) == zeta_series(trace_counts(m, 6))

    def test_matches_exp_pipeline_on_random_family(self, rng):
        for _ in range(8):
            m = random_matrix(rng)
            assert euler_product(m, 5) == zeta_series(trace_counts(m, 5))

    def test_guard(self):
        with pytest.raises(ResourceLimitError):
            euler_product(build_two_by_two(), 6, edge_bound=10)

    def test_guard_names_the_length_flag(self):
        with pytest.raises(ResourceLimitError,
                           match=r"^length 6 \(--length\) exceeds the "
                                 "enumeration bound of 10 closed-chain "
                                 "edges;"):
            euler_product(build_two_by_two(), 6, edge_bound=10)

    def test_matches_rational_division_over_all_lyndon_words(self, rng):
        # oracle: Duval's Lyndon words and cycle_weight, not the pruned
        # walk, with one exact series division per nonzero factor
        for _ in range(20):
            m = random_matrix(rng)
            alphabet = alphabet_of(m)
            if not alphabet:
                continue
            length = max(n for n in range(1, 7) if len(alphabet) ** n <= 50_000)
            oracle = TruncatedSeries.one(length)
            for word in lyndon_words(alphabet, length):
                weight = cycle_weight(m, word)
                if weight:
                    oracle = oracle / (TruncatedSeries.one(length)
                                       - TruncatedSeries.monomial(weight, len(word), length))
            assert euler_product(m, length) == oracle


class TestChainLengthLimit:
    """The closed-chain walk recurses once per letter, so a length over
    MAX_CHAIN_LENGTH is refused before the walk starts."""

    @pytest.mark.parametrize("walk", [euler_product, cycle_weight_sum])
    def test_refused_before_the_walk(self, walk):
        length = MAX_CHAIN_LENGTH + 1
        # edge_bound=0 would trip at the walk's first node
        with pytest.raises(ResourceLimitError,
                           match=rf"^length {length} \(--length\) .* "
                                 rf"MAX_CHAIN_LENGTH = {MAX_CHAIN_LENGTH};"):
            walk(kontsevich_1x1(), length, edge_bound=0)

    def test_limit_is_reachable(self):
        # one identity letter: the walk descends to the full length
        table = GeneratorTable(["x"])
        m = AlgebraMatrix([[parse_element("1", table)]], table)
        assert euler_product(m, MAX_CHAIN_LENGTH) == TruncatedSeries(
            [1] * (MAX_CHAIN_LENGTH + 1), MAX_CHAIN_LENGTH)
        assert cycle_weight_sum(m, MAX_CHAIN_LENGTH) == 1


class TestLyndonFactorCounts:
    """With unit coefficients every Lyndon factor weighs 1, so the number
    of factors of length n is (1/n) sum_{l | n} mu(n/l) a_l."""

    @pytest.mark.parametrize("name, length", [
        ("paper2x2", 12), ("kontsevich:1", 14), ("kontsevich:2", 10),
        ("paperdxd:3", 8)])
    def test_counts_from_trace_counts(self, name, length):
        m = builtin_matrix(name)
        chains = lyndon_chains(m, length)
        assert all(weight == 1 for _, weight in chains)
        counts = trace_counts(m, length)
        for n in range(1, length + 1):
            expected = sum(moebius(n // l) * counts[l - 1]
                           for l in range(1, n + 1) if n % l == 0)
            assert sum(1 for k, _ in chains if k == n) * n == expected

    def test_two_by_two_total(self):
        assert len(lyndon_chains(build_two_by_two(), 12)) == 4831


class TestStreamingWalk:
    """The walk hands each closed chain to its caller and keeps none."""

    def test_identity_letters_and_three_letter_words(self, rng):
        # identity-word letters close a chain at depth 0 when L = 1, and
        # three-letter words cancel across more than one letter
        checked = 0
        while checked < 12:
            m = random_matrix(rng, dim=rng.randint(1, 2), max_len=3)
            alphabet = alphabet_of(m)
            if len(alphabet) > 6 or all(a.word or a.row != a.col
                                        for a in alphabet):
                continue
            checked += 1
            # oracle: one exact series division per nonzero Lyndon factor
            oracle = TruncatedSeries.one(6)
            for word in lyndon_words(alphabet, 6):
                weight = cycle_weight(m, word)
                if weight:
                    oracle = oracle / (TruncatedSeries.one(6)
                                       - TruncatedSeries.monomial(weight, len(word), 6))
            counts = trace_counts(m, 6)
            for length in range(1, 7):
                assert euler_product(m, length).coeffs == oracle.coeffs[:length + 1]
                assert cycle_weight_sum(m, length) == counts[length - 1]

    def test_memory_does_not_grow_with_the_chains(self):
        # 4831 closed Lyndon chains; kept as tuples they would take about
        # 300 KiB.
        # A first call fills the interpreter's tuple free lists, which
        # tracemalloc counts as allocated.
        m = build_two_by_two()
        euler_product(m, 12)
        tracemalloc.start()
        try:
            euler_product(m, 12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_bound_counts_edges(self):
        # 401 nodes, but each scans all 400 letters of the one row
        with pytest.raises(ResourceLimitError,
                           match=r"^length 2 \(--length\) exceeds the "
                                 "enumeration bound of 1000 closed-chain "
                                 "edges;"):
            euler_product(build_kontsevich(200), 2, edge_bound=1000)
