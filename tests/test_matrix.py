from itertools import product

import pytest

from fgzeta.algebra import AlgebraElement, parse_element
from fgzeta.errors import ResourceLimitError, ValidationError
from fgzeta.families import build_two_by_two
from fgzeta.matrix import (AlgebraMatrix, power_trace_counts,
                           trace_count_by_paths, trace_counts)
from fgzeta.words import GeneratorTable, free_reduce

from conftest import random_matrix


def one_generator_walk_counts(n_max):
    """Independent oracle: count +-1 sequences that reduce to the identity.

    Enumerates all 2^n sign sequences and free-reduces each one; this is
    the d = 1, single-generator case computed from first principles.
    """
    counts = []
    for n in range(1, n_max + 1):
        total = sum(1 for signs in product((1, -1), repeat=n)
                    if free_reduce(signs) == ())
        counts.append(total)
    return counts


def kontsevich_1x1():
    table = GeneratorTable(["x"])
    return AlgebraMatrix([[parse_element("x + x^-1", table)]], table)


class TestMatMultiply:
    def test_identity_neutral(self):
        m = build_two_by_two()
        assert AlgebraMatrix.identity(2, m.table).multiply(m) == m
        assert m.multiply(AlgebraMatrix.identity(2, m.table)) == m

    def test_1x1_reduces_to_element_product(self):
        t = GeneratorTable(["x"])
        a = parse_element("x + x^-1", t)
        m = AlgebraMatrix([[a]], t)
        assert m.multiply(m).entries[0][0] == a * a

    def test_unit_pattern_composition(self):
        # E_{1,2} * E_{2,1} = E_{1,1}
        t = GeneratorTable(["x"])
        x = parse_element("x", t)
        zero = AlgebraElement.zero()
        e12 = AlgebraMatrix([[zero, x], [zero, zero]], t)
        e21 = AlgebraMatrix([[zero, zero], [x, zero]], t)
        prod = e12.multiply(e21)
        assert prod.entries[0][0] == x * x
        assert all(prod.entries[i][j].is_zero()
                   for i in range(2) for j in range(2) if (i, j) != (0, 0))

    def test_dimension_mismatch(self):
        t = GeneratorTable(["x"])
        with pytest.raises(ValidationError):
            AlgebraMatrix.identity(2, t).multiply(AlgebraMatrix.identity(3, t))


class TestTraceIdentity:
    def test_identity_matrix(self):
        assert AlgebraMatrix.identity(3).trace_identity() == 3

    def test_two_by_two_has_no_constant_term(self):
        assert build_two_by_two().trace_identity() == 0

    def test_two_by_two_square(self):
        m = build_two_by_two()
        assert m.multiply(m).trace_identity() == 6


class TestTraceCounts:
    def test_one_generator_walks(self):
        # frozen from the sign-sequence oracle
        oracle = one_generator_walk_counts(4)
        assert oracle == [0, 2, 0, 6]
        assert trace_counts(kontsevich_1x1(), 4) == [0, 2, 0, 6]

    def test_two_by_two_golden_counts(self):
        assert trace_counts(build_two_by_two(), 10) == [
            0, 6, 0, 30, 0, 174, 0, 1086, 0, 7086]

    def test_no_inverses_means_all_zero(self):
        t = GeneratorTable(["x", "y"])
        m = AlgebraMatrix([[parse_element("x", t), parse_element("x y", t)],
                           [parse_element("y", t), parse_element("y^2", t)]], t)
        assert trace_counts(m, 6) == [0] * 6

    def test_constant_entry_matrix(self):
        # support is only the identity word, so pruning keeps everything
        t = GeneratorTable()
        m = AlgebraMatrix([[parse_element("2*1", t)]], t)
        assert trace_counts(m, 5) == [2, 4, 8, 16, 32]

    def test_count_must_be_positive(self):
        with pytest.raises(ValidationError):
            trace_counts(kontsevich_1x1(), 0)

    def test_term_ceiling_names_the_power(self):
        with pytest.raises(ResourceLimitError, match="power"):
            trace_counts(build_two_by_two(), 10, max_terms=5)

    def test_pruning_is_sound(self, rng):
        # the path oracle prunes nothing
        for _ in range(12):
            m = random_matrix(rng)
            assert power_trace_counts(m, 6) == [
                trace_count_by_paths(m, n) for n in range(1, 7)]


class TestPathOracle:
    def test_one_generator(self):
        assert trace_count_by_paths(kontsevich_1x1(), 2) == 2

    def test_two_by_two_fourth_power(self):
        assert trace_count_by_paths(build_two_by_two(), 4) == 30

    def test_two_generators(self):
        t = GeneratorTable(["x", "y"])
        m = AlgebraMatrix([[parse_element("x + x^-1 + y + y^-1", t)]], t)
        assert trace_count_by_paths(m, 2) == 4

    def test_matches_pipeline(self, rng):
        for _ in range(10):
            m = random_matrix(rng)
            counts = trace_counts(m, 5)
            for n in range(1, 6):
                assert trace_count_by_paths(m, n) == counts[n - 1]

    def test_guard(self):
        with pytest.raises(ResourceLimitError):
            trace_count_by_paths(kontsevich_1x1(), 9)
        with pytest.raises(ValidationError):
            trace_count_by_paths(kontsevich_1x1(), 0)


class TestScalarMatrix:
    def test_unit_scalar(self):
        m = build_two_by_two()
        assert m.scale(1) == m

    def test_counts_scale_by_powers(self, rng):
        for factor in (-1, 2, 3):
            m = random_matrix(rng, dim=2)
            base = trace_counts(m, 5)
            scaled = trace_counts(m.scale(factor), 5)
            assert scaled == [factor ** n * c
                              for n, c in enumerate(base, start=1)]

    def test_zero_scalar(self):
        m = build_two_by_two()
        assert trace_counts(m.scale(0), 4) == [0, 0, 0, 0]


class TestCyclicTrace:
    def test_trace_of_product_is_cyclic(self, rng):
        for _ in range(10):
            a = random_matrix(rng, dim=2)
            b = random_matrix(rng, dim=2)
            ab = a.multiply(b)
            ba = b.multiply(a)
            assert ab.trace_identity() == ba.trace_identity()


class TestRepresentation:
    def test_square_shape_enforced(self):
        t = GeneratorTable(["x"])
        with pytest.raises(ValidationError):
            AlgebraMatrix([[AlgebraElement.zero()], [AlgebraElement.zero()]], t)

    def test_canonical_form_ignores_names(self):
        t1 = GeneratorTable(["x"])
        t2 = GeneratorTable(["y"])
        m1 = AlgebraMatrix([[parse_element("x + x^-1", t1)]], t1)
        m2 = AlgebraMatrix([[parse_element("y + y^-1", t2)]], t2)
        assert m1 != m2
        assert m1.canonical_form() == m2.canonical_form()
