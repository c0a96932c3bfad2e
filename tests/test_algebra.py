import random

import pytest
from hypothesis import given, settings, strategies as st

from fgzeta import _kernel
from fgzeta.algebra import AlgebraElement, format_element, parse_element
from fgzeta.errors import ParseError
from fgzeta.words import GeneratorTable, free_reduce, invert

from conftest import random_element


def elem(text, table=None):
    return parse_element(text, table or GeneratorTable(["x", "y"]))


@st.composite
def small_elements(draw):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n_terms):
        raw = draw(st.lists(st.integers(min_value=1, max_value=2).flatmap(
            lambda g: st.sampled_from([g, -g])), max_size=3))
        c = draw(st.integers(min_value=-5, max_value=5))
        w = free_reduce(raw)
        terms[w] = terms.get(w, 0) + c
    return AlgebraElement(terms)


class TestAdd:
    def test_cancellation_to_zero(self):
        x = AlgebraElement({(1,): 1})
        assert (x + x.scale(-1)).is_zero()

    def test_merge(self):
        assert elem("x + y") + elem("y") == elem("x + 2*y")

    def test_additive_identity(self):
        a = elem("3*x y^-1 + -1*1")
        assert a + AlgebraElement.zero() == a


class TestMultiply:
    def test_symmetric_square(self):
        # (x + x^-1)^2 = x^2 + 2 + x^-2
        a = elem("x + x^-1")
        assert a * a == elem("x^2 + 2*1 + x^-2")

    def test_noncommutativity_witness(self):
        x, y = elem("x"), elem("y")
        assert x * y == elem("x y")
        assert y * x == elem("y x")
        assert x * y != y * x

    def test_distribution_over_sum(self):
        a, b = elem("x + x^-1"), elem("y")
        assert a * b == elem("x y + x^-1 y")

    @given(small_elements(), small_elements(), small_elements())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        one = AlgebraElement.one()
        assert a * one == a and one * a == a

    def test_scalar_multiples(self):
        a = elem("x + y")
        assert a.scale(2) == elem("2*x + 2*y")
        assert a.scale(0).is_zero()
        assert (a.scale(-1) + a).is_zero()
        assert 2 * a == a * 2 == a.scale(2)


class TestCoeff:
    def test_identity_coefficient_of_square(self):
        a = elem("x + x^-1")
        assert (a * a).coeff(()) == 2

    def test_zero_element(self):
        assert AlgebraElement.zero().coeff(()) == 0

    def test_stored_term(self):
        t = GeneratorTable(["a", "b"])
        e = parse_element("3*a b^-1", t)
        assert e.coeff((1, -2)) == 3


class TestTraceForm:
    @given(small_elements(), small_elements())
    @settings(max_examples=60, deadline=None)
    def test_identity_coeff_is_symmetric(self, a, b):
        lhs = (a * b).coeff(())
        assert lhs == (b * a).coeff(())
        assert lhs == sum(c * b.coeff(invert(w)) for w, c in a.terms.items())


class TestDisplay:
    def test_canonical_order(self):
        t = GeneratorTable(["a", "b", "d"])
        e = parse_element("d + 3*a b^-1 + -1*1", t)
        assert format_element(e, t) == "-1*1 + d + 3*a b^-1"

    def test_zero(self):
        t = GeneratorTable()
        assert format_element(AlgebraElement.zero(), t) == "0"
        assert parse_element("0", t).is_zero()

    def test_round_trip(self):
        rng = random.Random(7)
        t = GeneratorTable(["g1", "g2"])
        for _ in range(50):
            e = random_element(rng, coeff_range=5, max_support=4, max_len=3)
            assert parse_element(format_element(e, t), t) == e

    def test_parse_errors(self):
        t = GeneratorTable()
        with pytest.raises(ParseError):
            parse_element("", t)
        with pytest.raises(ParseError):
            parse_element("x + ", t)
        with pytest.raises(ParseError):
            parse_element("q*x", t)


def test_bounded_multiply_drops_long_words():
    t = GeneratorTable(["x"])
    a = parse_element("x^2 + x^-1", t)
    full = _kernel.mul_terms(a.terms, a.terms, -1)
    capped = _kernel.mul_terms(a.terms, a.terms, 2)
    assert capped == {w: c for w, c in full.items() if len(w) <= 2}
