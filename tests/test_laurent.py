"""Exact Laurent arithmetic: ring axioms, quantum integers, text forms."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from reference import qfactorial
from sl3web.laurent import LaurentPoly, monomial, qint

import pytest


def ply(d):
    return LaurentPoly(d)


small_polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
).map(LaurentPoly)


def test_qint_one_is_single_term():
    assert qint(1) == ply({0: 1})


def test_qint_three():
    assert qint(3) == ply({2: 1, 0: 1, -2: 1})


def test_qint_two_times_three():
    # [2][3] = q^-3 + 2q^-1 + 2q + q^3
    assert qint(2) * qint(3) == ply({3: 1, 1: 2, -1: 2, -3: 1})


def test_qint_rejects_nonpositive():
    with pytest.raises(ValueError):
        qint(0)
    with pytest.raises(ValueError):
        qint(-2)


def test_additive_inverse():
    q = monomial(1)
    assert q + q * monomial(0, -1) == LaurentPoly()


def test_shift_of_qint_two():
    assert qint(2).shift(1) == ply({2: 1, 0: 1})


def test_square_of_qint_two():
    # hand expansion of (q + 1/q)^2
    assert qint(2) * qint(2) == ply({2: 1, 0: 2, -2: 1})


def test_qfactorial():
    assert qfactorial(0) == monomial(0)
    assert qfactorial(3) == qint(2) * qint(3)


def test_canonical_text_form():
    p = qint(2) * qint(3)
    assert str(p) == "q^3 + 2*q + 2*q^-1 + q^-3"
    assert str(LaurentPoly()) == "0"
    assert str(ply({0: -3, 2: 1})) == "q^2 - 3"


def test_evaluation_counts_terms():
    assert (qint(2) * qint(3))(1) == 6


def test_evaluation_is_exact():
    # the sum over the largest negative power, divided once: an int wherever it divides
    six, negative = qint(3) * qint(2), ply({-1: 2, -3: 1})
    for poly, value, expected in [(six, 1, 6), (negative, 1, 3), (negative, -1, -3),
                                  (LaurentPoly(), 2, 0), (six, 2, Fraction(105, 8)),
                                  (negative, 2, Fraction(9, 8))]:
        assert poly(value) == expected and type(poly(value)) is type(expected)


@given(small_polys, small_polys, small_polys)
@settings(max_examples=60)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(small_polys)
@settings(max_examples=60)
def test_zero_is_neutral_and_text_roundtrips(p):
    assert p + LaurentPoly() == p
    # read back as Python at q = 100, the text gives p's value, which fixes p:
    # its coefficients are base-100 digits of at most 9 in absolute value
    q = Fraction(100)
    assert eval(str(p).replace("^", "**"), {"q": q}) == p(q)


@given(st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=7))
@settings(max_examples=40)
def test_qint_products_bar_symmetric(a, b):
    p = qint(a) * qint(b)
    assert p == p.bar()
