from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hpascal.quadfield import (
    DiscMismatchError,
    NotIntegralError,
    NotRationalError,
    QuadElem,
)

# the growth roots of x^2 - 3x + 1, the q = 5 row-size characteristic
ALPHA5 = QuadElem(Fraction(3, 2), Fraction(1, 2), 5)
BETA5 = ALPHA5.conjugate()

small_fractions = st.fractions(min_value=-10, max_value=10, max_denominator=12)
elems = st.builds(QuadElem, small_fractions, small_fractions, st.just(5))


def test_add_identity():
    one = QuadElem(1, 0, 5)
    assert one + QuadElem(0, 0, 5) == one


def test_add_conjugate_pair_is_rational():
    x = QuadElem(Fraction(1, 2), Fraction(3, 10), 5)
    assert x + x.conjugate() == QuadElem(1, 0, 5)


def test_add_mixed_coefficients():
    x = QuadElem(Fraction(-3, 2), Fraction(7, 10), 5)
    y = QuadElem(1, Fraction(-2, 5), 5)
    assert x + y == QuadElem(Fraction(-1, 2), Fraction(3, 10), 5)


def test_sqrt_squares_to_radicand():
    root = QuadElem.sqrt(5)
    assert root * root == QuadElem(5, 0, 5)


def test_root_pair_product_and_sum():
    assert ALPHA5 * BETA5 == 1
    assert ALPHA5 + BETA5 == 3


def test_pow_zero_is_one():
    assert QuadElem(Fraction(2, 7), Fraction(-3, 4), 5) ** 0 == 1


def test_pow_small_values():
    assert ALPHA5**2 == QuadElem(Fraction(7, 2), Fraction(3, 2), 5)
    assert ALPHA5**3 == QuadElem(9, 4, 5)


def test_pow_negative_rejected():
    with pytest.raises(ValueError):
        ALPHA5 ** (-1)


def test_as_integer():
    assert QuadElem(7, 0, 5).as_integer() == 7
    with pytest.raises(NotIntegralError):
        QuadElem(Fraction(1, 2), 0, 5).as_integer()
    with pytest.raises(NotRationalError):
        QuadElem.sqrt(5).as_integer()


def test_disc_mismatch():
    a = QuadElem(1, 2, 5)
    b = QuadElem(1, 2, 8)
    with pytest.raises(DiscMismatchError):
        a + b
    with pytest.raises(DiscMismatchError):
        a * b


def test_negative_radicand_rejected():
    with pytest.raises(ValueError):
        QuadElem(1, 1, -5)


def test_scalar_mixing():
    assert 1 + ALPHA5 + BETA5 == 4
    assert 2 * ALPHA5 == QuadElem(3, 1, 5)
    assert ALPHA5 - Fraction(3, 2) == QuadElem(0, Fraction(1, 2), 5)


@given(elems, elems)
def test_mul_commutes(x, y):
    assert x * y == y * x


@given(elems, elems, elems)
def test_mul_distributes_over_add(x, y, z):
    assert x * (y + z) == x * y + x * z


@given(elems, st.integers(0, 64), st.integers(0, 64))
def test_pow_adds_exponents(x, m, n):
    assert x ** (m + n) == (x**m) * (x**n)


@given(elems, elems)
def test_conjugation_is_multiplicative(x, y):
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()


@pytest.mark.parametrize("n", [1, 2, 3, 60, 1024])
def test_pow_squares_no_more_than_its_bits_need(monkeypatch, n):
    products = 0
    mul = QuadElem.__mul__

    def counted(self, other):
        nonlocal products
        products += 1
        return mul(self, other)

    monkeypatch.setattr(QuadElem, "__mul__", counted)
    expected = mul(ALPHA5, ALPHA5 ** (n - 1)) if n > 1 else ALPHA5
    products = 0
    assert ALPHA5**n == expected
    assert products == n.bit_length() - 1 + bin(n).count("1")


def test_repr_names_the_parts():
    assert repr(QuadElem(Fraction(1, 2), 3, 5)) == "QuadElem(Fraction(1, 2), Fraction(3, 1), 5)"


@pytest.mark.parametrize("op", [
    lambda x: x + "x", lambda x: x - "x", lambda x: x * "x", lambda x: x ** 1.5,
    lambda x: "x" + x, lambda x: "x" * x,
])
def test_other_operand_types_are_refused(op):
    with pytest.raises(TypeError):
        op(ALPHA5)


def test_equality_compares_both_parts():
    assert ALPHA5 != BETA5
    assert ALPHA5 != QuadElem(Fraction(3, 2), 0, 5)
    assert ALPHA5 != "x"
    assert ALPHA5.__eq__("x") is NotImplemented


def test_negation_and_reflected_subtraction():
    assert -ALPHA5 == QuadElem(Fraction(-3, 2), Fraction(-1, 2), 5)
    assert 1 - ALPHA5 == BETA5 - 2
    assert Fraction(1, 2) - ALPHA5 == QuadElem(-1, Fraction(-1, 2), 5)
