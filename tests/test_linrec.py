from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from hpascal.linrec import (
    CoupledSystem,
    TernaryCoeffs,
    advance,
    check_satisfies,
    eliminate,
    eliminate_homogeneous,
)
from hpascal.sequences import counts_ternary
from hpascal.triangle import count_system

small_ints = st.integers(-5, 5)


@pytest.mark.parametrize("q", range(4, 13))
def test_count_system_eliminates_to_row_count_recurrence(q):
    coeffs = eliminate(CoupledSystem(1, 1, 1, q - 4, q - 3, 0))
    assert coeffs == (q - 1, -(q - 1), 1)


@pytest.mark.parametrize("q", range(4, 13))
def test_sum_system_eliminates_to_row_sum_recurrence(q):
    coeffs = eliminate(CoupledSystem(2, 2, 2, q - 4, q - 3, 0))
    assert coeffs == (q, -(q + 1), 2)


def test_alternating_influence_system_stabilises():
    # z[n+3] = z[n+2]: the signed subsums freeze after two steps
    assert eliminate(CoupledSystem(-4, -8, -6, 2, 4, 2)) == (1, 0, 0)


@pytest.mark.parametrize("q", range(4, 13))
def test_homogeneous_count_system(q):
    assert eliminate_homogeneous(CoupledSystem(1, 1, 0, q - 4, q - 3, 0)) == (q - 2, -1)


@pytest.mark.parametrize("q", range(4, 13))
def test_homogeneous_sum_system(q):
    assert eliminate_homogeneous(CoupledSystem(2, 2, 0, q - 4, q - 3, 0)) == (q - 1, -2)


def test_homogeneous_swap_system():
    assert eliminate_homogeneous(CoupledSystem(0, 1, 0, 1, 0, 0)) == (0, 1)


def test_homogeneous_rejects_constants():
    with pytest.raises(ValueError):
        eliminate_homogeneous(CoupledSystem(1, 1, 1, 1, 1, 0))


def test_check_satisfies_row_count_sequence():
    seq = [counts_ternary(5, n).s for n in range(1, 9)]
    assert seq[:4] == [2, 3, 5, 10]
    assert check_satisfies(seq, TernaryCoeffs(4, -4, 1))


def test_check_satisfies_constant_sequence():
    assert check_satisfies([1, 1, 1, 1, 1], TernaryCoeffs(1, 0, 0))


def test_check_satisfies_detects_mismatch():
    assert not check_satisfies([1, 2, 4, 10], TernaryCoeffs(4, -4, 1))


def test_check_satisfies_needs_four_terms():
    with pytest.raises(ValueError):
        check_satisfies([1, 2, 3], TernaryCoeffs(1, 0, 0))


@given(
    st.tuples(*[small_ints] * 6),
    st.tuples(small_ints, small_ints),
)
def test_trajectories_satisfy_eliminated_recurrence(coeffs, seeds):
    a1, b1, c1, a2, b2, c2 = coeffs
    assume(a2 * b1 != 0)
    system = CoupledSystem(a1, b1, c1, a2, b2, c2)
    x, y = Fraction(seeds[0]), Fraction(seeds[1])
    xs, ys = [x], [y]
    for _ in range(12):
        x, y = system.step(x, y)
        xs.append(x)
        ys.append(y)
    ternary = eliminate(system)
    assert check_satisfies(xs, ternary)
    assert check_satisfies(ys, ternary)
    if c1 == 0 and c2 == 0:
        a_bin, b_bin = eliminate_homogeneous(system)
        assert all(
            xs[k + 2] == a_bin * xs[k + 1] + b_bin * xs[k] for k in range(11)
        )
        assert all(
            ys[k + 2] == a_bin * ys[k + 1] + b_bin * ys[k] for k in range(11)
        )


@given(st.tuples(*[small_ints] * 6), st.integers(0, 200))
@example((1, 1, 1, 1, 2, 0), 77)  # the count system at q = 5
@example((2, 3, -4, 0, 5, 1), 120)  # a2*b1 = 0, c != 0
@example((-1, 0, 5, 3, -2, -3), 65)  # a2*b1 = 0 the other way
@example((-4, -8, -6, 2, 4, 2), 200)  # the alternating-influence system
@example((0, 0, 0, 0, 0, 0), 3)
def test_advance_equals_k_steps(coeffs, k):
    system = CoupledSystem(*coeffs)
    x = y = Fraction(0)
    for _ in range(k):
        x, y = system.step(x, y)
    assert advance(coeffs, k) == (x, y)


def test_advance_rejects_a_negative_step_count():
    with pytest.raises(ValueError):
        advance((1, 1, 1, 1, 2, 0), -1)


class _Tracked(int):
    """An int whose products record their operands' widest bit sum."""

    widest = 0

    def __mul__(self, other):
        _Tracked.widest = max(_Tracked.widest, self.bit_length() + int(other).bit_length())
        return _Tracked(int(self) * int(other))

    def __add__(self, other):
        return _Tracked(int(self) + int(other))

    __rmul__, __radd__ = __mul__, __add__


@pytest.mark.parametrize("k", [2, 3, 60, 1024, 1025, 4097])
def test_advance_squares_no_more_than_the_bits_of_k_need(k):
    # a square past the top bit of k would take twice the bits of the result
    _Tracked.widest = 0
    x, y = advance(tuple(map(_Tracked, count_system(5))), k)
    assert (x, y) == advance(count_system(5), k)
    assert _Tracked.widest <= max(x, y).bit_length() + 4
