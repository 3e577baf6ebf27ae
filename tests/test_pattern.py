import pytest

from hpascal.pattern import (
    central_copy_holds,
    central_value_holds,
    check_central_copy,
    check_central_value,
    check_pattern_recurrence,
    check_prefix,
    growth_power,
    pattern_bits,
    pattern_int,
    prefix_holds,
    recurrence_holds,
)
from hpascal.sequences import counts_ternary
from hpascal.triangle import BudgetExceeded, central_cell


def test_pattern_int_small_rows():
    assert pattern_int(1) == 3  # BB
    assert pattern_int(2) == 5  # BAB
    assert pattern_int(3) == 21  # BABAB
    assert pattern_int(4) == 693  # BABABBABAB


def test_pattern_int_generates_when_no_rows_given():
    assert pattern_int(3) == 21


def test_pattern_diffs():
    assert pattern_int(2) - pattern_int(1) == 2
    assert pattern_int(3) - pattern_int(2) == 16
    assert pattern_int(4) - pattern_int(3) == 672


def test_growth_powers():
    assert growth_power(1) == 2
    assert growth_power(2) == 4
    assert growth_power(3) == 32


def test_recurrence_anchor_case():
    # (32/4 + 32 + 4) * 16 - 4**2 * 2 = 672 exactly
    assert check_pattern_recurrence(3)


@pytest.mark.parametrize("n", range(3, 10))
def test_recurrence_holds(n):
    assert check_pattern_recurrence(n)


def test_recurrence_below_range_rejected():
    with pytest.raises(ValueError):
        check_pattern_recurrence(2)


@pytest.mark.parametrize("n", [0, *range(2, 12)])
def test_prefix_repetition(n):
    assert check_prefix(n)


def test_prefix_excluded_index():
    with pytest.raises(ValueError):
        check_prefix(1)


@pytest.mark.parametrize("n", range(0, 10))
def test_central_copy(n):
    assert check_central_copy(n)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_central_value(k):
    assert check_central_value(k)


def test_central_value_needs_positive_k():
    with pytest.raises(ValueError):
        check_central_value(0)


@pytest.mark.parametrize(
    "check", [pattern_int, growth_power, check_prefix, check_central_copy]
)
def test_row_indices_must_be_nonnegative(check):
    with pytest.raises(ValueError, match="^row index must be nonnegative$"):
        check(-1)


def test_codes_are_palindromic_with_full_bit_length(rows_q5):
    for row in rows_q5[1:11]:
        bits = pattern_bits(row)
        assert bits == bits[::-1]
        assert int(bits, 2).bit_length() == len(bits) == counts_ternary(5, row.n).s


def test_requested_row_must_fit_the_budget():
    with pytest.raises(BudgetExceeded):
        pattern_int(20)
    with pytest.raises(BudgetExceeded):
        check_prefix(5, cell_budget=50)  # row 6 has 57 cells


def test_laws_as_predicates(rows_q5):
    bits = [pattern_bits(row) for row in rows_q5]
    codes = [int(b, 2) for b in bits]
    assert recurrence_holds(5, codes[3:7])
    assert not recurrence_holds(5, [codes[3], codes[4], codes[5], codes[6] + 1])
    assert prefix_holds(bits[4], bits[5])
    assert not prefix_holds(bits[1], bits[2])  # the excluded index
    assert central_copy_holds(bits[4], bits[7])
    assert not central_copy_holds(bits[4], bits[8])
    assert central_value_holds(2, central_cell(rows_q5[6]))
    assert not central_value_holds(3, central_cell(rows_q5[6]))
