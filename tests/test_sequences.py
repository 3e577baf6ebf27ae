import random
from fractions import Fraction

import pytest

from hpascal import pattern, sequences
from hpascal.cli import main
from hpascal.sequences import (
    AltTriple,
    DegenerateDiscriminant,
    alt_step,
    alt_sum,
    alt_triple_from_row,
    counts_closed,
    counts_coupled,
    counts_ternary,
    parity_s,
    sums_closed,
    sums_coupled,
    sums_ternary,
    weighted_sum,
)

ALT_TABLE_TOTALS = [1, 0, 0, -2, 0, 2, 2, 0, 2, 2, 0, 2, 2]


@pytest.mark.parametrize("q", range(4, 11))
def test_counts_row3(q):
    assert counts_coupled(q, 3) == (2, q - 4, q)
    assert counts_ternary(q, 3) == (2, q - 4, q)


def test_counts_coupled_step():
    assert counts_coupled(5, 4) == (4, 4, 10)


def test_counts_q4_are_binomial_row_stats():
    for n in range(1, 13):
        assert counts_coupled(4, n) == (n - 1, 0, n + 1)


def test_counts_ternary_initial_values():
    assert [tuple(counts_ternary(5, n)) for n in (1, 2, 3)] == [
        (0, 0, 2),
        (1, 0, 3),
        (2, 1, 5),
    ]
    assert counts_ternary(5, 4).s == 10
    assert counts_ternary(6, 4).s == 17


@pytest.mark.parametrize("q", range(4, 10))
def test_counts_ternary_equals_coupled(q):
    for n in range(1, 26):
        assert counts_ternary(q, n) == counts_coupled(q, n)


def test_counts_closed_examples():
    assert counts_closed(5, 3) == (2, 1, 5)
    assert counts_closed(7, 10) == counts_ternary(7, 10)


@pytest.mark.parametrize("q", [5, 6, 7, 10])
def test_counts_closed_equals_ternary(q):
    for n in range(1, 41):
        assert counts_closed(q, n) == counts_ternary(q, n)


def test_counts_closed_rejects_q4():
    with pytest.raises(DegenerateDiscriminant):
        counts_closed(4, 3)


@pytest.mark.parametrize("q", range(4, 11))
def test_sums_row3(q):
    expected = (6, 2 * (q - 4), 2 * q)
    assert sums_coupled(q, 3) == expected
    assert sums_ternary(q, 3) == expected
    assert sums_closed(q, 3) == expected


def test_sums_coupled_step():
    assert sums_coupled(5, 4) == (18, 10, 30)


def test_sums_q4_are_powers_of_two():
    for n in range(1, 21):
        assert sums_closed(4, n).s == 2**n


@pytest.mark.parametrize("q", [4, 5, 6, 9])
def test_sums_three_routes_agree(q):
    for n in range(1, 26):
        coupled = sums_coupled(q, n)
        assert sums_ternary(q, n) == coupled
        assert sums_closed(q, n) == coupled


def test_triples_satisfy_winger_identity():
    for q in (5, 8):
        for n in range(1, 20):
            a, b, s = counts_coupled(q, n)
            assert s == a + b + 2
            a, b, s = sums_coupled(q, n)
            assert s == a + b + 2


def test_parity_examples():
    assert parity_s(1) == 0
    assert parity_s(3) == 1
    assert parity_s(4) == 0


def test_parity_matches_row_sizes():
    for n in range(1, 121):
        assert counts_ternary(5, n).s % 2 == parity_s(n)


def test_alt_sum_table():
    assert [alt_sum(n) for n in range(13)] == ALT_TABLE_TOTALS
    assert alt_sum(100) == 0
    with pytest.raises(ValueError):
        alt_sum(-1)


def test_alt_triples_of_generated_rows(rows_q5):
    table = [
        AltTriple(0, 0, 1),
        AltTriple(0, 0, 0),
        AltTriple(-2, 0, 0),
        AltTriple(-6, 2, -2),
        AltTriple(0, 0, 0),
        AltTriple(2, -2, 2),
        AltTriple(2, -2, 2),
        AltTriple(0, 0, 0),
        AltTriple(2, -2, 2),
        AltTriple(2, -2, 2),
        AltTriple(0, 0, 0),
        AltTriple(2, -2, 2),
        AltTriple(2, -2, 2),
    ]
    for row in rows_q5[:13]:
        assert alt_triple_from_row(row) == table[row.n]
    for row in rows_q5:
        assert alt_triple_from_row(row).total == alt_sum(row.n)


def test_alt_step_reproduces_table():
    assert alt_step(0, 0) == (-6, 2)
    assert alt_step(-2, 0) == (2, -2)
    assert alt_step(2, -2) == (2, -2)  # fixed point from row 6 on


def test_weighted_sum_degenerate_weights():
    for n in range(1, 13):
        assert weighted_sum(n, 1, 1) == sums_ternary(5, n).s
        assert weighted_sum(n, 1, -1) == alt_sum(n)


def test_weighted_sum_example():
    assert weighted_sum(3, 2, 3) == 26


def test_weighted_sum_matches_direct_row_sums(rows_q5):
    rng = random.Random(1729)
    for _ in range(25):
        n = rng.randint(1, 15)
        v = rng.randint(-10, 10)
        w = rng.randint(-10, 10)
        direct = sum(
            (v if i % 2 == 0 else w) * x for i, x in enumerate(rows_q5[n].values)
        )
        assert weighted_sum(n, v, w) == direct


def test_row_size_ratio_approaches_growth_root():
    # |s41/s40 - (3+sqrt(5))/2| < 1e-6, checked in exact rational arithmetic
    ratio = Fraction(counts_ternary(5, 41).s, counts_ternary(5, 40).s)
    eps = Fraction(1, 10**6)
    lower = 2 * ratio - 3 - 2 * eps
    upper = 2 * ratio - 3 + 2 * eps
    assert lower > 0
    assert lower**2 < 5 < upper**2


def test_argument_validation():
    with pytest.raises(ValueError):
        counts_coupled(3, 1)
    with pytest.raises(ValueError):
        counts_coupled(5, 0)
    with pytest.raises(ValueError):
        sums_ternary(5, -2)
    with pytest.raises(ValueError):
        weighted_sum(-1, 1, 1)
    with pytest.raises(ValueError):
        parity_s(0)


def reference_coupled(q, n_max):
    """(a, b, sum_a, sum_b) of rows 1..n_max by one step of each coupled system a
    row, as counts_coupled and sums_coupled once read them."""
    a = b = sum_a = sum_b = 0
    for _ in range(n_max):
        yield a, b, sum_a, sum_b
        a, b = a + b + 1, (q - 4) * a + (q - 3) * b
        sum_a, sum_b = 2 * sum_a + 2 * sum_b + 2, (q - 4) * sum_a + (q - 3) * sum_b


POWER_CUTS = {2**k + d for k in range(15) for d in (-1, 0, 1)}


@pytest.mark.parametrize("q", range(4, 31))
def test_coupled_routes_equal_the_step_loops(q):
    for n, (a, b, sum_a, sum_b) in enumerate(reference_coupled(q, 2**14 + 1), 1):
        if n <= 300 or n in POWER_CUTS:
            assert counts_coupled(q, n) == (a, b, a + b + 2)
            assert sums_coupled(q, n) == (sum_a, sum_b, sum_a + sum_b + 2)


@pytest.mark.parametrize("q", range(5, 13))
def test_three_routes_agree_at_n_3000(q):
    counts = counts_coupled(q, 3000)
    assert counts_ternary(q, 3000) == counts == counts_closed(q, 3000)
    sums = sums_coupled(q, 3000)
    assert sums_ternary(q, 3000) == sums == sums_closed(q, 3000)


def reference_weighted_sum(n, v, w):
    """weighted_sum with the q = 5 row sum stepped to row n by the ternary
    recurrence x[n] = 5 x[n-1] - 6 x[n-2] + 2 x[n-3], as weighted_sum once read it."""
    if n == 0:
        return v
    x1, x2, x3 = 2, 4, 10  # rows 1..3
    for _ in range(n - 1):
        x1, x2, x3 = x2, x3, 5 * x3 - 6 * x2 + 2 * x1
    alt = alt_sum(n)
    assert (x1 + alt) % 2 == 0
    return (x1 + alt) // 2 * v + (x1 - alt) // 2 * w


def test_weighted_sum_equals_the_ternary_reference():
    rng = random.Random(2929)
    fixed = [(0, 0), (0, 1), (1, 0), (0, -3), (-5, 0), (-2, -7), (1, -1), (1, 1)]
    for n in [*range(301), 777, 19_997]:
        v, w = fixed[n % len(fixed)] if n % 2 else (rng.randint(-9, 9), rng.randint(-9, 9))
        assert weighted_sum(n, v, w) == reference_weighted_sum(n, v, w), (n, v, w)


def test_only_the_cross_checks_walk_the_ternary_streams(monkeypatch, capsys):
    weighted = {n: reference_weighted_sum(n, 2, -3) for n in (0, 1, 2, 3, 50)}
    powers = [2 ** (counts_ternary(5, n + 1).s - (counts_ternary(5, n).s if n else 1))
              for n in range(21)]
    cli_out = f"{reference_weighted_sum(50, 2, 3)}\n"

    def walked(*args):
        raise AssertionError("the ternary route was walked")

    monkeypatch.setattr(sequences, "_ternary", walked)
    with pytest.raises(AssertionError, match="ternary route"):
        counts_ternary(5, 4)
    assert {n: weighted_sum(n, 2, -3) for n in weighted} == weighted
    assert [pattern.growth_power(n) for n in range(21)] == powers
    assert all(pattern.check_pattern_recurrence(n) for n in range(3, 13))
    assert main(["altsum", "--n", "50", "--weights", "2", "3"]) == 0
    assert capsys.readouterr() == (cli_out, "")
