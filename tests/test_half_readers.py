"""position_sum, and row_sums and alt_triple_from_row through it, read a
row's left half and middle cell.

Each takes a row from next_row, a palindrome, and reads only its left half
plus the middle cell of an odd row.  The references below read every
cell.
"""

import random
import tracemalloc
from itertools import compress

import pytest

from hpascal.sequences import AltTriple, alt_triple_from_row
from hpascal.triangle import (
    TYPE_A,
    TYPE_B,
    WINGER,
    Row,
    generate_rows,
    largest_row_within,
    nth_row,
    position_sum,
    row_sums,
)

_KIND_TABLES = {
    TYPE_A: bytes.maketrans(b"WAB", b"\0\1\0"),
    TYPE_B: bytes.maketrans(b"WAB", b"\0\0\1"),
}


def kind_mask(row, kind):
    return row.kinds.encode("ascii").translate(_KIND_TABLES[kind])


def row_sums_reference(row):
    if row.n < 1:
        raise ValueError("row 0 has no winger pair; sums start at row 1")
    total = sum(row.values)
    a = sum(compress(row.values, kind_mask(row, TYPE_A)))
    return a, total - a - 2, total


def alt_triple_reference(row):
    even, odd = row.values[0::2], row.values[1::2]

    def signed(kind):
        mask = kind_mask(row, kind)
        return sum(compress(even, mask[0::2])) - sum(compress(odd, mask[1::2]))

    return AltTriple(signed(TYPE_A), signed(TYPE_B), sum(even) - sum(odd))


def position_sum_reference(row, even, odd, kind):
    return sum(
        (odd if k % 2 else even) * value
        for k, (value, cell_kind) in enumerate(zip(row.values, row.kinds))
        if kind in (None, cell_kind)
    )


@pytest.fixture(scope="module")
def swept_rows():
    """(q, row) for every row within 3000 cells, q in 4..30; q = 4 stops at row 60."""
    return [
        (q, row)
        for q in range(4, 31)
        for row in generate_rows(q, min(60, largest_row_within(q, 3000)))
    ]


def test_the_sweep_has_even_rows_and_odd_rows_with_middle_a_and_b(swept_rows):
    cases = {row.kinds[len(row) // 2] if len(row) % 2 else "even" for _, row in swept_rows}
    assert cases == {"even", "W", TYPE_A, TYPE_B}  # W: row 0 alone


def test_row_sums_match_the_full_row_reference(swept_rows):
    for q, row in swept_rows:
        if row.n:
            assert row_sums(row) == row_sums_reference(row), (q, row.n)
    with pytest.raises(ValueError, match="row 0 has no winger pair"):
        row_sums(nth_row(5, 0))


def test_alt_triples_match_the_full_row_reference(swept_rows):
    for q, row in swept_rows:
        assert alt_triple_from_row(row) == alt_triple_reference(row), (q, row.n)


def test_position_sums_match_the_full_row_reference(swept_rows):
    rng = random.Random(18)
    weights = [(1, 1), (1, -1), (0, 5), (3, -5)]
    weights += [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(4)]
    for q, row in swept_rows:
        for even, odd in weights:
            for kind in (None, TYPE_A, TYPE_B, WINGER):
                assert position_sum(row, even, odd, kind) == position_sum_reference(
                    row, even, odd, kind), (q, row.n, even, odd, kind)


def test_position_sum_reads_no_value_of_an_even_row_whose_pairs_weigh_0():
    real = nth_row(5, 4)  # rows 3t + 1 of q = 5 have even length
    row = Row(real.n, ["not a number"] * len(real.half), real.kinds)
    assert [position_sum(row, 2, -2, kind) for kind in (None, TYPE_A)] == [0, 0]


@pytest.mark.parametrize(
    "reader, bound",
    # reading every cell, they peaked at 2.0 and 10.0 bytes a cell
    [(row_sums, 1.5), (alt_triple_from_row, 6)],
)
def test_readers_transient_peak_per_cell(reader, bound):
    row = nth_row(5, 14)  # 121,395 cells, an odd row, so alt_triple_from_row reads it
    tracemalloc.start()
    try:
        reader(row)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - held) / len(row) < bound
