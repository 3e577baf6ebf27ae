"""row_sums and alt_triple_from_row read a row's left half and middle cell.

Both take a row from next_row, a palindrome, and read only its left half
plus the middle cell of an odd row.  The references below read every
cell.
"""

import tracemalloc
from itertools import compress

import pytest

from hpascal.sequences import AltTriple, alt_triple_from_row
from hpascal.triangle import TYPE_A, TYPE_B, generate_rows, largest_row_within, nth_row, row_sums

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
