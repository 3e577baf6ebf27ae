"""part_sums, and row_sums and alt_triple_from_row through it, read a row's
left half and middle cell; so do locator._scan and central_cell.

Each takes a row from next_row, a palindrome, and reads only its left half
plus the middle cell of an odd row, whole or a part at a time.  The
references below read every cell.
"""

import random
import tracemalloc

import pytest

from hpascal.locator import _scan
from hpascal.sequences import AltTriple, alt_triple_from_row
from hpascal.triangle import (
    TYPE_A,
    TYPE_B,
    Row,
    central_cell,
    generate_rows,
    largest_row_within,
    nth_row,
    part_sums,
    row_sums,
)


def position_sum_reference(row, even, odd, kind):
    return sum(
        (odd if k % 2 else even) * value
        for k, (value, cell_kind) in enumerate(zip(row.values, row.kinds))
        if kind in (None, cell_kind)
    )


def part_sums_reference(row, even, odd):
    return tuple(position_sum_reference(row, even, odd, kind) for kind in (TYPE_A, TYPE_B, None))


def seeded_weights():
    rng = random.Random(18)
    weights = [(1, 1), (1, -1), (0, 5), (3, -5), (3, -3)]
    return weights + [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(4)]


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


def test_part_sums_match_the_full_row_reference(swept_rows):
    for q, row in swept_rows:
        for even, odd in seeded_weights():
            assert part_sums(row, even, odd) == part_sums_reference(row, even, odd), (
                q, row.n, even, odd)


def test_row_sums_match_the_full_row_reference(swept_rows):
    for q, row in swept_rows:
        if row.n:
            assert row_sums(row) == part_sums(row) == part_sums_reference(row, 1, 1), (q, row.n)
    with pytest.raises(ValueError, match="row 0 has no winger pair"):
        row_sums(nth_row(5, 0))


def test_alt_triples_match_the_full_row_reference(swept_rows):
    for q, row in swept_rows:
        triple = alt_triple_from_row(row)
        assert triple == AltTriple(*part_sums(row, 1, -1)), (q, row.n)
        assert triple == part_sums_reference(row, 1, -1), (q, row.n)


def test_opposite_weights_sum_an_even_row_to_zero_reading_no_cell(swept_rows):
    # every mirrored pair, the wingers too, weighs even + odd = 0: part_sums
    # returns without folding, so a half of no numbers reads alike
    for q, row in swept_rows:
        if len(row) % 2 == 0:
            unread = Row(row.n, [None] * len(row.half), row.kinds)
            for even in (1, 3, -7):
                assert part_sums_reference(row, even, -even) == (0, 0, 0), (q, row.n)
                assert part_sums(unread, even, -even) == (0, 0, 0), (q, row.n)


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


def splits(row):
    """The row's half cut into slices Row(n, chunk, kinds, offset) of 1, 2 and
    3 cells, into one slice, and into two slices the second of which is the
    last cell alone: the middle cell of an odd row."""
    half = row.half
    cuts = [[(k, half[k:k + size]) for k in range(0, len(half), size)]
            for size in (1, 2, 3, len(half))]
    if len(half) > 1:
        cuts.append([(0, half[:-1]), (len(half) - 1, half[-1:])])
    return [[Row(row.n, chunk, row.kinds, offset) for offset, chunk in cut] for cut in cuts]


def test_the_splits_put_the_last_cell_in_a_chunk_of_its_own(swept_rows):
    # in odd and even rows, at each chunk size: in an odd row the last cell is the middle one
    ends = {(size, len(row) % 2) for _, row in swept_rows for size in (2, 3)
            if len(row.half) % size == 1}
    assert ends == {(2, 0), (2, 1), (3, 0), (3, 1)}


def test_part_sums_over_any_split_match_the_full_row_reference(swept_rows):
    # the sums over a row's parts add up to the row's
    for q, row in swept_rows:
        for even, odd in seeded_weights():
            want = part_sums_reference(row, even, odd)
            for split in splits(row):
                parts = [part_sums(part, even, odd) for part in split]
                assert tuple(map(sum, zip(*parts))) == want, (q, row.n, even, odd, len(split))


def test_the_middle_cell_comes_from_the_last_part(swept_rows):
    for q, row in swept_rows:
        if len(row) % 2:
            for split in splits(row):
                assert central_cell(split[-1]) == row.cell(len(row) // 2), (q, row.n, len(split))


def test_a_slice_reads_the_cells_it_holds_and_their_mirrors_only(swept_rows):
    for q, row in swept_rows:
        if len(row) > 30:
            continue
        size = len(row)
        for split in splits(row):
            for part in split:
                held = {c for k in range(part.offset, part.offset + len(part.half))
                        for c in (k, size - 1 - k)}
                for k in range(-2, size + 2):
                    if k in held:
                        assert part.cell(k) == row.cell(k), (q, row.n, part.offset, k)
                    else:
                        with pytest.raises(IndexError):
                            part.cell(k)


def test_values_reads_whole_rows_only(swept_rows):
    for q, row in swept_rows:
        if len(row) > 30:
            continue
        for split in splits(row):
            if len(split) == 1:
                assert split[0].values == row.values
                continue
            for part in split:
                with pytest.raises(ValueError, match="is a slice, not a whole row"):
                    part.values


def windows(split):
    """(cells, start) of each part, as PairScanner scans the parts of a row:
    a part after the first from the cell before it."""
    before = None
    for part in split:
        yield ([before, *part.half], part.offset - 1) if part.offset else (part.half, 0)
        before = part.half[-1]


def scan_reference(values, u, v):
    return next((j for j in range(len(values) - 1) if (values[j], values[j + 1]) == (u, v)), None)


def test_scans_over_any_split_match_the_full_row_reference(swept_rows):
    # every adjacent pair of every row, and a few absent ones; splits into
    # more than 200 parts are left out, as they cost a pass over the parts
    # per pair
    for q, row in swept_rows:
        values = row.values
        pairs = set(zip(values, values[1:]))  # a palindrome's pairs come both ways round
        probes = {*pairs, *((u, v + 1) for u, v in sorted(pairs)[:10])}
        for split in splits(row):
            if len(split) > 200:
                continue
            for u, v in probes:
                want = scan_reference(values, u, v)
                # a run per part, each after the first from the cell before it: the least column
                cols = [_scan(*w, len(row), u, v) for w in windows(split)]
                assert min((c for c in cols if c is not None), default=None) == want, (
                    q, row.n, u, v, len(split))
