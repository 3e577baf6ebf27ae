import sys
import tracemalloc
from itertools import islice
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpascal import sequences, triangle
from hpascal.triangle import (
    BudgetExceeded,
    Cell,
    NoCentralCell,
    binomial_row,
    central_cell,
    child_edges,
    generate_rows,
    initial_row,
    largest_row_within,
    next_row,
    nth_row,
    read_rows,
    row_counts,
    row_kinds,
    row_sums,
)

ROW3 = [1, 3, 2, 3, 1]
ROW4 = [1, 4, 3, 5, 2, 2, 5, 3, 4, 1]
ROW5 = [1, 5, 4, 7, 3, 3, 8, 5, 7, 2, 2, 4, 2, 2, 7, 5, 8, 3, 3, 7, 4, 5, 1]


@pytest.mark.parametrize("q", range(4, 31))
def test_first_three_rows_are_q_independent(q):
    row = initial_row()
    assert (row.values, row.kinds) == ([1], "W")
    row = next_row(row, q)
    assert (row.values, row.kinds) == ([1, 1], "WW")
    row = next_row(row, q)
    assert (row.values, row.kinds) == ([1, 2, 1], "WAW")


def test_pinned_rows_q5(rows_q5):
    assert rows_q5[3].values == ROW3
    assert rows_q5[3].kinds == "WABAW"
    assert rows_q5[4].values == ROW4
    assert rows_q5[4].kinds == "WABABBABAW"
    assert rows_q5[5].values == ROW5
    assert rows_q5[5].kinds == "WABABBABABBABBABABBABAW"


def test_q4_is_pascals_triangle():
    for row in generate_rows(4, 20):
        assert row.values == binomial_row(row.n)
        assert "B" not in row.kinds


def assert_palindromic(row):
    assert row.values == row.values[::-1]
    assert row.kinds == row.kinds[::-1]


def assert_children_come_from_parents(parent_row, child_row, q):
    """Each child of child_edges holds its one parent's value, or its two parents' sum,
    and has two parents exactly when it is kind A."""
    above, below = parent_row.values, child_row.values  # each a full copy: read once
    parents_of: dict[int, list[int]] = {}
    for p, c in child_edges(parent_row.kinds, q):
        parents_of.setdefault(c, []).append(above[p])
    assert sorted(parents_of) == list(range(len(child_row)))
    for c, parent_values in parents_of.items():
        kind = child_row.kinds[c]
        assert len(parent_values) == (2 if kind == "A" else 1)
        assert below[c] == (1 if kind == "W" else sum(parent_values))


class FullRow(NamedTuple):
    """A row as the reference builder keeps it: every cell's value."""

    n: int
    values: list[int]
    kinds: str


def reference_fill(q):
    """The copies a parent of each kind drops."""
    return {"W": 0, "A": q - 4, "B": q - 3}


def reference_slots(parents, q, empty="\0"):
    """parents in lower case, each replaced by the slots under it: q-3 copy slots,
    empty where it drops fewer copies, then its merge with the next."""
    for kind, k in reference_fill(q).items():
        parents = parents.replace(kind.lower(), empty * (q - 3 - k) + "B" * k + "A")
    return parents


def reference_child(kinds, values, q):
    """The child's kinds, values and (parent, child) edges, cell by cell: the left
    winger, then each parent p's copies of p and its merge p + next, then the right winger."""
    child, edges = [1], [(0, 0)]
    for i, kind in enumerate(kinds[:-1]):
        for _ in range(reference_fill(q)[kind]):
            edges.append((i, len(child)))
            child.append(values[i])
        edges += [(i, len(child)), (i + 1, len(child))]
        child.append(values[i] + values[i + 1])
    edges.append((len(kinds) - 1, len(child)))
    return f"W{reference_slots(kinds[:-1].lower(), q, '')}W", child + [1], edges


def reference_next_row(row, q):
    """The cell-by-cell builder, on every cell's value."""
    kinds, values, _ = reference_child(row.kinds, row.values, q)
    return FullRow(row.n + 1, values, kinds)


@pytest.mark.parametrize("q", [5, 6, 7])
def test_rows_are_palindromic(q):
    for row in generate_rows(q, 10):
        assert_palindromic(row)


def test_row3_size_is_q():
    for q in range(4, 11):
        assert len(nth_row(q, 3)) == q


def test_row_counts_examples(rows_q5):
    assert row_counts(rows_q5[3]) == (2, 1, 5)
    assert row_counts(rows_q5[2]) == (1, 0, 3)
    assert row_counts(nth_row(7, 3)) == (2, 3, 7)
    with pytest.raises(ValueError):
        row_counts(rows_q5[0])


def test_row_sums_examples(rows_q5):
    assert row_sums(rows_q5[3]) == (6, 2, 10)
    assert row_sums(rows_q5[4]) == (18, 10, 30)
    for q in (4, 5, 8):
        assert row_sums(nth_row(q, 1)) == (0, 0, 2)
    with pytest.raises(ValueError):
        row_sums(rows_q5[0])


@pytest.mark.parametrize("q", range(4, 11))
def test_counts_and_sums_match_coupled_recurrences(q):
    for row in generate_rows(q, 8):
        if row.n < 1:
            continue
        assert row_counts(row) == tuple(sequences.counts_coupled(q, row.n))
        assert row_sums(row) == tuple(sequences.sums_coupled(q, row.n))


def test_adjacency_grammar_q5(rows_q5):
    # inside a row: between two A's only B or BB; between two B's at most one A
    for row in rows_q5[2:13]:
        inner = row.kinds[1:-1]
        a_positions = [i for i, k in enumerate(inner) if k == "A"]
        for left, right in zip(a_positions, a_positions[1:]):
            assert inner[left + 1 : right] in ("B", "BB")
        b_positions = [i for i, k in enumerate(inner) if k == "B"]
        for left, right in zip(b_positions, b_positions[1:]):
            assert inner[left + 1 : right] in ("", "A")


@pytest.mark.parametrize("q", [4, 5, 6, 7, 10])
def test_child_values_come_from_parents(q):
    rows = list(generate_rows(q, 8))
    for parent_row, child_row in zip(rows, rows[1:]):
        assert_children_come_from_parents(parent_row, child_row, q)


def test_edge_counts_match_down_degrees(rows_q5):
    degree = {"W": 2, "A": 3, "B": 4}  # q = 5
    for row in rows_q5[1:6]:
        edges = list(child_edges(row.kinds, 5))
        assert len(edges) == sum(degree[k] for k in row.kinds)


def test_budget_reports_first_offending_row():
    with pytest.raises(BudgetExceeded) as exc_info:
        list(generate_rows(5, 100, cell_budget=100))
    assert exc_info.value.row == 7  # rows sized 2,3,5,10,23,57,146,...


def test_a_budget_that_is_not_positive_is_rejected():
    with pytest.raises(ValueError, match="^cell budget must be positive$"):
        list(generate_rows(5, 3, cell_budget=0))


def test_generate_rows_streams_expected_lengths():
    rows = list(generate_rows(6, 3, cell_budget=10**6))
    assert [len(r) for r in rows] == [1, 2, 3, 6]


def test_central_cell(rows_q5):
    assert central_cell(rows_q5[3]) == Cell(2, "B")
    assert central_cell(rows_q5[6]) == Cell(4, "B")
    with pytest.raises(NoCentralCell):
        central_cell(rows_q5[4])


def test_row_cell():
    assert nth_row(5, 3).cell(2).value == 2
    assert nth_row(5, 4).cell(3).value == 5
    for q in (4, 5, 7):
        for n in (0, 3, 6):
            assert nth_row(q, n).cell(0) == Cell(1, "W")
    with pytest.raises(IndexError):
        nth_row(5, 3).cell(5)
    for row in generate_rows(5, 8):  # cells right of the middle read their mirror
        assert [row.cell(k) for k in range(len(row))] == list(map(Cell, row.values, row.kinds))


def test_q_below_four_rejected():
    with pytest.raises(ValueError):
        next_row(initial_row(), 3)
    with pytest.raises(ValueError):
        list(generate_rows(3, 2))


def test_largest_row_within():
    assert largest_row_within(5, 100) == 6
    assert largest_row_within(5, 1) == 0


@given(q=st.integers(4, 30), n=st.integers(1, 300))
def test_coupled_counts_agree_with_ternary_route(q, n):
    ternary = sequences.counts_ternary(q, n)
    a, b = next(islice(triangle._coupled_counts(q), n - 1, None))
    assert (a, b, a + b + 2) == ternary == sequences.counts_coupled(q, n)


@settings(deadline=None)
@given(q=st.integers(4, 30), budget=st.integers(1, 500))
def test_coupled_counts_agree_with_generated_rows(q, budget):
    top = largest_row_within(q, budget)
    rows = []
    with pytest.raises(BudgetExceeded) as exc_info:
        for row in generate_rows(q, top + 1, budget):
            rows.append(row)
    assert exc_info.value.row == top + 1 == len(rows)
    assert exc_info.value.size == sequences.counts_coupled(q, top + 1).s > budget
    assert len(rows[-1]) <= budget
    for row, (a, b) in zip(rows[1:], triangle._coupled_counts(q)):
        assert row_counts(row) == (a, b, a + b + 2)


@settings(deadline=None)
@given(q=st.integers(4, 30), budget=st.integers(1, 500))
def test_row_kinds_are_the_generated_rows_kinds_within_the_same_budget(q, budget):
    top = largest_row_within(q, budget)
    for row in generate_rows(q, top, budget):
        assert row_kinds(q, row.n, budget) == row.kinds
        assert triangle.child_kinds(row.kinds, q) == next_row(row, q).kinds
    with pytest.raises(BudgetExceeded) as kinds_exc:
        row_kinds(q, top + 1, budget)
    with pytest.raises(BudgetExceeded) as rows_exc:
        list(generate_rows(q, top + 1, budget))
    assert (kinds_exc.value.row, kinds_exc.value.size) == (rows_exc.value.row, rows_exc.value.size)


@pytest.mark.parametrize("q, n, budget, error", [
    (3, 2, 10, "q must be at least 4, got 3"),
    (5, -1, 10, "n_max must be nonnegative"),
    (5, 3, 0, "cell budget must be positive"),
])
def test_row_kinds_rejects_what_generate_rows_rejects(q, n, budget, error):
    for call in (lambda: row_kinds(q, n, budget), lambda: list(generate_rows(q, n, budget)),
                 lambda: list(read_rows(q, n, budget))):
        with pytest.raises(ValueError, match=f"^{error}$"):
            call()


def assert_rows_match_the_cell_by_cell_builder(q):
    """Rows built and read at the current triangle.CHUNK equal the reference's."""
    expected = initial_row()
    # q = 4 rows grow by one cell a row, so cap the depth as well as the size
    n_max = min(40, largest_row_within(q, 20000))
    for row in generate_rows(q, n_max):
        assert (row.n, row.values, row.kinds) == (expected.n, expected.values, expected.kinds)
        expected = reference_next_row(expected, q)
    # the last row of a stream comes as slices, each built as it is read
    parts = [part for part in read_rows(q, n_max) if part.n == n_max]
    assert [value for part in parts for value in part.half] == row.half


@pytest.mark.parametrize("q", range(4, 31))
def test_next_row_matches_the_cell_by_cell_builder(q):
    assert_rows_match_the_cell_by_cell_builder(q)


@pytest.mark.parametrize("q", range(4, 31))
@pytest.mark.parametrize("chunk", [1, 2, 3, 5])
def test_next_row_matches_the_cell_by_cell_builder_in_blocks_of_any_chunk(monkeypatch, chunk, q):
    # a child is built in blocks of CHUNK // (q - 2) parents, one at the least,
    # so these sizes put a block boundary after every parent or every few
    monkeypatch.setattr(triangle, "CHUNK", chunk)
    assert_rows_match_the_cell_by_cell_builder(q)


@settings(deadline=None)
@given(q=st.integers(4, 30), inner=st.text("AB", max_size=40), middle=st.sampled_from("AB "),
       cut=st.integers(0, 41), chunk=st.integers(1, 90),
       half=st.lists(st.integers(0, 10**30), min_size=42, max_size=42))
def test_the_slot_encoding_builds_what_the_cell_by_cell_rule_builds(
        q, inner, middle, cut, chunk, half):
    # any A/B string, not only a row's: the rule is local to each parent and its next
    kinds = f"W{inner}W"
    parents = kinds[:-1]
    for block in (parents[:cut], parents[cut:]):  # the left winger's block, then a later one
        assert triangle._slots(block, q) == reference_slots(block.lower(), q).encode()
    ref_kinds, _, ref_edges = reference_child(kinds, [0] * len(kinds), q)  # no value read
    # a row stores its left half, so next_row reads a palindrome
    palindrome = f"W{inner}{middle.strip()}{inner[::-1]}W"
    row = triangle.Row(7, [1, *half[: (len(palindrome) - 1) // 2]], palindrome)
    expected_kinds, expected_values, _ = reference_child(palindrome, row.values, q)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(triangle, "CHUNK", chunk)  # blocks of CHUNK // (q-2) parents
        assert triangle.child_kinds(kinds, q) == ref_kinds
        assert list(child_edges(kinds, q)) == ref_edges
        child = next_row(row, q)
    assert (child.kinds, child.values) == (expected_kinds, expected_values)


@settings(deadline=None)
@given(q=st.integers(4, 30), budget=st.integers(1, 2000), depth=st.integers(0, 40))
def test_rows_built_cell_by_cell_are_palindromes(q, budget, depth):
    # next_row mirrors its left half, so its rows are palindromes by
    # construction; the unmirrored builder is where the premise can fail
    row = initial_row()
    for _ in range(min(depth, largest_row_within(q, budget))):
        row = reference_next_row(row, q)
        assert_palindromic(row)


def test_mirrored_cells_share_their_values():
    # the full view mirrors the half's ints: it never holds two ints per value
    values = nth_row(5, 14).values
    assert len(values) % 2 == 1
    assert all(values[k] is values[-1 - k] for k in range(len(values) // 2))
    assert max(values) > 256  # beyond the ints the interpreter caches


@settings(deadline=None)
@given(q=st.integers(4, 30), budget=st.integers(1, 2000), depth=st.integers(0, 40))
def test_rows_of_any_q_are_palindromes_built_from_their_parents(q, budget, depth):
    rows = list(generate_rows(q, min(depth, largest_row_within(q, budget)), budget))
    for row in rows:
        assert_palindromic(row)
    for parent_row, child_row in zip(rows, rows[1:]):
        assert_children_come_from_parents(parent_row, child_row, q)
    for row in rows[1:]:
        assert row_sums(row) == tuple(sequences.sums_coupled(q, row.n))


@pytest.mark.parametrize("q", [4, 5, 7])
def test_next_row_leaves_its_parent_unchanged(q):
    parent = nth_row(q, 6)
    half, cells, kinds = parent.half, list(parent.half), parent.kinds
    next_row(parent, q)
    assert parent.half is half and parent.half == cells
    assert parent.kinds is kinds


def test_next_row_never_copies_its_parent_values_into_an_even_child():
    # row 13 has 46370 cells and no middle one, unlike row 14
    parent = nth_row(5, 12)
    tracemalloc.start()
    try:
        child = next_row(parent, 5)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(child) % 2 == 0
    assert (peak - held) / len(parent) <= 4


def test_next_row_builds_its_child_block_by_block():
    # the child's kinds come before its values, and its values are built a
    # block of triangle.CHUNK slots at a time under that block's own mask;
    # one slot word under the whole parent read 3.03 bytes a parent cell
    parent = nth_row(5, 15)  # 317,811 cells
    tracemalloc.start()
    try:
        child = next_row(parent, 5)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(child) > len(parent)
    assert (peak - held) / len(parent) <= 0.5


@pytest.mark.parametrize("q, n", [(5, 15), (6, 11)])
def test_child_kinds_builds_its_kinds_a_block_of_parents_at_a_time(q, n):
    # the block strings are joined once: about one transient byte a child cell
    # (1.03 measured); one slot bytearray under the whole row read 1.29 at q = 5
    kinds = row_kinds(q, n)
    tracemalloc.start()
    try:
        child = triangle.child_kinds(kinds, q)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - held) / len(child) <= 1.25


def test_reading_a_top_row_keeps_no_recut_buffer():
    # each slice is a block list as the builder made it; re-cut into CHUNK-cell
    # slices through a buffer, the slices after the first peaked at 97 kB
    rows = read_rows(5, 15)  # row 15: 317,811 cells, 88 slices
    first = next(row for row in rows if row.n == 15)
    tracemalloc.start()
    try:
        for row in rows:
            assert row.offset > first.offset
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # two block lists, each CHUNK pointers and the ints of its merges, as many bytes again
    assert peak <= 2 * 2 * sys.getsizeof([None] * triangle.CHUNK)


def test_a_kept_child_stores_only_its_left_half():
    # the locator keeps q = 5 rows 0..18: a full row of pointers and kinds
    # holds 9.3 bytes a cell, its left half and the kinds 5.3
    parent = nth_row(5, 13)
    tracemalloc.start()
    try:
        child = next_row(parent, 5)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held / len(child) <= 6


def test_next_row_never_copies_its_parent_values():
    # the locator keeps q = 5 rows 0..18, so a copy of a parent's values
    # (8 bytes a cell) would show in every later peak
    parent = nth_row(5, 13)
    tracemalloc.start()
    try:
        child = next_row(parent, 5)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(child) > len(parent)
    assert (peak - held) / len(parent) <= 4


# the first six children have 1 cell mod 4; the rest cover 0, 2 and 3, small
# and large, since the half's length depends on the parity and the rounding
@pytest.mark.parametrize(
    "q, n",
    [(4, 200), (5, 6), (5, 12), (6, 8), (7, 5), (10, 4),
     (4, 7), (4, 199), (5, 4), (5, 13), (5, 5), (6, 10), (7, 8)],
)
def test_next_row_allocates_its_values_once_at_their_length(q, n):
    # list() of an iterable with a length allocates it exactly (CPython may
    # round up to an even slot count), as a copy of the list does; grown
    # without one, a row keeps 8-15% slack
    half = nth_row(q, n).half
    assert sys.getsizeof(half) == sys.getsizeof(list(half))
