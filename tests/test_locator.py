import math
import random
import sys
import threading

import pytest

from hpascal import locator, triangle
from hpascal.locator import (
    AS_GIVEN,
    FULL_ROW,
    UNVERIFIED,
    LocationFailure,
    PairScanner,
    _scan,
    descent_trace,
    embed_recurrence,
    euclid_chain,
    locate_pair,
    locate_pairs,
    locate_row,
)
from hpascal.triangle import Row, nth_row


REVERSED = "reversed"  # the reference scans' marker for a hit on (v, u)


def reference_scan(values, u, v):
    """The plain cell-by-cell scan: leftmost (u, v), else leftmost (v, u)."""
    for j in range(len(values) - 1):
        if (values[j], values[j + 1]) == (u, v):
            return j, AS_GIVEN
    for j in range(len(values) - 1):
        if (values[j], values[j + 1]) == (v, u):
            return j, REVERSED
    return None


def reference_column(hit):
    """The column of a reference scan's hit, which a palindrome never gives reversed."""
    if hit is None:
        return None
    col, orientation = hit
    assert orientation == AS_GIVEN
    return col


def test_euclid_chain_examples():
    chain = euclid_chain(2, 3)
    assert (chain.quotients, chain.remainders) == ((1, 2), (1,))
    assert chain.gcd == 1

    chain = euclid_chain(3, 5)
    assert (chain.quotients, chain.remainders) == ((1, 1, 2), (2, 1))
    assert chain.gcd == 1

    chain = euclid_chain(4, 6)
    assert (chain.quotients, chain.remainders) == ((1, 2), (2,))
    assert chain.gcd == 2


def test_euclid_chain_degenerate_cases():
    chain = euclid_chain(1, 7)
    assert (chain.quotients, chain.remainders, chain.gcd) == ((7,), (), 1)
    chain = euclid_chain(4, 4)
    assert (chain.quotients, chain.remainders, chain.gcd) == ((1,), (), 4)
    with pytest.raises(ValueError):
        chain.penultimate


def test_euclid_chain_penultimate_counts_u_as_t0():
    assert euclid_chain(2, 3).penultimate == 2
    assert euclid_chain(3, 5).penultimate == 2
    assert euclid_chain(5, 8).penultimate == 2


def test_euclid_chain_rejects_bad_input():
    for u, v in [(0, 3), (5, 3), (-1, 2)]:
        with pytest.raises(ValueError):
            euclid_chain(u, v)


def test_locate_row_examples():
    assert locate_row(2, 3) == 3
    assert locate_row(3, 5) == 4
    assert locate_row(1, 7) == 7
    assert locate_row(1, 1) == 1
    assert locate_row(2, 2) == 4
    assert locate_row(5, 8) == 5
    assert locate_row(4, 6) == 6
    assert locate_row(6, 9) == 7  # gcd 3: copy of (2,3) scaled below row 4
    with pytest.raises(ValueError):
        locate_row(3, 2)


def test_locate_pair_spot_values():
    loc = locate_pair(2, 3)
    assert (loc.row, loc.col, loc.verified, loc.orientation) == (3, 2, FULL_ROW, AS_GIVEN)
    assert loc.value_kinds == ("B", "A")

    loc = locate_pair(3, 5)
    assert (loc.row, loc.col) == (4, 2)

    loc = locate_pair(2, 2)
    assert (loc.row, loc.col) == (4, 4)

    assert locate_pair(4, 6).row == 6
    assert locate_pair(6, 9).row == 7


def test_locate_pair_leftmost_as_given_hit():
    # row 5 holds (8,5) at columns 6..7 and (5,8) at columns 15..16
    loc = locate_pair(5, 8)
    assert (loc.row, loc.col, loc.orientation) == (5, 15, AS_GIVEN)
    mirrored = locate_pair(8, 5)
    assert (mirrored.row, mirrored.col, mirrored.orientation) == (5, 6, AS_GIVEN)


@pytest.mark.parametrize("pair", [(2, 3), (3, 7), (4, 9), (5, 12), (6, 11)])
def test_locate_pair_row_is_mirror_symmetric(pair):
    u, v = pair
    assert locate_pair(u, v).row == locate_pair(v, u).row


@pytest.mark.parametrize("d", [2, 3])
def test_non_coprime_pairs_verify(d):
    for v in range(2, 11):
        for u in range(1, v):
            if math.gcd(u, v) != 1:
                continue
            loc = locate_pair(d * u, d * v)
            assert loc.verified == FULL_ROW, (d * u, d * v)


def test_locate_pair_over_budget_is_symbolic():
    loc = locate_pair(10**6, 10**6 + 1, cell_budget=10**6)
    assert loc.row == 10**6 + 1
    assert loc.col is None
    assert loc.verified == UNVERIFIED
    assert loc.orientation is None


def test_locate_pair_rejects_nonpositive():
    with pytest.raises(ValueError):
        locate_pair(0, 5)


def test_descent_trace_sums_to_row():
    for u, v in [(1, 7), (2, 3), (3, 5), (5, 8), (4, 6), (6, 9), (2, 2), (9, 30)]:
        lo, hi = min(u, v), max(u, v)
        steps = descent_trace(lo, hi)
        assert sum(step.descend for step in steps) == locate_row(lo, hi)


def test_descent_trace_sums_to_locate_row_up_to_60():
    for v in range(1, 61):
        for u in range(1, v + 1):
            assert sum(s.descend for s in descent_trace(u, v)) == locate_row(u, v)


def test_scan_matches_reference_including_mirror_hits():
    # _scan reads a palindrome's left half, here whole; a hit right
    # of the middle is the mirror of a reversed pair inside the half
    rng = random.Random(5)
    for _ in range(500):
        half = [rng.randint(1, 4) for _ in range(rng.randint(1, 7))]
        size = 2 * len(half) - rng.randint(0, 1)
        values = half + half[: size // 2][::-1]
        u, v = rng.randint(1, 5), rng.randint(1, 5)
        assert _scan(half, 0, size, u, v) == reference_column(reference_scan(values, u, v)), (
            values, u, v)
    assert _scan([3, 1, 2, 4], 0, 8, 2, 1) == 5  # in 3 1 2 4 4 2 1 3


def scan_reference(values, u, v):
    """The full-row scan _scan replaced: leftmost (u, v), else leftmost (v, u)."""
    stop = len(values) - 1  # the last cell that can start a pair is stop - 1
    for first, second, orientation in ((u, v, AS_GIVEN), (v, u, REVERSED)):
        j = -1
        try:
            while True:
                j = values.index(first, j + 1, stop)
                if values[j + 1] == second:
                    return j, orientation
        except ValueError:
            pass
    return None


def test_half_scan_matches_the_full_row_scan_on_q5_rows(rows_q5):
    # both scans cost a pass over the row per absent pair, so rows 12..14,
    # with 3643 to 14996 distinct pairs, are sampled
    rng = random.Random(14)
    for row in rows_q5[:15]:
        values = row.values
        pairs = sorted(set(zip(values, values[1:])))
        if len(pairs) > 2000:
            pairs = rng.sample(pairs, 120)
        probes = {*pairs, *((v, u) for u, v in pairs), *((u, u) for u, _ in pairs),
                  *((u, v + 1) for u, v in pairs)}
        for u, v in probes:
            col = _scan(row.half, 0, len(row), u, v)
            assert col == reference_column(scan_reference(values, u, v)), (row.n, u, v)
            if col is not None:
                assert (values[col], values[col + 1]) == (u, v)


@pytest.mark.parametrize("size", [1, 2, 3, 50])
def test_rows_fed_in_parts_place_pairs_as_whole_rows(rows_q5, size):
    # parts of one to three cells put most pairs across a boundary between parts
    pairs = [(u, v) for u in range(1, 13) for v in range(1, 13)
             if locate_row(min(u, v), max(u, v)) <= 12]
    whole, parted = PairScanner(pairs), PairScanner(pairs)
    for row in rows_q5[: whole.last_row + 1]:
        whole.feed(row)
        for k in range(0, len(row.half), size):
            parted.feed(Row(row.n, row.half[k:k + size], row.kinds, k))
    assert all(out.verified == FULL_ROW for out in whole.outcomes)
    assert parted.outcomes == whole.outcomes


def test_locate_pairs_agrees_with_per_pair_scans():
    budget = 10**5  # rows 0..13 of q = 5 fit
    pairs = [(3, 5), (5, 3), (5, 8), (8, 5), (2, 2), (1, 7), (7, 1), (4, 6),
             (6, 9), (13, 21), (5, 8), (12, 29), (29, 12), (30, 31), (10**6, 10**6 + 1)]
    locs = locate_pairs(pairs, budget)
    assert [(loc.u, loc.v) for loc in locs] == pairs
    for (u, v), loc in zip(pairs, locs):
        row = locate_row(min(u, v), max(u, v))
        assert loc.row == row
        assert loc.trace == descent_trace(min(u, v), max(u, v))
        if row > triangle.largest_row_within(5, budget):
            assert (loc.verified, loc.col, loc.orientation) == (UNVERIFIED, None, None)
            continue
        values = nth_row(5, row).values
        assert (loc.col, loc.orientation) == reference_scan(values, u, v)
        assert loc.verified == FULL_ROW
        assert loc == locate_pair(u, v, budget)
    assert sum(loc.verified == UNVERIFIED for loc in locs) == 2


def test_locate_pairs_builds_each_row_once(built_rows):
    locate_pairs([(5, 8), (2, 3), (8, 5), (3, 5), (1, 7)])
    assert built_rows == [(5, n) for n in range(1, 8)]


# in-budget, over-budget, reversed and repeated pairs, rows up to 15
MIXED_BATCH = [(5, 8), (8, 5), (1, 15), (14, 15), (10**6, 10**6 + 1), (2, 3),
               (5, 8), (13, 21), (21, 13), (13, 14), (3, 2), (12, 25)]


def test_a_second_call_builds_no_rows(built_rows):
    first = locate_pairs(MIXED_BATCH)
    assert built_rows == [(5, n) for n in range(1, 16)]
    built_rows.clear()
    assert locate_pairs(MIXED_BATCH) == first
    assert locate_pair(13, 14) == first[9]
    assert built_rows == []


def test_cold_and_warm_memos_give_equal_locations(locator_rows):
    cold = locate_pairs(MIXED_BATCH)
    cold_small = locate_pairs(MIXED_BATCH, cell_budget=10**5)
    locate_pair(1, 16)  # the memo now holds more rows than either batch reads
    assert len(locator_rows) == 17
    assert locate_pairs(MIXED_BATCH) == cold
    assert locate_pairs(MIXED_BATCH, cell_budget=10**5) == cold_small
    assert [loc.verified for loc in cold].count(UNVERIFIED) == 1
    assert [loc.verified for loc in cold_small].count(UNVERIFIED) == 5


def test_a_smaller_budget_after_a_default_call_builds_no_rows(built_rows):
    locate_pairs([(1, 15), (14, 15)])
    built_rows.clear()
    locs = locate_pairs([(1, 15), (2, 3), (13, 14), (12, 13)], cell_budget=10**5)
    assert built_rows == []
    assert [loc.row for loc in locs] == [15, 3, 14, 13]
    for loc in (locs[0], locs[2]):  # rows 14 and 15 exceed 10**5 cells
        assert (loc.verified, loc.col, loc.orientation) == (UNVERIFIED, None, None)
    assert locs[1].verified == locs[3].verified == FULL_ROW


def test_every_stored_row_sits_at_its_own_index(locator_rows):
    locate_pairs([(3, 5)])
    embed_recurrence(1, 2, 1, 10)
    locate_pair(2, 3)
    assert len(locator_rows) == 12
    assert all(row.n == n for n, row in enumerate(locator_rows))


def test_a_warm_memo_still_raises_location_failure(locator_rows, monkeypatch):
    assert locate_pair(5, 8).verified == FULL_ROW
    monkeypatch.setattr("hpascal.locator._scan", lambda *args: None)
    with pytest.raises(LocationFailure) as exc_info:
        locate_pair(5, 8)
    assert (exc_info.value.u, exc_info.value.v, exc_info.value.row) == (5, 8, 5)


def test_concurrent_callers_get_single_thread_answers(built_rows, locator_rows):
    batches = [MIXED_BATCH[i:] + MIXED_BATCH[:i] for i in range(0, 12, 3)]
    expected = [locate_pairs(batch) for batch in batches]
    del locator_rows[1:]
    built_rows.clear()
    start = threading.Barrier(len(batches))
    got = [None] * len(batches)

    def place(i):
        start.wait()
        got[i] = locate_pairs(batches[i])

    threads = [threading.Thread(target=place, args=(i,)) for i in range(len(batches))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == expected
    assert built_rows == [(5, n) for n in range(1, 16)]
    assert all(row.n == n for n, row in enumerate(locator_rows))


def test_locate_pairs_raises_the_first_failure_in_input_order(monkeypatch):
    monkeypatch.setattr("hpascal.locator._scan", lambda *args: None)
    with pytest.raises(LocationFailure) as exc_info:
        locate_pairs([(10**6, 10**6 + 1), (5, 8), (2, 3)], cell_budget=10**5)
    assert (exc_info.value.u, exc_info.value.v, exc_info.value.row) == (5, 8, 5)


def test_locate_pairs_rejects_nonpositive():
    with pytest.raises(ValueError):
        locate_pairs([(2, 3), (0, 5)])


@pytest.mark.parametrize("budget", [0, -1])
def test_locate_pairs_rejects_a_nonpositive_budget(budget):
    with pytest.raises(ValueError, match="cell budget must be positive"):
        locate_pairs([(2, 3)], cell_budget=budget)


def test_descent_trace_alternates_sides():
    sides = [step.side for step in descent_trace(5, 8)]
    assert sides == ["left", "right", "left", "right"]


def test_embed_fibonacci_prefix():
    locs = embed_recurrence(1, 2, 1, 6)
    assert [(loc.u, loc.v) for loc in locs] == [
        (1, 2), (2, 3), (3, 5), (5, 8), (8, 13), (13, 21),
    ]
    assert [loc.row for loc in locs] == [2, 3, 4, 5, 6, 7]
    for loc in locs:
        assert loc.verified == FULL_ROW
        assert loc.value_kinds[1] == "A"


def test_embed_recurrence_builds_each_row_once(built_rows):
    locs = embed_recurrence(1, 2, 1, 14)
    assert [loc.row for loc in locs] == list(range(2, 16))
    assert built_rows == [(5, n) for n in range(1, 16)]


def test_embed_pell_prefix():
    locs = embed_recurrence(1, 2, 2, 4)
    assert [(loc.u, loc.v) for loc in locs] == [(1, 2), (2, 5), (5, 12), (12, 29)]
    assert [loc.row for loc in locs] == [2, 4, 6, 8]


def test_embed_larger_step():
    locs = embed_recurrence(2, 3, 5, 3)
    assert [loc.row for loc in locs] == [3, 8, 13]
    assert all(loc.verified == FULL_ROW for loc in locs)


def test_embed_eta_spacing_holds_from_second_pair():
    for f0, f1, eta in [(1, 3, 2), (3, 4, 1), (2, 5, 3), (1, 4, 2)]:
        rows = [loc.row for loc in embed_recurrence(f0, f1, eta, 4)]
        assert rows[2] - rows[1] == eta
        assert rows[3] - rows[2] == eta


def test_embed_validates_arguments():
    with pytest.raises(ValueError):
        embed_recurrence(2, 1, 1, 3)  # f0 >= f1
    with pytest.raises(ValueError):
        embed_recurrence(2, 4, 1, 3)  # not coprime
    with pytest.raises(ValueError):
        embed_recurrence(1, 2, 0, 3)  # eta < 1
    with pytest.raises(ValueError):
        embed_recurrence(1, 2, 1, 0)  # no pairs
