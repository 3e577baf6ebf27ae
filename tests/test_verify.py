"""The verify suites share one row stream per q, and each reports a result."""

import dataclasses
import math
import multiprocessing
import multiprocessing.connection
import os
import pickle
from itertools import accumulate, islice, pairwise

import pytest

from hpascal import linrec, locator, pattern, sequences, triangle, verify
from hpascal.cli import main
from hpascal.quadfield import NotIntegralError, NotRationalError

from conftest import edit_half

ROW_SUITES = ["three-way", "alternating", "parity", "pattern", "locator", "embeddings"]


@pytest.fixture
def two_cpus(monkeypatch):
    """verify.stream forks its worker whatever the host's CPU count."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def test_row_suites_build_each_row_once(two_cpus, built_rows, locator_rows, expected_details):
    results = verify.run(ROW_SUITES)
    assert [(r.name, r.passed, r.detail) for r in results] == [
        (name, True, expected_details[name]) for name in ROW_SUITES
    ]
    assert len(built_rows) == len(set(built_rows))
    tops = {q: triangle.largest_row_within(q, triangle.DEFAULT_CELL_BUDGET)
            for q in verify.AGREEMENT_QS}
    assert sorted(built_rows) == [(q, n) for q in tops for n in range(1, tops[q] + 1)]
    qs_by_pid: dict[int, set[int]] = {}
    for pid, q, _ in built_rows.log():
        qs_by_pid.setdefault(pid, set()).add(q)
    # q = 5 in the caller, every other q in one forked worker
    assert qs_by_pid.pop(os.getpid()) == {5}
    assert list(qs_by_pid.values()) == [{6, 7, 10}]
    assert locator_rows == [triangle.initial_row()]  # the locator's kept rows are untouched


def test_one_cpu_streams_every_q_in_the_caller(monkeypatch, built_rows, expected_details):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    results = verify.run(ROW_SUITES)
    assert [(r.name, r.passed, r.detail) for r in results] == [
        (name, True, expected_details[name]) for name in ROW_SUITES
    ]
    assert {pid for pid, _, _ in built_rows.log()} == {os.getpid()}


def test_three_way_fails_when_a_generated_row_goes_missing(two_cpus, monkeypatch):
    streamed = verify.stream

    def losing_a_row(readers, while_waiting):
        streamed(readers, lambda qs: None)  # so three-way runs only after the loss
        for r in readers:
            r.kept.pop((7, 5), None)

    monkeypatch.setattr(verify, "stream", losing_a_row)
    monkeypatch.setattr(verify, "DEFAULT_CELL_BUDGET", 10**4)  # small rows suffice
    (result,) = verify.run(["three-way"])
    assert (result.passed, result.detail) == (False, "generated row missing at q=7 n=5")


def test_three_way_fails_when_a_worker_row_has_a_wrong_cell(two_cpus, monkeypatch, built_rows):
    # a row stores only its left half, so one wrong cell there is a wrong
    # pair of cells, and row_sums must see it
    original = triangle.next_row

    def one_wrong_cell(row, q):
        child = original(row, q)
        if (q, child.n) == (7, 5):
            child.half[3] += 1
        return child

    monkeypatch.setattr(triangle, "next_row", one_wrong_cell)
    monkeypatch.setattr(verify, "DEFAULT_CELL_BUDGET", 10**4)  # small rows suffice
    (result,) = verify.run(["three-way"])
    assert (result.passed, result.detail) == (False, "generated sums mismatch at q=7 n=5")
    (builder,) = [pid for pid, q, n in built_rows.log() if (q, n) == (7, 5)]
    assert builder != os.getpid()  # the broken row came from the worker


def test_a_reader_raising_in_the_worker_fails_only_three_way(two_cpus, monkeypatch):
    q7_row5 = len(triangle.nth_row(7, 5))  # no other q's row 5 has this length
    original = triangle.row_sums

    def raising(row):
        if (row.n, len(row)) == (5, q7_row5):
            raise ArithmeticError("row sums overflow at q=7 row 5")
        return original(row)

    monkeypatch.setattr(verify, "row_sums", raising)
    monkeypatch.setattr(verify, "DEFAULT_CELL_BUDGET", 10**4)
    forked = verify.run(ROW_SUITES)
    assert [r.name for r in forked if not r.passed] == ["three-way"]
    assert forked[0].detail == "ArithmeticError: row sums overflow at q=7 row 5"
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert verify.run(ROW_SUITES) == forked


def test_a_worker_that_dies_never_yields_a_pass(two_cpus, monkeypatch, capsys, expected_details):
    # only the worker sends, once: it dies before sending
    monkeypatch.setattr(multiprocessing.connection.Connection, "send",
                        lambda self, obj: os._exit(3))
    died = "the row worker, which took q in [6, 7, 10], exited with code 3"
    assert main(["verify"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"FAIL {name}: {died}" if name == "three-way" else f"PASS {name}: {detail}"
        for name, detail in expected_details.items()
    ]
    assert multiprocessing.active_children() == []


def test_a_q5_failure_stands_over_a_dead_worker(two_cpus, monkeypatch):
    original = triangle.row_sums

    def raising(row):
        if (row.n, len(row)) == (3, 5):  # row 3 of q has q cells
            raise ArithmeticError("row sums overflow at q=5")
        return original(row)

    monkeypatch.setattr(verify, "row_sums", raising)
    monkeypatch.setattr(verify, "DEFAULT_CELL_BUDGET", 10**4)
    monkeypatch.setattr(multiprocessing.connection.Connection, "send",
                        lambda self, obj: os._exit(3))
    forked = verify.run(ROW_SUITES)
    assert forked[0].detail == "ArithmeticError: row sums overflow at q=5"
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert verify.run(ROW_SUITES) == forked


def test_failures_in_both_processes_give_the_serial_result(two_cpus, monkeypatch):
    # no other q's row 5 has q = 7's length, and row 3 of q has q cells
    lengths = {(5, len(triangle.nth_row(7, 5))): 7, (3, 10): 10}
    original = triangle.row_sums

    def raising(row):
        if (row.n, len(row)) in lengths:
            raise ArithmeticError(f"row sums overflow at q={lengths[row.n, len(row)]}")
        return original(row)

    monkeypatch.setattr(verify, "row_sums", raising)
    monkeypatch.setattr(verify, "DEFAULT_CELL_BUDGET", 10**4)
    forked = verify.run(ROW_SUITES)
    assert forked[0].detail == "ArithmeticError: row sums overflow at q=7"
    # a failure in the caller's q = 5 stream as well: it stands over the worker's
    lengths[3, 5] = 5
    forked_too = verify.run(ROW_SUITES)
    assert forked_too[0].detail == "ArithmeticError: row sums overflow at q=5"
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert verify.run(ROW_SUITES) == forked_too
    del lengths[3, 5]
    assert verify.run(ROW_SUITES) == forked


def test_a_row_free_suite_that_fails_hard_during_the_wait_stops_the_worker(
    two_cpus, monkeypatch
):
    def out_of_memory():
        raise MemoryError

    monkeypatch.setitem(verify.SUITES, "elimination", out_of_memory)
    monkeypatch.setattr(verify, "DEFAULT_CELL_BUDGET", 10**4)
    with pytest.raises(MemoryError):
        verify.run(["three-way", "elimination"])
    assert multiprocessing.active_children() == []


def test_a_reader_out_of_memory_stops_the_run_and_the_worker(two_cpus, monkeypatch):
    original = triangle.row_sums

    def out_of_memory(row):
        if row.n == 3:
            raise MemoryError
        return original(row)

    monkeypatch.setattr(verify, "row_sums", out_of_memory)
    monkeypatch.setattr(verify, "DEFAULT_CELL_BUDGET", 10**4)
    with pytest.raises(MemoryError):
        verify.run(["three-way"])
    assert multiprocessing.active_children() == []


def test_results_come_in_the_order_named(two_cpus, expected_details):
    names = ["exactness", "three-way", "elimination", "exactness"]
    assert [(r.name, r.passed, r.detail) for r in verify.run(names)] == [
        (name, True, expected_details[name]) for name in names
    ]


def test_each_closed_form_is_evaluated_once_per_run(monkeypatch):
    monkeypatch.setattr(verify, "DEFAULT_CELL_BUDGET", 10**4)  # small rows suffice
    calls = []
    for name in ("counts_closed", "sums_closed"):
        original = getattr(sequences, name)
        monkeypatch.setattr(sequences, name, lambda q, n, f=original: calls.append(1) or f(q, n))
    for _ in range(2):  # nothing is kept from one run to the next
        calls.clear()
        assert all(r.passed for r in verify.run(["three-way", "exactness", "three-way"]))
        assert len(calls) == 2 * len(verify.AGREEMENT_QS) * verify.AGREEMENT_N_MAX


def test_verify_prints_alike_on_one_cpu_and_two(monkeypatch, capsys):
    outputs = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert main(["verify"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_a_failing_caller_stops_the_worker(two_cpus, monkeypatch):
    original = triangle.next_row

    def failing(row, q):
        if (q, row.n) == (5, 3):
            raise MemoryError
        return original(row, q)

    monkeypatch.setattr(triangle, "next_row", failing)
    with pytest.raises(MemoryError):
        verify.run(["three-way"])
    assert multiprocessing.active_children() == []


def test_public_exceptions_pickle_with_their_fields():
    # verify's worker pipe carries SuiteFailures alone; BudgetExceeded.__reduce__
    # and LocationFailure.__reduce__ stay for callers' own processes
    examples = [
        locator.LocationFailure(2, 3, 4),
        NotIntegralError("5/2 is not an integer"),
        NotRationalError("1 + sqrt(5) is not rational"),
        ArithmeticError("row sums overflow"),
        triangle.BudgetExceeded(5, 10),
        triangle.BudgetExceeded(5),
        verify.SuiteFailure("generated sums mismatch at q=5 n=7"),
    ]
    assert set(verify.CHECK_FAILURES) <= {type(exc) for exc in examples}
    for exc in examples:
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert (str(back), back.args, vars(back)) == (str(exc), exc.args, vars(exc))


def test_a_stream_goes_only_as_far_as_its_readers_read(built_rows):
    (result,) = verify.run(["alternating"])
    assert result.passed
    assert built_rows == [(5, n) for n in range(1, 18)]


def test_repeated_suite_names_report_each_time(built_rows):
    first, second = verify.run(["alternating", "alternating"])
    assert first == second and first.passed
    assert len(built_rows) == len(set(built_rows))


def test_unknown_suite_is_rejected_before_any_row_is_built(built_rows):
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        verify.run(["parity", "nope"])
    assert built_rows == []


def test_a_failing_row_is_named(monkeypatch):
    original = triangle.row_sums

    def off_by_one(row):
        a, b, s = original(row)
        return (a, b, s + 1) if row.n == 7 else (a, b, s)

    monkeypatch.setattr(verify, "row_sums", off_by_one)
    monkeypatch.setattr(verify, "DEFAULT_CELL_BUDGET", 10**4)  # small rows suffice
    (result,) = verify.run(["three-way"])
    assert not result.passed
    assert result.detail == "generated sums mismatch at q=5 n=7"


def test_all_suites_report_the_seed_details(expected_details):
    assert [(r.name, r.passed, r.detail) for r in verify.run()] == [
        (name, True, detail) for name, detail in expected_details.items()
    ]


def test_a_parity_failure_names_its_row(monkeypatch):
    original = sequences.parity_s
    monkeypatch.setattr(sequences, "parity_s", lambda n: original(n) ^ (n == 700))
    (result,) = verify.run(["parity"])
    assert (result.passed, result.detail) == (False, "ternary parity mismatch at n=700")


def test_a_euclidean_mismatch_names_its_cell(monkeypatch):
    original = triangle.binomial_row

    def bumped(n):
        values = original(n)
        if n == 7:
            values[3] += 1
        return values

    monkeypatch.setattr(verify, "binomial_row", bumped)
    (result,) = verify.run(["euclidean-oracle"])
    assert (result.passed, result.detail) == (
        False, "row 7 differs from binomial coefficients at k=3"
    )


def test_an_embedding_pair_missing_from_its_row_fails_the_suite(monkeypatch):
    monkeypatch.setattr(locator, "_scan", lambda *args: None)
    (result,) = verify.run(["embeddings"])
    assert not result.passed
    assert result.detail.startswith("location failure: pair (")


def test_eta_families_are_coprime_and_in_rows_up_to_14():
    for f0, f1, eta, m in verify.EMBED_CHAINS[2:]:  # after Fibonacci and Pell
        assert math.gcd(f0, f1) == 1
        for u, v in locator.recurrence_pairs(f0, f1, eta, m):
            assert locator.locate_row(u, v) <= 14


def test_an_alternating_sum_mismatch_names_its_row(monkeypatch):
    original = sequences.alt_sum
    monkeypatch.setattr(sequences, "alt_sum", lambda n: original(n) + (n == 9))
    (result,) = verify.run(["alternating"])
    assert (result.passed, result.detail) == (False, "alternating sum of generated row 9")


def test_a_central_value_failure_names_its_k(monkeypatch):
    original = pattern.central_value_holds
    monkeypatch.setattr(
        pattern, "central_value_holds", lambda k, cell: k != 4 and original(k, cell)
    )
    (result,) = verify.run(["pattern"])
    assert (result.passed, result.detail) == (False, "central value 2^4 fails at k=4")


def test_a_misplaced_spot_pair_names_its_cell(monkeypatch):
    spots = (*verify.LOCATOR_SPOTS[:-1], ((4, 6), 6, 27))  # the pair is at column 28
    monkeypatch.setattr(verify, "LOCATOR_SPOTS", spots)
    (result,) = verify.run(["locator"])
    assert (result.passed, result.detail) == (False, "spot pair (4,6): got row 6 col 28")


def test_a_scanner_that_forgets_the_cell_before_a_slice_fails_locator(monkeypatch):
    # (633, 184) is in row 18 only as its cells 16,067 and 16,068, the last
    # of one slice and the first of the next, so the carried cell finds it
    feed = locator.PairScanner.feed

    def forgetful(scanner, row):
        scanner._before = None
        feed(scanner, row)

    monkeypatch.setattr(locator.PairScanner, "feed", forgetful)
    (result,) = verify.run(["locator"])
    assert (result.passed, result.detail) == (
        False, "location failure: pair (633, 184) not adjacent anywhere in row 18")


def test_the_boundary_spot_pair_straddles_two_slices_of_the_top_q5_row():
    # another CHUNK or block rule moves the slice boundaries: this spot then needs a new pair
    ((pair, n, col),) = [spot for spot in verify.LOCATOR_SPOTS if spot[0] == (633, 184)]
    # row 18 is the last q = 5 row any suite reads, so it comes in slices
    tops = [reader().last.get(5, -1) for reader in verify.ROW_READERS.values()]
    assert n == verify._locator_rows().last[5] == max(tops)
    slices = (row for row in triangle.read_rows(5, n) if row.n == n)
    (straddling,) = [(before.half[-1], row.half[0])
                     for before, row in pairwise(slices) if row.offset == col + 1]
    assert straddling == pair


def test_a_wrong_elimination_names_its_system(monkeypatch):
    influence = linrec.CoupledSystem(-4, -8, -6, 2, 4, 2)
    original = linrec.eliminate
    monkeypatch.setattr(
        linrec, "eliminate", lambda s: (1, 0, 1) if s == influence else original(s)
    )
    (result,) = verify.run(["elimination"])
    assert (result.passed, result.detail) == (False, "alternating-influence system: (1, 0, 1)")


def _inexact_at(closed_form, at, message):
    def inexact(q, n):
        if (q, n) == at:
            raise NotIntegralError(message)
        return closed_form(q, n)

    return inexact


def test_an_inexact_closed_sum_names_its_q_and_n(monkeypatch):
    inexact = _inexact_at(sequences.sums_closed, (7, 30), "7/2 is not an integer")
    monkeypatch.setattr(sequences, "sums_closed", inexact)
    (result,) = verify.run(["exactness"])
    assert (result.passed, result.detail) == (
        False, "closed form q=7 n=30: 7/2 is not an integer"
    )


def test_a_raising_closed_form_fails_its_suites_and_the_rest_still_run(
    monkeypatch, capsys, expected_details
):
    inexact = _inexact_at(sequences.counts_closed, (6, 7), "5/2 is not an integer")
    monkeypatch.setattr(sequences, "counts_closed", inexact)
    failing = {
        "three-way": "NotIntegralError: 5/2 is not an integer",
        "exactness": "closed form q=6 n=7: 5/2 is not an integer",
    }
    # one run through the CLI, which prints each of verify.run()'s results
    assert main(["verify"]) == 1
    assert capsys.readouterr().out == "".join(
        f"FAIL {name}: {failing[name]}\n" if name in failing else f"PASS {name}: {detail}\n"
        for name, detail in expected_details.items()
    )


def test_a_raising_row_reader_fails_only_its_suite(monkeypatch, capsys, built_rows):
    original = sequences.alt_triple_from_row

    def raising(row):
        if row.n == 5:
            raise ArithmeticError("signed sums overflow at row 5")
        return original(row)

    monkeypatch.setattr(sequences, "alt_triple_from_row", raising)
    detail = verify.elimination()
    results = verify.run(["alternating", "elimination"])
    assert [(r.name, r.passed, r.detail) for r in results] == [
        ("alternating", False, "ArithmeticError: signed sums overflow at row 5"),
        ("elimination", True, detail),
    ]
    assert built_rows == [(5, n) for n in range(1, 18)]  # every row still built once
    assert main(["verify", "alternating", "elimination"]) == 1
    assert capsys.readouterr().out == (
        "FAIL alternating: ArithmeticError: signed sums overflow at row 5\n"
        f"PASS elimination: {detail}\n"
    )


@pytest.mark.parametrize("q", [5, 7])  # q = 5 streams in the caller, q = 7 in the worker
def test_a_reader_exception_fails_its_suite_alike_in_either_process(
    two_cpus, monkeypatch, capfd, expected_details, q
):
    length = len(triangle.nth_row(q, 5))  # no other q's row 5 has this length
    original = triangle.row_sums

    def raising(row):
        if (row.n, len(row)) == (5, length):
            raise IndexError(f"row 5 has no cell {length}")
        return original(row)

    monkeypatch.setattr(verify, "row_sums", raising)
    assert main(["verify"]) == 1
    out, err = capfd.readouterr()  # the worker's output too
    assert out == "".join(
        f"FAIL three-way: IndexError: row 5 has no cell {length}\n" if name == "three-way"
        else f"PASS {name}: {detail}\n"
        for name, detail in expected_details.items()
    )
    assert err == ""
    assert multiprocessing.active_children() == []


def one_wrong_cell(monkeypatch, at, wrong=150):
    """Have the shared builder give row at = (q, n) cell wrong of its half one too large."""
    edit_half(monkeypatch, at, wrong, wrong + 1, lambda kinds, cells: [cells[0] + 1])


@pytest.mark.parametrize("at, in_worker", [((7, 7), True), ((5, 11), False)])
def test_three_way_fails_on_one_wrong_cell_of_a_top_row(
    two_cpus, monkeypatch, built_rows, at, in_worker
):
    # rows 7 and 11 are the last that q = 7 and q = 5 read within 10^4 cells;
    # read in parts of 64 cells, cell 150 is in the third part
    monkeypatch.setattr(verify, "DEFAULT_CELL_BUDGET", 10**4)
    monkeypatch.setattr(triangle, "CHUNK", 64)
    one_wrong_cell(monkeypatch, at)
    (result,) = verify.run(["three-way"])
    q, n = at
    assert (result.passed, result.detail) == (False, f"generated sums mismatch at q={q} n={n}")
    (builder,) = [pid for pid, *built in built_rows.log() if tuple(built) == at]
    assert (builder != os.getpid()) == in_worker
    assert n == max(m for q_, m in built_rows if q_ == q)  # the top row of its q


def test_every_suite_reads_the_top_rows_in_small_parts_alike(two_cpus, monkeypatch, expected_details):
    monkeypatch.setattr(triangle, "CHUNK", 1000)
    assert [(r.name, r.passed, r.detail) for r in verify.run()] == [
        (name, True, detail) for name, detail in expected_details.items()
    ]


def test_a_row_with_no_middle_cell_fails_pattern_and_the_run_goes_on(
    two_cpus, monkeypatch, capsys, expected_details
):
    # one kind A made B in q = 5 row 16 gives row 18 an even length, so
    # the pattern reader finds no central cell there
    original = triangle.child_half

    def one_wrong_kind(row, q):
        kinds, cells = original(row, q)
        if (q, row.n + 1) == (5, 16):
            k = kinds.index("A", len(kinds) // 3)
            kinds = kinds[:k] + "B" + kinds[k + 1:]
        return kinds, cells

    monkeypatch.setattr(triangle, "child_half", one_wrong_kind)
    failing = {
        "three-way": "generated counts mismatch at q=5 n=16",
        "alternating": "alternating sum of generated row 17",
        "parity": "generated row length parity at n=17",
        "pattern": "NoCentralCell: row 18 has 5702892 cells",
    }
    assert main(["verify"]) == 1
    assert capsys.readouterr().out == "".join(
        f"FAIL {name}: {failing[name]}\n" if name in failing else f"PASS {name}: {detail}\n"
        for name, detail in expected_details.items()
    )
    assert multiprocessing.active_children() == []


def test_the_top_row_is_checked_against_the_budget_before_it_is_built(built_rows):
    rows = triangle.read_rows(5, 6, cell_budget=56)  # row 6 has 57 cells
    assert [row.n for row in islice(rows, 6)] == [0, 1, 2, 3, 4, 5]
    with pytest.raises(triangle.BudgetExceeded) as caught:
        next(rows)
    assert (caught.value.row, caught.value.size) == (6, 57)
    assert built_rows == [(5, n) for n in range(1, 6)]


@pytest.mark.parametrize("q", [4, 5, 6, 10])
@pytest.mark.parametrize("chunk", [1, 2, 3, 10])
def test_the_top_row_comes_in_parts_that_cover_its_half(monkeypatch, q, chunk):
    # each part is one block child_half builds, the slots of CHUNK // (q-2) parents
    # at most, and cell 0 comes with the first block
    monkeypatch.setattr(triangle, "CHUNK", chunk)
    *kept, = triangle.read_rows(q, 5)
    whole = triangle.nth_row(q, 5)
    parts = [row for row in kept if row.n == 5]
    assert [row.n for row in kept] == [0, 1, 2, 3, 4] + [5] * len(parts)
    assert all(row.kinds == whole.kinds for row in parts)
    widest = (q - 2) * max(chunk // (q - 2), 1)
    assert all(0 < len(row.half) <= widest for row in parts)
    assert len(parts[0].half) > 1
    assert [row.offset for row in parts] == list(
        accumulate((len(row.half) for row in parts[:-1]), initial=0))
    assert [cell for row in parts for cell in row.half] == whole.half
    assert [triangle.completes(row) for row in parts] == [False] * (len(parts) - 1) + [True]


def test_stream_hands_a_reader_only_rows_of_the_q_it_reads():
    # the readers of each q are found once for it, not asked again for each row
    asked = []

    class Last(dict):
        def __contains__(self, q):
            asked.append(q)
            return super().__contains__(q)

        def __getitem__(self, q):
            asked.append(q)
            return super().__getitem__(q)

        def get(self, q, default=None):
            asked.append(q)
            return super().get(q, default)

    class Recording(verify.RowReader):
        def read(self, q, row):
            self.kept.setdefault(q, []).append(row.n)

    readers = [Recording(Last({5: 6}), keep=None), Recording(Last({6: 4, 7: 2}), keep=None)]
    sent = verify._stream(readers, [5, 6, 7])
    assert sent == [({5: list(range(7))}, None), ({6: list(range(5)), 7: [0, 1, 2]}, None)]
    assert len(asked) <= 2 * len(readers) * 3  # a few lookups a reader for each q


# Fault table: each row injects one fault and names the detail the suite
# must fail with; together the rows make every SuiteFailure in verify fire.


def returning(owner, name, at, value):
    """A patch: owner.name returns value when called with the arguments at."""
    def patch(monkeypatch):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: value if args == at else original(*args))
    return patch


def failing_when(owner, name, fails):
    """A patch: the check owner.name fails when fails(*args) holds."""
    def patch(monkeypatch):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: not fails(*args) and original(*args))
    return patch


def setting(owner, name, value):
    return lambda monkeypatch: monkeypatch.setattr(owner, name, value)


def located_with(index, **fields):
    """A patch: the index-th pair a PairRows places comes back with these fields."""
    def patch(monkeypatch):
        located = verify.PairRows.located

        def changed(seen):
            outcomes = located(seen)
            outcomes[index] = dataclasses.replace(outcomes[index], **fields)
            return outcomes

        monkeypatch.setattr(verify.PairRows, "located", changed)
    return patch


def kind_b_in_row_5(monkeypatch):
    rows = triangle.generate_rows

    def with_b(q, n_max):
        for row in rows(q, n_max):
            if row.n == 5:
                row = dataclasses.replace(row, kinds=row.kinds.replace("A", "B", 1))
            yield row

    monkeypatch.setattr(verify, "generate_rows", with_b)


def swapped_cells(monkeypatch):
    """q = 6 row 14 with two unequal cells of one kind, two columns apart, swapped:
    row and alternating sums, kind counts and length all stay as they were."""
    def swapping(kinds, head):
        k = next(k for k in range(1, 38) if kinds[k] == kinds[k + 2] and head[k] != head[k + 2])
        head[k], head[k + 2] = head[k + 2], head[k]
        return head

    edit_half(monkeypatch, (6, 14), 0, 40, swapping)
    # row 14 is the top q = 6 row in the default budget, which three-way reads to
    monkeypatch.setattr(verify, "DEFAULT_CELL_BUDGET", triangle.DEFAULT_CELL_BUDGET)


def swapped_kinds(monkeypatch):
    """q = 7 row 6 with its first adjacent A and B swapped in kinds, and their
    mirrors: the values, the kind counts and the palindrome stay as they were."""
    original = triangle.child_half

    def swapping(row, q):
        kinds, cells = original(row, q)
        if (q, row.n + 1) == (7, 6):
            k = kinds.index("AB")
            end = len(kinds) - 2 - k
            kinds = kinds[:k] + "BA" + kinds[k + 2 : end] + "AB" + kinds[end + 2 :]
        return kinds, cells

    monkeypatch.setattr(triangle, "child_half", swapping)


ALT_TABLE = verify.ALT_TABLE
Q5_ROW9_MIDDLE = len(triangle.row_kinds(5, 9)) // 2
Q5_ROW5 = len(triangle.row_kinds(5, 5))  # pattern bit strings are as long as their rows
FAULTS = [
    pytest.param("euclidean-oracle", kind_b_in_row_5,
                 "row 5 contains a kind-B cell", id="euclid-kind-b"),
    pytest.param("three-way", returning(sequences, "counts_ternary", (6, 9), None),
                 "count ternary/coupled mismatch at q=6 n=9", id="count-ternary"),
    pytest.param("three-way", returning(sequences, "counts_closed", (6, 9), None),
                 "count closed/coupled mismatch at q=6 n=9", id="count-closed"),
    pytest.param("three-way", returning(sequences, "sums_ternary", (7, 12), None),
                 "sum ternary/coupled mismatch at q=7 n=12", id="sum-ternary"),
    pytest.param("three-way", returning(sequences, "sums_closed", (7, 12), None),
                 "sum closed/coupled mismatch at q=7 n=12", id="sum-closed"),
    pytest.param("alternating",
                 setting(verify, "ALT_TABLE", (*ALT_TABLE[:4], (1, -1, 0), *ALT_TABLE[5:])),
                 "signed subsums at n=4: AltTriple(a_part=0, b_part=0, total=0)", id="alt-table"),
    pytest.param("alternating", returning(sequences, "alt_step", (0, 0), (0, 0)),
                 "stepped subsums disagree with alt_sum at n=3", id="alt-stepping"),
    pytest.param("alternating", returning(sequences, "alt_sum", (9997,), 1),
                 "even-length row n=9997 must have alternating sum 0", id="alt-even-length"),
    pytest.param("pattern", returning(pattern, "pattern_bits", ("WABAW",), "10100"),
                 "pattern of row 3 must encode to 21", id="pattern-code-3"),
    pytest.param("pattern", failing_when(pattern, "recurrence_holds", lambda n, codes: n == 7),
                 "pattern-difference recurrence fails at n=7", id="pattern-recurrence"),
    pytest.param("pattern", failing_when(pattern, "prefix_holds",
                                         lambda bits, following: len(bits) == Q5_ROW5),
                 "prefix repetition fails at n=5", id="pattern-prefix"),
    pytest.param("pattern", failing_when(pattern, "central_copy_holds",
                                         lambda inner, outer: len(inner) == Q5_ROW5),
                 "central copy fails at n=5", id="pattern-central-copy"),
    pytest.param("locator", setting(locator, "largest_row_within", lambda q, budget: 8),
                 "only 120/277 coprime pairs verified", id="locator-coverage"),
    # EMBED_CHAINS places 14 Fibonacci pairs, 5 Pell pairs, then 4 of (2, 5, eta=2)
    pytest.param("embeddings", located_with(3, row=99),
                 f"Fibonacci rows: {[2, 3, 4, 99, *range(6, 16)]}", id="fibonacci-rows"),
    pytest.param("embeddings", located_with(0, verified=locator.UNVERIFIED),
                 "Fibonacci pair (1,2) unverified", id="fibonacci-unverified"),
    pytest.param("embeddings", located_with(2, value_kinds=("A", "B")),
                 "Fibonacci cell 5 in row 4 not kind A", id="fibonacci-kind"),
    pytest.param("embeddings", located_with(14, row=99),
                 "Pell rows: [99, 4, 6, 8, 10]", id="pell-rows"),
    pytest.param("embeddings", located_with(15, verified=locator.UNVERIFIED),
                 "Pell pair unverified", id="pell-unverified"),
    pytest.param("embeddings", located_with(21, row=99),
                 "spacing [4, 6, 99, 10] != 2 for (2,5,eta=2)", id="eta-spacing"),
    pytest.param("embeddings", located_with(19, verified=locator.UNVERIFIED),
                 "unverified pair in family (2,5,eta=2)", id="eta-unverified"),
    pytest.param("elimination", returning(linrec, "eliminate",
                                          (linrec.CoupledSystem(1, 1, 1, 3, 4, 0),), (0, 0, 0)),
                 "count system at q=7: (0, 0, 0)", id="elim-count-system"),
    pytest.param("elimination", returning(linrec, "eliminate",
                                          (linrec.CoupledSystem(2, 2, 2, 3, 4, 0),), (0, 0, 0)),
                 "sum system at q=7: (0, 0, 0)", id="elim-sum-system"),
    pytest.param("elimination", setting(linrec, "check_satisfies", lambda seq, coeffs: False),
                 f"round trip fails for {linrec.CoupledSystem(-4, -1, 4, 2, -1, -3)}",
                 id="elim-round-trip"),
    pytest.param("elimination", setting(linrec, "eliminate_homogeneous", lambda s: (0, 0)),
                 f"homogeneous elimination fails for {linrec.CoupledSystem(-3, 4, 0, -5, 1, 0)}",
                 id="elim-homogeneous"),
    # the middle cell of an odd row, which part_sums weighs once
    pytest.param("three-way", lambda mp: one_wrong_cell(mp, (5, 9), Q5_ROW9_MIDDLE),
                 "generated sums mismatch at q=5 n=9", id="q5-row9-middle-sums"),
    pytest.param("alternating", lambda mp: one_wrong_cell(mp, (5, 9), Q5_ROW9_MIDDLE),
                 "signed subsums at n=9: AltTriple(a_part=2, b_part=-1, total=3)",
                 id="q5-row9-middle-alt"),
    pytest.param("three-way", swapped_kinds, "generated sums mismatch at q=7 n=6",
                 id="q7-row6-ab-swap"),
    # a known gap: no suite reads a q >= 5 cell against an oracle, so None (any detail)
    pytest.param("three-way", swapped_cells, None, id="q6-row14-swap",
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                           reason="no cell oracle for q >= 5")),
]


@pytest.mark.parametrize("suite, patch, detail", FAULTS)
def test_every_injected_fault_fails_its_suite_with_its_detail(
    two_cpus, monkeypatch, suite, patch, detail
):
    monkeypatch.setattr(verify, "DEFAULT_CELL_BUDGET", 10**4)  # small rows suffice
    patch(monkeypatch)
    (result,) = verify.run([suite])
    assert not result.passed
    assert detail in (None, result.detail)
