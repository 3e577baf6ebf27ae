"""The verify suites share one row stream per q, and each reports a result."""

import math
import multiprocessing
import multiprocessing.connection
import os
import pickle

import pytest

from hpascal import linrec, locator, pattern, sequences, triangle, verify
from hpascal.cli import main
from hpascal.quadfield import NotIntegralError, NotRationalError

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


def test_every_failure_a_reader_keeps_survives_the_pipe_from_the_worker():
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
    monkeypatch.setattr(locator, "_scan", lambda half, size, u, v: None)
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
