"""The verify suites share one row stream per q, and each reports a result."""

import math

import pytest

from hpascal import linrec, locator, pattern, sequences, triangle, verify
from hpascal.cli import main
from hpascal.quadfield import NotIntegralError

ROW_SUITES = ["three-way", "alternating", "parity", "pattern", "locator", "embeddings"]


def test_row_suites_build_each_row_once(built_rows, locator_rows, expected_details):
    results = verify.run(ROW_SUITES)
    assert [(r.name, r.passed, r.detail) for r in results] == [
        (name, True, expected_details[name]) for name in ROW_SUITES
    ]
    assert len(built_rows) == len(set(built_rows))
    tops = {q: triangle.largest_row_within(q, triangle.DEFAULT_CELL_BUDGET)
            for q in verify.AGREEMENT_QS}
    assert sorted(built_rows) == [(q, n) for q in tops for n in range(1, tops[q] + 1)]
    assert locator_rows == [triangle.initial_row()]  # the locator's kept rows are untouched


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
    monkeypatch.setattr(locator, "_scan", lambda values, u, v: None)
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
