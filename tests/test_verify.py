"""The verify suites share one row stream per q."""

import importlib
from pathlib import Path

import pytest

from hpascal import sequences, triangle, verify

ROW_SUITES = ["three-way", "alternating", "parity", "pattern", "locator"]


@pytest.fixture
def expected_details(monkeypatch):
    """Suite name -> detail string recorded by the benchmark at the seed commit."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return dict(importlib.import_module("workloads").VERIFY_EXPECTED)


def test_row_suites_build_each_row_once(built_rows, expected_details):
    results = verify.run(ROW_SUITES)
    assert [(r.name, r.passed, r.detail) for r in results] == [
        (name, True, expected_details[name]) for name in ROW_SUITES
    ]
    assert len(built_rows) == len(set(built_rows))
    tops = {q: triangle.largest_row_within(q, triangle.DEFAULT_CELL_BUDGET)
            for q in verify.AGREEMENT_QS}
    assert sorted(built_rows) == [(q, n) for q in tops for n in range(1, tops[q] + 1)]


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
