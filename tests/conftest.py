import importlib
from pathlib import Path

import pytest

from hpascal import locator, triangle
from hpascal.triangle import generate_rows, initial_row


@pytest.fixture(scope="session")
def rows_q5():
    """Rows 0..15 of the q = 5 triangle, shared across tests."""
    return list(generate_rows(5, 15))


@pytest.fixture
def locator_rows(monkeypatch):
    """An empty locator memo (row 0 only) for the test; the process's own is restored after."""
    rows = [initial_row()]
    monkeypatch.setattr(locator, "_rows", rows)
    return rows


@pytest.fixture
def built_rows(monkeypatch, locator_rows):
    """(q, n) of every row next_row builds while the test runs, from an empty locator memo."""
    built = []
    original = triangle.next_row

    def counting(row, q):
        built.append((q, row.n + 1))
        return original(row, q)

    monkeypatch.setattr(triangle, "next_row", counting)
    return built


@pytest.fixture
def expected_details(monkeypatch):
    """Suite name -> detail string recorded by the benchmark at the seed commit."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return dict(importlib.import_module("workloads").VERIFY_EXPECTED)
