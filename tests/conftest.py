import importlib
import os
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


class BuiltRows:
    """(q, n) of each row next_row builds, in order, here or in a forked process.

    Each build appends a line "pid q n" to a file, so a forked worker's
    builds are seen too.  Compares equal to the list of its (q, n).
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self.clear()

    def log(self) -> list[tuple[int, int, int]]:
        """(pid, q, n) of each build."""
        return [tuple(map(int, line.split())) for line in self.path.read_text().splitlines()]

    def clear(self) -> None:
        self.path.write_text("")

    def __iter__(self):
        return iter([(q, n) for _, q, n in self.log()])

    def __len__(self) -> int:
        return len(self.log())

    def __eq__(self, other) -> bool:
        return list(self) == other

    def __repr__(self) -> str:
        return repr(list(self))


@pytest.fixture
def built_rows(monkeypatch, locator_rows, tmp_path):
    """The rows next_row builds while the test runs, from an empty locator memo."""
    built = BuiltRows(tmp_path / "built_rows")
    original = triangle.next_row

    def counting(row, q):
        with open(built.path, "a", encoding="utf-8") as fp:
            fp.write(f"{os.getpid()} {q} {row.n + 1}\n")
        return original(row, q)

    monkeypatch.setattr(triangle, "next_row", counting)
    return built


@pytest.fixture
def expected_details(monkeypatch):
    """Suite name -> detail string recorded by the benchmark at the seed commit."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return dict(importlib.import_module("workloads").VERIFY_EXPECTED)
