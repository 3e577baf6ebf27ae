import importlib
import os
from itertools import chain
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
    """(q, n) of each row triangle.child_half builds, in order, here or in a forked process.

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
    """The rows built while the test runs, from an empty locator memo.

    Every row is built by triangle.child_half: a kept row through next_row,
    the last row of a stream part by part through read_rows.
    """
    built = BuiltRows(tmp_path / "built_rows")
    original = triangle.child_half

    def counting(row, q):
        with open(built.path, "a", encoding="utf-8") as fp:
            fp.write(f"{os.getpid()} {q} {row.n + 1}\n")
        return original(row, q)

    monkeypatch.setattr(triangle, "child_half", counting)
    return built


def edit_half(monkeypatch, at, start, stop, edit):
    """Have triangle.child_half build row at = (q, n) with cells start..stop-1 of
    its half replaced by edit(kinds, those cells), a list of the same length.

    The cells may lie across blocks; each block keeps its length, and every
    block is passed on as a list, as child_half's are.
    """
    original = triangle.child_half

    def edited(kinds, blocks):
        held, k = [], 0  # the blocks up to cell stop, and how many cells they hold
        for block in blocks:
            held.append(block)
            k += len(block)
            if k >= stop:
                break
        cells = list(chain.from_iterable(held))
        cells[start:stop] = edit(kinds, cells[start:stop])
        k = 0
        for block in held:
            yield cells[k : k + len(block)]
            k += len(block)
        yield from blocks

    def editing(row, q):
        kinds, blocks = original(row, q)
        if (q, row.n + 1) == at:
            blocks = edited(kinds, blocks)
        return kinds, blocks

    monkeypatch.setattr(triangle, "child_half", editing)


@pytest.fixture
def expected_details(monkeypatch):
    """Suite name -> detail string recorded by the benchmark at the seed commit."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return dict(importlib.import_module("workloads").VERIFY_EXPECTED)
