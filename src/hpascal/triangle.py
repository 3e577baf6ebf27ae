"""Row-by-row construction of the hyperbolic Pascal triangle for {4,q}.

Vertices of the square mosaic {4,q} (q >= 5 hyperbolic, q = 4 the
Euclidean square grid) are arranged into rows by graph distance from a
base vertex, and every vertex is labelled with its number of shortest
paths from the base.  Rows grow left to right by one uniform rule:

  * the two outermost cells ("wingers", kind W) each produce a new
    winger with value 1;
  * every adjacent pair of parent cells merges one pair of edges into a
    single kind-A child whose value is the sum of the two parents;
  * each inner kind-A parent additionally drops q-4 kind-B children,
    each inner kind-B parent drops q-3, all copying the parent's value.

For q = 4 no kind-B cells ever appear and the construction reproduces
Pascal's triangle exactly.

Rows are immutable once produced; generation is strictly streaming
(row n+1 is built from row n only), and row sizes grow geometrically,
so a cell budget guards every generating entry point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, compress, islice
from operator import add
from typing import Iterator, NamedTuple

WINGER = "W"
TYPE_A = "A"
TYPE_B = "B"

DEFAULT_CELL_BUDGET = 10**7

# per kind, a bytes.translate table sending that kind to 1 and the others to 0
_KIND_TABLES = {
    TYPE_A: bytes.maketrans(b"WAB", b"\0\1\0"),
    TYPE_B: bytes.maketrans(b"WAB", b"\0\0\1"),
}


class BudgetExceeded(Exception):
    """A requested row does not fit in the cell budget."""

    def __init__(self, row: int, size: int | None = None) -> None:
        self.row = row
        self.size = size
        detail = f" ({size} cells)" if size is not None else ""
        super().__init__(f"row {row} exceeds the cell budget{detail}")

    def __reduce__(self):  # rebuilt from the fields, not from the message
        return type(self), (self.row, self.size)


class NoCentralCell(ValueError):
    """Row has an even number of cells, so there is no middle one."""


class Cell(NamedTuple):
    value: int
    kind: str


@dataclass(slots=True)
class Row:
    """One row: index n, cell values and a parallel string of kinds."""

    n: int
    values: list[int]
    kinds: str

    def __len__(self) -> int:
        return len(self.values)

    def cell(self, k: int) -> Cell:
        if not 0 <= k < len(self.values):
            raise IndexError(f"row {self.n} has no cell {k}")
        return Cell(self.values[k], self.kinds[k])


def _check_q(q: int) -> None:
    if q < 4:
        raise ValueError(f"q must be at least 4, got {q}")


def initial_row() -> Row:
    """Row 0: the base vertex alone, classified as a winger."""
    return Row(0, [1], WINGER)


class _Sized:
    """An iterator with a known length, so list() allocates it once, exactly."""

    def __init__(self, it: Iterator, n: int) -> None:
        self.it, self.n = it, n

    def __iter__(self) -> Iterator:
        return self.it

    def __len__(self) -> int:
        return self.n


def next_row(row: Row, q: int) -> Row:
    _check_q(q)
    # one slot word: the new wingers at the ends and, for each parent but the
    # right winger, q-3 copy slots then its merge with the next; a parent
    # with fewer kind-B copies leaves its first slots empty
    fill = {WINGER: 0, TYPE_A: q - 4, TYPE_B: q - 3}
    word = f"{WINGER}{row.kinds[:-1].lower()}{WINGER}".encode()
    for kind, k in fill.items():
        pattern = b"\0" * (q - 3 - k) + (TYPE_B * k + TYPE_A).encode()
        word = word.replace(kind.lower().encode(), pattern)
    # kinds first and no slice of row.values: kinds built after the values,
    # or a copy of the values, raise the peak over the locator's kept rows
    kinds = word.replace(b"\0", b"").decode()
    vals = row.values
    copies = [iter(vals) for _ in range(q - 3)]
    merges = map(add, vals, islice(vals, 1, None))
    slots = chain((1,), chain.from_iterable(zip(*copies, merges)), (1,))
    return Row(row.n + 1, list(_Sized(compress(slots, word), len(kinds))), kinds)


def _coupled_counts(q: int) -> Iterator[tuple[int, int]]:
    """Kind-A and kind-B counts (a, b) of rows 1, 2, ...; row n has a + b + 2 cells."""
    a = b = 0
    while True:
        yield a, b
        a, b = a + b + 1, (q - 4) * a + (q - 3) * b


def largest_row_within(q: int, cell_budget: int) -> int:
    """Largest n whose row fits the budget (row sizes increase with n)."""
    _check_q(q)
    if cell_budget < 1:
        raise ValueError("cell budget must be positive")
    for n, (a, b) in enumerate(_coupled_counts(q), 1):
        if a + b + 2 > cell_budget:
            return n - 1


def generate_rows(
    q: int, n_max: int, cell_budget: int = DEFAULT_CELL_BUDGET
) -> Iterator[Row]:
    """Stream rows 0..n_max in order.

    Raises BudgetExceeded (carrying the first offending row index) before
    any over-budget row is materialised.
    """
    _check_q(q)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if cell_budget < 1:
        raise ValueError("cell budget must be positive")
    row = initial_row()
    yield row
    for n, (a, b) in zip(range(1, n_max + 1), _coupled_counts(q)):
        size = a + b + 2
        if size > cell_budget:
            raise BudgetExceeded(n, size)
        row = next_row(row, q)
        yield row


def nth_row(q: int, n: int, cell_budget: int = DEFAULT_CELL_BUDGET) -> Row:
    """Row n alone, generated streaming (only two rows held at a time)."""
    for row in generate_rows(q, n, cell_budget):
        pass
    return row


def kind_mask(row: Row, kind: str) -> bytes:
    """1 at each cell of the given kind, 0 elsewhere: a selector for compress."""
    return row.kinds.encode("ascii").translate(_KIND_TABLES[kind])


def row_counts(row: Row) -> tuple[int, int, int]:
    """(#kind-A, #kind-B, total) cells of a row with index >= 1."""
    if row.n < 1:
        raise ValueError("row 0 has no winger pair; counts start at row 1")
    a = row.kinds.count(TYPE_A)
    b = row.kinds.count(TYPE_B)
    return a, b, len(row.values)


def row_sums(row: Row) -> tuple[int, int, int]:
    """(sum over kind-A, sum over kind-B, total sum) of a row's values."""
    if row.n < 1:
        raise ValueError("row 0 has no winger pair; sums start at row 1")
    total = sum(row.values)
    a = sum(compress(row.values, kind_mask(row, TYPE_A)))
    return a, total - a - 2, total


def central_cell(row: Row) -> Cell:
    m = len(row.values)
    if m % 2 == 0:
        raise NoCentralCell(f"row {row.n} has {m} cells")
    return row.cell(m // 2)


def child_edges(kinds: str, q: int) -> Iterator[tuple[int, int]]:
    """Edges (parent index, child index) from a row with these kinds.

    Children are numbered in the left-to-right order used by next_row;
    merged kind-A children receive one edge from each of their two
    parents.
    """
    _check_q(q)
    m = len(kinds)
    fill = {WINGER: 0, TYPE_A: q - 4, TYPE_B: q - 3}
    yield 0, 0
    c = 1
    for i in range(m - 1):
        if i > 0:
            for _ in range(fill[kinds[i]]):
                yield i, c
                c += 1
        yield i, c
        yield i + 1, c
        c += 1
    yield m - 1, c


def binomial_row(n: int) -> list[int]:
    """Pascal's triangle row n; the q = 4 oracle."""
    return [math.comb(n, k) for k in range(n + 1)]
