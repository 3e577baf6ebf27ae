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

The rule has one encoding, _slots: q-2 slot bytes under each parent, its
q-3 copies and then its merge, 0 where it drops fewer copies.  child_kinds
deletes the empty slots, child_half compresses each block of values by
them, and child_edges enumerates them.

Rows are palindromes, by induction: a child reads 1, C0 M01, C1 M12, ...,
M(m-2,m-1), 1, each copy block Ci of identical cells, so reversing a
palindrome's child gives the same child.  A row therefore stores only its
left half, cells 0..ceil(L/2)-1, with the full string of kinds; child_half
builds a child's half from its parent's half as whole lists of cells, one
per block of parents, and every reader reads it.

Rows are immutable once produced; generation is strictly streaming
(row n+1 is built from row n only), and row sizes grow geometrically,
so a cell budget guards every generating entry point.  A stream's last
row is most of its cells and never a parent, so read_rows never stores
it: it comes as Rows that each hold one slice of its half, at an offset,
each slice a block as child_half builds it.  A stored row is the slice
at offset 0 that runs to the middle, so every reader reads both alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from operator import add
from typing import Iterator, NamedTuple

WINGER = "W"
TYPE_A = "A"
TYPE_B = "B"

DEFAULT_CELL_BUDGET = 10**7
CHUNK = 2048  # slots a block holds, or cells a half is written in: too few to be mmap'd

# bytes.translate tables: kind A to 1 and the other kinds to 0; a parent's
# kind to its first slot, a copy only under kind B
_A_TABLE = bytes.maketrans(b"WAB", b"\0\1\0")
_FIRST_SLOT = bytes.maketrans(b"WAB", b"\0\0B")


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
    """Row n: the values of cells offset.. of its left half, and the kinds of all its cells.

    The left half of a row of L = len(kinds) cells is cells 0..ceil(L/2)-1,
    and cell k has the value of cell L-1-k.  A stored row's half is all of
    it, at offset 0; a stream's last row comes as slices of it.
    """

    n: int
    half: list[int]
    kinds: str
    offset: int = 0

    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def values(self) -> list[int]:
        """Every cell's value, a full copy built on each access: small whole rows only."""
        if self.offset or not completes(self):
            raise ValueError(f"row {self.n} at {self.offset} is a slice, not a whole row")
        return self.half + self.half[: len(self) // 2][::-1]

    def cell(self, k: int) -> Cell:
        """Cell k, or IndexError unless it or its mirror L-1-k lies in this slice."""
        j = min(k, len(self) - 1 - k) - self.offset  # negative for k outside the row
        if not 0 <= j < len(self.half):
            where = f" in its slice at {self.offset}" if 0 <= k < len(self) else ""
            raise IndexError(f"row {self.n} has no cell {k}{where}")
        return Cell(self.half[j], self.kinds[k])


def completes(row: Row) -> bool:
    """Whether row's half runs to the row's middle: no slice of it follows."""
    return row.offset + len(row.half) == (len(row) + 1) // 2


def _check_q(q: int) -> None:
    if q < 4:
        raise ValueError(f"q must be at least 4, got {q}")


def initial_row() -> Row:
    """Row 0: the base vertex alone, classified as a winger."""
    return Row(0, [1], WINGER)


def _slots(parents: str, q: int) -> bytearray:
    """q-2 slots under each parent: q-3 copies (kind B), then its merge with the
    next (kind A), or 0 where the parent drops fewer copies: an A parent's
    first slot, and every copy slot of the left winger.  A non-zero slot holds a child."""
    w = q - 2
    slots = bytearray(b"B" * (w - 1) + b"A") * len(parents)
    slots[::w] = parents.encode().translate(_FIRST_SLOT)
    if parents[:1] == WINGER:
        slots[: w - 1] = bytes(w - 1)
    return slots


def child_kinds(kinds: str, q: int) -> str:
    """The kinds of the child of a row with these kinds: the new wingers at the
    ends and between them the children of each parent but the right winger,
    built a block of CHUNK // (q-2) parents at a time."""
    _check_q(q)
    b, m = max(CHUNK // (q - 2), 1), len(kinds) - 1
    blocks = (_slots(kinds[i : min(i + b, m)], q).translate(None, b"\0").decode()
              for i in range(0, m, b))
    return "".join(chain([WINGER], blocks, [WINGER]))


def child_half(row: Row, q: int) -> tuple[str, Iterator[list[int]]]:
    """The kinds of row's child, a palindrome as row is, and an iterator over
    lists that hold the values of the child's left half in order: [1], then
    the children of each block of CHUNK // (q-2) parents, cut at the half's end.

    The child's half reads cells 0..ceil(m/2) of an m-cell parent: the slots
    of its half and cell ceil(m/2) for the last merge.  That cell is half[-1]
    when m is even; when m is odd its merge falls right of the child's
    middle, so half[-1] stands in for it there too.
    """
    # kinds first, then values a block at a time: no slot word or copy of half is whole
    kinds = child_kinds(row.kinds, q)
    return kinds, _blocks(row, q, (len(kinds) + 1) // 2)


def _blocks(row: Row, q: int, h: int) -> Iterator[list[int]]:
    """The first h cells of row's child, a list per block of parents; a block
    wholly past the half's end is empty."""
    half, extra, w = row.half, row.half[-1:], q - 2
    b = max(CHUNK // w, 1)  # parents a block, so a block holds CHUNK slots
    values = [1] * (w * b)  # every slot's value is written anew for each block
    yield [1]
    h -= 1
    for i in range(0, len(half), b):  # the children of parents i..i+b-1, by their own slots
        cells = half[i : i + b]
        del values[w * len(cells) :]  # the last block may hold fewer parents
        for j in range(w - 1):
            values[j::w] = cells
        values[w - 1 :: w] = map(add, cells, half[i + 1 : i + b + 1] + extra)
        block = list(compress(values, _slots(row.kinds[i : i + len(cells)], q)))
        del block[h:]  # the half may end in this block
        yield block
        h -= len(block)


def next_row(row: Row, q: int) -> Row:
    """The child of row, stored as its left half, each block copied into place."""
    kinds, blocks = child_half(row, q)
    # allocated once, at its length, as a copy of the list would be
    half = list(repeat(1, (len(kinds) + 1) // 2))
    k = 0
    for block in blocks:
        half[k : k + len(block)] = block
        k += len(block)
    return Row(row.n + 1, half, kinds)


def count_system(q: int) -> tuple[int, ...]:
    """The growing rule on a row's kind-A and kind-B counts (a, b), as the coupled
    system (a1, b1, c1, a2, b2, c2) with a' = a1 a + b1 b + c1 and
    b' = a2 a + b2 b + c2: one merge per adjacent pair, and q-4 or q-3 copies."""
    return (1, 1, 1, q - 4, q - 3, 0)


def sum_system(q: int) -> tuple[int, ...]:
    """The same on the kind-A and kind-B value sums: every parent's value goes
    into two merges, but each winger's (1) into one."""
    return (2, 2, 2, q - 4, q - 3, 0)


def _coupled_counts(q: int) -> Iterator[tuple[int, int]]:
    """Kind-A and kind-B counts (a, b) of rows 1, 2, ...; row n has a + b + 2 cells."""
    a1, b1, c1, a2, b2, c2 = count_system(q)
    a = b = 0
    while True:
        yield a, b
        a, b = a1 * a + b1 * b + c1, a2 * a + b2 * b + c2


def largest_row_within(q: int, cell_budget: int) -> int:
    """Largest n whose row fits the budget (row sizes increase with n)."""
    _check_q(q)
    if cell_budget < 1:
        raise ValueError("cell budget must be positive")
    for n, (a, b) in enumerate(_coupled_counts(q), 1):
        if a + b + 2 > cell_budget:
            return n - 1


def _stream(q: int, n_max: int, cell_budget: int, row, child, last=None) -> Iterator:
    """Row 0 as given, then row = child(row, q) for rows 1..n_max, each after its
    budget check; with last given, row n_max comes as what last(row, q) yields."""
    _check_q(q)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if cell_budget < 1:
        raise ValueError("cell budget must be positive")
    yield row
    for n, (a, b) in zip(range(1, n_max + 1), _coupled_counts(q)):
        size = a + b + 2
        if size > cell_budget:
            raise BudgetExceeded(n, size)
        if n == n_max and last:
            yield from last(row, q)
            return
        row = child(row, q)
        yield row


def generate_rows(
    q: int, n_max: int, cell_budget: int = DEFAULT_CELL_BUDGET
) -> Iterator[Row]:
    """Stream rows 0..n_max in order.

    Raises BudgetExceeded (carrying the first offending row index) before
    any over-budget row is materialised.
    """
    return _stream(q, n_max, cell_budget, initial_row(), next_row)


def row_kinds(q: int, n: int, cell_budget: int = DEFAULT_CELL_BUDGET) -> str:
    """The kinds of row n alone, each row's from its parent's and no value built;
    checked against the budget as generate_rows is."""
    for kinds in _stream(q, n, cell_budget, WINGER, child_kinds):
        pass
    return kinds


def _parts(parent: Row, q: int) -> Iterator[Row]:
    """parent's child, a slice per block child_half builds but the empty one
    past the half's end, each built as it is read; cell 0 comes with the first."""
    kinds, blocks = child_half(parent, q)
    offset = 0
    for block in filter(None, chain([next(blocks) + next(blocks)], blocks)):
        yield Row(parent.n + 1, block, kinds, offset)
        offset += len(block)


def read_rows(
    q: int, n_max: int, cell_budget: int = DEFAULT_CELL_BUDGET
) -> Iterator[Row]:
    """Rows 0..n_max-1 as generate_rows streams them, then row n_max, never
    stored: a Row slice per block of its half, each built as it is read.
    As in generate_rows, BudgetExceeded comes before an over-budget row is built.
    """
    return _stream(q, n_max, cell_budget, initial_row(), next_row, last=_parts)


def nth_row(q: int, n: int, cell_budget: int = DEFAULT_CELL_BUDGET) -> Row:
    """Row n alone, generated streaming (only two rows held at a time)."""
    for row in generate_rows(q, n, cell_budget):
        pass
    return row


def kind_counts(n: int, kinds: str) -> tuple[int, int, int]:
    """(#kind-A, #kind-B, total) cells of row n >= 1, which has these kinds."""
    if n < 1:
        raise ValueError("row 0 has no winger pair; counts start at row 1")
    return kinds.count(TYPE_A), kinds.count(TYPE_B), len(kinds)


def row_counts(row: Row) -> tuple[int, int, int]:
    """(#kind-A, #kind-B, total) cells of a row with index >= 1."""
    return kind_counts(row.n, row.kinds)


def part_sums(row: Row, even: int = 1, odd: int = 1) -> tuple[int, int, int]:
    """Sums of even * value over the even columns and odd * value over the
    odd ones, over kind A, over kind B and over the whole row.

    Read from the row's slice of its half: cells k and L-1-k share value
    and kind, and a column parity exactly when L is odd.  In an even row
    each mirrored pair weighs even + odd; in an odd row the cells left of
    the middle weigh twice their column's weight and the middle cell once.
    So the sums over a row's slices add up to the row's.  B is the total
    less A and the wingers, the cells of value 1 in columns 0 and L-1
    (row 0's one cell is its only winger), which the slice at offset 0 holds.
    """
    size, offset, half = len(row), row.offset, row.half
    h, odd_row = divmod(size, 2)
    end = offset + len(half)
    mask = row.kinds[offset:end].encode("ascii").translate(_A_TABLE)
    if not odd_row or even == odd:  # every mirrored pair weighs even + odd
        strides = [(even + odd, 0, 1)]
    else:  # column offset + i is even for i of offset's parity
        strides = [(2 * even, offset % 2, 2), (2 * odd, 1 - offset % 2, 2)]
    strides = [stride for stride in strides if stride[0]]  # none folded at weight 0

    def fold(masked: bool) -> int:  # the weighted half, its kind-A cells only if masked
        total = 0
        for weight, start, step in strides:
            cells = half if step == 1 else islice(half, start, None, step)
            total += weight * sum(compress(cells, mask[start::step]) if masked else cells)
        return total

    a, total = fold(True), fold(False)
    if odd_row and end == h + 1:  # the middle cell weighs once
        middle = half[-1] * (odd if h % 2 else even)
        total -= middle
        a -= middle if row.kinds[h] == TYPE_A else 0
    wingers = 0 if offset else even if size == 1 else even + (even if odd_row else odd)
    return a, total - a - wingers, total


def row_sums(row: Row) -> tuple[int, int, int]:
    """(sum over kind-A, sum over kind-B, total sum) of a row with index >= 1."""
    if row.n < 1:
        raise ValueError("row 0 has no winger pair; sums start at row 1")
    return part_sums(row)


def central_cell(row: Row) -> Cell:
    """The middle cell of an odd row, the last of its half: read from its last slice."""
    m = len(row)
    if m % 2 == 0:
        raise NoCentralCell(f"row {row.n} has {m} cells")
    return row.cell(m // 2)


def child_edges(kinds: str, q: int) -> Iterator[tuple[int, int]]:
    """Edges (parent index, child index) from a row with these kinds, children
    numbered left to right as in next_row: parent j // (q-2) owns slot j of
    _slots, and a merge, a parent's last slot, also has an edge from the next.
    """
    _check_q(q)
    w = q - 2
    yield 0, 0
    c = 1
    for j, slot in enumerate(_slots(kinds[:-1], q)):
        if slot:
            yield j // w, c
            if j % w == w - 1:
                yield j // w + 1, c
            c += 1
    yield len(kinds) - 1, c


def binomial_row(n: int) -> list[int]:
    """Pascal's triangle row n; the q = 4 oracle."""
    return [math.comb(n, k) for k in range(n + 1)]
