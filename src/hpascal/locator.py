"""Place any pair of positive integers side by side in the q = 5 triangle.

Every pair (u, v) occurs as neighbouring cells of some row.  The row is
found constructively from the quotient ledger of the Euclidean
algorithm on (u, v): replaying the divisions in reverse descends the
triangle, each quotient worth that many rows, starting from the pair
(1, t) on the left leg.  With t' the penultimate remainder (t' = u for
a single division) and r the sum of all quotients but the last:

    u = 1        ->  row v
    u = v != 1   ->  row v + 2
    gcd = 1      ->  row t' + r
    gcd = d > 1  ->  row (d + 1) + row(u/d, v/d)

The last branch descends to the scaled copy of the whole triangle that
hangs below the kind-B cell of value d in row d + 1.

A located row is trusted only when the row is generated in full and the
pair is actually found by scanning; the descent trace travels along as
evidence, never as proof.  Binary recurrences f[j] = eta*f[j-1] + f[j-2]
ride the same machinery: their consecutive pairs sit eta rows apart.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from . import triangle

# generate_rows is not called here; it stays a module attribute for tools
# that wrap the row stream of each module by name
from .triangle import (
    DEFAULT_CELL_BUDGET,
    Row,
    completes,
    generate_rows,
    initial_row,
    largest_row_within,
)

FULL_ROW = "full-row"
UNVERIFIED = "unverified"

AS_GIVEN = "as-given"


class LocationFailure(Exception):
    """The predicted row was scanned in full and the pair was not there.

    This signals a bug in the row formula or its interpretation; it is
    surfaced rather than silently corrected.
    """

    def __init__(self, u: int, v: int, row: int) -> None:
        self.u, self.v, self.row = u, v, row
        super().__init__(f"pair ({u}, {v}) not adjacent anywhere in row {row}")

    def __reduce__(self):  # rebuilt from the fields, not from the message
        return type(self), (self.u, self.v, self.row)


class DescentStep(NamedTuple):
    descend: int
    side: str


@dataclass(frozen=True)
class EuclidChain:
    """Quotients and remainders of the Euclidean algorithm on u <= v.

    quotients holds r0..rn of v = r0*u + t1, u = r1*t1 + t2, ...,
    remainders the nonzero t1..tn (so gcd = tn, or u itself when the
    first division is already exact).
    """

    u: int
    v: int
    quotients: tuple[int, ...]
    remainders: tuple[int, ...]
    gcd: int

    @property
    def penultimate(self) -> int:
        """The remainder before the gcd, counting t0 = u."""
        if not self.remainders:
            raise ValueError("degenerate chain: u divides v")
        if len(self.remainders) == 1:
            return self.u
        return self.remainders[-2]


def euclid_chain(u: int, v: int) -> EuclidChain:
    if not 1 <= u <= v:
        raise ValueError(f"need 1 <= u <= v, got ({u}, {v})")
    quotients: list[int] = []
    remainders: list[int] = []
    a, b = v, u
    while True:
        quot, rem = divmod(a, b)
        quotients.append(quot)
        if rem == 0:
            break
        remainders.append(rem)
        a, b = b, rem
    return EuclidChain(u, v, tuple(quotients), tuple(remainders), b)


def locate_row(u: int, v: int) -> int:
    """A row of the q = 5 triangle containing u and v as neighbours."""
    return sum(step.descend for step in descent_trace(u, v))


def descent_trace(u: int, v: int) -> list[DescentStep]:
    """Row-by-row descent evidence; its step counts sum to the pair's row."""
    if not 1 <= u <= v:
        raise ValueError(f"need 1 <= u <= v, got ({u}, {v})")
    if u == 1 or u == v:
        return [DescentStep(v if u == 1 else v + 2, "left")]
    chain = euclid_chain(u, v)
    if chain.gcd == 1:
        steps = [DescentStep(chain.penultimate, "left")]
        side = "right"
        for quot in reversed(chain.quotients[:-1]):
            steps.append(DescentStep(quot, side))
            side = "left" if side == "right" else "right"
        return steps
    d = chain.gcd
    return [
        DescentStep(d, "left"),
        DescentStep(1, "center"),
        *descent_trace(u // d, v // d),
    ]


@dataclass
class PairLocation:
    """Where (u, v) sits, and how strongly that was checked.

    When verified is FULL_ROW, cells (col, col+1) of the row hold (u, v)
    as given, of kinds value_kinds, and orientation is AS_GIVEN: rows are
    palindromes, so a (v, u) always mirrors a (u, v).  Out-of-budget rows
    come back UNVERIFIED with col, orientation and value_kinds None.
    """

    u: int
    v: int
    row: int
    col: int | None
    verified: str
    orientation: str | None
    value_kinds: tuple[str, str] | None
    trace: list[DescentStep]


def _scan(cells: list[int], start: int, size: int, u: int, v: int) -> int | None:
    """Column of the leftmost (u, v) in a size-cell palindrome, as far as
    cells, the cells of its half from column start on, show it.

    A palindrome holds (v, u) at column c exactly when it holds (u, v) at
    size-2-c.  One hop over the occurrences of u in cells with list.index,
    so the per-cell work runs in C, finds the leftmost (u, v) inside the
    half, else the last (v, u) there, whose mirror is the leftmost (u, v)
    right of the middle pair; a run that ends the half shows that pair.
    So over runs that split a half, each after the first from the cell
    before it, the least column is the half's.
    """
    middle = (size + 1) // 2 - 1  # column of the pair that straddles the middle
    # a pair at j < stop lies in the run and left of the middle pair
    stop = min(middle - start, len(cells) - 1)
    last = None
    j = -1
    try:
        while True:
            j = cells.index(u, j + 1)
            if j < stop and cells[j + 1] == v:
                return start + j
            if j and cells[j - 1] == v:
                last = start + j - 1
    except ValueError:
        pass
    # the cell right of the half mirrors its second-last cell in an odd row, else its last
    if size > 1 and start + len(cells) == middle + 1:
        if (cells[-1], cells[-1 - size % 2]) == (u, v):
            return middle
    return None if last is None else size - 2 - last


class PairScanner:
    """Places a batch of pairs as the q = 5 rows stream past.

    Each pair's row comes from its descent trace.  Feed rows in order up
    to last_row, a row that comes in slices slice by slice; each row is
    searched for every pair predicted in it, a slice after the first from
    the cell before it, so a pair across two slices is found as any other.
    outcomes[i] is then the PairLocation of the i-th pair, or the
    LocationFailure of a pair missing from its fully scanned row.  Pairs
    whose row exceeds the budget are UNVERIFIED from the start; a budget
    that is not positive raises ValueError.
    """

    def __init__(
        self, pairs: Iterable[tuple[int, int]], cell_budget: int = DEFAULT_CELL_BUDGET
    ) -> None:
        self.outcomes: list[PairLocation | LocationFailure | None] = []
        self._waiting: dict[int, list[tuple]] = {}  # row -> (index, u, v, trace)
        self._cols: dict[int, int] = {}  # index -> least column in the slices read
        self._before: int | None = None  # the last cell of the slice before
        in_budget = largest_row_within(5, cell_budget)
        for i, (u, v) in enumerate(pairs):
            if u < 1 or v < 1:
                raise ValueError(f"both values must be positive, got ({u}, {v})")
            trace = descent_trace(min(u, v), max(u, v))
            row_index = sum(step.descend for step in trace)
            if row_index > in_budget:
                self.outcomes.append(
                    PairLocation(u, v, row_index, None, UNVERIFIED, None, None, trace)
                )
            else:
                self.outcomes.append(None)
                self._waiting.setdefault(row_index, []).append((i, u, v, trace))
        self.last_row = max(self._waiting, default=-1)

    def feed(self, row: Row) -> None:
        """Scan row, or the next slice of it, for every pair predicted in it."""
        if row.n not in self._waiting:
            return
        size = len(row)
        middle = (size + 1) // 2 - 1
        cells, start = row.half, row.offset
        if start:  # a slice after the first is scanned from the cell before it
            cells, start = [self._before, *cells], start - 1
        for i, u, v, _ in self._waiting[row.n]:
            if self._cols.get(i, size) >= middle:  # a column left of the middle is final
                col = _scan(cells, start, size, u, v)
                if col is not None:
                    self._cols[i] = min(col, self._cols.get(i, col))
        self._before = row.half[-1]
        if not completes(row):
            return
        for i, u, v, trace in self._waiting.pop(row.n, ()):
            col = self._cols.pop(i, None)
            if col is None:
                self.outcomes[i] = LocationFailure(u, v, row.n)
                continue
            kinds = (row.kinds[col], row.kinds[col + 1])
            self.outcomes[i] = PairLocation(
                u, v, row.n, col, FULL_ROW, AS_GIVEN, kinds, trace
            )


# The q = 5 rows built so far by this process, row n at index n.  The list
# only grows, under the lock, and never past the last row a call's budget
# admits, so what it holds changes how fast a call answers, never what.
_rows: list[Row] = [initial_row()]
_rows_lock = threading.Lock()


def _q5_rows(last: int) -> list[Row]:
    """Rows 0..last of the q = 5 triangle, building each at most once per process."""
    with _rows_lock:
        while len(_rows) <= last:
            _rows.append(triangle.next_row(_rows[-1], 5))
        return _rows[: last + 1]


def locate_pairs(
    pairs: Iterable[tuple[int, int]], cell_budget: int = DEFAULT_CELL_BUDGET
) -> list[PairLocation]:
    """Locate many pairs in one pass, building each q = 5 row at most once per process.

    Locations come back in input order; a pair missing from its scanned
    row raises LocationFailure, the first such pair in input order.
    """
    scanner = PairScanner(pairs, cell_budget)
    for row in _q5_rows(scanner.last_row):
        scanner.feed(row)
    for out in scanner.outcomes:
        if isinstance(out, LocationFailure):
            raise out
    return scanner.outcomes


def locate_pair(u: int, v: int, cell_budget: int = DEFAULT_CELL_BUDGET) -> PairLocation:
    """Locate (u, v) as row neighbours, scanning the row when it fits."""
    return locate_pairs([(u, v)], cell_budget)[0]


def recurrence_pairs(f0: int, f1: int, eta: int, m: int) -> list[tuple[int, int]]:
    """The pairs (f0, f1) .. (f[m-1], f[m]) of f[j] = eta*f[j-1] + f[j-2]."""
    if not 0 < f0 < f1:
        raise ValueError(f"need 0 < f0 < f1, got ({f0}, {f1})")
    if math.gcd(f0, f1) != 1:
        raise ValueError(f"f0 and f1 must be coprime, got ({f0}, {f1})")
    if eta < 1:
        raise ValueError("eta must be positive")
    if m < 1:
        raise ValueError("need at least one pair")
    terms = [f0, f1]
    while len(terms) <= m:
        terms.append(eta * terms[-1] + terms[-2])
    return list(zip(terms, terms[1:]))


def embed_recurrence(
    f0: int, f1: int, eta: int, m: int, cell_budget: int = DEFAULT_CELL_BUDGET
) -> list[PairLocation]:
    """Locate the consecutive pairs of f[j] = eta*f[j-1] + f[j-2].

    Returns locations for (f0, f1) .. (f[m-1], f[m]), found in one pass
    down the triangle.  From the second pair on, consecutive located
    rows differ by exactly eta, and each verified f[j+1] cell has kind A.
    """
    return locate_pairs(recurrence_pairs(f0, f1, eta, m), cell_budget)
