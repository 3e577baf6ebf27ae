"""The A/B pattern of q = 5 rows, encoded as binary integers.

Mapping kind-B cells and wingers to bit 1 and kind-A cells to bit 0
turns each row into an integer whose binary expansion is the row's
pattern (leading bit 1, palindromic, bit length s_n).  Successive
pattern differences satisfy an exact recurrence driven by the powers
2**(s_{n+1} - s_n), and the pattern repeats itself in structured ways:
each row is a prefix of the next (except row 1 of row 2), the centre of
row n+3 is a copy of row n, and row 3k carries the central value 2**k.

Each law is a predicate over pattern codes, bit strings or cells, so a
caller that already streams the rows (as `verify` does) keeps only
those.  The index-based checkers stream the kinds they read (for the
central value, rows, the last in slices) themselves, in one pass from row 0.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from . import sequences
# generate_rows is not called here; it stays a module attribute for tools
# that wrap the row stream of each module by name
from .triangle import (
    DEFAULT_CELL_BUDGET,
    Cell,
    TYPE_B,
    WINGER,
    _stream,
    central_cell,
    child_kinds,
    generate_rows,
    read_rows,
)

_TO_BITS = str.maketrans({"W": "1", "B": "1", "A": "0"})


def pattern_bits(kinds: str) -> str:
    """A row's kinds as a bit string (wingers and kind-B map to 1)."""
    return kinds.translate(_TO_BITS)


def _kinds(wanted: Iterable[int], cell_budget: int) -> Iterator[str]:
    """The kinds of the wanted q = 5 rows in index order, from one stream of kinds alone."""
    wanted = set(wanted)
    stream = _stream(5, max(wanted), cell_budget, WINGER, child_kinds)
    return (kinds for n, kinds in enumerate(stream) if n in wanted)


def pattern_int(n: int, cell_budget: int = DEFAULT_CELL_BUDGET) -> int:
    """The binary pattern of row n as an integer."""
    if n < 0:
        raise ValueError("row index must be nonnegative")
    (kinds,) = _kinds([n], cell_budget)
    return int(pattern_bits(kinds), 2)


def _row_len(n: int) -> int:
    return 1 if n == 0 else sequences.counts_coupled(5, n).s


def growth_power(n: int) -> int:
    """2**(s_{n+1} - s_n): the bit shift between consecutive patterns."""
    if n < 0:
        raise ValueError("row index must be nonnegative")
    return 2 ** (_row_len(n + 1) - _row_len(n))


# ---------------------------------------------------------------------------
# the laws, as predicates over pattern codes, bit strings and cells
# ---------------------------------------------------------------------------


def recurrence_holds(n: int, codes: Sequence[int]) -> bool:
    """The pattern-difference recurrence at n >= 3, from the codes of rows n-2..n+1.

    With D_k = pattern_int(k+1) - pattern_int(k) and S_k = growth_power(k):

        D_n = (S_n/S_{n-1} + S_n + S_{n-1}) * D_{n-1} - S_{n-1}**2 * D_{n-2}

    Checked exactly in integers, times S_{n-1} > 0, which keeps its truth
    value; each S_k = 2**e_k is a shift by e_k = s_{k+1} - s_k.
    """
    c_2, c_1, c_0, c_next = codes
    d_n, d_1, d_2 = c_next - c_0, c_0 - c_1, c_1 - c_2
    e, f = (_row_len(k + 1) - _row_len(k) for k in (n, n - 1))  # of S_n and S_{n-1}
    rhs = (d_1 << e) + (d_1 << (e + f)) + (d_1 << 2 * f) - (d_2 << 3 * f)
    return rhs == d_n << f


def prefix_holds(bits: str, following: str) -> bool:
    """A row's pattern opens the next row's pattern."""
    return following[: len(bits)] == bits


def central_copy_holds(inner: str, outer: str) -> bool:
    """The centre of the outer pattern (row n+3) repeats the inner one (row n)."""
    start = (len(outer) - len(inner)) // 2
    return outer[start : start + len(inner)] == inner


def central_value_holds(k: int, cell: Cell) -> bool:
    """The central cell of row 3k holds 2**k and has kind B."""
    return cell.value == 2**k and cell.kind == TYPE_B


# ---------------------------------------------------------------------------
# the laws at a row index, streaming the rows they read
# ---------------------------------------------------------------------------


def check_pattern_recurrence(n: int, cell_budget: int = DEFAULT_CELL_BUDGET) -> bool:
    """Exact check of the pattern-difference recurrence at index n >= 3."""
    if n < 3:
        raise ValueError("the recurrence is stated for n >= 3")
    codes = [int(pattern_bits(k), 2) for k in _kinds(range(n - 2, n + 2), cell_budget)]
    return recurrence_holds(n, codes)


def check_prefix(n: int, cell_budget: int = DEFAULT_CELL_BUDGET) -> bool:
    """Row n's pattern opens row n+1 (true for every n except n = 1)."""
    if n < 0:
        raise ValueError("row index must be nonnegative")
    if n == 1:
        raise ValueError("n = 1 is the excluded index: row 2 does not start BB")
    return prefix_holds(*map(pattern_bits, _kinds([n, n + 1], cell_budget)))


def check_central_copy(n: int, cell_budget: int = DEFAULT_CELL_BUDGET) -> bool:
    """The centre of row n+3 repeats the whole pattern of row n."""
    if n < 0:
        raise ValueError("row index must be nonnegative")
    return central_copy_holds(*map(pattern_bits, _kinds([n, n + 3], cell_budget)))


def check_central_value(k: int, cell_budget: int = DEFAULT_CELL_BUDGET) -> bool:
    """Row 3k's central cell holds 2**k and has kind B (k >= 1)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    for row in read_rows(5, 3 * k, cell_budget):  # the last slice holds the middle
        pass
    return central_value_holds(k, central_cell(row))
