"""Serialize triangle rows as CSV, JSON lines, or a DOT graph.

Values are always written as exact decimal strings; the JSON format
never carries numbers that might get read back as floats.

Rows are palindromes that store their left half (see triangle), and so is
a separator's join of one, so the CSV and JSON writers convert and join a
row's half, then write it again mirrored: a row costs a list and a string
of half its size.
"""

from __future__ import annotations

from itertools import chain
from typing import IO, Iterable

from .triangle import DEFAULT_CELL_BUDGET, Row, TYPE_A, _Sized, child_edges, generate_rows


def _write_values(half: list[int], size: int, sep: str, fp: IO[str]) -> None:
    """Write sep.join of a size-cell palindrome's decimals: the half's, then mirrored."""
    # kind-B cells copy their parent, so rows have few distinct values to convert
    decimals = {v: str(v) for v in set(half)}
    left = list(_Sized(map(decimals.__getitem__, half), len(half)))
    fp.write(sep.join(left))
    if size % 2:
        left.pop()  # the middle cell is not mirrored
    if left:
        left.reverse()
        fp.write(sep)
        fp.write(sep.join(left))


def write_csv(rows: Iterable[Row], fp: IO[str]) -> None:
    """One triangle row per line, comma-separated decimal values."""
    for row in rows:
        _write_values(row.half, len(row), ",", fp)
        fp.write("\n")


def write_json(rows: Iterable[Row], fp: IO[str]) -> None:
    """One JSON object {n, values, kinds} per line; no digit or kind needs escaping."""
    for row in rows:
        fp.write(f'{{"n":{row.n},"values":["')
        _write_values(row.half, len(row), '","', fp)
        fp.write('"],"kinds":["')
        left = '","'.join(row.kinds[: (len(row.kinds) + 1) // 2])
        fp.write(left)
        fp.write(left[-2::-1] if len(row.kinds) % 2 else '","' + left[::-1])
        fp.write('"]}\n')


def write_dot(
    q: int, n_max: int, fp: IO[str], cell_budget: int = DEFAULT_CELL_BUDGET
) -> None:
    """DOT digraph of rows 0..n_max with parent -> child edges.

    Kind-A cells are drawn as ellipses, kind-B cells and wingers as
    boxes.  Node ids are n<row>_<col>.
    """
    rows = generate_rows(q, n_max, cell_budget)
    first = next(rows)  # rejects bad arguments before anything is written
    fp.write("digraph triangle {\n")
    fp.write("  rankdir=TB;\n")
    prev: Row | None = None
    for row in chain([first], rows):
        for k, (value, kind) in enumerate(zip(row.values, row.kinds)):
            shape = "ellipse" if kind == TYPE_A else "box"
            fp.write(f'  n{row.n}_{k} [label="{value}", shape={shape}];\n')
        if prev is not None:
            for parent, child in child_edges(prev.kinds, q):
                fp.write(f"  n{prev.n}_{parent} -> n{row.n}_{child};\n")
        prev = row
    fp.write("}\n")
