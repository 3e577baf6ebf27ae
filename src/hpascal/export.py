"""Serialize triangle rows as CSV, JSON lines, or a DOT graph.

Values are always written as exact decimal strings; the JSON format
never carries numbers that might get read back as floats.

Rows are palindromes that store their left half (see triangle), and so is
a separator's join of one: the CSV and JSON writers convert a row's half once,
then write its join forward and mirrored, in slices of triangle.CHUNK cells.
"""

from __future__ import annotations

from itertools import chain
from typing import IO, Iterable, Sequence

from . import triangle
from .triangle import DEFAULT_CELL_BUDGET, Row, TYPE_A, _Sized, child_edges, generate_rows


def _write_joined(cells: Sequence[str], size: int, sep: str, fp: IO[str]) -> None:
    """Write sep.join of a size-cell palindrome; cells begin with its left half."""
    h, c = (size + 1) // 2, triangle.CHUNK
    fp.write(sep.join(cells[: min(c, h)]))
    for s in range(c, h, c):
        fp.write(sep + sep.join(cells[s : min(s + c, h)]))
    for e in range(size // 2, 0, -c):  # the middle cell of an odd row is not mirrored
        fp.write(sep + sep.join(cells[max(e - c, 0) : e][::-1]))


def _decimals(half: list[int]) -> list[str]:
    """The half's decimals in one list; kind-B cells copy, so few values differ."""
    decimals = {v: str(v) for v in set(half)}
    return list(_Sized(map(decimals.__getitem__, half), len(half)))


def write_csv(rows: Iterable[Row], fp: IO[str]) -> None:
    """One triangle row per line, comma-separated decimal values."""
    for row in rows:
        _write_joined(_decimals(row.half), len(row), ",", fp)
        fp.write("\n")


def write_json(rows: Iterable[Row], fp: IO[str]) -> None:
    """One JSON object {n, values, kinds} per line; no digit or kind needs escaping."""
    for row in rows:
        fp.write(f'{{"n":{row.n},"values":["')
        _write_joined(_decimals(row.half), len(row), '","', fp)
        fp.write('"],"kinds":["')
        _write_joined(row.kinds, len(row), '","', fp)
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
    fp.write("digraph triangle {\n  rankdir=TB;\n")
    prev: Row | None = None
    for row in chain([first], rows):
        for k, (value, kind) in enumerate(map(row.cell, range(len(row)))):
            shape = "ellipse" if kind == TYPE_A else "box"
            fp.write(f'  n{row.n}_{k} [label="{value}", shape={shape}];\n')
        if prev is not None:
            for parent, child in child_edges(prev.kinds, q):
                fp.write(f"  n{prev.n}_{parent} -> n{row.n}_{child};\n")
        prev = row
    fp.write("}\n")
