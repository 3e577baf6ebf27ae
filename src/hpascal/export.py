"""Serialize triangle rows as CSV, JSON lines, or a DOT graph.

Values are written as exact decimal strings, so JSON never carries a
float.  Rows, and so a separator's join of one, are palindromes that store
their left half (see triangle): the CSV and JSON writers write a line's
values forward and mirrored, in slices of triangle.CHUNK cells of the half,
each converted by one itemgetter call over a table of the line's decimals.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import IO, Iterable

from . import triangle
from .triangle import DEFAULT_CELL_BUDGET, Row, TYPE_A, child_edges, generate_rows


def _decimals(cells: list[int], table: dict[int, str]) -> tuple[str, ...]:
    """The cells' decimal strings from table, which gains each value it lacks (few differ)."""
    try:
        texts = itemgetter(*cells)(table)
    except KeyError:
        table.update((value, str(value)) for value in set(cells).difference(table))
        texts = itemgetter(*cells)(table)
    return texts if len(cells) > 1 else (texts,)  # one key gets the bare string


def _write_values(half: list[int], size: int, sep: str, fp: IO[str]) -> None:
    """Write sep.join of a size-cell palindrome's values: its left half forward, then mirrored."""
    c, table = triangle.CHUNK, {}
    fp.write(sep.join(_decimals(half[:c], table)))
    for s in range(c, len(half), c):
        fp.write(sep + sep.join(_decimals(half[s : s + c], table)))
    for e in range(size // 2, 0, -c):  # the middle cell of an odd row is not mirrored
        fp.write(sep + sep.join(_decimals(half[max(e - c, 0) : e], table)[::-1]))


def _write_kinds(kinds: str, fp: IO[str]) -> None:
    """Write '","'.join(kinds): each slice's kinds fill every 4th byte of a run of separators."""
    c = triangle.CHUNK
    line = bytearray(b'","W' * c)
    for s in range(0, len(kinds), c):
        part = kinds[s : s + c].encode()
        del line[4 * len(part) :]  # only the last slice is shorter
        line[3::4] = part
        fp.write(line[3 if s == 0 else 0 :].decode())  # no separator before the first kind


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
        _write_kinds(row.kinds, fp)
        fp.write('"]}\n')


def write_dot(
    q: int, n_max: int, fp: IO[str], cell_budget: int = DEFAULT_CELL_BUDGET
) -> None:
    """DOT digraph of rows 0..n_max with parent -> child edges, nodes n<row>_<col>.

    Kind-A cells are drawn as ellipses, kind-B cells and wingers as boxes.
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
