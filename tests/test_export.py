import io
import json
import tracemalloc

import pytest

from hpascal import export, triangle
from hpascal.export import write_csv, write_dot, write_json
from hpascal.triangle import generate_rows, largest_row_within, nth_row


def row_as_json(row):
    """The reference encoding of one row: write_json's line is its compact JSON."""
    return {
        "n": row.n,
        "values": [str(v) for v in row.values],
        "kinds": list(row.kinds),
    }


def csv_reference(rows):
    return [",".join(map(str, row.values)) + "\n" for row in rows]


def json_reference(rows):
    return [json.dumps(row_as_json(row), separators=(",", ":")) + "\n" for row in rows]


def written(writer, rows):
    """The writer's output split after each newline, to compare line by line."""
    buf = io.StringIO()
    writer(rows, buf)
    return buf.getvalue().splitlines(keepends=True)


WRITERS = pytest.mark.parametrize(
    "writer, reference", [(write_csv, csv_reference), (write_json, json_reference)]
)


def test_csv_rows():
    buf = io.StringIO()
    write_csv(generate_rows(5, 3), buf)
    assert buf.getvalue() == "1\n1,1\n1,2,1\n1,3,2,3,1\n"


def test_json_rows_are_decimal_strings():
    buf = io.StringIO()
    write_json(generate_rows(5, 3), buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 4
    row3 = json.loads(lines[3])
    assert row3 == {
        "n": 3,
        "values": ["1", "3", "2", "3", "1"],
        "kinds": ["W", "A", "B", "A", "W"],
    }
    assert all(isinstance(v, str) for v in row3["values"])


def test_row_as_json_row0():
    row = next(iter(generate_rows(5, 0)))
    assert row_as_json(row) == {"n": 0, "values": ["1"], "kinds": ["W"]}


def test_dot_vertex_and_edge_counts():
    buf = io.StringIO()
    write_dot(5, 5, buf)
    text = buf.getvalue()
    lines = text.splitlines()
    node_lines = [ln for ln in lines if "label=" in ln]
    edge_lines = [ln for ln in lines if "->" in ln]
    assert len(node_lines) == 1 + 2 + 3 + 5 + 10 + 23  # row sizes 0..5
    # one edge per downward slot: wingers 2, kind A 3, kind B 4 (q = 5)
    assert len(edge_lines) == 2 + 4 + 7 + 14 + 32
    assert sum("shape=ellipse" in ln for ln in node_lines) == 0 + 0 + 1 + 2 + 4 + 9
    assert sum("shape=box" in ln for ln in node_lines) == 44 - 16
    assert text.startswith("digraph triangle {")
    assert text.endswith("}\n")


def test_dot_is_deterministic():
    first, second = io.StringIO(), io.StringIO()
    write_dot(5, 4, first)
    write_dot(5, 4, second)
    assert first.getvalue() == second.getvalue()


@WRITERS
def test_rows_0_and_1_match_reference_encoders(writer, reference):
    row0, row1 = generate_rows(5, 1)
    for rows in ([row0], [row1], [row0, row1]):
        assert written(writer, rows) == reference(rows)


def small_budget_rows(q):
    """Every row of q within 500 cells; for q = 4, rows 0..499, values up to 149 digits."""
    return list(generate_rows(q, largest_row_within(q, 500), 500))


def test_the_sweep_covers_rows_of_1_and_2_cells_and_every_length_mod_4():
    # the writers mirror a left half of (L + 1) // 2 cells, so L's parity matters,
    # and L mod 4 decides the parity of the half as well
    lengths = {len(row) for q in range(5, 31) for row in small_budget_rows(q)}
    assert {1, 2} <= lengths
    assert {length % 4 for length in lengths} == {0, 1, 2, 3}


@WRITERS
@pytest.mark.parametrize("q", range(4, 31))
def test_every_row_in_a_small_budget_matches_reference_encoders(writer, reference, q):
    rows = small_budget_rows(q)
    assert written(writer, rows) == reference(rows)


@WRITERS
def test_repeated_many_digit_values_match_reference_encoders(writer, reference, rows_q5):
    binomials = nth_row(4, 60)  # every value but the centre twice, up to 18 digits
    assert len(set(binomials.values)) == 31 and max(binomials.values) > 10**17
    row15 = rows_q5[15]  # 317,813 cells, 734 distinct values up to 987
    assert len(set(row15.values)) == 734 and max(row15.values) == 987
    for rows in ([binomials], [row15], [binomials, row15]):
        assert written(writer, rows) == reference(rows)


# [1, 2] new, [1, 2] known, [3, 1] and [2, 5] each half new, [5] one known cell
LATER_SLICES_BRING_NEW_VALUES = [1, 2, 1, 2, 3, 1, 2, 5, 5]


@pytest.mark.parametrize("line, chunk", [
    pytest.param([7], 1, id="one-new-cell"),
    pytest.param(LATER_SLICES_BRING_NEW_VALUES, 2, id="later-slices-bring-new-values"),
    pytest.param(nth_row(4, 300).half, 16, id="q4-big-ints"),  # up to 89 digits
])
def test_each_slice_converts_through_one_table_of_the_line(line, chunk):
    table = {}
    for s in range(0, len(line), chunk):
        cells = line[s : s + chunk]
        assert export._decimals(cells, table) == tuple(map(str, cells))
    assert table == {value: str(value) for value in line}  # each distinct value once


class Discard:
    def write(self, text):
        pass


CHUNK_SWEEP = [1, 2, 3, 5]


def chunk_sweep_rows(q):
    """Rows 0..10 of q, or as many as fit in 10^5 cells: 1- and 2-cell rows, odd and even lengths."""
    return list(generate_rows(q, min(10, largest_row_within(q, 10**5))))


def test_the_chunk_sweep_puts_every_slice_remainder_in_some_row():
    # a half of h cells ends in a slice of h % chunk cells, or of chunk when
    # that is 0; each remainder, 0 included, shows up in some q's rows
    halves = [(len(row) + 1) // 2 for q in (4, 5, 6, 7, 10) for row in chunk_sweep_rows(q)]
    for chunk in CHUNK_SWEEP:
        assert {h % chunk for h in halves} == set(range(chunk))


@WRITERS
@pytest.mark.parametrize("chunk", CHUNK_SWEEP)
@pytest.mark.parametrize("q", [4, 5, 6, 7, 10])
def test_lines_written_in_slices_of_any_chunk_match_reference_encoders(
    monkeypatch, writer, reference, chunk, q
):
    monkeypatch.setattr(triangle, "CHUNK", chunk)
    rows = chunk_sweep_rows(q)
    assert max(len(row) for row in rows) > 2 * chunk  # lines of several slices
    assert written(writer, rows) == reference(rows)


@pytest.mark.parametrize("writer", [write_csv, write_json])
def test_writers_transient_peak_is_under_half_a_byte_a_cell(writer):
    # a list of the left half's decimal strings alone takes 4 bytes a cell
    # (it read 4.1); the writers convert each slice of triangle.CHUNK cells
    # as they write it, through one table of the line's distinct decimals
    row = nth_row(5, 16)  # 832,042 cells
    tracemalloc.start()
    try:
        writer([row], Discard())
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - held) / len(row) < 0.5
