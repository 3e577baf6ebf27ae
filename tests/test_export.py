import io
import json

import pytest

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


@WRITERS
@pytest.mark.parametrize("q", range(4, 13))
def test_every_row_in_a_small_budget_matches_reference_encoders(writer, reference, q):
    rows = list(generate_rows(q, largest_row_within(q, 500), 500))
    assert written(writer, rows) == reference(rows)


@WRITERS
def test_repeated_many_digit_values_match_reference_encoders(writer, reference, rows_q5):
    binomials = nth_row(4, 60)  # every value but the centre twice, up to 18 digits
    assert len(set(binomials.values)) == 31 and max(binomials.values) > 10**17
    row15 = rows_q5[15]  # 317,813 cells, 734 distinct values up to 987
    assert len(set(row15.values)) == 734 and max(row15.values) == 987
    for rows in ([binomials], [row15], [binomials, row15]):
        assert written(writer, rows) == reference(rows)
