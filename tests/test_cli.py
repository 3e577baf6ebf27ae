import json
import sys

import pytest

from hpascal import sequences, verify
from hpascal.cli import main
from hpascal.pattern import pattern_bits
from hpascal.quadfield import NotIntegralError, NotRationalError
from hpascal.sequences import DegenerateDiscriminant
from hpascal.triangle import generate_rows, nth_row

from test_export import json_reference  # the reference JSON-lines encoder


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_counts_closed(capsys):
    code, out, _ = run(capsys, "counts", "--q", "5", "--n", "3", "--method", "closed")
    assert code == 0
    assert out == "a=2 b=1 s=5\n"


def test_counts_json(capsys):
    code, out, _ = run(capsys, "counts", "--q", "6", "--n", "4", "--json")
    assert code == 0
    assert json.loads(out) == {"q": 6, "n": 4, "a": "5", "b": "10", "s": "17"}


def test_counts_cross_check(capsys):
    code, out, _ = run(capsys, "counts", "--q", "5", "--n", "6", "--cross-check")
    assert code == 0
    assert "cross-check: OK" in out


def test_counts_closed_rejects_q4(capsys):
    code, _, err = run(capsys, "counts", "--q", "4", "--n", "3", "--method", "closed")
    assert code == 2
    assert "closed form" in err


def test_sums_output(capsys):
    code, out, _ = run(capsys, "sums", "--q", "5", "--n", "4")
    assert code == 0
    assert out == "sumA=18 sumB=10 sum=30\n"


def test_altsum(capsys):
    code, out, _ = run(capsys, "altsum", "--n", "7")
    assert code == 0
    assert out == "0\n"


def test_altsum_json(capsys):
    code, out, _ = run(capsys, "altsum", "--n", "5", "--json")
    assert code == 0
    assert out == '{"n":5,"value":"2"}\n'


def test_altsum_weighted_cross_check(capsys):
    code, out, _ = run(
        capsys, "altsum", "--n", "3", "--weights", "2", "3", "--cross-check"
    )
    assert code == 0
    assert "formula: 26" in out
    assert "cross-check: OK" in out


def test_rows_csv(capsys):
    code, out, _ = run(capsys, "rows", "--q", "5", "--n-max", "3")
    assert code == 0
    assert out == "1\n1,1\n1,2,1\n1,3,2,3,1\n"


def test_rows_json(capsys):
    code, out, _ = run(capsys, "rows", "--q", "5", "--n-max", "2", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[2]["kinds"] == ["W", "A", "W"]


@pytest.mark.parametrize("q, n_max", [(5, 12), (7, 7)])
def test_rows_stdout_matches_reference_encoders(capsys, q, n_max):
    rows = list(generate_rows(q, n_max))
    argv = ("rows", "--q", str(q), "--n-max", str(n_max), "--format")
    code, out, err = run(capsys, *argv, "csv")
    assert (code, err) == (0, "")
    assert out.splitlines(keepends=True) == [
        ",".join(map(str, row.values)) + "\n" for row in rows
    ]
    code, out, err = run(capsys, *argv, "json")
    assert (code, err) == (0, "")
    assert out.splitlines(keepends=True) == json_reference(rows)


def test_rows_dot(capsys):
    code, out, _ = run(capsys, "rows", "--q", "5", "--n-max", "2", "--format", "dot")
    assert code == 0
    assert out.count("label=") == 6
    assert "n1_0 -> n2_1;" in out


@pytest.mark.parametrize("argv, err", [
    (("--q", "3", "--n-max", "2"), "error: q must be at least 4, got 3\n"),
    (("--q", "5", "--n-max", "-1"), "error: n_max must be nonnegative\n"),
], ids=["q", "n-max"])
def test_rows_dot_writes_nothing_before_a_usage_error(capsys, argv, err):
    assert run(capsys, "rows", *argv, "--format", "dot") == (2, "", err)


def test_rows_budget_exceeded(capsys):
    code, _, err = run(capsys, "rows", "--q", "5", "--n-max", "20", "--budget", "100")
    assert code == 3
    assert "row 7" in err


def test_pattern_phi(capsys):
    code, out, _ = run(capsys, "pattern", "--n", "3")
    assert code == 0
    assert out == "21\n10101\n"


def test_a_pattern_code_past_the_digit_limit_prints_in_full(capsys):
    code, out, _ = run(capsys, "pattern", "--n", "12")
    assert code == 0
    assert out.splitlines()[1] == pattern_bits(nth_row(5, 12))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
def test_counts_past_the_digit_limit_print_in_full(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "counts", "--q", "5", "--n", "20000", "--method", "closed")
    assert code == 0
    assert sys.get_int_max_str_digits() == limit  # main restores the limit
    sys.set_int_max_str_digits(0)
    try:
        assert out == "a={} b={} s={}\n".format(*sequences.counts_coupled(5, 20000))
    finally:
        sys.set_int_max_str_digits(limit)


def test_pattern_check_report(capsys):
    code, out, _ = run(capsys, "pattern", "--n", "3", "--check", "prefix")
    assert code == 0
    assert json.loads(out) == {"n": 3, "check": "prefix", "pass": True}


def test_locate(capsys):
    code, out, _ = run(capsys, "locate", "--u", "3", "--v", "5")
    assert code == 0
    loc = json.loads(out)
    assert loc["row"] == 4
    assert loc["col"] == 2
    assert loc["verified"] == "full-row"
    assert sum(step["descend"] for step in loc["trace"]) == 4


def test_locate_symbolic_when_over_budget(capsys):
    code, out, _ = run(
        capsys, "locate", "--u", "1000000", "--v", "1000001", "--budget", "1000"
    )
    assert code == 0
    loc = json.loads(out)
    assert loc["col"] == "symbolic"
    assert loc["verified"] == "unverified"


def test_embed(capsys):
    code, out, _ = run(
        capsys, "embed", "--f0", "1", "--f1", "2", "--eta", "2", "--terms", "3"
    )
    assert code == 0
    rows = [json.loads(line)["row"] for line in out.splitlines()]
    assert rows == [2, 4, 6]


def test_eliminate(capsys):
    code, out, _ = run(
        capsys,
        "eliminate",
        "--a1", "1", "--b1", "1", "--c1", "1",
        "--a2", "1", "--b2", "2", "--c2", "0",
    )
    assert code == 0
    assert out == "ternary: 4 -4 1\n"


def test_eliminate_homogeneous_fractions(capsys):
    code, out, _ = run(
        capsys,
        "eliminate",
        "--a1", "3/2", "--b1", "1", "--c1", "0",
        "--a2", "2", "--b2", "1/2", "--c2", "0",
    )
    assert code == 0
    assert "ternary: 3 -3/4 -5/4\n" in out
    assert "binary: 2 5/4" in out


def test_verify_subset(capsys):
    code, out, _ = run(capsys, "verify", "euclidean-oracle", "elimination")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("PASS") for line in lines)


def test_verify_prints_every_suite_in_order(tmp_path, capsys, expected_details):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert out == "".join(
        f"PASS {name}: {detail}\n" for name, detail in expected_details.items()
    )
    target = tmp_path / "verify.txt"
    assert run(capsys, "verify", "-o", str(target)) == (0, "", "")
    assert target.read_bytes() == out.encode()


_COEFFS = ("--b1", "0", "--c1", "0", "--a2", "0", "--b2", "0", "--c2", "0")


def test_usage_error_exits_2(capsys):
    for argv, err in [
        (["rows", "--q", "not-a-number", "--n-max", "3"],
         "argument --q: invalid int value: 'not-a-number'"),
        (["eliminate", "--a1", "x", *_COEFFS],
         "argument --a1: invalid Fraction value: 'x'"),
        (["eliminate", "--a1", "1/0", *_COEFFS],
         "argument --a1: invalid Fraction value: '1/0'"),
    ]:
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {err}\n")


def test_output_is_deterministic(capsys):
    first = run(capsys, "rows", "--q", "6", "--n-max", "5", "--format", "json")
    second = run(capsys, "rows", "--q", "6", "--n-max", "5", "--format", "json")
    assert first == second


def test_output_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code = main(["rows", "--q", "5", "--n-max", "2", "-o", str(target)])
    assert code == 0
    assert target.read_text() == "1\n1,1\n1,2,1\n"


@pytest.mark.parametrize("argv", [
    *(pytest.param(("rows", "--q", "6", "--n-max", "5", "--format", fmt), id=fmt)
      for fmt in ("csv", "json", "dot")),
    ("counts", "--q", "5", "--n", "6"),
    pytest.param(("sums", "--q", "7", "--n", "5", "--json"), id="sums-json"),
    pytest.param(
        ("altsum", "--n", "8", "--weights", "2", "3", "--cross-check"),
        id="altsum-cross-check",
    ),
    ("pattern", "--n", "6"),
    ("locate", "--u", "3", "--v", "5"),
    ("embed", "--f0", "1", "--f1", "2", "--eta", "2", "--terms", "3"),
    ("eliminate", "--a1", "3/2", "--b1", "1", "--c1", "0",
     "--a2", "2", "--b2", "1/2", "--c2", "0"),
    ("verify", "euclidean-oracle", "elimination"),
], ids=lambda argv: argv[0])
def test_output_file_holds_the_bytes_of_stdout(tmp_path, capsys, argv):
    code, out, _ = run(capsys, *argv)
    target = tmp_path / "command.out"
    assert run(capsys, *argv, "-o", str(target)) == (code, "", "")
    assert target.read_bytes() == out.encode()
    assert run(capsys, *argv, "-o", "-") == (code, out, "")


@pytest.mark.parametrize("where, reason", [
    ("missing/rows.csv", "No such file or directory"),
    (".", "Is a directory"),
], ids=["missing-directory", "directory"])
def test_an_output_path_that_cannot_be_opened_is_a_usage_error(
    tmp_path, capsys, monkeypatch, where, reason
):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "rows", "--q", "5", "--n-max", "2", "-o", where) == (
        2, "", f"error: cannot write {where}: {reason}\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["rows", "--q", "3", "--n-max", "2"],
    ["counts", "--q", "3", "--n", "2"],
    ["locate", "--u", "0", "--v", "2"],
])
def test_usage_error_leaves_the_output_file_as_it_was(tmp_path, capsys, argv):
    target = tmp_path / "out.txt"
    target.write_text("kept\n")
    code, out, err = run(capsys, *argv, "-o", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert target.read_text() == "kept\n"


def test_budget_error_keeps_the_rows_already_written(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, _, err = run(
        capsys, "rows", "--q", "5", "--n-max", "20", "--budget", "100", "-o", str(target)
    )
    assert (code, err) == (3, "error: row 7 exceeds the cell budget (146 cells)\n")
    assert target.read_text() == "".join(
        ",".join(map(str, row.values)) + "\n" for row in generate_rows(5, 6)
    )


def test_success_without_output_still_writes_the_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(verify, "run", lambda suites: [])
    target = tmp_path / "out.txt"
    target.write_text("old\n")
    assert run(capsys, "verify", "-o", str(target)) == (0, "", "")
    assert target.read_bytes() == b""


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


@pytest.mark.parametrize("exc", [
    NotIntegralError("3/2 is not an integer"),
    NotRationalError("1 + 1*sqrt(5) has a nonzero sqrt part"),
])
def test_inexact_closed_form_is_a_failed_check(capsys, monkeypatch, exc):
    monkeypatch.setattr(sequences, "counts_closed", _raise(exc))
    code, out, err = run(capsys, "counts", "--q", "5", "--n", "3", "--method", "closed")
    assert code == 1
    assert out == ""
    assert err == f"error: {exc}\n"


def test_weighted_sum_parity_mismatch_is_a_failed_check(capsys, monkeypatch):
    # row 3 sums to 10, so an alternating sum of 1 leaves an odd split
    monkeypatch.setattr(sequences, "alt_sum", lambda n: 1)
    code, _, err = run(capsys, "altsum", "--n", "3", "--weights", "2", "3")
    assert code == 1
    assert err == "error: row sum and alternating sum disagree mod 2 at n=3\n"


def test_degenerate_discriminant_stays_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(sequences, "sums_closed", _raise(DegenerateDiscriminant("no")))
    code, _, err = run(capsys, "sums", "--q", "5", "--n", "3", "--method", "closed")
    assert code == 2
    assert err == "error: no\n"


@pytest.mark.parametrize("argv, err", [
    (("locate", "--u", "2", "--v", "3"),
     "error: pair (2, 3) not adjacent anywhere in row 3\n"),
    (("embed", "--f0", "1", "--f1", "2", "--eta", "1", "--terms", "3"),
     "error: pair (1, 2) not adjacent anywhere in row 2\n"),
])
def test_pair_missing_from_its_row_is_a_failed_check(capsys, monkeypatch, argv, err):
    monkeypatch.setattr("hpascal.locator._scan", lambda half, size, u, v: None)
    assert run(capsys, *argv) == (1, "", err)


@pytest.mark.parametrize("budget", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ("rows", "--q", "5", "--n-max", "3"),
    ("pattern", "--n", "3"),
    ("locate", "--u", "2", "--v", "3"),
    ("embed", "--f0", "1", "--f1", "2", "--eta", "1", "--terms", "3"),
    *(pytest.param((kind, "--q", "5", "--n", "3", "--method", m), id=f"{kind}-{m}")
      for kind in ("counts", "sums")
      for m in ("coupled", "ternary", "closed", "generate")),
    pytest.param(("counts", "--q", "5", "--n", "3", "--cross-check"), id="counts-cross-check"),
    pytest.param(("sums", "--q", "5", "--n", "3", "--json"), id="sums-json"),
    pytest.param(("altsum", "--n", "3"), id="altsum"),
    pytest.param(("altsum", "--n", "3", "--weights", "2", "3"), id="altsum-weights"),
    pytest.param(("altsum", "--n", "3", "--cross-check"), id="altsum-cross-check"),
], ids=lambda argv: argv[0])
def test_nonpositive_budget_is_a_usage_error(capsys, argv, budget):
    assert run(capsys, *argv, "--budget", budget) == (
        2, "", "error: cell budget must be positive\n"
    )


@pytest.mark.parametrize("kind, wrong, out", [
    ("counts", (22, 33, 58),
     "coupled: a=22 b=33 s=57\n"
     "ternary: a=22 b=33 s=58\n"
     "closed: a=22 b=33 s=57\n"
     "generate: a=22 b=33 s=57\n"
     "cross-check: MISMATCH\n"),
    ("sums", (194, 134, 331),
     "coupled: sumA=194 sumB=134 sum=330\n"
     "ternary: sumA=194 sumB=134 sum=331\n"
     "closed: sumA=194 sumB=134 sum=330\n"
     "generate: sumA=194 sumB=134 sum=330\n"
     "cross-check: MISMATCH\n"),
])
def test_cross_check_mismatch_is_a_failed_check(capsys, monkeypatch, kind, wrong, out):
    monkeypatch.setattr(sequences, f"{kind}_ternary", lambda q, n: wrong)
    assert run(capsys, kind, "--q", "5", "--n", "6", "--cross-check") == (1, out, "")


@pytest.mark.parametrize("argv, out", [
    (("--n", "7"), "formula: 2\nrow: 0\ncross-check: MISMATCH\n"),
    # row 3: sum 10, alternating sum -2 (patched to 0), weighted sum 26
    (("--n", "3", "--weights", "2", "3"), "formula: 25\nrow: 26\ncross-check: MISMATCH\n"),
])
def test_altsum_cross_check_mismatch_is_a_failed_check(capsys, monkeypatch, argv, out):
    original = sequences.alt_sum
    monkeypatch.setattr(sequences, "alt_sum", lambda n: original(n) + 2)
    assert run(capsys, "altsum", *argv, "--cross-check") == (1, out, "")
