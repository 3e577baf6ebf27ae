import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hpascal


def test_every_export_resolves():
    assert [name for name in hpascal.__all__ if not hasattr(hpascal, name)] == []


def test_the_package_imports_only_the_standard_library_and_itself():
    allowed = sys.stdlib_module_names | {"hpascal"}
    foreign = []
    for path in sorted(Path(hpascal.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [(path.name, name) for name in names
                        if name.partition(".")[0] not in allowed]
    assert foreign == []


def test_every_module_parses_as_the_oldest_declared_python():
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    floor = re.search(r'requires-python = ">=3\.(\d+)"', pyproject.read_text(encoding="utf-8"))
    for path in sorted(Path(hpascal.__file__).parent.glob("*.py")):
        ast.parse(
            path.read_text(encoding="utf-8"),
            filename=path.name,
            feature_version=(3, int(floor[1])),
        )


def test_every_private_module_level_name_is_read_in_the_package():
    # a helper or table outlives its last reader unseen; public names and
    # dunders are exempt, since users read some (nth_row, __version__) only
    defined, read = set(), set()
    for path in sorted(Path(hpascal.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add((path.name, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {(path.name, name.id) for target in targets
                            for name in ast.walk(target) if isinstance(name, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    private = {(module, name) for module, name in defined
               if name.startswith("_") and not name.startswith("__")}
    assert {(module, name) for module, name in private if name not in read} == set()


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    # verify.stream imports it when it forks, so CLI start-up does not pay for it
    src = Path(hpascal.__file__).parents[1]
    done = subprocess.run(
        [sys.executable, "-c", "import sys, hpascal.cli; print(sorted(m for m in sys.modules"
         " if m.partition('.')[0] == 'multiprocessing'))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.stdout == "[]\n"


@pytest.mark.parametrize(
    "args, code, stdout, stderr",
    [(["--q", "5", "--n", "3"], 0, "a=2 b=1 s=5\n", ""),
     (["--q", "3", "--n", "1"], 2, "", "error: q must be at least 4, got 3\n")],
)
def test_python_dash_m_hpascal_runs_the_cli(args, code, stdout, stderr):
    src = Path(hpascal.__file__).parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "hpascal", "counts", *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (done.returncode, done.stdout, done.stderr) == (code, stdout, stderr)


# runs argv[1:] as its only child, then prints its exit code and the peak RSS
# of it and its descendants (kB on Linux), so no other process's peak counts
CHILD_PEAK = """import resource, subprocess, sys
code = subprocess.run(sys.argv[1:], capture_output=True).returncode
print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def one_shot_peak_mb(args):
    """The exit code of `python -m hpascal *args`, run as a child, and its peak RSS in MB."""
    src = Path(hpascal.__file__).parents[1]
    done = subprocess.run(
        [sys.executable, "-c", CHILD_PEAK, sys.executable, "-m", "hpascal", *args],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    code, peak_kb = map(int, done.stdout.split())
    return code, peak_kb / 1024


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB on Linux")
@pytest.mark.parametrize("args", [
    ["verify"],
    ["sums", "--q", "6", "--n", "14", "--method", "generate"],
    ["pattern", "--n", "6", "--check", "central-value"],
], ids=lambda args: args[0])
def test_one_shot_commands_peak_under_52_mb(args):
    # the last row of a stream is read in parts and never stored: storing it,
    # these peaked at 74.9 MB (verify, caller or forked worker), 76.7 MB and 72.9 MB;
    # with a slot word under the whole parent, at 51.4, 54.1 and 47.9 MB
    code, peak_mb = one_shot_peak_mb(args)
    assert code == 0
    assert peak_mb < 52


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB on Linux")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_rows_to_the_largest_default_row_peak_under_75_mb(fmt):
    # the writers convert a line slice by slice as they write it; joining
    # whole halves, these peaked at 96.7 (CSV) and 119.9 MB, and holding a
    # list of the half's decimals and a slot word under the whole parent, at 87.1 MB
    args = ["rows", "--q", "5", "--n-max", "18", "--format", fmt, "-o", os.devnull]
    code, peak_mb = one_shot_peak_mb(args)
    assert code == 0
    assert peak_mb < 75


def attribute_reads(attr):
    """(module file, enclosing def or class path) of each uncalled `.attr` in the package."""
    found = set()

    def visit(node, path, scope, called):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path, f"{scope}.{child.name}".lstrip("."), called)
                continue
            if isinstance(child, ast.Attribute) and child.attr == attr:
                if id(child) not in called:
                    found.add((path.name, scope))
            visit(child, path, scope, called)

    for path in sorted(Path(hpascal.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        visit(tree, path, "", called)
    return found


def test_only_small_rows_are_read_through_row_values():
    # Row.values builds a full copy of the row on each access, so every
    # reader reads row.half or row.cell(k).  An x.values() call is a dict's,
    # not a row's.
    assert attribute_reads("values") <= {("triangle.py", "Row.values")}


def test_only_triangle_the_writers_and_the_scanner_read_row_half():
    # a row's sums are folded from its left half by triangle.part_sums
    # alone; the CSV and JSON writers and the locator's scan read it as is
    allowed = {("export.py", "write_csv"), ("export.py", "write_json"),
               ("locator.py", "PairScanner.feed")}
    assert {read for read in attribute_reads("half") if read[0] != "triangle.py"} <= allowed
