"""Print each src/hpascal statement that no Tier-1 test executes.

Run from a checkout: python tests/linecov.py [pytest arguments].  It runs
pytest in this process under sys.settrace and threading.settrace, so a
line that only a forked worker runs is not seen and is listed.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hpascal"
FILES = {str(path): path for path in sorted(SRC.glob("*.py"))}
hit: set[tuple[str, int]] = set()


def lines(frame, event, arg):
    hit.add((frame.f_code.co_filename, frame.f_lineno))
    return lines


def calls(frame, event, arg):  # trace the lines of src/hpascal frames only
    return lines(frame, event, arg) if frame.f_code.co_filename in FILES else None


def statements(tree):  # (first line, keyword line) of each statement but docstrings and try
    for node in ast.walk(tree):
        docstring = isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        if isinstance(node, ast.stmt) and not isinstance(node, ast.Try) and not docstring:
            decorators = [d.lineno for d in getattr(node, "decorator_list", [])]
            yield min([node.lineno, *decorators]), node.lineno


def main() -> int:
    sys.settrace(calls)
    threading.settrace(calls)
    code = pytest.main(["-q", "--continue-on-collection-errors", *sys.argv[1:]])
    sys.settrace(None)
    threading.settrace(None)
    missed = 0
    for name, path in FILES.items():
        source = path.read_text(encoding="utf-8").splitlines()
        for first, last in sorted(statements(ast.parse("\n".join(source)))):
            if not any((name, k) in hit for k in range(first, last + 1)):
                missed += 1
                print(f"{path.relative_to(SRC.parents[1])}:{first}: {source[first - 1].strip()}")
    print(f"{missed} statements not executed in this process (pytest exit {code});"
          " lines that only a forked worker runs are not seen and are listed too")
    return code


if __name__ == "__main__":
    sys.exit(main())
