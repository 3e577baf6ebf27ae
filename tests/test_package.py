import ast
import re
import sys
from pathlib import Path

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
