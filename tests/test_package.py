import ast
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
