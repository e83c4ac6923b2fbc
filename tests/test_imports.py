"""numpy is the package's only runtime dependency."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dxaudit"
ALLOWED = {"numpy", "dxaudit"}


def imported_modules(path):
    """(line, top-level module) of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_only_numpy_outside_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    third_party = [f"{path.name}:{line}: {module}"
                   for path in sources for line, module in imported_modules(path)
                   if module not in sys.stdlib_module_names and module not in ALLOWED]
    assert third_party == []


def test_nested_imports_count_and_relative_ones_do_not(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("from . import core\nimport os.path\n"
                      "def f():\n    from scipy import sparse\n", encoding="utf-8")
    assert list(imported_modules(source)) == [(2, "os"), (4, "scipy")]
