"""The runtime stays stdlib-only: every module of the package imports the
standard library and the package itself, nothing else (``pyproject.toml``
declares ``dependencies = []``)."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nulldecomp"


def imported_modules(path: Path) -> list[tuple[int, str]]:
    """Every absolute import in one source file, as (line, module)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    return found


def test_runtime_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no package sources under {PACKAGE}"
    outside = [
        f"{path.name}:{line}: {module}"
        for path in sources
        for line, module in imported_modules(path)
        if module.split(".")[0] not in sys.stdlib_module_names | {"nulldecomp"}
    ]
    assert outside == []
