"""Static guards on the package's imports.

The runtime stays stdlib-only: every module of the package imports the
standard library and the package itself, nothing else (``pyproject.toml``
declares ``dependencies = []``).  And the check battery keeps its own
reference: ``checks`` reads every kernel off the dense ``null_space_basis`` /
``rref``, never off a sparse production kernel of ``linalg``."""

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


def sparse_kernels() -> set[str]:
    """The ``linalg`` functions that eliminate over adjacency lists: their first parameter is ``adjacency``."""
    tree = ast.parse((PACKAGE / "linalg.py").read_text(encoding="utf-8"))
    return {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.args.args and node.args.args[0].arg == "adjacency"
    }


def test_the_battery_imports_no_sparse_kernel():
    sparse = sparse_kernels()
    assert "null_basis_on" in sparse
    from_linalg, whole_module = set(), []
    for node in ast.walk(ast.parse((PACKAGE / "checks.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module in ("linalg", "nulldecomp.linalg"):
            from_linalg |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "nulldecomp"):
            whole_module += [alias.name for alias in node.names if alias.name == "linalg"]
        elif isinstance(node, ast.Import):
            whole_module += [alias.name for alias in node.names if alias.name == "nulldecomp.linalg"]
    assert {"null_space_basis", "same_span"} <= from_linalg
    assert from_linalg & sparse == set()
    assert whole_module == []  # a module import would reach every kernel by attribute
