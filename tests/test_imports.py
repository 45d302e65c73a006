"""Static guards on the package's imports and on its one edge-list builder.

The runtime stays stdlib-only: every module of the package imports the
standard library and the package itself, nothing else (``pyproject.toml``
declares ``dependencies = []``).  No module imports a name it never uses.
The check battery keeps its own reference: ``checks`` reads every kernel
off the dense ``null_space_basis`` / ``rref``, never off a sparse
production kernel of ``linalg``.  And dense vectors stay on that side: no
module but ``linalg`` and ``checks`` imports a dense reference function.
No module but ``unicyclic`` imports a production kernel or the pass that
reduces a constructed basis to the canonical one, so a constructed basis
turns canonical in ``rref_null_basis(basis)`` alone, where a canonical basis
is printed or checked; ``analyze`` reads the constructed basis as it is.
No module but ``linalg`` imports its one sparse elimination.  One leaf
peel, ``linalg.peel``, roots every forest: no other function records a
parent while it walks adjacency lists.  No module loops over all subsets
of anything: the oracle answers every question
with one search, never by enumeration.

Edge lists are validated in one place: ``SelfLoop`` and ``DuplicateEdge``
are each constructed at one call site, in ``graph.py``, so the parser and
``Graph.from_edges`` cannot fork into two validators that drift apart."""

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


def unused_imports(path: Path) -> list[str]:
    """Every name one source file imports and never reads, as "line: name".

    ``__future__`` imports and lines marked ``noqa`` are exempt.
    """
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "noqa" not in lines[node.lineno - 1]:
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    sources = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    assert sources, f"no package sources under {PACKAGE}"
    unused = [f"{path.name}:{entry}" for path in sources for entry in unused_imports(path)]
    assert unused == []


def test_the_unused_import_guard_sees_a_planted_import(tmp_path):
    module = tmp_path / "planted.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from fractions import Fraction\n"
        "from typing import Mapping  # noqa: F401\n"
        "from .errors import InternalCheckError, NotForest\n"
        "def f(x: Fraction) -> bool:\n"
        "    return os.path.exists(x) or NotForest\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == ["5: InternalCheckError"]


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


# The functions of ``linalg`` that take or return dense n-tuple vectors.
DENSE_REFERENCE = {"rref", "null_space_basis", "same_span", "row_space_signature", "mat_vec", "is_zero_vector"}
# The production kernels, which return kernel vectors: the two sparse ones, and the pass that
# brings a constructed basis to the canonical one; and the one sparse elimination the first
# and the last run through.  ``peel``, which ``trees`` and ``unicyclic`` import too, returns none.
KERNELS = {"null_basis_on", "forest_null_basis_on", "reduced_echelon_basis", "_gauss_jordan"}


def linalg_imports(path: Path, names: set[str]) -> list[str]:
    """Every one of ``names`` (``linalg`` functions) one source file imports, as "line: name".

    A whole-module import of ``linalg`` counts too: it reaches every
    function by attribute.
    """
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.module in ("linalg", "nulldecomp.linalg"):
            found += [f"{node.lineno}: {a.name}" for a in node.names if a.name in names | {"*"}]
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "nulldecomp"):
            found += [f"{node.lineno}: {a.name}" for a in node.names if a.name == "linalg"]
        elif isinstance(node, ast.Import):
            found += [f"{node.lineno}: {a.name}" for a in node.names if a.name == "nulldecomp.linalg"]
    return found


def test_only_linalg_and_checks_import_the_dense_reference():
    sources = [path for path in sorted(PACKAGE.glob("*.py")) if path.name not in ("linalg.py", "checks.py")]
    assert sources, f"no package sources under {PACKAGE}"
    offenders = [f"{path.name}:{entry}" for path in sources for entry in linalg_imports(path, DENSE_REFERENCE)]
    assert offenders == []


def test_only_unicyclic_imports_a_production_kernel():
    # rref_null_basis(basis) is the one place that turns a constructed basis
    # canonical, for the commands and checks that print or compare it, and
    # the constructed bases read every subforest kernel; decomposition reads
    # its default basis, constructed_null_basis(g, cls), as it is.  The one
    # sparse elimination stays inside linalg.
    assert KERNELS - {"reduced_echelon_basis", "_gauss_jordan"} <= sparse_kernels()
    linalg = ast.parse((PACKAGE / "linalg.py").read_text(encoding="utf-8"))
    assert {"reduced_echelon_basis", "_gauss_jordan"} <= {node.name for node in linalg.body if isinstance(node, ast.FunctionDef)}
    sources = [path for path in sorted(PACKAGE.glob("*.py")) if path.name not in ("linalg.py", "unicyclic.py")]
    assert sources, f"no package sources under {PACKAGE}"
    offenders = [f"{path.name}:{entry}" for path in sources for entry in linalg_imports(path, KERNELS)]
    assert offenders == []
    assert linalg_imports(PACKAGE / "unicyclic.py", {"_gauss_jordan"}) == []
    decomposition = ast.parse((PACKAGE / "decomposition.py").read_text(encoding="utf-8"))
    from_linalg = {
        alias.name
        for node in ast.walk(decomposition)
        if isinstance(node, ast.ImportFrom) and node.module in ("linalg", "nulldecomp.linalg")
        for alias in node.names
    }
    assert from_linalg == {"Vector"}


def test_the_dense_reference_guard_sees_a_planted_import(tmp_path):
    module = tmp_path / "planted.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import nulldecomp.linalg\n"
        "from . import linalg\n"
        "from .linalg import ZERO, Vector, null_basis_on, same_span\n"
        "from nulldecomp.linalg import mat_vec as product\n"
        "from .graph import rref\n",
        encoding="utf-8",
    )
    assert linalg_imports(module, DENSE_REFERENCE) == [
        "2: nulldecomp.linalg",
        "3: linalg",
        "4: same_span",
        "5: mat_vec",
    ]


EDGE_ERRORS = {"SelfLoop", "DuplicateEdge"}


def constructions(path: Path, names: set[str]) -> list[tuple[int, str]]:
    """Every call in one source file that constructs one of ``names``, by name or attribute, as (line, name)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in names:
                found.append((node.lineno, name))
    return sorted(found)


def test_one_builder_constructs_the_edge_list_errors():
    sites: dict[str, list[str]] = {name: [] for name in EDGE_ERRORS}
    for path in sorted(PACKAGE.glob("*.py")):
        for line, name in constructions(path, EDGE_ERRORS):
            sites[name].append(f"{path.name}:{line}")
    assert all(len(found) == 1 and found[0].startswith("graph.py:") for found in sites.values()), sites


def test_the_builder_guard_sees_a_planted_copy(tmp_path):
    module = tmp_path / "planted.py"
    module.write_text(
        "from __future__ import annotations\n"
        "from . import errors\n"
        "from .errors import DuplicateEdge, SelfLoop\n"
        "def check(a, b, seen):\n"
        "    if a == b:\n"
        "        raise SelfLoop(f'self-loop at {a!r}')\n"
        "    if frozenset((a, b)) in seen:\n"
        "        raise errors.DuplicateEdge('duplicate edge')\n"
        "    return isinstance(a, (SelfLoop, DuplicateEdge))\n",
        encoding="utf-8",
    )
    assert constructions(module, EDGE_ERRORS) == [(6, "SelfLoop"), (8, "DuplicateEdge")]


def subset_loops(path: Path) -> list[int]:
    """The line of every loop or comprehension in one source file over ``range(... 1 << k ...)``: all subsets of k things."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return sorted(
        node.iter.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.For, ast.comprehension))
        and isinstance(node.iter, ast.Call)
        and getattr(node.iter.func, "id", None) == "range"
        and any(
            isinstance(part, ast.BinOp) and isinstance(part.op, ast.LShift)
            and isinstance(part.left, ast.Constant) and part.left.value == 1
            for arg in node.iter.args
            for part in ast.walk(arg)
        )
    )


def test_no_module_loops_over_all_subsets():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no package sources under {PACKAGE}"
    assert [f"{path.name}:{line}" for path in sources for line in subset_loops(path)] == []


def test_the_subset_loop_guard_sees_a_planted_loop(tmp_path):
    module = tmp_path / "planted.py"
    module.write_text(
        "from __future__ import annotations\n"
        "def masks(adj):\n"
        "    for subset in range(1 << len(adj)):\n"
        "        yield subset\n"
        "def sizes(n):\n"
        "    return [s.bit_count() for s in range(1, (1 << n) + 1)]\n"
        "def fine(n):\n"
        "    return [1 << v for v in range(n)], (1 << n) - 1\n",
        encoding="utf-8",
    )
    assert subset_loops(module) == [3, 6]


def parent_recorders(path: Path) -> list[str]:
    """Every function in one source file that roots a forest by search, as "name".

    Such a function stores into a map whose name holds "parent" inside a loop
    over an adjacency list (``adjacency[...]`` or ``neighbors(...)``).
    """
    found = []
    for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if not isinstance(func, ast.FunctionDef):
            continue
        for loop in ast.walk(func):
            reads = isinstance(loop, ast.For) and any(
                isinstance(node, ast.Name) and node.id == "adjacency"
                or isinstance(node, ast.Attribute) and node.attr in ("adjacency", "neighbors")
                for node in ast.walk(loop.iter)
            )
            if reads and any(
                isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and "parent" in node.value.id
                for node in ast.walk(loop)
            ):
                found.append(func.name)
                break
    return found


def test_one_peel_roots_every_forest():
    # The peel that finds the cycle keeps each vertex's parent; every forest
    # the package decomposes or reads a kernel from is cut from that rooted
    # forest, so no module searches a vertex set to root it again.
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no package sources under {PACKAGE}"
    recorders = [f"{path.name}: {name}" for path in sources for name in parent_recorders(path)]
    assert recorders == ["linalg.py: peel"]
    defined = {node.name for path in sources for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef)}
    assert "forest_parents" not in defined


def test_the_rooting_guard_sees_a_planted_search(tmp_path):
    module = tmp_path / "planted.py"
    module.write_text(
        "def forest_parents(adjacency, vertices):\n"
        "    inside, parent = set(vertices), {}\n"
        "    for root in inside:\n"
        "        parent.setdefault(root, -1)\n"
        "        stack = [root]\n"
        "        while stack:\n"
        "            x = stack.pop()\n"
        "            for y in adjacency[x]:\n"
        "                if y in inside and y not in parent:\n"
        "                    parent[y] = x\n"
        "                    stack.append(y)\n"
        "    return parent\n"
        "def walk(g, parents, start):\n"
        "    for y in g.neighbors(start):\n"
        "        parents[y] = start\n"
        "def fill(adjacency, vec):\n"
        "    for y in adjacency[0]:\n"
        "        vec[y] = 1\n",
        encoding="utf-8",
    )
    assert parent_recorders(module) == ["forest_parents", "walk"]
