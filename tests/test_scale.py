"""Pinned bytes at user scale: every command's output on graphs of thousands of vertices.

``tests/golden/outputs.json`` pins graphs of at most 30 vertices and the
benchmark's digests graphs of at most 150.  For each family below,
``tests/golden/scale.json`` holds the sha256 of ``analyze --json``,
``basis --json`` and ``basis --method rref --json``, run in-process through
``cli.main``: a path and a random tree of 10⁴ vertices, plain cycles of
6,400 and 6,401 vertices (TII-4k and TII-non4k), the TII-4k hub with 800
pendant trees on one cycle vertex, C₄ and C₅ with a 6,400-vertex pendant
path, and two generated graphs, ``generate --n 1600 --seed 3`` (TI-1) and
``generate --n 800 --seed 3`` (TI-4).  The whole module takes about 4 s.

The digests were recorded once and are not regenerated to make a change
pass.  A family added to ``FAMILIES`` is recorded with

    PYTHONPATH=src python tests/test_scale.py

which writes only the digests the file lacks and refuses to change one it
holds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from nulldecomp import GeneratorSpec, generate_unicyclic
from nulldecomp.cli import main

SCALE = Path(__file__).parent / "golden" / "scale.json"
COMMANDS = {
    "analyze": ["analyze", "--json"],
    "basis_structural": ["basis", "--json"],
    "basis_rref": ["basis", "--json", "--method", "rref"],
}


def _path(n: int) -> str:
    return "".join(f"p{i:06d} p{i + 1:06d}\n" for i in range(n - 1))


def _random_tree(n: int) -> str:
    r = random.Random(0)
    return "".join(f"t{i} t{r.randrange(i)}\n" for i in range(1, n))


def _cycle(n: int) -> str:
    return "".join(f"c{i:06d} c{(i + 1) % n:06d}\n" for i in range(n))


def _hub(c: int) -> str:
    """A 4-cycle with c six-vertex trees joined to one cycle vertex: TII-4k."""
    return "".join(f"a{i} a{(i + 1) % 4}\n" for i in range(4)) + "".join(
        f"a0 h{k:05d}x0\nh{k:05d}x0 h{k:05d}x1\nh{k:05d}x0 h{k:05d}x2\n"
        f"h{k:05d}x0 h{k:05d}x4\nh{k:05d}x1 h{k:05d}x3\nh{k:05d}x3 h{k:05d}x5\n"
        for k in range(c)
    )


def _pendant_path(length: int, n: int) -> str:
    """A cycle of ``length`` with an n-vertex path joined to one cycle vertex."""
    return "".join(f"a{i} a{(i + 1) % length}\n" for i in range(length)) + "a0 p000000\n" + _path(n)


def _generated(n: int, seed: int) -> str:
    return generate_unicyclic(GeneratorSpec(n=n, seed=seed)).to_edge_list()


FAMILIES = {
    "path_10000": lambda: _path(10_000),
    "random_tree_10000": lambda: _random_tree(10_000),
    "cycle_6400": lambda: _cycle(6_400),
    "cycle_6401": lambda: _cycle(6_401),
    "hub_tii4k_800": lambda: _hub(800),
    "c4_pendant_path_6400": lambda: _pendant_path(4, 6_400),
    "c5_pendant_path_6400": lambda: _pendant_path(5, 6_400),
    "generate_1600_seed3_ti1": lambda: _generated(1_600, 3),
    "generate_800_seed3_ti4": lambda: _generated(800, 3),
}


def _digest(argv: list[str], path: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([argv[0], str(path), *argv[1:]])
    assert code == 0, (argv, code)
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def digests(family: str) -> dict[str, str]:
    """The sha256 of each command's output on one family's graph."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{family}.edges"
        path.write_text(FAMILIES[family](), encoding="utf-8")
        return {key: _digest(argv, path) for key, argv in COMMANDS.items()}


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(SCALE.read_text(encoding="utf-8"))


def test_every_family_is_pinned(pinned):
    assert set(pinned) == set(FAMILIES)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_outputs_match_pinned_digests(pinned, family):
    assert digests(family) == pinned[family]


def record() -> int:
    """Add the digests of every family ``scale.json`` lacks; refuse to change any it holds."""
    table = json.loads(SCALE.read_text(encoding="utf-8")) if SCALE.is_file() else {}
    for family in FAMILIES:
        got = digests(family)
        if family in table and table[family] != got:
            print(f"{family}: output differs from the recorded digests; not overwritten", file=sys.stderr)
            return 1
        table[family] = got
        SCALE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{family}: recorded", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(record())
