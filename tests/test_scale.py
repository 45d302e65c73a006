"""Pinned bytes at user scale: one list of inputs, run at two sizes.

``tests/golden/outputs.json`` pins graphs of at most 30 vertices and the
benchmark's digests graphs of at most 150.  The builders below make every
user-scale input, and ``tests/golden/scale.json`` holds, per input and
command, the sha256 of its stdout, or ``exit N`` for a command that exits N.
Two lists name the inputs and the commands each runs:

- ``TIER1``, run in-process through ``cli.main`` by this module in about
  4 s: a path, a random tree and a star of 10⁴ vertices (the star 10⁴
  leaves), the 6,401-vertex spider, plain cycles of 6,400 and 6,401
  vertices (TII-4k and TII-non4k), the TII-4k hub with 800 pendant trees
  on one cycle vertex, the TI-4 hub with 400, C₄ and C₅ with a 6,400-vertex
  pendant path, ``generate --n 1600 --seed 3`` (TI-1),
  ``generate --n 800 --seed 3`` (TI-4), and the 400-vertex theta, which
  ``analyze`` and ``basis`` refuse with exit 3;
- ``CI``, run each in a fresh process under a time cap by
  ``tests/scale_ci.py``, which tier-1 does not collect: the same families
  at 10⁵ vertices, ``generate --n 6400 --seed 3``, the 1,600-vertex theta,
  the check battery on ``generate --n 400 --seed 3`` and a ``verify``
  campaign at the oracle's search budget.

The digests were recorded once and are not regenerated to make a change
pass.  An input added to either list is recorded with

    PYTHONPATH=src python tests/test_scale.py

which runs every input in-process, writes only the digests the file lacks
and refuses to change one it holds (``conftest.record_digests``, as
``tests/test_golden.py`` does).  An output that changes on purpose has its
entry deleted by hand first, so the diff shows it.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Callable

import pytest

from nulldecomp import GeneratorSpec, generate_unicyclic

from conftest import output_digest, record_digests, run_command

SCALE = Path(__file__).parent / "golden" / "scale.json"
COMMANDS = {
    "analyze": ["analyze", "--json"],
    "basis_structural": ["basis", "--json"],
    "basis_rref": ["basis", "--json", "--method", "rref"],
    "analyze_verify": ["analyze", "--json", "--verify"],
    "verify": ["verify", "--count", "200", "--min-n", "15", "--max-n", "22", "--seed", "1"],
}
EVERY = ("analyze", "basis_structural", "basis_rref")


def _path(n: int) -> str:
    return "".join(f"p{i:06d} p{i + 1:06d}\n" for i in range(n - 1))


def _random_tree(n: int) -> str:
    r = random.Random(0)
    return "".join(f"t{i} t{r.randrange(i)}\n" for i in range(1, n))


def _star(leaves: int) -> str:
    return "".join(f"s l{i:05d}\n" for i in range(leaves))


def _spider(legs: int, length: int) -> str:
    """One hub joined to ``legs`` paths of ``length`` vertices each, labels in leg order."""
    return "".join(
        f"h l{k:02d}v000\n" + "".join(f"l{k:02d}v{i:03d} l{k:02d}v{i + 1:03d}\n" for i in range(length - 1))
        for k in range(legs)
    )


def _cycle(n: int) -> str:
    return "".join(f"c{i:06d} c{(i + 1) % n:06d}\n" for i in range(n))


def _hub(c: int) -> str:
    """A 4-cycle with c six-vertex trees joined to one cycle vertex: TII-4k."""
    return "".join(f"a{i} a{(i + 1) % 4}\n" for i in range(4)) + "".join(
        f"a0 h{k:05d}x0\nh{k:05d}x0 h{k:05d}x1\nh{k:05d}x0 h{k:05d}x2\n"
        f"h{k:05d}x0 h{k:05d}x4\nh{k:05d}x1 h{k:05d}x3\nh{k:05d}x3 h{k:05d}x5\n"
        for k in range(c)
    )


def _ti4_hub(c: int) -> str:
    """A 6-cycle whose witness v carries a leaf and c six-vertex trees: TI-4."""
    return "v w1\nw1 w2\nw2 w3\nw3 w4\nw4 u\nu v\nv zleaf\n" + "".join(
        f"t{k:04d}x0 t{k:04d}x1\nt{k:04d}x0 t{k:04d}x2\nt{k:04d}x0 t{k:04d}x4\n"
        f"t{k:04d}x1 t{k:04d}x3\nt{k:04d}x3 t{k:04d}x5\nv t{k:04d}x0\n"
        for k in range(c)
    )


def _pendant_path(length: int, n: int) -> str:
    """A cycle of ``length`` with an n-vertex path joined to one cycle vertex, labels in path order."""
    return "".join(f"a{i} a{(i + 1) % length}\n" for i in range(length)) + "a0 p000000\n" + _path(n)


def _theta(n: int) -> str:
    """An n-vertex path, labels in path order, with its first vertex joined to the last and to the n // 3-th."""
    return "".join(f"x{i:05d} x{i + 1:05d}\n" for i in range(n - 1)) + f"x00000 x{n // 3:05d}\nx00000 x{n - 1:05d}\n"


def _generated(n: int, seed: int) -> str:
    return generate_unicyclic(GeneratorSpec(n=n, seed=seed)).to_edge_list()


# Each input's edge list (None: its command reads no graph) and the commands run on it.
Inputs = dict[str, tuple[Callable[[], str] | None, tuple[str, ...]]]
TIER1: Inputs = {
    "path_10000": (lambda: _path(10_000), EVERY),
    "random_tree_10000": (lambda: _random_tree(10_000), EVERY),
    "star_10000": (lambda: _star(10_000), EVERY),
    "spider_16x400": (lambda: _spider(16, 400), EVERY),
    "cycle_6400": (lambda: _cycle(6_400), EVERY),
    "cycle_6401": (lambda: _cycle(6_401), EVERY),
    "hub_tii4k_800": (lambda: _hub(800), EVERY),
    "hub_ti4_400": (lambda: _ti4_hub(400), EVERY),
    "c4_pendant_path_6400": (lambda: _pendant_path(4, 6_400), EVERY),
    "c5_pendant_path_6400": (lambda: _pendant_path(5, 6_400), EVERY),
    "generate_1600_seed3_ti1": (lambda: _generated(1_600, 3), EVERY),
    "generate_800_seed3_ti4": (lambda: _generated(800, 3), EVERY),
    "theta_400": (lambda: _theta(400), EVERY),
}
CI: Inputs = {
    "path_100000": (lambda: _path(100_000), ("analyze",)),
    "path_99999": (lambda: _path(99_999), ("basis_structural", "basis_rref")),
    "random_tree_100000": (lambda: _random_tree(100_000), EVERY),
    "cycle_100000": (lambda: _cycle(100_000), EVERY),
    "cycle_99999": (lambda: _cycle(99_999), EVERY),
    "hub_tii4k_800": TIER1["hub_tii4k_800"],
    "c4_pendant_path_99996": (lambda: _pendant_path(4, 99_996), EVERY),
    "c5_pendant_path_99996": (lambda: _pendant_path(5, 99_996), EVERY),
    "generate_6400_seed3_ti1": (lambda: _generated(6_400, 3), EVERY),
    "theta_1600": (lambda: _theta(1_600), ("basis_rref",)),
    "generate_400_seed3": (lambda: _generated(400, 3), ("analyze_verify",)),
    "verify_n15_22_seed1": (None, ("verify",)),
}


def argv(command: str, path: Path | None) -> list[str]:
    """The command line of one command, reading the graph at ``path`` if it reads one."""
    name, *options = COMMANDS[command]
    return [name, *([str(path)] if path else []), *options]


def write_input(inputs: Inputs, name: str, directory: Path) -> Path | None:
    """Write one input's edge list into ``directory``; None when its command reads no graph."""
    build = inputs[name][0]
    if build is None:
        return None
    path = directory / f"{name}.edges"
    path.write_text(build(), encoding="utf-8")
    return path


def digests(inputs: Inputs, name: str) -> dict[str, str]:
    """The digest of each command's output on one input, run in this process."""
    build, commands = inputs[name]
    edges = build() if build else None
    return {command: output_digest(*run_command(COMMANDS[command], edges)) for command in commands}


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(SCALE.read_text(encoding="utf-8"))


def test_every_family_is_pinned(pinned):
    assert set(pinned) == set(TIER1) | set(CI)
    for inputs in (TIER1, CI):
        assert all(set(commands) <= set(pinned[name]) for name, (_, commands) in inputs.items())


@pytest.mark.parametrize("family", sorted(TIER1))
def test_outputs_match_pinned_digests(pinned, family):
    assert digests(TIER1, family) == {command: pinned[family][command] for command in TIER1[family][1]}


if __name__ == "__main__":
    raise SystemExit(record_digests(
        SCALE, [(name, lambda inputs=inputs, name=name: digests(inputs, name)) for inputs in (TIER1, CI) for name in inputs]
    ))
