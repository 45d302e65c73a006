"""User-scale runs for CI: every input of ``test_scale.CI`` against its pinned digests.

    ulimit -v 2000000; PYTHONPATH=src python -m pytest -q tests/scale_ci.py

The file name does not match ``test_*.py``, so tier-1 does not collect it.
Each (input, command) pair runs in a fresh ``python -m nulldecomp`` process,
so no run inherits another's memory, and the sha256 of its stdout must equal
the digest in ``tests/golden/scale.json``.  A run is killed after 30 s, the
check battery and the ``verify`` campaign after 60 s, and the address-space
cap of the shell (``ulimit -v``) holds for every child: a path that turns
quadratic in time or in memory fails the run instead of exhausting the
machine first.

The generated 10⁵-vertex graph (TI-4) runs ``classify`` and
``structural_decomposition`` only, in this process under the same 30 s cap:
every command builds its kernel basis, and eliminating its complement
G - T_v needs gigabytes.
"""

from __future__ import annotations

import contextlib
import signal
import subprocess
import sys

import pytest

from nulldecomp import GeneratorSpec, classify, generate_unicyclic, parse_edge_list
from nulldecomp.decomposition import decomposition_from_basis, structural_decomposition

from conftest import output_digest
from test_scale import CI, _path, argv, pinned, write_input  # noqa: F401 (pinned is a fixture)

CAP_S = {"analyze_verify": 60, "verify": 60}  # seconds; every other command has 30


@contextlib.contextmanager
def _capped(seconds: int):
    """Raise TimeoutError in this process once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "name, command", [(name, command) for name, (_, commands) in CI.items() for command in commands]
)
def test_output_matches_pinned_digest(pinned, tmp_path, name, command):
    path = write_input(CI, name, tmp_path)
    run = subprocess.run(
        [sys.executable, "-m", "nulldecomp", *argv(command, path)],
        capture_output=True,
        timeout=CAP_S.get(command, 30),
    )
    got = output_digest(run.returncode, run.stdout.decode("utf-8"))
    assert got == pinned[name][command], run.stderr.decode("utf-8")[-2000:]


def test_decomposition_from_basis_on_a_path():
    with _capped(30):
        assert decomposition_from_basis(parse_edge_list(_path(100_000))).nullity == 0


def test_the_generated_ti4_graph_decomposes_without_a_command():
    with _capped(30):
        g = generate_unicyclic(GeneratorSpec(n=100_000, seed=3))
        assert structural_decomposition(g, classify(g)).case == "TI-4"
