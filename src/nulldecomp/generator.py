"""Seeded random unicyclic graph generation for fuzzing campaigns.

Generation is a pure function of the spec: a cycle of the requested (or
sampled) length, then tree growth attaching each remaining vertex to a
uniformly chosen existing one.  Labels are zero-padded so lexicographic and
numeric vertex order coincide, keeping generated graphs canonical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import BiasUnsatisfied, SpecInvalid
from .graph import Graph
from .unicyclic import TYPE1, TYPE2, classify

_MAX_BIAS_ATTEMPTS = 512


@dataclass(frozen=True)
class GeneratorSpec:
    n: int
    cycle_length: int | None = None
    seed: int = 0
    class_bias: str | None = None  # TYPE1 / TYPE2 to require that class tag


def _build(spec: GeneratorSpec, rng: random.Random) -> Graph:
    cycle_length = spec.cycle_length or rng.randint(3, spec.n)
    width = max(2, len(str(spec.n - 1)))
    labels = [f"v{i:0{width}d}" for i in range(spec.n)]
    edges = [(labels[i], labels[(i + 1) % cycle_length]) for i in range(cycle_length)]
    for i in range(cycle_length, spec.n):
        parent = rng.randrange(i)
        edges.append((labels[parent], labels[i]))
    return Graph.from_edges(edges)


def generate_unicyclic(spec: GeneratorSpec) -> Graph:
    """Generate the unicyclic graph determined by ``spec``.

    With a class bias, regeneration uses derived seeds until the classifier
    agrees, up to a fixed retry budget.
    """
    if spec.n < 3:
        raise SpecInvalid(f"need at least 3 vertices, got {spec.n}")
    if spec.cycle_length is not None and not 3 <= spec.cycle_length <= spec.n:
        raise SpecInvalid(
            f"cycle length {spec.cycle_length} not in [3, {spec.n}]"
        )
    if spec.class_bias not in (None, TYPE1, TYPE2):
        raise SpecInvalid(f"unknown class bias {spec.class_bias!r}")
    attempts = 1 if spec.class_bias is None else _MAX_BIAS_ATTEMPTS
    for attempt in range(attempts):
        rng = random.Random(spec.seed * 1_000_003 + attempt)
        g = _build(spec, rng)
        if spec.class_bias is None or classify(g).tag == spec.class_bias:
            return g
    raise BiasUnsatisfied(
        f"no force-{spec.class_bias} graph found in {attempts} attempts for n={spec.n}, seed={spec.seed}"
    )
