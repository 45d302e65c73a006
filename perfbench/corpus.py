"""Seeded corpora for the benchmark workloads.

A corpus is a fixed list of slots; the seed only draws the random shapes
inside each slot, so every seed yields the same mix of sizes, cycle lengths
and cases.  ``nulldecomp``'s own generator rarely yields TI-2, TI-3 or Type II
at n >= 100, so those cases (and every other one) are also built directly:

* a skeleton fixes the case: a cycle of length L whose cycle vertices are
  bare except the Type I witness v, which gets one leaf (v off its support,
  v an N-vertex of T_v) or two leaves (v in the core of T_v).  With bare
  cycle vertices the tree G - T_v is a path on L - 1 vertices, and L mod 4
  decides how its kernel meets v's cycle neighbours: L odd gives TI-1,
  L = 2 mod 4 gives TI-4, L = 0 mod 4 gives TI-2 or TI-3.  Without a witness
  the graph is Type II, TII-4k when L = 0 mod 4;
* random neutral gadgets then fill the graph up to n vertices: a random
  tree S joined to any existing vertex x through a vertex r outside the
  support of S.  Such an attachment leaves the kernel restricted to the old
  vertices unchanged (e_r lies in the column space of A(S) with
  s_r = 0), so no cycle vertex changes its support status and the case
  holds.

Graphs are edge lists over labels ``v000``, ``v001``, ... numbered in
construction order.  Random draws come from ``random.Random`` seeded with a
string, which is stable across processes and Python versions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from reference import supported

FOREST = "Forest"
TYPE1_CASES = ("TI-1", "TI-2", "TI-3", "TI-4")
TYPE2_CASES = ("TII-non4k", "TII-4k")
UNICYCLIC_CASES = TYPE1_CASES + TYPE2_CASES
ALL_CASES = (FOREST,) + UNICYCLIC_CASES
GENERATED = "generated"

Edges = list[tuple[str, str]]


@dataclass(frozen=True)
class Slot:
    """One corpus position: family, vertex count and where its cycle length lies.

    ``position`` in [0, 1] picks the cycle length among those the family
    allows in the slot's range, so cycle lengths are fixed per slot rather
    than drawn from the seed; for a forest it picks the number of trees.
    """

    family: str  # a case name, or GENERATED for nulldecomp's own generator
    n: int
    cycle: str = "short"  # "short" (3-8) or "long" (n/2 to 3n/4)
    position: float = 0.0


_RESIDUE = {
    "TI-1": lambda L: L % 2 == 1,
    "TI-2": lambda L: L % 4 == 0,
    "TI-3": lambda L: L % 4 == 0,
    "TI-4": lambda L: L % 4 == 2,
    "TII-non4k": lambda L: L % 4 != 0,
    "TII-4k": lambda L: L % 4 == 0,
}


def witness_leaves(family: str) -> int:
    return {"TI-2": 2}.get(family, 1 if family in TYPE1_CASES else 0)


def cycle_length(slot: Slot) -> int:
    """The slot's cycle length: in its range, with the residue its family needs.

    The length leaves room for the witness leaves and never exactly one
    vertex over, since a gadget has at least two.
    """
    n, leaves = slot.n, witness_leaves(slot.family)
    low, high = (3, 8) if slot.cycle == "short" else (n // 2, 3 * n // 4)
    allowed = _RESIDUE.get(slot.family, lambda L: True)
    choices = [L for L in range(low, min(high, n - leaves) + 1) if allowed(L) and n - L - leaves != 1]
    if not choices:
        raise ValueError(f"no {slot.family} cycle fits in {n} vertices")
    return choices[round(slot.position * (len(choices) - 1))]


def _random_tree(size: int, rng: random.Random) -> list[list[int]]:
    """Random recursive tree: vertex j joins a uniformly chosen earlier vertex."""
    adj: list[list[int]] = [[] for _ in range(size)]
    for j in range(1, size):
        parent = rng.randrange(j)
        adj[j].append(parent)
        adj[parent].append(j)
    return adj


def _attach_gadgets(adj: list[list[int]], n: int, rng: random.Random, max_size: int) -> None:
    """Grow ``adj`` to ``n`` vertices with neutral gadgets (see the module doc)."""
    while len(adj) < n:
        room = n - len(adj)
        size = min(room, rng.randint(2, max_size))
        if room - size == 1:
            size += 1
        tree = _random_tree(size, rng)
        everything = frozenset(range(size))
        root = rng.choice([x for x in range(size) if not supported(tree, everything, x)])
        order = [root]
        for x in order:
            order.extend(w for w in tree[x] if w not in order)
        base = len(adj)
        new_index = {x: base + k for k, x in enumerate(order)}
        anchor = rng.randrange(base)
        adj.extend([] for _ in order)
        for x in order:
            adj[new_index[x]].extend(new_index[w] for w in tree[x])
        adj[anchor].append(base)
        adj[base].append(anchor)


def _to_edges(adj: list[list[int]]) -> Edges:
    width = max(3, len(str(len(adj) - 1)))
    label = [f"v{i:0{width}d}" for i in range(len(adj))]
    return [(label[i], label[j]) for i, nbrs in enumerate(adj) for j in nbrs if i < j]


def constructed_unicyclic(slot: Slot, rng: random.Random, max_gadget: int) -> Edges:
    """A unicyclic graph whose case is ``slot.family`` by construction."""
    n, leaves, length = slot.n, witness_leaves(slot.family), cycle_length(slot)
    adj: list[list[int]] = [[(i - 1) % length, (i + 1) % length] for i in range(length)]
    for _ in range(leaves):
        adj.append([0])
        adj[0].append(len(adj) - 1)
    _attach_gadgets(adj, n, rng, max_gadget)
    return _to_edges(adj)


def random_forest(slot: Slot, rng: random.Random) -> Edges:
    """One to three random recursive trees (by ``slot.position``), each on two or more vertices."""
    n = slot.n
    cuts = range(2, n - 1, 2)
    starts = sorted(rng.sample(cuts, min(len(cuts), round(2 * slot.position))))
    bounds = [0] + starts + [n]
    adj: list[list[int]] = [[] for _ in range(n)]
    for lo, hi in zip(bounds, bounds[1:]):
        for j in range(lo + 1, hi):
            parent = rng.randrange(lo, j)
            adj[j].append(parent)
            adj[parent].append(j)
    return _to_edges(adj)


def slot_rng(seed: int, corpus: str, index: int) -> random.Random:
    return random.Random(f"{corpus}:{seed}:{index}")


def mid_slots() -> list[Slot]:
    """The shared corpus of ``analyze_mid`` and ``basis_mid``: 48 graphs, n = 100-150.

    Six blocks of eight, one slot per family in each block: forests, every
    unicyclic case and nulldecomp's generator.  Blocks 2 and 5 take long
    cycles (n/2 to 3n/5), the others short ones (3-8).  The sizes make every
    graph cost about the same to analyze at the seed commit: n = 100-110
    with a long cycle, 130-150 with a short one, 140-150 for forests.  In a
    narrow latency distribution the median and the tail rest on many graphs
    and do not jump from one seed to the next.  Cycle positions are spread
    by the golden ratio.
    """
    families = [FOREST, *UNICYCLIC_CASES, GENERATED]
    slots = []
    for k in range(48):
        family = families[k % len(families)]
        long = (k // len(families)) % 3 == 2
        spread = (k * 23) % 51  # distinct for k < 51
        position = (k * 0.6180339887) % 1.0
        if family == FOREST:
            slots.append(Slot(family, 140 + spread % 11, ""))
        elif long:
            slots.append(Slot(family, 100 + spread % 11, "long", 0.4 * position))
        else:
            slots.append(Slot(family, 130 + spread % 21, "short", position))
    return slots


def small_slots() -> list[Slot]:
    """The ``verify_small`` corpus: n = 5-14, like ``nulldecomp verify``.

    Mostly generator graphs with n cycling through 5..14 (both oracle budgets
    cover every graph), plus every unicyclic case built directly, since the
    generator's case mix depends on the seed.
    """
    generated = [Slot(GENERATED, 5 + k % 10, "") for k in range(600)]
    built = [Slot(case, 9 + k % 6, "short", k / 7) for k in range(8) for case in UNICYCLIC_CASES]
    return generated + built


def workload_slots(workload: str) -> list[Slot]:
    """The slots of a workload.

    ``basis_mid`` runs the ``analyze_mid`` graphs and a second draw of the
    same slots: one pass over 48 graphs takes it half a run, and 48 more
    graphs halve the seed-to-seed variance where a second pass over the same
    ones would not.
    """
    if workload == "verify_small":
        return small_slots()
    return mid_slots() * (2 if workload == "basis_mid" else 1)
