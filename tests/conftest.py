"""Shared graphs: curated reference examples with known decompositions,
deterministic graph families that hit each decomposition case, and the seeded
random corpus used by the campaign-style tests; and a counter of forest
decompositions.
"""

from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import strategies as st

from nulldecomp import Graph, GeneratorSpec, classify, constructed_null_basis, generate_unicyclic, parse_edge_list
from nulldecomp.checks import _kernel_case, _kernel_decomposition
from nulldecomp.linalg import null_basis_on
from nulldecomp.trees import forest_decomposition
from nulldecomp.unicyclic import piece, rref_null_basis

# 18-vertex Type I example: 4-cycle e-g-f-v with an 11-vertex tree at v.
EXAMPLE_TYPE1 = """
c a
c b
c v
v d
v e
v f
g e
g f
h f
h i
q r
q g
j v
l d
d o
o m
m n
n p
"""

# 18-vertex example around a 5-cycle; the support sits in one pendant tree.
EXAMPLE_STAR_SGRAPH = """
v1 v2
v1 v3
v3 v4
v4 v5
v5 v2
v1 v6
v6 v9
v6 v7
v6 v8
v1 v10
v3 v11
v11 v12
v12 v13
v15 v17
v14 v15
v2 v14
v15 v16
v17 v18
"""

# 25-vertex Type II example, 5-cycle a-b-c-d-e with five pendant trees.
# The circulating reference listing for this example is internally
# inconsistent (it names i in both support and core, and m among the
# N-vertices while omitting q); the decomposition is therefore pinned by
# computing it from the null space, which reproduces alpha = 15, nu = 9.
EXAMPLE_FIVE_CYCLE = """
a b
b c
c d
d e
e a
f b
f g
f h
i a
i j
i l
i m
n o
n c
n p
p q
d r
r s
r t
r v
s u
s w
e x
x y
x z
"""

# 15-vertex Type II example on a 4-cycle u-v-w-z: support and core overlap
# exactly in the cycle.
EXAMPLE_FOUR_CYCLE = """
u v
v w
w z
z u
a b
a z
f c
f d
f e
f w
f g
g h
i u
i j
i l
"""


@pytest.fixture(scope="session")
def ex_type1() -> Graph:
    return parse_edge_list(EXAMPLE_TYPE1)


@pytest.fixture(scope="session")
def ex_star() -> Graph:
    return parse_edge_list(EXAMPLE_STAR_SGRAPH)


@pytest.fixture(scope="session")
def ex_five_cycle() -> Graph:
    return parse_edge_list(EXAMPLE_FIVE_CYCLE)


@pytest.fixture(scope="session")
def ex_four_cycle() -> Graph:
    return parse_edge_list(EXAMPLE_FOUR_CYCLE)


def cycle_graph(length: int) -> Graph:
    labels = [f"c{i:02d}" for i in range(length)]
    return Graph.from_edges(
        [(labels[i], labels[(i + 1) % length]) for i in range(length)]
    )


def path_graph(n: int) -> Graph:
    labels = [f"p{i:02d}" for i in range(n)]
    return Graph.from_edges([(labels[i], labels[i + 1]) for i in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges([("s", f"x{i:02d}") for i in range(leaves)])


def hub_forest(copies: int, extra: int = 0) -> Graph:
    """A root joined to vertex 0 of ``copies`` six-vertex trees (edges 0-1, 0-2, 0-4, 1-3, 3-5), plus ``extra`` isolated vertices."""
    edges = []
    for k in range(copies):
        t = [f"h{k:05d}x{j}" for j in range(6)]
        edges += [("hub", t[0]), (t[0], t[1]), (t[0], t[2]), (t[0], t[4]), (t[1], t[3]), (t[3], t[5])]
    return Graph.from_edges(edges, isolated=[f"z{i}" for i in range(extra)])


def cycle_with_attachments(length: int, tails: dict[int, int] = {}, leaves: dict[int, int] = {}) -> Graph:
    """Cycle plus, per cycle position, a pendant path (tails) and/or pendant leaves."""
    labels = [f"c{i:02d}" for i in range(length)]
    edges = [(labels[i], labels[(i + 1) % length]) for i in range(length)]
    for pos, tail_len in tails.items():
        prev = labels[pos]
        for j in range(tail_len):
            node = f"t{pos:02d}x{j:02d}"
            edges.append((prev, node))
            prev = node
    for pos, count in leaves.items():
        for j in range(count):
            edges.append((labels[pos], f"u{pos:02d}x{j:02d}"))
    return Graph.from_edges(edges)


def dense(vec: dict[int, Fraction], n: int) -> tuple[Fraction, ...]:
    """A ``{index: Fraction}`` vector written out as the n-tuple the dense reference returns."""
    return tuple(vec.get(i, Fraction(0)) for i in range(n))


def assert_zero_free_inside(vectors, vertices) -> None:
    """Each vector is a map of nonzero coordinates, every key one of ``vertices``."""
    inside = frozenset(vertices)
    for vec in vectors:
        assert vec.keys() <= inside and all(x != 0 for x in vec.values()), (sorted(inside), vec)


def shuffled(g: Graph, rnd) -> Graph:
    """g with its labels permuted by ``rnd``, so its vertices take their indices in another order."""
    perm = list(range(g.n))
    rnd.shuffle(perm)
    names = [f"s{p:03d}" for p in perm]
    return Graph.from_edges(((names[u], names[v]) for u, v in g.edges()), isolated=names)


def assert_reduced_basis_is_eliminated_basis(g: Graph) -> None:
    """A unicyclic g's canonical basis, reduced from its constructed one, is the whole-graph elimination's.

    Tuple for tuple, every coordinate a ``Fraction`` and no 0 stored.
    """
    reduced = rref_null_basis(constructed_null_basis(g, classify(g))).vectors
    assert reduced == tuple(null_basis_on(g.adjacency, range(g.n))), g.to_edge_list()
    assert all(type(x) is Fraction and x != 0 for vec in reduced for x in vec.values()), g.to_edge_list()


@st.composite
def forests_with_subsets(draw):
    """A random forest on up to 16 vertices and a random subset of its vertices."""
    n = draw(st.integers(min_value=1, max_value=16))
    labels = [f"f{i:02d}" for i in range(n)]
    edges = []
    for i in range(1, n):
        parent = draw(st.integers(min_value=-1, max_value=i - 1))  # -1 starts a new tree
        if parent >= 0:
            edges.append((labels[parent], labels[i]))
    g = Graph.from_edges(edges, isolated=labels)
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return g, [v for v in range(n) if keep[v]]


def rooted(g: Graph, vertices, rnd=None) -> dict[int, int]:
    """The forest ``vertices`` induce in g, rooted by a breadth-first search: vertex -> parent, -1 at a root.

    Each component is rooted at its smallest vertex, or, with ``rnd``, at the
    first of a shuffled order, since the forest routines must answer alike
    under every rooting.  Parents come before their children.  Fails on a
    vertex set that induces a cycle.
    """
    order = sorted(vertices)
    if rnd is not None:
        rnd.shuffle(order)
    inside = set(order)
    parent: dict[int, int] = {}
    for root in order:
        if root in parent:
            continue
        parent[root] = -1
        queue = [root]
        for x in queue:  # grows while it is read
            for y in g.adjacency[x]:
                if y in inside and y != parent[x]:
                    assert y not in parent, f"{sorted(inside)} induces a cycle"
                    parent[y] = x
                    queue.append(y)
    return parent


def assert_rooted_forest(g: Graph, forest: dict[int, int], vertices=None) -> None:
    """``forest`` is the subgraph of g its key set induces, rooted, every parent before its children.

    Each parent is a neighbor listed earlier, and the parent edges are all
    the edges the key set induces.  With ``vertices``, the key set is that.
    """
    listed: set[int] = set()
    for x, p in forest.items():
        assert p == -1 or (p in listed and p in g.adjacency[x]), (g.to_edge_list(), x, p)
        listed.add(x)
    induced = sum(y in forest for x in forest for y in g.adjacency[x]) // 2
    assert induced == sum(p >= 0 for p in forest.values()), g.to_edge_list()
    if vertices is not None:
        assert forest.keys() == set(vertices), (g.to_edge_list(), sorted(forest), sorted(vertices))


def unicyclic_pieces(g: Graph) -> list[dict[int, int]]:
    """Every forest the structural layer decomposes, cut by ``unicyclic.piece``: T_v, T_v - v, G - T_v and G - C.

    With them, for each cycle vertex v, the complement of its successor x in
    the bordered graph (T_v shrunk to v) that ``classify`` decides TI-4 on.
    """
    cls = classify(g)
    trees, cycle = cls.pendant_trees, cls.cycle
    pieces = [piece(trees, (), cycle.vertices)]
    for v, tree in trees.items():
        x = cycle.neighbors_on_cycle(v)[1]
        pieces += [tree, piece(trees, (), [v]), piece(trees, cycle.path_around(v), ())]
        pieces.append(piece({**trees, v: {v: -1}}, cycle.path_around(x), ()))
    return pieces


def kernel_case(g: Graph, cls) -> str:
    """g's case by its kernel definition (``checks._kernel_case``), off the reference kernels.

    Tests hold a case computed elsewhere to this: reading ``cls.case`` twice
    can never disagree.
    """
    return _kernel_case(g, cls, partial(_kernel_decomposition, g))


def case_families() -> dict[str, list[Graph]]:
    """At least ten deterministic graphs per decomposition case.

    Which case a cycle-with-pendant-path graph lands in is set by the cycle
    length mod 4 and the pendant path parity: an even-order pendant path at
    the witness makes it Type I, and the complement path's kernel behavior at
    the witness's cycle neighbors picks the Type I flavor.
    """
    families: dict[str, list[Graph]] = {
        "TI-1": [],
        "TI-2": [],
        "TI-3": [],
        "TI-4": [],
        "TII-non4k": [],
        "TII-4k": [],
    }
    # Odd cycle + even-order pendant path: complement is nonsingular.
    for cycle in (3, 5):
        for tail in (1, 3, 5, 7, 9):
            families["TI-1"].append(cycle_with_attachments(cycle, tails={0: tail}))
    # Two or more leaves at the witness put it in its pendant tree's core.
    for extra in (0, 2, 4):
        families["TI-2"].append(cycle_with_attachments(4, tails={0: extra}, leaves={0: 2}))
    for count in (2, 4, 6):
        families["TI-2"].append(cycle_with_attachments(4, leaves={0: count}))
    for count in (2, 4, 6):
        families["TI-2"].append(cycle_with_attachments(8, leaves={0: count}))
    families["TI-2"].append(cycle_with_attachments(12, leaves={0: 2}))
    # A single even-order pendant path leaves the witness among its tree's N-vertices.
    for tail in (1, 3, 5, 7, 9):
        families["TI-3"].append(cycle_with_attachments(4, tails={0: tail}))
    for tail in (1, 3, 5):
        families["TI-3"].append(cycle_with_attachments(8, tails={0: tail}))
    for tail in (1, 3):
        families["TI-3"].append(cycle_with_attachments(12, tails={0: tail}))
    # Complement with a kernel vector whose sum at the witness's cycle
    # neighbors is nonzero: cycle length 2 mod 4, or a second pendant path
    # across the cycle turning the complement into a singular star.
    for tail in (1, 3, 5, 7):
        families["TI-4"].append(cycle_with_attachments(6, tails={0: tail}))
    for tail in (1, 3):
        families["TI-4"].append(cycle_with_attachments(10, tails={0: tail}))
    for count in (2, 4, 6):
        families["TI-4"].append(cycle_with_attachments(6, leaves={0: count}))
    families["TI-4"].append(cycle_with_attachments(10, leaves={0: 2}))
    families["TI-4"].append(cycle_with_attachments(4, tails={0: 1, 2: 1}))
    # Plain cycles and odd-order pendant paths keep every cycle vertex supported.
    for length in (3, 5, 6, 7, 9, 10, 11, 13, 14):
        families["TII-non4k"].append(cycle_graph(length))
    families["TII-non4k"].append(cycle_with_attachments(5, tails={0: 2}))
    families["TII-non4k"].append(cycle_with_attachments(3, tails={0: 2, 1: 2}))
    for length in (4, 8, 12):
        families["TII-4k"].append(cycle_graph(length))
    for positions in ({0: 2}, {0: 2, 1: 2}, {0: 2, 2: 2}, {0: 2, 1: 2, 2: 2}, {0: 2, 1: 2, 2: 2, 3: 2}):
        families["TII-4k"].append(cycle_with_attachments(4, tails=positions))
    families["TII-4k"].append(cycle_with_attachments(8, tails={0: 2}))
    families["TII-4k"].append(cycle_with_attachments(8, tails={0: 2, 4: 2}))
    return families


@pytest.fixture(scope="session")
def families() -> dict[str, list[Graph]]:
    return case_families()


@pytest.fixture(scope="session")
def random_corpus() -> list[Graph]:
    """500 seeded random unicyclic graphs with 5 <= n <= 14."""
    graphs = []
    for i in range(500):
        n = 5 + i % 10
        graphs.append(generate_unicyclic(GeneratorSpec(n=n, seed=1000 + i)))
    return graphs


@pytest.fixture
def decomposition_calls(monkeypatch) -> Counter:
    """Counts ``forest_decomposition`` calls by (graph, the rooted forest's key set), in every module that calls it."""
    seen: Counter = Counter()

    def counting(h, forest):
        seen[h, frozenset(forest)] += 1
        return forest_decomposition(h, forest)

    for name, module in list(sys.modules.items()):
        if name.startswith("nulldecomp") and getattr(module, "forest_decomposition", None) is forest_decomposition:
            monkeypatch.setattr(module, "forest_decomposition", counting)
    return seen
