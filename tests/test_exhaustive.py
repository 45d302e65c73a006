"""Every tree and every unicyclic graph on at most ten vertices, each once up
to isomorphism, passes every check of the battery, the unicyclic graphs
reach all six cases, and every one of them agrees with the benchmark's
independent reference (``perfbench/reference.py``, which never imports the
package) on its class, case, nullity, alpha and nu.

A rooted tree is its canonical Aho-Hopcroft-Ullman code: "(" followed by
its subtrees' codes, sorted, then ")".  A tree is its least code over every
root.  A unicyclic graph is a cycle with a rooted tree hanging at each cycle
vertex, kept as the least of that sequence of codes under rotation and
reflection.  The counts are OEIS A000081, A000055 and A001429, so the
enumeration neither misses a graph nor repeats one.
"""

from __future__ import annotations

import importlib.util
from functools import cache
from itertools import product
from pathlib import Path

from nulldecomp import Graph, analyze, classify, run_checks

from conftest import assert_reduced_basis_is_eliminated_basis

MAX_N = 10


def _load_reference():
    """``perfbench/reference.py``, loaded from its path: it imports only the standard library."""
    spec = importlib.util.spec_from_file_location("reference", Path(__file__).parents[1] / "perfbench" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference = _load_reference()


def _subtrees(code: str) -> list[str]:
    """The codes of the subtrees at a rooted tree's root."""
    parts, depth, start = [], 0, 1
    for i, ch in enumerate(code[1:-1], start=1):
        depth += 1 if ch == "(" else -1
        if depth == 0:
            parts.append(code[start : i + 1])
            start = i + 1
    return parts


@cache
def rooted_trees(n: int) -> frozenset[str]:
    """Codes of the rooted trees on n vertices: one subtree on k vertices, the rest of the root on n - k."""
    if n == 1:
        return frozenset({"()"})
    return frozenset(
        "(" + "".join(sorted(_subtrees(rest) + [sub])) + ")"
        for k in range(1, n)
        for sub in rooted_trees(k)
        for rest in rooted_trees(n - k)
    )


def _edges(code: str, root: int, first: int) -> list[tuple[int, int]]:
    """The rooted tree a code spells, at ``root``; its other vertices are ``first``, ``first`` + 1, ... in preorder."""
    edges, stack, nxt = [], [root], first
    for ch in code[1:-1]:
        if ch == "(":
            edges.append((stack[-1], nxt))
            stack.append(nxt)
            nxt += 1
        else:
            stack.pop()
    return edges


def _code_at(adjacency: dict[int, list[int]], x: int, parent: int = -1) -> str:
    return "(" + "".join(sorted(_code_at(adjacency, y, x) for y in adjacency[x] if y != parent)) + ")"


@cache
def free_trees(n: int) -> frozenset[str]:
    """The trees on n vertices, each as its least rooted code."""
    out = set()
    for code in rooted_trees(n):
        adjacency: dict[int, list[int]] = {x: [] for x in range(n)}
        for a, b in _edges(code, 0, 1):
            adjacency[a].append(b)
            adjacency[b].append(a)
        out.add(min(_code_at(adjacency, x) for x in range(n)))
    return frozenset(out)


@cache
def unicyclic_graphs(n: int) -> frozenset[tuple[str, ...]]:
    """The unicyclic graphs on n vertices, each as its dihedrally least sequence of pendant-tree codes."""
    out = set()
    for length in range(3, n + 1):
        for sizes in product(range(1, n - length + 2), repeat=length):
            if sum(sizes) != n:
                continue
            for seq in product(*(sorted(rooted_trees(k)) for k in sizes)):
                turns = [seq[i:] + seq[:i] for i in range(length)]
                out.add(min(turns + [turn[::-1] for turn in turns]))
    return frozenset(out)


def _graph(n: int, edges: list[tuple[int, int]]) -> Graph:
    return Graph.from_edges([(f"v{a}", f"v{b}") for a, b in edges], isolated=[f"v{x}" for x in range(n)])


def _unicyclic_graph(seq: tuple[str, ...]) -> Graph:
    """Cycle vertices 0 .. L-1 in order, each the root of its pendant tree."""
    length = len(seq)
    edges = [(i, (i + 1) % length) for i in range(length)]
    first = length
    for i, code in enumerate(seq):
        edges += _edges(code, i, first)
        first += code.count("(") - 1
    return _graph(first, edges)


def _failed(g: Graph) -> list[str]:
    return [name for name, ok in run_checks(g).items() if not ok]


def test_rooted_tree_counts():
    assert [len(rooted_trees(n)) for n in range(1, 8)] == [1, 1, 2, 4, 9, 20, 48]


def test_every_tree_passes_every_check():
    trees = {n: free_trees(n) for n in range(1, MAX_N + 1)}
    assert [len(trees[n]) for n in trees] == [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]
    for n, codes in trees.items():
        for code in codes:
            g = _graph(n, _edges(code, 0, 1))
            assert classify(g) is None
            assert _failed(g) == [], g.to_edge_list()


def test_every_unicyclic_graph_passes_every_check():
    graphs = {n: unicyclic_graphs(n) for n in range(3, MAX_N + 1)}
    assert [len(graphs[n]) for n in graphs] == [1, 2, 5, 13, 33, 89, 240, 657]
    cases = set()
    for seqs in graphs.values():
        for seq in seqs:
            g = _unicyclic_graph(seq)
            cases.add(classify(g).case)
            assert _failed(g) == [], g.to_edge_list()
    assert cases == {"TI-1", "TI-2", "TI-3", "TI-4", "TII-non4k", "TII-4k"}


def test_every_unicyclic_graphs_reduced_basis_is_its_eliminated_basis():
    for n in range(3, MAX_N + 1):
        for seq in unicyclic_graphs(n):
            assert_reduced_basis_is_eliminated_basis(_unicyclic_graph(seq))


def test_every_graph_matches_the_independent_reference():
    graphs = [_graph(n, _edges(code, 0, 1)) for n in range(1, MAX_N + 1) for code in free_trees(n)]
    graphs += [_unicyclic_graph(seq) for n in range(3, MAX_N + 1) for seq in unicyclic_graphs(n)]
    keys = ("class", "case", "nullity", "alpha", "nu")
    for g in graphs:
        ours = analyze(g).to_dict()
        theirs = reference.analyze(g.adjacency)
        assert {k: ours[k] for k in keys} == {k: theirs[k] for k in keys}, g.to_edge_list()
