"""Labeled simple undirected graphs with dense indices, plus structure queries.

Every graph uses dense indices 0..n-1 assigned by ascending lexicographic
label order, so all derived output (bases, decompositions, reports) is
deterministic for a given vertex set.

Edge-list text format: one edge per line as two whitespace-separated labels;
a line with a single token declares an isolated vertex; blank lines and lines
starting with ``#`` are ignored.  So a label is one ``str.split()`` token (not
empty, no whitespace or line break) that does not start with ``#``, and
``parse_edge_list``, ``Graph.from_edges`` and the ``Graph`` constructor
refuse any other label.

Each graph is checked once: ``Graph(labels, adjacency)`` validates its
arguments, while ``parse_edge_list`` and ``Graph.from_edges`` are checked in
``_build`` and derived graphs are canonical by construction, so neither runs
the constructor's checks.

Graphs are immutable; every operation is a pure function returning new values.

``unicyclic.classify`` decides the class, the cycle and the pendant trees in
one leaf peel, and every production route takes its answer.  So
``is_forest`` and ``is_unicyclic`` have no production caller.  Tests use
them as oracles, and they stay because the benchmark's tracer
(``perfbench/tracing.py``) wraps them by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .errors import (
    DuplicateEdge,
    EmptyInput,
    MalformedLine,
    SelfLoop,
    UnknownVertex,
)
from .linalg import Matrix


@dataclass(frozen=True)
class Graph:
    """Canonical simple undirected graph.

    ``labels`` is lexicographically sorted and index i belongs to labels[i];
    adjacency lists are sorted ascending.  Construct through
    :func:`parse_edge_list`, :meth:`Graph.from_edges`, or the derived-graph
    methods, all of which produce this canonical form by construction and
    so skip the checks below.  Called directly, the constructor validates
    its arguments: labels, order, index range and symmetry; a label the
    edge-list format cannot carry is refused (``MalformedLine``).
    """

    labels: tuple[str, ...]
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for label in self.labels:
            if problem := _label_problem(label):
                raise MalformedLine(problem)
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise ValueError("duplicate labels")
        if len(self.adjacency) != n:
            raise ValueError("adjacency length does not match label count")
        if any(self.labels[i] > self.labels[i + 1] for i in range(n - 1)):
            raise ValueError("labels not sorted")
        neighbor_sets = [set(nbrs) for nbrs in self.adjacency]
        for i, nbrs in enumerate(self.adjacency):
            if list(nbrs) != sorted(neighbor_sets[i]):
                raise ValueError(f"adjacency list of vertex {i} not sorted/distinct")
            if i in neighbor_sets[i]:
                raise ValueError(f"self-loop at vertex {i}")
            for j in nbrs:
                if not 0 <= j < n:
                    raise ValueError(f"neighbor index {j} out of range")
                if i not in neighbor_sets[j]:
                    raise ValueError(f"asymmetric edge {i}-{j}")

    @staticmethod
    def from_edges(edges: Iterable[tuple[str, str]], isolated: Iterable[str] = ()) -> Graph:
        """Build the canonical graph on the given labeled edges and isolated labels.

        Raises EmptyInput / MalformedLine / SelfLoop / DuplicateEdge as the
        parser does, without line context.
        """
        pairs = (((a, b), None, None) for a, b in edges)
        vertices = (((v,), None, None) for v in isolated)
        return _build(chain(pairs, vertices))

    # -- basic queries ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    @cached_property
    def _index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownVertex(f"unknown vertex label {label!r}") from None

    def label_set(self, indices: Iterable[int]) -> frozenset[str]:
        return frozenset(self.labels[i] for i in indices)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def neighborhood(self, vertices: Iterable[int]) -> frozenset[int]:
        """Union of open neighborhoods of the given vertices."""
        out: set[int] = set()
        for v in vertices:
            out.update(self.adjacency[v])
        return frozenset(out)

    def is_independent_set(self, vertices: Iterable[int]) -> bool:
        vs = set(vertices)
        return all(not (set(self.adjacency[v]) & vs) for v in vs)

    # -- connectivity and class tests ------------------------------------

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components as sorted index tuples, ordered by smallest member."""
        seen: set[int] = set()
        comps: list[tuple[int, ...]] = []
        for start in range(self.n):
            if start in seen:
                continue
            stack = [start]
            comp = {start}
            seen.add(start)
            while stack:
                v = stack.pop()
                for w in self.adjacency[v]:
                    if w not in seen:
                        seen.add(w)
                        comp.add(w)
                        stack.append(w)
            comps.append(tuple(sorted(comp)))
        return tuple(comps)

    def is_connected(self) -> bool:
        return self.n == 0 or len(self.components()) == 1

    def is_forest(self) -> bool:
        return self.edge_count == self.n - len(self.components())

    def is_unicyclic(self) -> bool:
        """Connected with exactly one cycle, i.e. connected and |E| = |V|."""
        return self.n > 0 and self.is_connected() and self.edge_count == self.n

    # -- derived graphs ---------------------------------------------------

    def induced_subgraph(self, vertices: Iterable[int]) -> Graph:
        """Induced subgraph on the given indices; labels are preserved.

        The new graph's index j corresponds to ``sorted(vertices)[j]`` here,
        because label order is inherited from this graph.
        """
        vs = sorted(set(vertices))
        for v in vs:
            if not 0 <= v < self.n:
                raise UnknownVertex(f"vertex index {v} out of range")
        pos = {v: j for j, v in enumerate(vs)}
        adjacency = tuple(
            tuple(pos[w] for w in self.adjacency[v] if w in pos) for v in vs
        )
        return _canonical(tuple(self.labels[v] for v in vs), adjacency)

    def delete_vertices(self, vertices: Iterable[int]) -> Graph:
        drop = set(vertices)
        return self.induced_subgraph(v for v in range(self.n) if v not in drop)

    def adjacency_matrix(self) -> Matrix:
        """Dense 0/1 adjacency matrix in index order, as exact rationals."""
        zero, one = Fraction(0), Fraction(1)
        matrix = [[zero] * self.n for _ in range(self.n)]
        for v, nbrs in enumerate(self.adjacency):
            for w in nbrs:
                matrix[v][w] = one
        return matrix

    # -- serialization ----------------------------------------------------

    def to_edge_list(self) -> str:
        """Canonical edge-list text; ``parse_edge_list`` inverts this exactly for every nonempty graph."""
        lines = [f"{self.labels[u]} {self.labels[v]}" for u, v in self.edges()]
        lines.extend(self.labels[v] for v in range(self.n) if not self.adjacency[v])
        return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class CycleInfo:
    """The unique cycle of a unicyclic graph, canonically oriented.

    Traversal starts at the smallest-index cycle vertex and proceeds toward
    its smaller-index cycle neighbor, which pins down one of the two possible
    orientations.  Constructions that hang off an explicit cycle indexing
    depend on this being reproducible.
    """

    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices)

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def neighbors_on_cycle(self, v: int) -> tuple[int, int]:
        i = self.vertices.index(v)
        return (self.vertices[i - 1], self.vertices[(i + 1) % len(self.vertices)])

    def path_around(self, v: int) -> tuple[int, ...]:
        """The cycle less v: the path from v's successor round to its predecessor."""
        i = self.vertices.index(v)
        return self.vertices[i + 1:] + self.vertices[:i]


def _label_problem(label: str) -> str | None:
    """Why ``label`` breaks the label rule (one ``str.split()`` token, no leading ``#``), or None."""
    if not isinstance(label, str) or label.split() != [label]:
        return f"label {label!r} is not one token"
    if label.startswith("#"):
        return "a label may not start with '#'"
    return None


def _canonical(labels: tuple[str, ...], adjacency: tuple[tuple[int, ...], ...]) -> Graph:
    """The graph on arguments canonical by construction (``_build``'s, a derived graph's), unchecked."""
    g = object.__new__(Graph)
    g.__dict__.update(labels=labels, adjacency=adjacency)
    return g


def _build(entries: Iterable[tuple[Sequence[str], int | None, str | None]]) -> Graph:
    """Check and build the canonical graph from entries of one label (a vertex) or two (an edge).

    Each entry carries the line number and raw line an error names, or None
    for both.  Checks run in this order: the label rule once per distinct
    label, the arity, self-loops, duplicates on the neighbour sets as they are
    built, and last that there is a vertex (the parser refuses empty text).
    """
    nbrs: dict[str, set[str]] = {}
    for labels, line_no, raw in entries:
        for label in labels:
            if label not in nbrs:
                if problem := _label_problem(label):
                    raise MalformedLine(problem, line_no, raw)
                nbrs[label] = set()
        if len(labels) == 2:
            a, b = labels
            if a == b:
                raise SelfLoop(f"self-loop at {a!r}", line_no, raw)
            if b in nbrs[a]:
                raise DuplicateEdge(f"duplicate edge {a!r} {b!r}", line_no, raw)
            nbrs[a].add(b)
            nbrs[b].add(a)
        elif len(labels) != 1:
            raise MalformedLine("expected one or two tokens", line_no, raw)
    if not nbrs:
        raise EmptyInput("no vertices or edges in input")
    order = sorted(nbrs)
    index = {label: i for i, label in enumerate(order)}
    return _canonical(tuple(order), tuple(tuple(sorted([index[w] for w in nbrs[label]])) for label in order))


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text into a canonical :class:`Graph`.

    Raises EmptyInput, or MalformedLine / SelfLoop / DuplicateEdge naming
    the offending line; a label starting with ``#`` is a MalformedLine.
    """
    return _build(
        (tokens, line_no, raw)
        for line_no, raw in enumerate(text.splitlines(), start=1)
        if (tokens := raw.split()) and not tokens[0].startswith("#")
    )
