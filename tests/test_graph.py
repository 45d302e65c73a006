from __future__ import annotations

import re
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nulldecomp import Graph, classify, graph, parse_edge_list
from nulldecomp.errors import (
    DuplicateEdge,
    EdgeListError,
    EmptyInput,
    MalformedLine,
    SelfLoop,
    UnknownVertex,
)

from conftest import EXAMPLE_TYPE1, cycle_graph, path_graph


def test_parse_smallest_path():
    g = parse_edge_list("a b\nb c")
    assert g.labels == ("a", "b", "c")
    assert g.n == 3 and g.edge_count == 2
    assert g.adjacency == ((1,), (0, 2), (1,))


def test_parse_comments_blanks_isolated():
    g = parse_edge_list("# header\n\na b\n\nz\n")
    assert g.labels == ("a", "b", "z")
    assert g.degree(g.index_of("z")) == 0


def test_parse_errors_name_the_line():
    with pytest.raises(SelfLoop) as err:
        parse_edge_list("a b\na a\n")
    assert "line 2" in str(err.value)
    with pytest.raises(DuplicateEdge) as err:
        parse_edge_list("a b\nb a\n")
    assert "line 2" in str(err.value)
    with pytest.raises(MalformedLine):
        parse_edge_list("a b c\n")
    with pytest.raises(EmptyInput):
        parse_edge_list("# nothing\n\n")


def test_parse_example_type1(ex_type1):
    assert ex_type1.n == 18
    assert ex_type1.edge_count == 18
    assert ex_type1.is_unicyclic()


def test_is_unicyclic():
    assert cycle_graph(4).is_unicyclic()
    assert not path_graph(3).is_unicyclic()
    disconnected = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "a"), ("x", "y")])
    assert not disconnected.is_unicyclic()


def test_find_cycle_canonical_orientation():
    c4 = cycle_graph(4)
    info = classify(c4).cycle
    assert info.length == 4
    assert info.vertices[0] == 0
    assert info.vertices[1] == min(w for w in c4.neighbors(0))
    assert classify(c4).cycle == info  # deterministic


def test_find_cycle_examples(ex_type1, ex_four_cycle):
    info = classify(ex_type1).cycle
    assert ex_type1.label_set(info.vertices) == {"v", "e", "g", "f"}
    info4 = classify(ex_four_cycle).cycle
    assert ex_four_cycle.label_set(info4.vertices) == {"u", "v", "w", "z"}
    assert info4.length == 4


def test_find_cycle_rejects_trees():
    assert classify(path_graph(3)) is None


def test_pendant_trees_partition(ex_type1, ex_four_cycle):
    for g in (ex_type1, ex_four_cycle):
        pend = classify(g).pendant_trees
        sets = list(pend.values())
        assert sum(len(s) for s in sets) == g.n
        assert frozenset().union(*sets) == frozenset(range(g.n))
        for v, s in pend.items():
            assert v in s
            sub = g.induced_subgraph(s)
            assert sub.is_forest() and sub.is_connected()


def test_pendant_trees_example_sets(ex_type1, ex_four_cycle):
    pend = {
        ex_type1.labels[v]: ex_type1.label_set(s)
        for v, s in classify(ex_type1).pendant_trees.items()
    }
    assert pend["e"] == {"e"}
    assert pend["f"] == {"f", "h", "i"}
    assert pend["g"] == {"g", "q", "r"}
    assert pend["v"] == {"v", "c", "a", "b", "d", "j", "l", "o", "m", "n", "p"}
    pend4 = {
        ex_four_cycle.labels[v]: ex_four_cycle.label_set(s)
        for v, s in classify(ex_four_cycle).pendant_trees.items()
    }
    assert pend4["v"] == {"v"}
    assert pend4["z"] == {"z", "a", "b"}
    assert pend4["u"] == {"u", "i", "j", "l"}
    assert pend4["w"] == {"w", "f", "c", "d", "e", "g", "h"}


def test_pendant_trees_plain_cycle():
    c4 = cycle_graph(4)
    assert all(s == {v: -1} for v, s in classify(c4).pendant_trees.items())


def test_induced_subgraph_identity_and_empty(ex_type1):
    assert ex_type1.induced_subgraph(range(ex_type1.n)) == ex_type1
    empty = ex_type1.induced_subgraph([])
    assert empty.n == 0 and empty.edge_count == 0
    with pytest.raises(UnknownVertex):
        ex_type1.induced_subgraph([99])


def test_induced_subgraph_star(ex_star):
    idx = [ex_star.index_of(lab) for lab in ("v6", "v7", "v8", "v9")]
    sub = ex_star.induced_subgraph(idx)
    assert sub.edge_count == 3
    center = sub.index_of("v6")
    assert sub.degree(center) == 3


def test_components(ex_four_cycle):
    cycle_set = classify(ex_four_cycle).cycle.vertex_set()
    rest = ex_four_cycle.delete_vertices(cycle_set)
    comps = [rest.label_set(c) for c in rest.components()]
    assert sorted(map(sorted, comps)) == [
        ["a", "b"],
        ["c", "d", "e", "f", "g", "h"],
        ["i", "j", "l"],
    ]
    assert cycle_graph(5).components() == ((0, 1, 2, 3, 4),)
    assert Graph((), ()).components() == ()


def test_adjacency_matrix():
    edge = Graph.from_edges([("a", "b")])
    assert edge.adjacency_matrix() == [[0, 1], [1, 0]]
    single = Graph.from_edges([], isolated=["a"])
    assert single.adjacency_matrix() == [[0]]
    c4 = cycle_graph(4)
    matrix = c4.adjacency_matrix()
    assert [matrix[0][j] for j in range(4)] == [0, 1, 0, 1]
    for i in range(4):
        assert matrix[i][i] == 0
        assert sum(matrix[i]) == c4.degree(i)
        for j in range(4):
            assert matrix[i][j] == matrix[j][i]


def test_edge_list_round_trip(ex_type1, ex_five_cycle):
    for g in (ex_type1, ex_five_cycle, cycle_graph(5), path_graph(4)):
        assert parse_edge_list(g.to_edge_list()) == g


def test_round_trip_with_isolated_vertices():
    g = Graph.from_edges([("a", "b")], isolated=["q", "z"])
    assert parse_edge_list(g.to_edge_list()) == g


def test_a_label_starting_with_hash_is_refused():
    # Written back out, "#a b" would read as a comment and lose two edges.
    with pytest.raises(MalformedLine, match="line 1.*may not start with '#'"):
        parse_edge_list("b #a\nc b\nc #a\n")
    with pytest.raises(MalformedLine, match="line 2"):
        parse_edge_list("a b\nc #d\n")
    assert parse_edge_list("a# b#c\n").labels == ("a#", "b#c")


EDGE_LIST_LINES = st.lists(
    st.one_of(
        st.lists(st.text(alphabet="ab#", min_size=1, max_size=3), min_size=1, max_size=2).map(" ".join),
        st.sampled_from(["", "# comment", "  "]),
    ),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(EDGE_LIST_LINES)
@example(["b #a", "c b", "c #a"])
@example(["a# b#", "b# #"])
def test_edge_list_round_trip_on_every_accepted_text(lines):
    try:
        g = parse_edge_list("\n".join(lines))
    except EdgeListError:
        return
    assert parse_edge_list(g.to_edge_list()) == g


def reference_parse_edge_list(text: str) -> Graph:
    """The parser as it ran with its own checks before the one builder: the reference
    for the graph every text gives, or the error it raises, line included."""
    edges: list[tuple[str, str]] = []
    isolated: list[str] = []
    seen: set[frozenset[str]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if any(token.startswith("#") for token in tokens):
            raise MalformedLine("a label may not start with '#'", line_no, raw)
        if len(tokens) == 1:
            isolated.append(tokens[0])
            continue
        if len(tokens) != 2:
            raise MalformedLine("expected one or two tokens", line_no, raw)
        a, b = tokens
        if a == b:
            raise SelfLoop(f"self-loop at {a!r}", line_no, raw)
        key = frozenset((a, b))
        if key in seen:
            raise DuplicateEdge(f"duplicate edge {a!r} {b!r}", line_no, raw)
        seen.add(key)
        edges.append((a, b))
    if not edges and not isolated:
        raise EmptyInput("no vertices or edges in input")
    labels = sorted(set(isolated).union(*edges))
    index = {lab: i for i, lab in enumerate(labels)}
    nbrs: list[set[int]] = [set() for _ in labels]
    for a, b in edges:
        nbrs[index[a]].add(index[b])
        nbrs[index[b]].add(index[a])
    return Graph(tuple(labels), tuple(tuple(sorted(s)) for s in nbrs))


def parse_outcome(parse, text: str):
    """The graph, or the error's type, message and line number."""
    try:
        return parse(text)
    except EdgeListError as exc:
        return type(exc), str(exc), exc.line_no


@st.composite
def edge_list_texts(draw) -> str:
    """Lines of 0-3 tokens over ``ab#``, blank and comment lines, each ended by LF or CRLF."""
    lines = draw(
        st.lists(
            st.one_of(
                st.lists(st.text(alphabet="ab#", min_size=1, max_size=3), max_size=3).map(" ".join),
                st.sampled_from(["  ", "# comment", " #a b"]),
            ),
            max_size=10,
        )
    )
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=500, deadline=None)
@given(edge_list_texts())
@example("a b\r\nb a\r\n")
@example("a a b\nb #c\n")
@example("a b c #d\n")
@example("b #a\nc b\nc #a\n")
@example("a\na\nb a\n")
def test_parser_matches_the_reference_parser(text):
    assert parse_outcome(parse_edge_list, text) == parse_outcome(reference_parse_edge_list, text)


# Space and tab, and \x1c and \u2028, which both str.split() and str.splitlines() cut at.
ODD_LABELS = st.text(alphabet=["a", "#", " ", "\t", "\x1c", "\u2028"], max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(ODD_LABELS, ODD_LABELS), max_size=6), st.lists(ODD_LABELS, max_size=3))
@example([("#a", "b")], [])
@example([("", "c")], [])
@example([("a", "b")], ["a b"])
@example([], [])
def test_every_graph_from_edges_accepts_round_trips(edges, isolated):
    try:
        g = Graph.from_edges(edges, isolated)
    except EdgeListError:
        return
    assert parse_edge_list(g.to_edge_list()) == g


def test_the_constructor_refuses_labels_the_edge_list_cannot_carry():
    # "#a b" would read back as a comment, "a b c" as a three-token line.
    for labels in (("#a", "b"), ("a b", "c")):
        with pytest.raises(MalformedLine) as err:
            Graph(labels, ((1,), (0,)))
        assert err.value.line_no is None
    g = Graph(("a#", "b"), ((1,), (0,)))
    assert parse_edge_list(g.to_edge_list()) == g


def test_from_edges_refuses_labels_the_edge_list_cannot_carry():
    cases = [([("#a", "b")], []), ([("", "c")], []), ([("a b", "c")], []), ([("a", "b")], ["a\x1cb"]), ([(1, 2)], [])]
    for edges, isolated in cases:
        with pytest.raises(MalformedLine) as err:
            Graph.from_edges(edges, isolated)
        assert err.value.line_no is None and not str(err.value).startswith("line")
    with pytest.raises(EmptyInput):
        Graph.from_edges([])


def test_asymmetric_adjacency_rejected():
    with pytest.raises(ValueError, match="asymmetric edge 0-1"):
        Graph(("a", "b", "c"), ((1,), (), ()))
    with pytest.raises(ValueError, match="asymmetric edge"):
        Graph(("a", "b", "c"), ((1, 2), (0, 2), (1,)))


@pytest.mark.parametrize("labels, adjacency, message", [
    (("a", "a"), ((), ()), "duplicate labels"),
    (("a", "b"), ((),), "adjacency length does not match label count"),
    (("b", "a"), ((), ()), "labels not sorted"),
    (("a", "b", "c"), ((2, 1), (0,), (0,)), "adjacency list of vertex 0 not sorted/distinct"),
    (("a", "b"), ((1, 1), (0,)), "adjacency list of vertex 0 not sorted/distinct"),
    (("a", "b"), ((0, 1), (0,)), "self-loop at vertex 0"),
    (("a", "b"), ((1,), (0, 2)), "neighbor index 2 out of range"),
])
def test_malformed_constructor_arguments_rejected(labels, adjacency, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Graph(labels, adjacency)


def test_large_star_builds_in_linear_time():
    # Each leaf's edge is checked against the hub's 40k neighbors, so neither
    # the builder's duplicate check nor the constructor's symmetry check may
    # scan that list once per leaf.
    started = time.perf_counter()
    g = Graph.from_edges(("hub", f"leaf{i:05d}") for i in range(40_000))
    assert Graph(g.labels, g.adjacency) == g
    assert time.perf_counter() - started < 2.0
    assert g.n == 40_001 and g.degree(g.index_of("hub")) == 40_000


def test_each_graph_is_validated_once(monkeypatch):
    # The builder checks the label rule once per distinct label; its graph and
    # every derived graph are canonical by construction, so the constructor's
    # checks never run on them.
    checked: Counter[str] = Counter()
    label_problem = graph._label_problem

    def counting(label):
        checked[label] += 1
        return label_problem(label)

    def tripwire(self):
        raise AssertionError("Graph.__post_init__ ran on a graph built inside the package")

    monkeypatch.setattr(graph, "_label_problem", counting)
    monkeypatch.setattr(Graph, "__post_init__", tripwire)
    g = parse_edge_list(EXAMPLE_TYPE1)
    assert checked == Counter(g.labels)
    checked.clear()
    edges = [(g.labels[u], g.labels[v]) for u, v in g.edges()]
    assert Graph.from_edges(edges, isolated=["c", "zz"]).n == g.n + 1
    assert checked == Counter(g.labels + ("zz",))
    checked.clear()
    assert g.induced_subgraph(range(0, g.n, 2)).n == (g.n + 1) // 2
    assert g.delete_vertices([0, 3]).n == g.n - 2
    assert not checked


@settings(max_examples=300, deadline=None)
@given(edge_list_texts(), st.lists(st.tuples(ODD_LABELS, ODD_LABELS), max_size=6), st.data())
def test_every_graph_built_inside_the_package_passes_the_constructor(text, edges, data):
    built = []
    for build in (lambda: parse_edge_list(text), lambda: Graph.from_edges(edges)):
        try:
            built.append(build())
        except EdgeListError:
            pass
    for g in list(built):
        vertices = data.draw(st.sets(st.integers(0, g.n - 1)))
        built += [g.induced_subgraph(vertices), g.delete_vertices(vertices)]
    for g in built:
        assert Graph(g.labels, g.adjacency) == g
