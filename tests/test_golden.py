"""Golden outputs: refactors must leave every user-visible byte unchanged.

For the conftest examples and a seeded corpus of unicyclic graphs and forests
(n 5-30, every case TI-1 .. TII-4k and Forest), ``tests/golden/outputs.json``
holds the sha256 of the exact output of ``analyze --json``, of
``basis --json`` with each method, and of the sorted ``run_checks`` map.

The file was recorded once and is not meant to be regenerated to make a
change pass.  A new output format that changes it on purpose is recorded with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from nulldecomp import GeneratorSpec, Graph, checks, classify, generate_unicyclic, linalg, parse_edge_list, run_checks, unicyclic
from nulldecomp.cli import main
from nulldecomp.errors import DimensionMismatch
from nulldecomp.linalg import ONE, ZERO, null_space_basis
from nulldecomp.unicyclic import TYPE1, TYPE2, NullBasis

from conftest import EXAMPLE_FIVE_CYCLE, EXAMPLE_FOUR_CYCLE, EXAMPLE_STAR_SGRAPH, EXAMPLE_TYPE1, dense

GOLDEN = Path(__file__).parent / "golden" / "outputs.json"
COMMANDS = {
    "analyze": ["analyze", "--json"],
    "basis_structural": ["basis", "--json", "--method", "structural"],
    "basis_rref": ["basis", "--json", "--method", "rref"],
}
ALL_CASES = {"TI-1", "TI-2", "TI-3", "TI-4", "TII-non4k", "TII-4k", "Forest"}


def corpus() -> dict[str, Graph]:
    """The four conftest examples, 40 seeded unicyclic graphs and six forests cut from them."""
    graphs = {
        "example_type1": parse_edge_list(EXAMPLE_TYPE1),
        "example_star": parse_edge_list(EXAMPLE_STAR_SGRAPH),
        "example_five_cycle": parse_edge_list(EXAMPLE_FIVE_CYCLE),
        "example_four_cycle": parse_edge_list(EXAMPLE_FOUR_CYCLE),
    }
    biases = (None, TYPE1, TYPE2)
    for i in range(40):
        n = 5 + (i * 7) % 26
        length = (None, 4, None, 6, 8, None)[i % 6]
        if length is not None and length > n:
            length = None
        spec = GeneratorSpec(n=n, cycle_length=length, seed=100 + i, class_bias=biases[i % 3])
        g = generate_unicyclic(spec)
        graphs[f"seed{100 + i}"] = g
        cycle = classify(g).cycle.vertices
        if i % 10 == 0:  # a tree: the graph less one cycle edge
            cut = {g.labels[cycle[0]], g.labels[cycle[1]]}
            graphs[f"seed{100 + i}_tree"] = Graph.from_edges(
                (g.labels[u], g.labels[v]) for u, v in g.edges() if {g.labels[u], g.labels[v]} != cut
            )
        elif i % 10 == 5 and g.n > len(cycle):  # a forest: the graph less its cycle
            graphs[f"seed{100 + i}_forest"] = g.delete_vertices(cycle)
    return graphs


CORPUS = corpus()


def _cli_output(argv: list[str], edges: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.edges"
        path.write_text(edges, encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([argv[0], str(path), *argv[1:]])
    assert code == 0, (argv, code)
    return out.getvalue()


def outputs(g: Graph) -> dict[str, str]:
    """Every golden output of one graph, as text."""
    edges = g.to_edge_list()
    texts = {key: _cli_output(argv, edges) for key, argv in COMMANDS.items()}
    texts["checks"] = json.dumps(sorted(run_checks(g).items()))
    return texts


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record() -> dict:
    golden = {}
    for name, g in CORPUS.items():
        texts = outputs(g)
        golden[name] = {"case": json.loads(texts["analyze"])["case"]}
        golden[name].update((key, _digest(text)) for key, text in texts.items())
    return golden


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_corpus_covers_every_case(golden):
    assert set(golden) == set(CORPUS)
    assert {entry["case"] for entry in golden.values()} == ALL_CASES


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_outputs_match_golden(golden, name):
    texts = outputs(CORPUS[name])
    for key, text in texts.items():
        assert _digest(text) == golden[name][key], f"{name}: {key} changed:\n{text}"


# -- tripwires: the production kernels and the battery's reference stay apart,
# -- and classification reads g itself, never a subgraph built from it

EXAMPLES = ("example_type1", "example_star", "example_five_cycle", "example_four_cycle")


@pytest.mark.parametrize("name", EXAMPLES + ("seed103", "seed100_tree", "seed125_forest"))
def test_whole_graph_kernels_need_no_dense_elimination(golden, monkeypatch, name):
    # Every production kernel, of the whole graph and of each subforest the
    # constructed Type I / Type II bases read, comes from the sparse
    # elimination linalg.null_basis_on or, for a whole forest's basis by
    # either method, from linalg.forest_null_basis_on, so no command here
    # reduces a dense matrix.  seed103 is a TI-4 graph: its corrected vector
    # reads T_v - v.
    def refuse(*args, **kwargs):
        raise AssertionError("dense elimination or a subgraph on the production path")

    monkeypatch.setattr(linalg, "rref", refuse)
    monkeypatch.setattr(Graph, "adjacency_matrix", refuse)
    monkeypatch.setattr(Graph, "induced_subgraph", refuse)
    g = CORPUS[name]
    for key in ("analyze", "basis_rref", "basis_structural"):
        assert _digest(_cli_output(COMMANDS[key], g.to_edge_list())) == golden[name][key], key


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_constructed_bases_build_no_subgraph(golden, monkeypatch, name):
    # Every subforest kernel of the Type I / Type II bases comes from
    # linalg.null_basis_on, which reads g's adjacency lists.
    def refuse(*args, **kwargs):
        raise AssertionError("a subgraph or a whole-graph dense matrix on the constructed basis path")

    monkeypatch.setattr(Graph, "adjacency_matrix", refuse)
    monkeypatch.setattr(Graph, "induced_subgraph", refuse)
    g = CORPUS[name]
    text = _cli_output(COMMANDS["basis_structural"], g.to_edge_list())
    assert _digest(text) == golden[name]["basis_structural"]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_battery_builds_no_dense_adjacency_matrix(golden, monkeypatch, name):
    # The battery tests A(G)·v = 0 over g's adjacency lists and builds every
    # reference matrix in checks._reference_kernel, so the check map stays
    # the same with the dense whole-graph matrix and its product refused.
    def refuse(*args, **kwargs):
        raise AssertionError("a dense whole-graph matrix or product in the check battery")

    monkeypatch.setattr(Graph, "adjacency_matrix", refuse)
    monkeypatch.setattr(linalg, "mat_vec", refuse)
    monkeypatch.setattr(checks, "mat_vec", refuse, raising=False)
    text = json.dumps(sorted(run_checks(CORPUS[name]).items()))
    assert _digest(text) == golden[name]["checks"]


@pytest.mark.parametrize("name", ["example_type1", "example_four_cycle", "seed125_forest"])
def test_battery_refuses_a_vector_of_the_wrong_length(monkeypatch, name):
    # A coordinate at index n, past the last vertex, must not pass as annihilated.
    g = CORPUS[name]

    def one_too_long(real):
        def build(*args):
            basis = real(*args)
            return NullBasis(({**basis.vectors[0], g.n: ONE},) + basis.vectors[1:], basis.provenance)

        return build

    for routine in ("constructed_null_basis", "rref_null_basis"):
        monkeypatch.setattr(checks, routine, one_too_long(getattr(checks, routine)))
    with pytest.raises(DimensionMismatch):
        run_checks(g)


def _plant_kernel(monkeypatch, planted, kernel: str = "null_basis_on") -> None:
    """Rebind every package module's ``kernel`` (a ``linalg`` function) to ``planted(real, *args)``."""
    real = getattr(linalg, kernel)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("nulldecomp") and getattr(module, kernel, None) is real:
            monkeypatch.setattr(module, kernel, functools.partial(planted, real))


def _whole_graph_kernel(g: Graph) -> str:
    """The production kernel ``rref_null_basis`` reads g's basis from: a unicyclic graph's subforest kernels."""
    return "forest_null_basis_on" if classify(g) is None else "null_basis_on"


@pytest.mark.parametrize("name", sorted(name for name, g in CORPUS.items() if classify(g) is None))
def test_analyze_reads_a_forest_without_a_kernel(golden, monkeypatch, name):
    # A forest's decomposition comes from a maximum matching, so analyze
    # gives the same bytes with every sparse kernel refused.
    def refuse(real, adjacency, vertices):
        raise AssertionError("a kernel on analyze's forest path")

    _plant_kernel(monkeypatch, refuse)
    text = _cli_output(COMMANDS["analyze"], CORPUS[name].to_edge_list())
    assert _digest(text) == golden[name]["analyze"]


@pytest.mark.parametrize("name", sorted(name for name, g in CORPUS.items() if classify(g) is not None))
def test_a_unicyclic_graph_is_never_eliminated_whole(golden, monkeypatch, name):
    # Its canonical basis is its constructed basis brought to reduced echelon
    # form, so analyze, basis --method rref and the battery give the same
    # answers with null_basis_on refused on every vertex of g.
    def refuse_whole(real, adjacency, vertices):
        vertices = frozenset(vertices)
        if len(vertices) == len(adjacency):
            raise AssertionError("a whole-graph elimination of a unicyclic graph")
        return real(adjacency, vertices)

    _plant_kernel(monkeypatch, refuse_whole)
    g = CORPUS[name]
    for key in ("analyze", "basis_rref"):
        assert _digest(_cli_output(COMMANDS[key], g.to_edge_list())) == golden[name][key], key
    checks = run_checks(g)
    assert all(checks.values())
    assert _digest(json.dumps(sorted(checks.items()))) == golden[name]["checks"]


@pytest.mark.parametrize("name", sorted(name for name, g in CORPUS.items() if classify(g) is None))
def test_basis_reads_a_forest_without_elimination(golden, monkeypatch, name):
    # A forest's basis comes off a maximum matching (forest_null_basis_on),
    # so basis gives the same bytes by either method with every sparse and
    # dense elimination refused.
    def refuse(*args):
        raise AssertionError("an elimination on basis's forest path")

    _plant_kernel(monkeypatch, refuse)
    monkeypatch.setattr(linalg, "rref", refuse)
    for key in ("basis_structural", "basis_rref"):
        text = _cli_output(COMMANDS[key], CORPUS[name].to_edge_list())
        assert _digest(text) == golden[name][key], key


@pytest.mark.parametrize("name", ["example_type1", "seed125_forest"])
def test_battery_catches_a_faulty_sparse_kernel(monkeypatch, name):
    # The fault goes into the kernel g's whole-graph basis comes from:
    # forest_null_basis_on for the forest, and for example_type1 null_basis_on,
    # which gives the subforest kernels its basis is reduced from.
    def one_short(real, adjacency, vertices):
        return real(adjacency, vertices)[:-1]

    g = CORPUS[name]
    assert all(run_checks(g).values())
    _plant_kernel(monkeypatch, one_short, _whole_graph_kernel(g))
    assert run_checks(g)["basis_count"] is False


@pytest.mark.parametrize("name", ["example_type1", "seed125_forest"])
def test_battery_catches_a_stored_zero(monkeypatch, name):
    # A production vector holds only its nonzero coordinates, so its key set
    # is its support; a 0 stored at another vertex fails basis_count.  The 0
    # goes into the last step of g's canonical basis: forest_null_basis_on for
    # the forest, the reduced echelon pass over the constructed basis for
    # example_type1.
    g = CORPUS[name]

    def with_a_zero(real, *args):
        basis = real(*args)
        outside = min(frozenset(range(g.n)) - basis[0].keys())
        return [{**basis[0], outside: ZERO}] + basis[1:]

    assert all(run_checks(g).values())
    last_step = "forest_null_basis_on" if classify(g) is None else "reduced_echelon_basis"
    _plant_kernel(monkeypatch, with_a_zero, last_step)
    assert run_checks(g)["basis_count"] is False


def test_battery_catches_a_faulty_forest_kernel(monkeypatch):
    # The last vector doubled still annihilates and keeps the count, so only
    # basis_count's comparison of the forest's canonical basis, which the
    # constructed basis shares, with the reference kernel sees it.
    def doubled_last(adjacency, vertices):
        basis = linalg.forest_null_basis_on(adjacency, vertices)
        return basis[:-1] + [{i: 2 * x for i, x in basis[-1].items()}]

    g = CORPUS["seed125_forest"]
    assert all(run_checks(g).values())
    monkeypatch.setattr(unicyclic, "forest_null_basis_on", doubled_last)
    assert {name for name, ok in run_checks(g).items() if not ok} == {"basis_count"}


@pytest.mark.parametrize("name", ["example_type1", "example_four_cycle"])
def test_battery_catches_a_short_subforest_kernel(monkeypatch, name):
    # The whole-graph kernel stays right; only the subforest kernels the
    # constructed basis assembles lose their last vector.
    def one_short_below_g(real, adjacency, vertices):
        vertices = frozenset(vertices)
        basis = real(adjacency, vertices)
        return basis if len(vertices) == len(adjacency) else basis[:-1]

    g = CORPUS[name]
    assert all(run_checks(g).values())
    _plant_kernel(monkeypatch, one_short_below_g)
    whole = unicyclic.null_basis_on(g.adjacency, range(g.n))
    assert [dense(vec, g.n) for vec in whole] == null_space_basis(g.adjacency_matrix())
    checks = run_checks(g)
    assert checks["basis_count"] is False or checks["span_equality"] is False


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
