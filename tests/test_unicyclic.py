from __future__ import annotations

from fractions import Fraction

import pytest

from nulldecomp import Graph, classify, constructed_null_basis, parse_edge_list
from nulldecomp.errors import NotUnicyclic, WrongType
from nulldecomp.linalg import is_zero_vector, mat_vec, null_space_basis, same_span
from nulldecomp.unicyclic import (
    CORRECTED,
    CYCLE_ALTERNATING,
    EXTENDED_COMPLEMENT,
    EXTENDED_FOREST,
    EXTENDED_PENDANT,
    TYPE1,
    TYPE2,
    cycle_nullity,
    recursion_nullity,
    rref_null_basis,
    type1_null_basis,
    type2_null_basis,
)

from conftest import cycle_graph, cycle_with_attachments, path_graph


def coords(g: Graph, vec) -> dict[str, Fraction]:
    return {g.labels[i]: x for i, x in enumerate(vec) if x != 0}


def test_classify_plain_cycles_type2():
    for length in (3, 4, 5, 8):
        cls = classify(cycle_graph(length))
        assert cls.tag == TYPE2 and cls.witness is None


def test_classify_examples(ex_type1, ex_four_cycle):
    cls = classify(ex_type1)
    assert cls.tag == TYPE1
    assert ex_type1.labels[cls.witness] == "v"
    assert classify(ex_four_cycle).tag == TYPE2


def test_classify_smallest_witness():
    # Leaves at two cycle vertices: both pendant trees fail the support test;
    # the witness is the smaller index.
    g = cycle_with_attachments(4, tails={0: 1, 2: 1})
    cls = classify(g)
    assert cls.tag == TYPE1
    assert g.labels[cls.witness] == "c00"


def test_classify_rejects_non_unicyclic():
    with pytest.raises(NotUnicyclic):
        classify(path_graph(4))


def test_cycle_nullity_closed_form():
    assert [cycle_nullity(n) for n in (3, 4, 5, 6, 7, 8)] == [0, 2, 0, 0, 0, 2]


def test_unicyclic_nullity_examples(ex_four_cycle):
    for g, expected in ((cycle_graph(4), 2), (cycle_graph(5), 0), (ex_four_cycle, 5)):
        cls = classify(g)
        recursion = recursion_nullity(g, cls.pendant_trees, cls.witness)
        assert recursion == len(null_space_basis(g.adjacency_matrix())) == expected


def test_type1_basis_zero_sum_branch():
    # 4-cycle with a pendant leaf: the complement path's kernel vector has
    # vanishing sum at the witness's cycle neighbors, so plain extension works.
    g = cycle_with_attachments(4, tails={0: 1})
    cls = classify(g)
    basis = type1_null_basis(g, cls)
    assert len(basis.vectors) == 1
    assert basis.provenance == (EXTENDED_COMPLEMENT,)
    (vec,) = basis.vectors
    witness = cls.witness
    leaf = g.index_of("t00x00")
    assert vec[witness] == 0 and vec[leaf] == 0
    assert is_zero_vector(mat_vec(g.adjacency_matrix(), vec))


def test_type1_basis_corrected_branch():
    # 6-cycle with a pendant leaf: kernel vector coordinates were worked out
    # by hand from the corrected-vector construction.
    g = parse_edge_list("v u\nu a\na b\nb c\nc w\nw v\nv l")
    cls = classify(g)
    assert g.labels[cls.witness] == "v"
    basis = type1_null_basis(g, cls)
    assert basis.provenance == (CORRECTED,)
    (vec,) = basis.vectors
    assert coords(g, vec) == {
        "u": Fraction(-1, 2),
        "b": Fraction(1, 2),
        "w": Fraction(-1, 2),
        "l": Fraction(1),
    }
    assert is_zero_vector(mat_vec(g.adjacency_matrix(), vec))


def test_type1_basis_empty_for_nonsingular():
    g = parse_edge_list("1 2\n2 3\n3 1\n1 4")
    cls = classify(g)
    assert cls.tag == TYPE1
    assert type1_null_basis(g, cls).vectors == ()


def test_type1_pendant_vectors_present(ex_type1):
    cls = classify(ex_type1)
    basis = type1_null_basis(ex_type1, cls)
    assert len(basis.vectors) == 2
    assert EXTENDED_PENDANT in basis.provenance
    matrix = ex_type1.adjacency_matrix()
    for vec in basis.vectors:
        assert is_zero_vector(mat_vec(matrix, vec))
    assert same_span(basis.vectors, rref_null_basis(ex_type1).vectors)


def test_type2_basis_plain_c4_alternating():
    g = cycle_graph(4)
    basis = type2_null_basis(g, classify(g))
    assert basis.provenance == (CYCLE_ALTERNATING, CYCLE_ALTERNATING)
    z1, z2 = basis.vectors
    assert coords(g, z1) == {"c00": Fraction(-1), "c02": Fraction(1)}
    assert coords(g, z2) == {"c01": Fraction(-1), "c03": Fraction(1)}


def test_type2_basis_plain_c5_empty():
    g = cycle_graph(5)
    assert type2_null_basis(g, classify(g)).vectors == ()


def test_type2_basis_four_cycle_example(ex_four_cycle):
    g = ex_four_cycle
    basis = type2_null_basis(g, classify(g))
    assert len(basis.vectors) == 5
    assert basis.provenance.count(EXTENDED_FOREST) == 3
    assert basis.provenance.count(CYCLE_ALTERNATING) == 2
    matrix = g.adjacency_matrix()
    for vec in basis.vectors:
        assert is_zero_vector(mat_vec(matrix, vec))
    assert same_span(basis.vectors, null_space_basis(matrix))


def test_wrong_type_errors(ex_type1, ex_four_cycle):
    with pytest.raises(WrongType):
        type2_null_basis(ex_type1, classify(ex_type1))
    with pytest.raises(WrongType):
        type1_null_basis(ex_four_cycle, classify(ex_four_cycle))


def test_constructed_basis_dispatch(ex_type1, ex_four_cycle):
    assert CORRECTED not in constructed_null_basis(ex_four_cycle, classify(ex_four_cycle)).provenance
    for g in (ex_type1, ex_four_cycle, path_graph(5)):
        basis = constructed_null_basis(g, classify(g) if g.is_unicyclic() else None)
        assert len(basis.vectors) == len(null_space_basis(g.adjacency_matrix()))


def test_degenerate_full_support_regression():
    # Pendant tree whose deleted forest admits a full-support kernel vector
    # with vanishing neighbor sum at the witness; the construction must pick
    # a combination with nonzero sum or the basis collapses.
    g = parse_edge_list("v u\nu x1\nx1 x2\nx2 x3\nx3 w\nw v\nv a\na m\nm b\nv c")
    cls = classify(g)
    assert g.labels[cls.witness] == "v"
    basis = type1_null_basis(g, cls)
    matrix = g.adjacency_matrix()
    assert len(basis.vectors) == len(null_space_basis(matrix))
    for vec in basis.vectors:
        assert is_zero_vector(mat_vec(matrix, vec))
    assert same_span(basis.vectors, rref_null_basis(g).vectors)
