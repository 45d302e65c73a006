"""Exact null-space analysis of trees and unicyclic graphs.

The package computes kernel bases of adjacency matrices in exact rational
arithmetic, derives the support/core/N-vertex decomposition, classifies
unicyclic graphs (Type I / Type II), constructs explicit kernel bases from
subgraph kernels, and evaluates closed formulas for the independence and
matching numbers, all cross-validated against brute-force oracles.
"""

from .decomposition import (
    AnalysisReport,
    CASE_FOREST,
    CASE_TI1,
    CASE_TI2,
    CASE_TI3,
    CASE_TI4,
    CASE_TII_4K,
    CASE_TII_NON4K,
    Decomposition,
    alpha,
    analyze,
    decomposition_from_basis,
    nu,
    structural_decomposition,
)
from .generator import GeneratorSpec, generate_unicyclic
from .graph import CycleInfo, Graph, find_cycle, parse_edge_list, pendant_trees
from .linalg import Matrix, Vector, mat_vec, null_space_basis, nullity, rref, same_span
from .oracle import (
    OracleBudget,
    brute_alpha,
    brute_nu,
    edmonds_gallai_set,
    max_independent_intersection,
    maximum_independent_sets,
    maximum_matchings,
)
from .trees import (
    TreeDecomposition,
    full_support_vector,
    tree_alpha,
    tree_decomposition,
    tree_nu,
)
from .unicyclic import (
    NullBasis,
    UnicyclicClass,
    classify,
    constructed_null_basis,
    cycle_nullity,
    extend_vector,
    rref_null_basis,
    type1_null_basis,
    type2_null_basis,
)
from .checks import run_checks

__all__ = [
    "AnalysisReport",
    "CASE_FOREST",
    "CASE_TI1",
    "CASE_TI2",
    "CASE_TI3",
    "CASE_TI4",
    "CASE_TII_4K",
    "CASE_TII_NON4K",
    "CycleInfo",
    "Decomposition",
    "Graph",
    "GeneratorSpec",
    "Matrix",
    "NullBasis",
    "OracleBudget",
    "TreeDecomposition",
    "UnicyclicClass",
    "Vector",
    "alpha",
    "analyze",
    "brute_alpha",
    "brute_nu",
    "classify",
    "constructed_null_basis",
    "cycle_nullity",
    "decomposition_from_basis",
    "edmonds_gallai_set",
    "extend_vector",
    "find_cycle",
    "full_support_vector",
    "generate_unicyclic",
    "mat_vec",
    "max_independent_intersection",
    "maximum_independent_sets",
    "maximum_matchings",
    "nu",
    "null_space_basis",
    "nullity",
    "parse_edge_list",
    "pendant_trees",
    "rref",
    "rref_null_basis",
    "run_checks",
    "same_span",
    "structural_decomposition",
    "tree_alpha",
    "tree_decomposition",
    "tree_nu",
    "type1_null_basis",
    "type2_null_basis",
]
