"""Exact null-space analysis of trees and unicyclic graphs.

The package computes kernel bases of adjacency matrices in exact rational
arithmetic, derives the support/core/N-vertex decomposition, classifies
unicyclic graphs (Type I / Type II and the case), constructs explicit kernel
bases from subgraph kernels, and evaluates closed formulas for the
independence and matching numbers, all cross-validated against brute-force
oracles.

The package namespace holds the entry points README documents; everything
else is imported from its own module (``nulldecomp.linalg``,
``nulldecomp.decomposition``, ...).
"""

from .decomposition import analyze
from .generator import GeneratorSpec, generate_unicyclic
from .graph import Graph, parse_edge_list
from .unicyclic import classify, constructed_null_basis
from .checks import run_checks

__all__ = [
    "Graph",
    "GeneratorSpec",
    "analyze",
    "classify",
    "constructed_null_basis",
    "generate_unicyclic",
    "parse_edge_list",
    "run_checks",
]
