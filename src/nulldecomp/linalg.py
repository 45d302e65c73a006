"""Exact rational linear algebra: RREF and canonical null-space bases.

Everything runs over ``fractions.Fraction``, so "this coordinate is zero" is a
decidable, exact test.  That exactness is what the rest of the package is built
on: supports are defined through exact zero/nonzero coordinates, which no
floating-point elimination can provide.

Two routes give the same canonical kernel basis.  ``sparse_null_basis``
serves the production path (``analyze`` and ``rref_null_basis``): it
eliminates over rows built straight from adjacency lists, touching only
nonzero entries, so a graph's sparsity is never expanded into a dense
matrix.  The dense ``rref`` / ``null_space_basis`` on lists of lists is the
independent reference that the check battery (``checks``) and
``same_span`` use.  ``null_basis_on`` is the one place that takes the kernel
of the subgraph a vertex set induces: it builds that subgraph's dense matrix
straight from the whole graph's adjacency lists and returns vectors in the
whole graph's indices.  Every subforest kernel, those the constructed
Type I / Type II bases assemble and those the check battery reads, comes
from it.  The RREF is unique, so both routes return equal Fractions, tuple
for tuple.

Matrices are plain lists of lists of Fractions; vectors are tuples of
Fractions.  All functions are pure and never mutate their arguments.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatch

Vector = tuple[Fraction, ...]
Matrix = list[list[Fraction]]

ZERO = Fraction(0)
ONE = Fraction(1)


def rref(matrix: Sequence[Sequence[Fraction]]) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row echelon form of ``matrix``.

    Returns ``(R, rank, pivot_columns)``.  The RREF is the unique one over the
    rationals; pivoting is plain first-nonzero since exact arithmetic needs no
    numerical care.
    """
    rows = [[Fraction(x) for x in row] for row in matrix]
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, r, tuple(pivots)


def null_space_basis(matrix: Sequence[Sequence[Fraction]]) -> list[Vector]:
    """Canonical kernel basis read off the RREF free columns.

    One vector per free column, carrying 1 at its own free column and 0 at all
    the others; ordered by free-column index.  This normalization makes the
    basis unique, so downstream outputs are reproducible.
    """
    if not matrix:
        return []
    reduced, _, pivots = rref(matrix)
    n_cols = len(matrix[0])
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        coords = [ZERO] * n_cols
        coords[free] = ONE
        for row_idx, pivot_col in enumerate(pivots):
            coords[pivot_col] = -reduced[row_idx][free]
        basis.append(tuple(coords))
    return basis


def null_basis_on(adjacency: Sequence[Sequence[int]], vertices: Iterable[int]) -> list[Vector]:
    """Canonical kernel basis of the subgraph that ``vertices`` induce, in the whole graph's indices.

    ``adjacency`` holds the whole graph's adjacency lists.  Row and column j
    of the subgraph's dense matrix belong to the j-th smallest vertex, as in
    ``Graph.induced_subgraph``, and ``null_space_basis`` reduces it.  Each
    kernel vector comes back over all ``len(adjacency)`` vertices, with its
    coordinate j at that vertex and zeros off ``vertices``.
    """
    vs = sorted(set(vertices))
    matrix = [[ONE if w in nbrs else ZERO for w in vs] for nbrs in (set(adjacency[v]) for v in vs)]
    basis: list[Vector] = []
    for vec in null_space_basis(matrix):
        coords = [ZERO] * len(adjacency)
        for v, x in zip(vs, vec):
            coords[v] = x
        basis.append(tuple(coords))
    return basis


def sparse_null_basis(adjacency: Sequence[Sequence[int]]) -> list[Vector]:
    """Canonical kernel basis of the adjacency matrix of a graph given by its adjacency lists.

    The result equals ``null_space_basis`` of the graph's dense adjacency
    matrix.  Each row is a ``{column: Fraction}`` dict of its nonzero
    entries, and every column keeps the set of rows that are nonzero in it.
    Gauss-Jordan elimination runs over the columns in ascending order and
    takes the first row not yet used as a pivot, as ``rref`` does; only the
    rows with a nonzero in the pivot column are touched.
    """
    n = len(adjacency)
    rows = [{w: ONE for w in adjacency[v]} for v in range(n)]
    holders = [set(row) for row in rows]  # column -> rows nonzero there; A is symmetric
    used = [False] * n
    pivots: dict[int, int] = {}  # pivot column -> its row
    free: list[int] = []
    for c in range(n):
        r = min((i for i in holders[c] if not used[i]), default=None)
        if r is None:
            free.append(c)
            continue
        used[r] = True
        pivots[c] = r
        prow = rows[r]
        if prow[c] != 1:
            inv = ONE / prow[c]
            prow = rows[r] = {k: x * inv for k, x in prow.items()}
        for i in holders[c] - {r}:
            row = rows[i]
            factor = row[c]
            for k, y in prow.items():
                x = row.get(k, ZERO) - factor * y
                if x:
                    row[k] = x
                    holders[k].add(i)
                else:
                    del row[k]
                    holders[k].discard(i)
    basis = {f: [ZERO] * n for f in free}
    for c, r in pivots.items():
        for k, x in rows[r].items():
            if k != c:  # every other entry of a pivot row sits in a free column
                basis[k][c] = -x
    for f in free:
        basis[f][f] = ONE
    return [tuple(basis[f]) for f in free]


def mat_vec(matrix: Sequence[Sequence[Fraction]], vec: Sequence[Fraction]) -> Vector:
    if matrix and len(vec) != len(matrix[0]):
        raise DimensionMismatch(
            f"matrix has {len(matrix[0])} columns, vector has {len(vec)} coordinates"
        )
    return tuple(sum((a * b for a, b in zip(row, vec)), ZERO) for row in matrix)


def is_zero_vector(vec: Iterable[Fraction]) -> bool:
    return all(x == 0 for x in vec)


def vec_add(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vector:
    if len(a) != len(b):
        raise DimensionMismatch(f"vector lengths differ: {len(a)} vs {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


def vec_scale(c: Fraction, vec: Sequence[Fraction]) -> Vector:
    return tuple(c * x for x in vec)


def support_indices(vec: Sequence[Fraction]) -> frozenset[int]:
    """Indices of the nonzero coordinates."""
    return frozenset(i for i, x in enumerate(vec) if x != 0)


def row_space_signature(vectors: Sequence[Sequence[Fraction]]) -> tuple[Vector, ...]:
    """The nonzero RREF rows of the stacked vectors: a canonical form of their span."""
    if not vectors:
        return ()
    reduced, rk, _ = rref([list(v) for v in vectors])
    return tuple(tuple(row) for row in reduced[:rk])


def same_span(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> bool:
    """Exact row-space equality, via uniqueness of the RREF."""
    return row_space_signature(a) == row_space_signature(b)
