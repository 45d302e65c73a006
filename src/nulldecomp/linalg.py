"""Exact rational linear algebra: RREF and canonical null-space bases.

Everything runs over ``fractions.Fraction``, so "this coordinate is zero" is a
decidable, exact test.  That exactness is what the rest of the package is built
on: supports are defined through exact zero/nonzero coordinates, which no
floating-point elimination can provide.

``null_basis_on(adjacency, vertices)`` is the one production kernel: the
canonical kernel basis of the subgraph a vertex set induces, by sparse
Gauss-Jordan elimination over rows built straight from the whole graph's
adjacency lists, in the whole graph's indices.  ``analyze``,
``rref_null_basis`` and every subforest kernel of the constructed Type I /
Type II bases come from it; the whole-graph calls pass every vertex.  The
dense ``rref`` / ``null_space_basis`` on lists of lists is the independent
reference that the check battery (``checks``) and ``same_span`` use.  The
RREF is unique, so each sparse vector, written out densely, is the dense one.

A production vector (``Vector``) is the ``{index: Fraction}`` dict of its
nonzero coordinates: its support is its key set.  The reference functions
take lists of lists and n-tuples (``DenseVector``) of Fractions.  All
functions are pure and never mutate their arguments.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatch

Vector = dict[int, Fraction]  # the nonzero coordinates by index; never holds a 0
DenseVector = tuple[Fraction, ...]
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


def null_space_basis(matrix: Sequence[Sequence[Fraction]]) -> list[DenseVector]:
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
    basis: list[DenseVector] = []
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

    ``adjacency`` holds the whole graph's adjacency lists.  Each vector holds
    the nonzeros of a ``null_space_basis`` vector of the induced subgraph's
    dense matrix, coordinate j placed at the j-th smallest vertex.  Each row is
    a ``{column: Fraction}`` dict of its nonzero entries, and every column
    keeps the set of rows nonzero in it.  The columns are eliminated in
    ascending order, each by the first row not yet used as a pivot; only
    rows nonzero in the pivot column are touched.
    """
    keep = set(vertices)
    order = sorted(keep)
    rows = {v: {w: ONE for w in adjacency[v] if w in keep} for v in order}
    holders = {v: set(row) for v, row in rows.items()}  # column -> rows nonzero there; A is symmetric
    used: set[int] = set()
    pivots: dict[int, int] = {}  # pivot column -> its row
    free: list[int] = []
    for c in order:
        r = min((i for i in holders[c] if i not in used), default=None)
        if r is None:
            free.append(c)
            continue
        used.add(r)
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
    basis = {f: {f: ONE} for f in free}
    for c, r in pivots.items():
        for k, x in rows[r].items():
            if k != c:  # every other entry of a pivot row sits in a free column
                basis[k][c] = -x
    return list(basis.values())


def mat_vec(matrix: Sequence[Sequence[Fraction]], vec: Sequence[Fraction]) -> DenseVector:
    if matrix and len(vec) != len(matrix[0]):
        raise DimensionMismatch(
            f"matrix has {len(matrix[0])} columns, vector has {len(vec)} coordinates"
        )
    return tuple(sum((a * b for a, b in zip(row, vec)), ZERO) for row in matrix)


def is_zero_vector(vec: Iterable[Fraction]) -> bool:
    return all(x == 0 for x in vec)


def row_space_signature(vectors: Sequence[Sequence[Fraction]]) -> tuple[DenseVector, ...]:
    """The nonzero RREF rows of the stacked vectors: a canonical form of their span."""
    if not vectors:
        return ()
    reduced, rk, _ = rref([list(v) for v in vectors])
    return tuple(tuple(row) for row in reduced[:rk])


def same_span(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> bool:
    """Exact row-space equality, via uniqueness of the RREF."""
    return row_space_signature(a) == row_space_signature(b)
