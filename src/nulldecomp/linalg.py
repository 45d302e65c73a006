"""Exact rational linear algebra: the leaf peel, canonical kernel bases and the dense reference.

Everything runs over ``fractions.Fraction``, so "this coordinate is zero" is a
decidable, exact test; supports are defined through it, which no
floating-point elimination could do.

``peel(adjacency)`` is the one routine that roots a forest.  It peels a whole
graph to its 2-core and returns the core with the rooted forest that hangs
on it (``Forest``: vertex -> parent, parents first).  A forest comes back
whole; a unicyclic graph's pendant trees hang on its cycle, each rooted at
its cycle vertex, and ``unicyclic.piece`` cuts every other forest from them.

Two production kernels give the canonical kernel basis of an induced
subgraph from the whole graph's adjacency lists, in its indices.
``forest_null_basis_on(adjacency, forest)`` takes a rooted forest and
eliminates nothing: its pivots come from a maximum matching (Cvetković &
Gutman 1972), and its entries are all ±1 (Sander & Sander, LAA 405, 2005).
It gives a whole forest's basis and every subforest kernel of a unicyclic
graph's construction but Type I's G - T_v, which ``null_basis_on(adjacency,
vertices)`` eliminates, as it does a graph that is neither a forest nor
unicyclic (``basis --method rref``).  The one sparse elimination,
``_gauss_jordan``, runs over ascending columns there, and over descending
ones in ``reduced_echelon_basis``, which brings a constructed basis to the
canonical one where one is printed or checked.  Only ``unicyclic`` calls
these three.  The dense ``rref`` / ``null_space_basis`` is the independent
reference of the check battery (``checks``) and ``same_span``: a plain
Gauss-Jordan, dense on purpose so that it shares no sparsity logic with the
production kernels, that converts a non-``Fraction`` entry once and
returns ``Fraction`` entries only.  The RREF is unique, so each sparse
vector, written out densely, is the dense one.

A production vector (``Vector``) is the ``{index: Fraction}`` dict of its
nonzero coordinates: its support is its key set.  The reference functions
take lists of lists and n-tuples (``DenseVector``) of Fractions.  Every
public function is pure and never mutates its arguments.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatch, InternalCheckError

Vector = dict[int, Fraction]  # the nonzero coordinates by index; never holds a 0
DenseVector = tuple[Fraction, ...]
Matrix = list[list[Fraction]]
Forest = dict[int, int]  # vertex -> parent, -1 at a root, every parent before its children

ZERO = Fraction(0)
ONE = Fraction(1)
MINUS_ONE = Fraction(-1)


def rref(matrix: Sequence[Sequence[Fraction]]) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row echelon form of ``matrix``.

    Returns ``(R, rank, pivot_columns)``.  The RREF is the unique one over the
    rationals; pivoting is plain first-nonzero since exact arithmetic needs no
    numerical care.

    Each step touches only the columns from its pivot column c on.  The rows
    from the pivot row down are zero left of c: an earlier free column had
    no nonzero there, and an earlier pivot column is already cleared.  So
    the pivot row is zero left of c, and subtracting it changes nothing
    there.  The reduction stays dense on purpose: it skips no zero entry of
    the pivot row and shares no sparsity logic with ``null_basis_on``, whose
    independent reference it is.

    Entries may be any rationals.  A ``Fraction`` entry is taken as given
    (it is immutable, so the rows may share it with the input) and any
    other entry is converted once; the rows are fresh lists, so the input
    is never changed, and every entry of ``R`` is a ``Fraction``.
    """
    rows = [[x if type(x) is Fraction else Fraction(x) for x in row] for row in matrix]
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        tail = rows[r][c:]
        if tail[0] != 1:
            inv = ONE / tail[0]
            tail = rows[r][c:] = [x * inv for x in tail]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i][c:] = [x - factor * y for x, y in zip(rows[i][c:], tail)]
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


def _gauss_jordan(rows: dict[int, Vector], columns: Sequence[int]) -> dict[int, int]:
    """Sparse Gauss-Jordan elimination of ``rows`` in place over ``columns``, in the order given.

    Each row is the ``{column: Fraction}`` dict of its nonzero entries, all
    in ``columns``.  Each column is eliminated by the first row (smallest
    key) not yet used, normalized to 1 there, touching only the rows a
    column -> rows map holds as nonzero in it.  Returns pivot column -> row.
    """
    holders: dict[int, set[int]] = {c: set() for c in columns}  # column -> rows nonzero there
    for key, row in rows.items():
        for k in row:
            holders[k].add(key)
    used: set[int] = set()
    pivots: dict[int, int] = {}
    for c in columns:
        r = min((i for i in holders[c] if i not in used), default=None)
        if r is None:
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
    return pivots


def null_basis_on(adjacency: Sequence[Sequence[int]], vertices: Iterable[int]) -> list[Vector]:
    """Canonical kernel basis of the subgraph that ``vertices`` induce, in the whole graph's indices.

    ``adjacency`` holds the whole graph's adjacency lists.  Each vector holds
    the nonzeros of a ``null_space_basis`` vector of the induced subgraph's
    dense matrix, coordinate j placed at the j-th smallest vertex: the rows
    of A, one per vertex, go through ``_gauss_jordan`` over ascending columns.
    """
    keep = set(vertices)
    order = sorted(keep)
    rows = {v: {w: ONE for w in adjacency[v] if w in keep} for v in order}
    pivots = _gauss_jordan(rows, order)
    basis = {f: {f: ONE} for f in order if f not in pivots}
    for c, r in pivots.items():
        for k, x in rows[r].items():
            if k != c:  # every other entry of a pivot row sits in a free column
                basis[k][c] = -x
    return list(basis.values())


def reduced_echelon_basis(vectors: Iterable[Vector]) -> list[Vector]:
    """The reduced echelon basis of the span of independent ``vectors``, each lead at its largest index.

    Each vector returned is 1 at its lead and 0 at every other lead, in
    lead order.  That basis is unique, and the canonical RREF kernel is one
    (1 at its free column, else nonzero only at pivot columns below it), so
    ``_gauss_jordan`` over descending columns reduces any kernel basis to
    what ``null_basis_on`` returns.  Only a printed or checked canonical
    basis needs it: the support is the same for every basis.  Raises
    InternalCheckError when the vectors are dependent.
    """
    rows = dict(enumerate(dict(vec) for vec in vectors))
    pivots = _gauss_jordan(rows, sorted(set().union(*rows.values()), reverse=True))
    if len(pivots) < len(rows):
        raise InternalCheckError(f"{len(rows)} vectors span only {len(pivots)} dimensions")
    return [rows[pivots[lead]] for lead in sorted(pivots)]


def peel(adjacency: Sequence[Sequence[int]]) -> tuple[Forest, list[int]]:
    """Peel a graph to its 2-core: the rooted forest that hangs on the core, and the core, ascending.

    Vertices of degree at most 1 are removed until none is left; each keeps
    as parent the one neighbor it still has when it goes, -1 if none.  The
    forest holds the core's vertices as roots, then the removed ones in
    reverse order, parents first, with every edge outside the core: a
    forest comes back whole, with an empty core.
    """
    n = len(adjacency)
    degree = [len(nbrs) for nbrs in adjacency]
    parent = [-1] * n
    removed = [False] * n
    order = [v for v in range(n) if degree[v] <= 1]
    for v in order:  # grows while it is read
        removed[v] = True
        for w in adjacency[v]:
            if not removed[w]:
                parent[v] = w
                degree[w] -= 1
                if degree[w] == 1:
                    order.append(w)
    core = [v for v in range(n) if not removed[v]]
    forest = dict.fromkeys(core, -1)
    forest.update((v, parent[v]) for v in reversed(order))
    return forest, core


def forest_null_basis_on(adjacency: Sequence[Sequence[int]], parent: Forest) -> list[Vector]:
    """``null_basis_on`` on the key set of ``parent``, a rooted forest that set induces, with no elimination.

    Same output: the canonical RREF kernel, one zero-free vector per free
    column, in the whole graph's indices.  The columns of a forest's
    adjacency matrix, on any column set, form the biadjacency matrix of a
    forest (column c, row r, r ~ c), whose rank is its maximum matching
    size.  So the columns are taken in ascending order, each growing a
    maximum matching, and a column that cannot join it is free: it lies in
    the span of the earlier ones.

    The matching is kept bottom-up on the rooted forest, whatever its roots:
    a pivot column takes a child row that no column below takes, or else its
    parent row, which its parent column then loses.  So a new column climbs,
    taking parent rows, while the column above has no child row left, and is
    free when the climb meets a root or a row already taken.  The vector of free column f has x_f = 1; walking
    out from f, every row r ~ s other than s's matched row passes -x_s to
    its matched column, so every entry is 1 or -1.  A climb that succeeds
    takes its rows for good, and one that fails runs along columns the walk
    from the same column visits, so the work is linear in the forest and
    the output.
    """
    free_kids = dict.fromkeys(parent, 0)  # column -> child rows that no column below takes
    for p in parent.values():
        if p >= 0:
            free_kids[p] += 1
    taker: dict[int, int] = {}  # row -> the child column that takes it
    pivots: set[int] = set()
    free: list[int] = []
    for c in sorted(parent):
        if free_kids[c]:
            pivots.add(c)
            continue
        climbers, taken = [c], []  # columns that would take their parent rows, and those rows
        r = parent[c]
        while r >= 0 and r not in taker:
            taken.append(r)
            q = parent[r]
            if q < 0 or q not in pivots or free_kids[q] > 1:
                break
            climbers.append(q)
            r = parent[q]
        else:
            free.append(c)
            continue
        pivots.add(c)
        for x, r in zip(climbers, taken):
            taker[r] = x
            if parent[r] >= 0:
                free_kids[parent[r]] -= 1
    row_of = {x: r for r, x in taker.items()}
    for c in pivots - row_of.keys():
        row_of[c] = next(r for r in adjacency[c] if r in parent and parent[r] == c and r not in taker)
    column_of = {r: x for x, r in row_of.items()}
    basis = []
    for f in free:
        vec = {f: ONE}
        stack = [f]
        while stack:
            s = stack.pop()
            x = MINUS_ONE if vec[s] is ONE else ONE
            own = row_of.get(s)
            for r in adjacency[s]:
                if r in parent and r != own:
                    t = column_of[r]
                    vec[t] = x
                    stack.append(t)
        basis.append(vec)
    return basis


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
    reduced, rk, _ = rref(vectors)
    return tuple(tuple(row) for row in reduced[:rk])


def same_span(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> bool:
    """Exact row-space equality, via uniqueness of the RREF."""
    return row_space_signature(a) == row_space_signature(b)
