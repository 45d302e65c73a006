"""Exact rational linear algebra: RREF and canonical null-space bases.

Everything runs over ``fractions.Fraction``, so "this coordinate is zero" is a
decidable, exact test.  That exactness is what the rest of the package is built
on: supports are defined through exact zero/nonzero coordinates, which no
floating-point elimination can provide.

Two production kernels give the canonical kernel basis of the subgraph a
vertex set induces, read straight from the whole graph's adjacency lists and
in the whole graph's indices.  ``null_basis_on(adjacency, vertices)`` works
on any graph, by sparse Gauss-Jordan elimination: every subforest kernel of
the constructed Type I / Type II bases comes from it, and so does the
whole-graph basis of a graph that is neither a forest nor unicyclic, which
only ``basis --method rref`` asks for.  ``forest_null_basis_on`` gives the
same basis for a vertex set that induces a forest, with no elimination: its
pivots come from a maximum matching (Cvetković & Gutman 1972), and its
entries are all ±1 (Sander & Sander, LAA 405, 2005).  A whole forest's basis
comes from it, by either method of ``basis``.  A unicyclic graph's canonical
basis, which ``analyze`` reads, is no elimination of the whole graph:
``reduced_echelon_basis`` brings its constructed basis to reduced echelon
form in one pass, and that form is the canonical one.  Only ``unicyclic``
calls these three.  The dense ``rref`` / ``null_space_basis`` on lists of
lists is the independent reference that the check battery (``checks``) and
``same_span`` use.  It is a plain dense Gauss-Jordan that touches, at each
pivot, only the columns from the pivot column on, and it stays dense on
purpose so that it shares no sparsity logic with the production kernels.  It
takes a ``Fraction`` entry as given and converts any other rational entry
once, so every entry it reduces and returns is a ``Fraction``.  The RREF is
unique, so each sparse vector, written out densely, is the dense one.

A production vector (``Vector``) is the ``{index: Fraction}`` dict of its
nonzero coordinates: its support is its key set.  The reference functions
take lists of lists and n-tuples (``DenseVector``) of Fractions.  All
functions are pure and never mutate their arguments.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatch, InternalCheckError, NotForest

Vector = dict[int, Fraction]  # the nonzero coordinates by index; never holds a 0
DenseVector = tuple[Fraction, ...]
Matrix = list[list[Fraction]]

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


def reduced_echelon_basis(vectors: Iterable[Vector]) -> list[Vector]:
    """The reduced echelon basis of the span of independent ``vectors``, each lead at its largest index.

    Each vector returned is 1 at its lead and 0 at every other lead, in
    lead order.  That basis is unique, and the canonical RREF kernel is one
    (1 at its free column, else nonzero only at pivot columns below it), so
    any kernel basis reduces to what ``null_basis_on`` returns.  One pass:
    each incoming vector loses the stored vector of every lead it holds,
    takes its largest index as its lead, normalized to 1, and that lead is
    cleared from every stored vector an index-to-leads map says holds it.
    Raises InternalCheckError when the vectors are dependent.
    """
    rows: dict[int, Vector] = {}  # lead -> its vector
    holders: dict[int, set[int]] = {}  # index -> the leads whose vectors are nonzero there, lead excluded
    for vec in vectors:
        vec = dict(vec)
        for lead in [i for i in vec if i in rows]:  # a stored vector is 0 at every other lead
            factor = vec[lead]
            for k, y in rows[lead].items():
                x = vec.get(k, ZERO) - factor * y
                if x:
                    vec[k] = x
                else:
                    del vec[k]
        if not vec:
            raise InternalCheckError(f"vector {len(rows) + 1} lies in the span of the ones before it")
        lead = max(vec)
        if vec[lead] != 1:
            inv = ONE / vec[lead]
            vec = {k: x * inv for k, x in vec.items()}
        for other in holders.pop(lead, ()):
            row = rows[other]
            factor = row[lead]
            for k, y in vec.items():
                x = row.get(k, ZERO) - factor * y
                if x:
                    row[k] = x
                    holders.setdefault(k, set()).add(other)
                else:
                    del row[k]
                    if k != lead:
                        holders[k].discard(other)
        rows[lead] = vec
        for k in vec:
            if k != lead:
                holders.setdefault(k, set()).add(lead)
    return [rows[lead] for lead in sorted(rows)]


def forest_parents(adjacency: Sequence[Sequence[int]], vertices: Iterable[int]) -> dict[int, int]:
    """Each vertex's parent in a depth-first spanning forest of the subgraph ``vertices`` induce, -1 at a root.

    The map lists the vertices in the order the search reaches them, so
    every vertex comes before its children.  Raises NotForest when the
    vertices induce a cycle: the search then meets a reached vertex that is
    not its parent.
    """
    inside = set(vertices)
    parent: dict[int, int] = {}
    for root in inside:
        if root in parent:
            continue
        parent[root] = -1
        stack = [root]
        while stack:
            x = stack.pop()
            for y in adjacency[x]:
                if y not in inside or y == parent[x]:
                    continue
                if y in parent:
                    raise NotForest(f"vertex set of size {len(inside)} induces a cycle")
                parent[y] = x
                stack.append(y)
    return parent


def forest_null_basis_on(adjacency: Sequence[Sequence[int]], vertices: Iterable[int]) -> list[Vector]:
    """``null_basis_on`` for a vertex set that induces a forest, with no elimination.

    Same output: the canonical RREF kernel, one zero-free vector per free
    column, in the whole graph's indices.  The columns of a forest's
    adjacency matrix, on any column set, form the biadjacency matrix of a
    forest (column c, row r, r ~ c), whose rank is its maximum matching
    size.  So the columns are taken in ascending order, each growing a
    maximum matching, and a column that cannot join it is free: it lies in
    the span of the earlier ones.

    The matching is kept bottom-up on the rooted forest of
    ``forest_parents``: a pivot column takes a child row that no column
    below takes, or else its parent row, which its parent column then
    loses.  So a new column climbs, taking parent rows, while the column
    above has no child row left, and is free when the climb meets a root or
    a row already taken.  The vector of free column f has x_f = 1; walking
    out from f, every row r ~ s other than s's matched row passes -x_s to
    its matched column, so every entry is 1 or -1.  A climb that succeeds
    takes its rows for good, and one that fails runs along columns the walk
    from the same column visits, so the work is linear in the forest and
    the output.  Raises NotForest when the vertices induce a cycle.
    """
    parent = forest_parents(adjacency, vertices)
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
