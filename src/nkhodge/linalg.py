"""Sparse vectors, exact kernels, ranks, solutions and inverses over the scalar tower.

Sparse vectors are dicts index -> Scalar with no zero stored.  ``add_scaled``
(acc += s vec, dropping what cancels) carries every sum of forms and every
operator sum, product and application; ``transpose`` turns sparse columns
into sparse rows.

Every exact elimination in src is the one sparse fraction-free
(Bareiss-style) elimination ``_eliminate``, followed where needed by the
back-substitution that ``sparse_kernel`` and ``solve`` share.  The pivot is
the least bit-complexity entry, ties broken by the first active row, then
the lowest column.  Each distinct entry is scored once per elimination,
and each active row's least (complexity, column) is recomputed only when
a step rebuilds the row, and sits in a heap keyed by (complexity, row
index, column), whose top is that rule's pivot (a key a
rebuilt or retired row has left behind is dropped when popped); a
column -> rows index finds the rows a step rebuilds, so a step neither
rescans every entry nor walks every row.  The one other factorization is
the LDL^T of the metric in ``exterior.GramData``, which also tests
positive-definiteness.

The elimination runs on entry rows: dicts col -> the normalized entry
(a, b, c, e, q) of the field kernel in ``scalars``, of one field with a d
the caller names, each row scaled to its primitive integral representative
first.  ``pivot_columns(rows, d)`` gives the pivot columns and
``sparse_kernel(rows, d, ncols)`` a kernel basis; an operator hands them
a block of its columns read straight off its integer store
(``GradedOperator.entry_rows``), so no Scalar goes in, and only the kernel
vectors come back as ``Scalar``.  The small Scalar matrices of ``solve``,
``inverse`` and ``sparse_rank`` come in through one adapter
(``_entry_rows``), which joins the field's d once and reads every entry
once; ``sparse_rank`` builds no Scalar.  A
step's updated entry (pval v - rv pv) / prev_piv is summed over one
denominator from the unreduced products (pval / prev_piv) v and
(-rv / prev_piv) pv, and reduced once.  Division is exact in the field and
every entry is normalized, so the fraction-free step is purely a
coefficient-growth strategy, never an approximation, and the rows are
literally those that ``Scalar`` arithmetic gives.

``solve(columns, target)`` gives the coordinates of a vector in independent
columns (``None`` outside their span), and ``inverse`` solves for each
column of the identity.  The test suite compares the kernels and solutions
with an independent dense Gauss-Jordan elimination, and the pivot rows of
``_eliminate`` with a full-scan elimination in ``Scalar`` arithmetic, row
for row.
"""

from __future__ import annotations

import heapq
from math import gcd, lcm
from operator import itemgetter

from . import scalars
from .scalars import ONE, ZERO, Entry, Scalar, add, complexity, join, product, reduce

SparseRow = dict[int, Scalar]
EntryRow = dict[int, Entry]

_ONE = (1, 0, 0, 0, 1)
_denominator = itemgetter(4)


def add_scaled(acc: SparseRow, vec: SparseRow, s: Scalar | None = None) -> SparseRow:
    """acc += s * vec (acc += vec when s is None) in place; returns acc.

    A key whose sum is exactly zero is removed, so sparse vectors built by
    repeated accumulation compare literally.
    """
    for k, v in vec.items():
        if s is not None:
            v = v * s
        t = acc.get(k)
        if t is not None:
            v = t + v
        if v.is_zero():
            acc.pop(k, None)
        else:
            acc[k] = v
    return acc


def transpose(pairs) -> list[SparseRow]:
    """Sparse rows of the columns given as (column index, sparse column) pairs.

    Rows come out in order of first appearance while walking the pairs in
    their given order (the order steers the elimination's pivot choice).
    """
    rows: dict[int, SparseRow] = {}
    for c, col in pairs:
        for r, v in col.items():
            rows.setdefault(r, {})[c] = v
    return list(rows.values())


# -- entry rows -------------------------------------------------------------


def _entry_rows(rows: list[SparseRow]) -> tuple[list[EntryRow], int]:
    """Scalar rows as entry rows, and the d of the field they share: the
    one adapter for small Scalar matrices (``solve``, ``sparse_rank``)."""
    d = 1
    out = []
    for row in rows:
        entries = {}
        for col, s in row.items():
            if s.d != d and s.d != 1:
                d = join(d, s.d)
            entries[col] = (s.a, s.b, s.c, s.e, s.q)
        out.append(entries)
    return out, d


def _clear_row(row: EntryRow) -> EntryRow:
    """Scale a row to a primitive integral representative (kernel unchanged)."""
    if max(map(_denominator, row.values())) > 1:  # ``entry_rows`` gives q = 1 throughout
        m = lcm(*map(_denominator, row.values()))
        row = {col: (a * (m // q), b * (m // q), c * (m // q), e * (m // q), 1) for col, (a, b, c, e, q) in row.items()}
    content = 0
    for a, b, c, e, _ in row.values():
        content = gcd(content, a, b, c, e)
        if content == 1:
            return row
    return {col: (a // content, b // content, c // content, e // content, 1) for col, (a, b, c, e, _) in row.items()}


def _scalar_row(row: EntryRow, d: int) -> SparseRow:
    """The entry row as Scalars of the field with this d."""
    return {col: Scalar._normalized(*t, d) for col, t in row.items()}


class _Scores(dict):
    """Entry -> its ``complexity``, each distinct entry scored on first read."""

    def __missing__(self, t: Entry) -> int:
        cx = self[t] = complexity(t)
        return cx


def _row_min(row: EntryRow, scores: _Scores | None = None) -> tuple[int, int]:
    """(complexity, column) of the row's least-complexity entry, lowest
    column first; read from ``scores`` when given."""
    score = complexity if scores is None else scores.__getitem__
    return min(zip(map(score, row.values()), row))


# -- elimination -------------------------------------------------------------------


def _eliminate(rows: list[EntryRow], d: int) -> list[tuple[EntryRow, int]]:
    """Forward fraction-free elimination of entry rows of the field with
    this d: the pivots, (entry row, pivot column) in elimination order.
    Each nonempty row is scaled to its primitive integral representative
    first (``_clear_row``, which changes no kernel and no pivot), and every
    one ends up as a pivot row or as zero; the input rows are not mutated.

    The pivot is the least-complexity entry of the active rows, ties broken
    by the first row in order, then the lowest column.  Each active row's
    least (complexity, column) sits in a heap keyed by (complexity, row
    index, column), which pops exactly that rule's pivot; only the rows a
    step rebuilds (those with an entry in the pivot column, found through
    a column -> rows index) push a new key, and a popped key that no longer
    matches its row (retired or rebuilt since) is dropped, so a step costs
    O(log rows) per rebuilt row instead of a pass over every row.  Each
    distinct entry's complexity is computed once per elimination
    (``_Scores``).  The update is row <- (pval row - rv prow) / prev_piv
    with the division hoisted: pval / prev_piv once per step, -rv /
    prev_piv once per row, and neither, nor the inverse of prev_piv, for
    a pivot whose column no other active row holds.  Arithmetic in the
    field is exact and every entry is normalized, so the rows are
    literally those of the undivided formula."""
    # a row is set to None as it retires
    active: list[EntryRow | None] = [_clear_row(row) for row in rows if row]
    # each distinct entry is scored once per elimination
    scores = _Scores()
    # the current (complexity, column) of each active row; the heap may also
    # hold keys of earlier versions of a row, dropped when popped
    mins = [_row_min(r, scores) for r in active]
    heap = [(cx, i, col) for i, (cx, col) in enumerate(mins)]  # sorted by row, so a heap
    heapq.heapify(heap)
    # column -> every row that has held an entry there; a row that has since
    # lost it (cancelled, retired or already rebuilt) is skipped when read
    holders: dict[int, list[int]] = {}
    for i, row in enumerate(active):
        for col in row:
            holders.setdefault(col, []).append(i)
    pivots: list[tuple[EntryRow, int]] = []
    prev = None  # the previous pivot, inverted when a step first divides by it
    while heap:
        cx, ri, pc = heapq.heappop(heap)
        prow = active[ri]
        if prow is None or mins[ri] != (cx, pc):
            continue
        active[ri] = None
        pval = prow[pc]
        scale = None  # the pivot's numerator, built for the first row the step rebuilds
        # rows without the pivot column keep their key
        for i in holders.pop(pc):
            row = active[i]
            if row is None or pc not in row:
                continue
            if scale is None:
                inv = _ONE if prev is None else scalars.inverse(prev, d)
                # each updated entry is (pval v - rv pv) inv; the numerators
                # pval inv and -rv inv carry the step's division
                scale = product(pval, inv, d)
                others = [(col, pv) for col, pv in prow.items() if col != pc]
            a, b, c, e, q = row[pc]
            neg = product((-a, -b, -c, -e, q), inv, d)
            out: EntryRow = {}
            for col, v in row.items():
                if col == pc:
                    continue
                t = product(scale, v, d)
                pv = prow.get(col)
                if pv is not None:
                    t = add(t, product(neg, pv, d))
                    if not (t[0] or t[1] or t[2] or t[3]):
                        continue
                out[col] = reduce(*t)
            for col, pv in others:
                if col not in row:
                    out[col] = reduce(*product(neg, pv, d))
                    holders[col].append(i)
            if out:
                active[i] = out
                mins[i] = key = _row_min(out, scores)
                heapq.heappush(heap, (key[0], i, key[1]))
            else:
                active[i] = None
        pivots.append((prow, pc))
        prev = pval
    return pivots


def pivot_columns(rows: list[EntryRow], d: int) -> list[int]:
    """The pivot columns, in elimination order, of entry rows of the field
    with this d; the rank is their number."""
    return [pc for _, pc in _eliminate(rows, d)]


def sparse_rank(rows: list[SparseRow]) -> int:
    """The rank of Scalar rows (``_entry_rows``); no Scalar is built."""
    return len(_eliminate(*_entry_rows(rows)))


def _back_substitute(pivots: list[tuple[EntryRow, int]], x: EntryRow, d: int) -> EntryRow:
    """Fill in the pivot columns of x from its free columns, in place."""
    for prow, pc in reversed(pivots):
        acc = None
        for col, v in prow.items():
            if col == pc:
                continue
            xv = x.get(col)
            if xv is not None:
                t = product(v, xv, d)
                acc = reduce(*(t if acc is None else add(acc, t)))
        if acc is not None and (acc[0] or acc[1] or acc[2] or acc[3]):
            a, b, c, e, q = acc
            x[pc] = reduce(*product((-a, -b, -c, -e, q), scalars.inverse(prow[pc], d), d))
    return x


def sparse_kernel(rows: list[EntryRow], d: int, ncols: int) -> list[SparseRow]:
    """Basis of { x : M x = 0 } for the entry rows of M, of the field with
    this d: one sparse vector of Scalars per free column."""
    pivots = _eliminate(rows, d)
    pivot_cols = {pc for _, pc in pivots}
    return [
        _scalar_row(_back_substitute(pivots, {f: _ONE}, d), d) for f in range(ncols) if f not in pivot_cols
    ]


def solve(columns: list[SparseRow], target: SparseRow) -> SparseRow | None:
    """x with sum_a x[a] columns[a] = target, or None when target is outside the span.

    Vectors are sparse (dict index -> Scalar); zero coordinates are omitted.
    The columns must be independent, otherwise ValueError.  The augmented
    system [columns | -target] has a kernel of dimension one exactly when
    the solution exists and is unique, spanned by a vector whose last entry
    is nonzero.
    """
    n = len(columns)
    rows, d = _entry_rows(transpose(enumerate([*columns, {r: -v for r, v in target.items()}])))
    pivots = _eliminate(rows, d)
    pivot_cols = {pc for _, pc in pivots}
    free = [c for c in range(n + 1) if c not in pivot_cols]
    if not free:
        return None
    x = _back_substitute(pivots, {free[0]: _ONE}, d)
    scale = x.pop(n, None)
    if len(free) > 1 or scale is None:
        raise ValueError("dependent columns")
    inv = scalars.inverse(scale, d)
    return _scalar_row({a: reduce(*product(x[a], inv, d)) for a in sorted(x)}, d)


def inverse(matrix: list[list[Scalar]]) -> list[list[Scalar]]:
    """Exact inverse of a square matrix (list of rows); singular raises ValueError.

    Column j of the inverse solves A x = e_j; independent columns span
    everything, so ``solve`` never returns None here.
    """
    n = len(matrix)
    columns = [{i: matrix[i][j] for i in range(n) if not matrix[i][j].is_zero()} for j in range(n)]
    solved = [solve(columns, {j: ONE}) for j in range(n)]
    return [[solved[j].get(i, ZERO) for j in range(n)] for i in range(n)]
