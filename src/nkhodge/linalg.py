"""Sparse vectors, exact kernels, ranks, solutions and inverses over the scalar tower.

Sparse vectors are dicts index -> Scalar with no zero stored.  ``add_scaled``
(acc += s vec, dropping what cancels) carries every sum of forms and every
operator sum, product and application; ``transpose`` turns sparse columns
into the sparse rows that elimination takes.

Every exact elimination in src is the one sparse fraction-free
(Bareiss-style) elimination ``sparse_echelon``, followed where needed by the
back-substitution that ``sparse_kernel`` and ``solve`` share.  The pivot is
the least bit-complexity entry, ties broken by the first active row, then
the lowest column; each active row caches its own least (complexity,
column), recomputed only when a step rebuilds the row, so a step does not
rescan every entry.  The one other factorization is the LDL^T of the metric
in ``exterior.GramData``, which also tests positive-definiteness.  Matrices
are lists of sparse rows (dict col -> Scalar).  Division is exact in the
field, so the fraction-free step is purely a coefficient-growth strategy,
never an approximation, and dividing by the previous pivot through its
inverse, taken once per step, gives the same normalized scalars.

``solve(columns, target)`` gives the coordinates of a vector in independent
columns (``None`` outside their span), and ``inverse`` solves for each
column of the identity.  The test suite compares the kernels and solutions
with an independent dense Gauss-Jordan elimination, and ``sparse_echelon``
with the full-scan elimination it replaced, row for row.
"""

from __future__ import annotations

import math

from .scalars import ONE, ZERO, Scalar

SparseRow = dict[int, Scalar]


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
    their given order (the order steers ``sparse_echelon``'s pivot choice).
    """
    rows: dict[int, SparseRow] = {}
    for c, col in pairs:
        for r, v in col.items():
            rows.setdefault(r, {})[c] = v
    return list(rows.values())


def _complexity(s: Scalar) -> int:
    """Bit size of a scalar; ``int.bit_length`` ignores the sign."""
    return s.a.bit_length() + s.b.bit_length() + s.c.bit_length() + s.e.bit_length() + s.q.bit_length()


def _row_min(row: SparseRow) -> tuple[int, int]:
    """(complexity, column) of the row's least-complexity entry, lowest column first."""
    return min((_complexity(v), c) for c, v in row.items())


def _clear_row(row: SparseRow) -> SparseRow:
    """Scale a row to a primitive integral representative (kernel unchanged)."""
    if not row:
        return row
    lcm = 1
    for s in row.values():
        lcm = lcm * s.q // math.gcd(lcm, s.q)
    fac = Scalar(lcm, 0, 0, 0)
    out = {c: v * fac for c, v in row.items()}
    content = 0
    for v in out.values():
        content = math.gcd(content, abs(v.a))
        content = math.gcd(content, abs(v.b))
        content = math.gcd(content, abs(v.c))
        content = math.gcd(content, abs(v.e))
    if content > 1:
        inv = Scalar(1, 0, 0, 0, content)
        out = {c: v * inv for c, v in out.items()}
    return out


def sparse_echelon(rows: list[SparseRow]) -> list[tuple[SparseRow, int]]:
    """Forward fraction-free elimination.

    Returns the pivots, (row, pivot_col) in elimination order; every nonzero
    row ends up as a pivot row or as zero.  Input rows are not mutated.

    The pivot is the least-complexity entry of the active rows, ties broken
    by the first row in order, then the lowest column.  Each active row
    keeps its own least (complexity, column), and only the rows a step
    rebuilds (those with an entry in the pivot column) recompute it, so a
    step costs one pass over the cached minima instead of a scan of every
    entry.  The update is row <- (pval row - rv prow) / prev_piv with the
    division hoisted: pval / prev_piv once per step, -rv / prev_piv once
    per row.  Arithmetic in the field is exact and every scalar is
    normalized, so the rows are literally those of the undivided formula.
    """
    active = [_clear_row(dict(r)) for r in rows if r]
    mins = [_row_min(r) for r in active]  # cached per row, recomputed when rebuilt
    cxs = [cx for cx, _ in mins]
    cols = [c for _, c in mins]
    pivots: list[tuple[SparseRow, int]] = []
    prev_piv = ONE
    while active:
        ri = cxs.index(min(cxs))  # the first row with the least complexity
        prow, pc = active.pop(ri), cols.pop(ri)
        del cxs[ri]
        pval = prow[pc]
        inv = prev_piv.inverse()
        scale = pval * inv
        others = [(c, pv) for c, pv in prow.items() if c != pc]
        emptied = []
        # rows without the pivot column keep their place and their cached minimum
        for i in [i for i, row in enumerate(active) if pc in row]:
            row = active[i]
            # scale, the row's pivot-column entry and the stored entries are
            # nonzero, so no product is zero
            neg = -row[pc] * inv
            out: SparseRow = {c: scale * v for c, v in row.items() if c != pc}
            for c, pv in others:
                t = neg * pv
                v = out.get(c)
                if v is None:
                    out[c] = t
                else:
                    t = v + t
                    if t.is_zero():
                        del out[c]
                    else:
                        out[c] = t
            if out:
                active[i] = out
                cxs[i], cols[i] = _row_min(out)
            else:
                emptied.append(i)
        for i in reversed(emptied):
            del active[i], cxs[i], cols[i]
        pivots.append((prow, pc))
        prev_piv = pval
    return pivots


def sparse_rank(rows: list[SparseRow]) -> int:
    return len(sparse_echelon(rows))


def _back_substitute(pivots: list[tuple[SparseRow, int]], x: SparseRow) -> SparseRow:
    """Fill in the pivot columns of x from its free columns, in place."""
    for prow, pc in reversed(pivots):
        acc = ZERO
        for c, v in prow.items():
            if c == pc:
                continue
            xv = x.get(c)
            if xv is not None:
                acc = acc + v * xv
        if not acc.is_zero():
            x[pc] = -acc / prow[pc]
    return x


def sparse_kernel(rows: list[SparseRow], ncols: int) -> list[SparseRow]:
    """Basis of { x : M x = 0 }, one sparse vector per free column."""
    pivots = sparse_echelon(rows)
    pivot_cols = {pc for _, pc in pivots}
    return [_back_substitute(pivots, {f: ONE}) for f in range(ncols) if f not in pivot_cols]


def solve(columns: list[SparseRow], target: SparseRow) -> SparseRow | None:
    """x with sum_a x[a] columns[a] = target, or None when target is outside the span.

    Vectors are sparse (dict index -> Scalar); zero coordinates are omitted.
    The columns must be independent, otherwise ValueError.  The augmented
    system [columns | -target] has a kernel of dimension one exactly when
    the solution exists and is unique, spanned by a vector whose last entry
    is nonzero.
    """
    n = len(columns)
    pivots = sparse_echelon(transpose(enumerate([*columns, {r: -v for r, v in target.items()}])))
    pivot_cols = {pc for _, pc in pivots}
    free = [c for c in range(n + 1) if c not in pivot_cols]
    if not free:
        return None
    x = _back_substitute(pivots, {free[0]: ONE})
    scale = x.pop(n, None)
    if len(free) > 1 or scale is None:
        raise ValueError("dependent columns")
    return {a: x[a] / scale for a in sorted(x)}


def inverse(matrix: list[list[Scalar]]) -> list[list[Scalar]]:
    """Exact inverse of a square matrix (list of rows); singular raises ValueError.

    Column j of the inverse solves A x = e_j; independent columns span
    everything, so ``solve`` never returns None here.
    """
    n = len(matrix)
    columns = [{i: matrix[i][j] for i in range(n) if not matrix[i][j].is_zero()} for j in range(n)]
    solved = [solve(columns, {j: ONE}) for j in range(n)]
    return [[solved[j].get(i, ZERO) for j in range(n)] for i in range(n)]
