"""Exact kernels and ranks over the scalar tower.

Every kernel and rank is a sparse fraction-free (Bareiss-style) elimination
with pivoting by least bit-complexity entry.  Matrices are lists of sparse
rows (dict col -> Scalar).  Division is exact in the field, so the
fraction-free step is purely a coefficient-growth strategy, never an
approximation.  The test suite compares the kernels with an independent
dense Gauss-Jordan elimination.
"""

from __future__ import annotations

import math

from .scalars import ONE, ZERO, Scalar

SparseRow = dict[int, Scalar]


def _complexity(s: Scalar) -> int:
    return (
        abs(s.a).bit_length()
        + abs(s.b).bit_length()
        + abs(s.c).bit_length()
        + abs(s.e).bit_length()
        + s.q.bit_length()
    )


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


def sparse_echelon(rows: list[SparseRow]) -> tuple[list[tuple[SparseRow, int]], list[SparseRow]]:
    """Forward fraction-free elimination.

    Returns (pivots, spent) where pivots is the list of (row, pivot_col) in
    elimination order.  Input rows are not mutated.
    """
    active = [_clear_row(dict(r)) for r in rows if r]
    pivots: list[tuple[SparseRow, int]] = []
    prev_piv = ONE
    while True:
        best = None  # (complexity, row_index, col)
        for ri, row in enumerate(active):
            for c, v in row.items():
                key = (_complexity(v), ri, c)
                if best is None or key < best:
                    best = key
        if best is None:
            break
        _, ri, pc = best
        prow = active.pop(ri)
        pval = prow[pc]
        nxt = []
        for row in active:
            rv = row.get(pc)
            if rv is None:
                nxt.append(row)
                continue
            out: SparseRow = {}
            for c, v in row.items():
                if c == pc:
                    continue
                t = pval * v
                pv = prow.get(c)
                if pv is not None:
                    t = t - rv * pv
                if not t.is_zero():
                    out[c] = t / prev_piv
            for c, pv in prow.items():
                if c != pc and c not in row:
                    t = -(rv * pv) / prev_piv
                    if not t.is_zero():
                        out[c] = t
            if out:
                nxt.append(out)
        active = nxt
        pivots.append((prow, pc))
        prev_piv = pval
    return pivots, active


def sparse_rank(rows: list[SparseRow]) -> int:
    pivots, _ = sparse_echelon(rows)
    return len(pivots)


def sparse_kernel(rows: list[SparseRow], ncols: int) -> list[SparseRow]:
    """Basis of { x : M x = 0 }, one sparse vector per free column."""
    pivots, _ = sparse_echelon(rows)
    pivot_cols = {pc for _, pc in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis: list[SparseRow] = []
    for f in free_cols:
        x: SparseRow = {f: ONE}
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
        basis.append(x)
    return basis


def spans_equal(basis_a: list[SparseRow], basis_b: list[SparseRow]) -> bool:
    """Exact span equality via three rank computations."""
    if len(basis_a) != len(basis_b):
        return False
    ra = sparse_rank(basis_a)
    rb = sparse_rank(basis_b)
    if ra != rb:
        return False
    return sparse_rank(basis_a + basis_b) == ra

