"""Independent reference routes the tests compare the production code with.

* ``pairing_via_minors`` and ``inner_via_minors``: the Hermitian pairing
  induced on each exterior power, <u^I, u^J> = det of the g^{-1} minor on
  (I, J); works on coupled metrics, against the production pairing through
  the norm weights of a diagonal metric.
* ``adjoint_via_minors``: the literal Gram sandwich G^{-1} P^dagger G, with
  the inverse Gram blocks as minors of g; works on coupled metrics.
* ``adjoint_via_ldl``: the production adjoint conjugated through the LDL^T
  coframe of a coupled metric, i.e. what computing in the orthogonalized
  presentation amounts to.
* ``dense_kernel`` and ``harmonic_space_dense_oracle``: textbook dense
  Gauss-Jordan elimination with first-nonzero pivoting, against the sparse
  fraction-free production route; ``spans_equal`` compares the results.
* ``sparse_echelon_scan``: the fraction-free elimination that rescans every
  active entry for the pivot at each step and divides each entry by the
  previous pivot; the production ``sparse_echelon`` with cached per-row
  minima and a hoisted division must return literally the same rows.
* ``stacked_kernel_nullities``: the kernel intersections of HODGE_ABCD
  (a) and (b) as stacked eliminations of the eight components and adjoints
  and of the four component Laplacians, against the production kernel of
  their PSD sum.
* The Hodge star (``star``, ``star_operator``, ``volume_form``) with
  a ^ star(b) = <a, conj(b)> vol, available when det(g) is a square in the
  field Q(sqrt d)(i) the caller names (``sqrt_in_field``); d* = -*d* in even
  dimension.
"""

from __future__ import annotations

import math
from fractions import Fraction

from nkhodge.bidegree import differential_split
from nkhodge.exterior import Form, GramData, indices_from_mask, wedge_image, wedge_masks
from nkhodge.hodge import degree_masks, hodge_laplacian, operator_degree_rows
from nkhodge.linalg import SparseRow, _clear_row, _complexity, inverse, sparse_kernel, sparse_rank
from nkhodge.operators import Column, GradedOperator, adjoint, laplacian
from nkhodge.scalars import ONE, ZERO, Scalar


# -- pairings and adjoints -----------------------------------------------------

def _det_sparse(rows: list[dict[int, Scalar]], cols: tuple[int, ...]) -> Scalar:
    """Determinant of the submatrix rows x cols, expanding along sparse rows."""
    n = len(rows)
    if n == 0:
        return ONE
    if n != len(cols):
        raise ValueError("non-square minor")

    def rec(row_ids: tuple[int, ...], col_ids: tuple[int, ...]) -> Scalar:
        if not row_ids:
            return ONE
        # expand along the row with fewest live entries
        best, best_live = None, None
        for ri in row_ids:
            live = [c for c in col_ids if c in rows[ri]]
            if best_live is None or len(live) < len(best_live):
                best, best_live = ri, live
                if len(live) <= 1:
                    break
        if not best_live:
            return ZERO
        rest_rows = tuple(r for r in row_ids if r != best)
        acc = ZERO
        for c in best_live:
            j = col_ids.index(c)
            sub = rec(rest_rows, col_ids[:j] + col_ids[j + 1:])
            if sub.is_zero():
                continue
            i = row_ids.index(best)
            term = rows[best][c] * sub
            if (i + j) & 1:
                term = -term
            acc = acc + term
        return acc

    return rec(tuple(range(n)), tuple(cols))


def _minor(matrix: list[list[Scalar]], mask_i: int, mask_j: int) -> Scalar:
    rows = [
        {j: v for j, v in enumerate(matrix[i - 1]) if not v.is_zero()}
        for i in indices_from_mask(mask_i)
    ]
    cols = tuple(j - 1 for j in indices_from_mask(mask_j))
    return _det_sparse(rows, cols)


def pairing_via_minors(gram: GramData, mask_i: int, mask_j: int) -> Scalar:
    """<u^I, u^J> = det of the g^{-1} minor on (I, J)."""
    if mask_i.bit_count() != mask_j.bit_count():
        return ZERO
    return _minor(gram.g_inv, mask_i, mask_j)


def inner_via_minors(gram: GramData, a: Form, b: Form) -> Scalar:
    """Hermitian pairing, linear in the first slot, over any metric."""
    acc = ZERO
    for mi, sa in a.coeffs.items():
        for mj, sb in b.coeffs.items():
            p = pairing_via_minors(gram, mi, mj)
            if not p.is_zero():
                acc = acc + sa * sb.conjugate() * p
    return acc


def metric_minor(gram: GramData, mask_i: int, mask_j: int) -> Scalar:
    """det of the g minor on (I, J): the inverse Gram matrix entry."""
    return _minor(gram.g, mask_i, mask_j)


def adjoint_via_minors(p: GradedOperator, gram: GramData) -> GradedOperator:
    """Literal per-block G^{-1} P^dagger G with minor-determinant Gram blocks."""
    dim = p.dim
    rows_of_p: dict[int, Column] = {}
    for c, col in p.cols.items():
        for r, v in col.items():
            rows_of_p.setdefault(r, {})[c] = v
    masks_by_degree: dict[int, list[int]] = {}
    for m in range(1 << dim):
        masks_by_degree.setdefault(m.bit_count(), []).append(m)
    cols: dict[int, Column] = {}
    deg = -p.degree if p.degree is not None else None
    for mj in range(1 << dim):
        km = mj.bit_count()
        if deg is not None and not 0 <= km + deg <= dim:
            continue
        # v1 = P^dagger (G column of mj)
        v1: Column = {}
        for mjp in masks_by_degree[km]:
            gv = pairing_via_minors(gram, mjp, mj)
            if gv.is_zero():
                continue
            prow = rows_of_p.get(mjp)
            if not prow:
                continue
            for mip, pv in prow.items():
                t = v1.get(mip)
                piece = pv.conjugate() * gv
                v1[mip] = piece if t is None else t + piece
        if not v1:
            continue
        # v2 = G^{-1} v1 using the compound of g (inverse Gram block)
        col: Column = {}
        target_deg = next(iter(v1)).bit_count()
        for mi in masks_by_degree[target_deg]:
            acc = ZERO
            for mip, v in v1.items():
                w = metric_minor(gram, mi, mip)
                if not w.is_zero():
                    acc = acc + w * v
            if not acc.is_zero():
                col[mi] = acc
        if col:
            cols[mj] = col
    return GradedOperator(dim, cols, deg, check=False)


def _algebra_map(images: list[Form]) -> GradedOperator:
    table: dict[int, Form] = {}
    dim = len(images)
    cols = {m: dict(wedge_image(images, m, table).coeffs) for m in range(1 << dim)}
    return GradedOperator(dim, cols, 0, check=False)


def adjoint_via_ldl(p: GradedOperator, gram: GramData) -> GradedOperator:
    """from_v . adjoint(to_v . P . from_v, diag(D)) . to_v for g = M diag(D) M^T.

    v^i = sum_j M[j][i] u^j is pairwise orthogonal with <v^i, v^i> = 1/D_i.
    """
    n = gram.dim
    m, dvals = gram.ldl()
    t = [[m[j][i] for j in range(n)] for i in range(n)]
    from_v = _algebra_map([Form.one_form(n, row) for row in t])
    to_v = _algebra_map([Form.one_form(n, row) for row in inverse(t)])
    diagonal = GramData([[dvals[i] if i == j else ZERO for j in range(n)] for i in range(n)])
    inner = adjoint(to_v.compose(p.compose(from_v)), diagonal)
    out = from_v.compose(inner.compose(to_v))
    deg = -p.degree if p.degree is not None else None
    return GradedOperator(n, out.cols, deg, check=False)


# -- dense elimination -----------------------------------------------------------

def dense_kernel(matrix: list[list[Scalar]], ncols: int) -> list[list[Scalar]]:
    """Dense Gauss-Jordan, first-nonzero pivoting."""
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    pivot_of_col: dict[int, int] = {}
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if not rows[i][c].is_zero():
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [v if v.is_zero() else v * inv for v in rows[r]]
        for i in range(nrows):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [
                    a if b.is_zero() else a - f * b for a, b in zip(rows[i], rows[r])
                ]
        pivot_of_col[c] = r
        r += 1
    basis = []
    for c in range(ncols):
        if c in pivot_of_col:
            continue
        vec = [ZERO] * ncols
        vec[c] = ONE
        for pc, pr in pivot_of_col.items():
            vec[pc] = -rows[pr][c]
        basis.append(vec)
    return basis


def spans_equal(basis_a: list[dict[int, Scalar]], basis_b: list[dict[int, Scalar]]) -> bool:
    """Exact span equality via three rank computations."""
    if len(basis_a) != len(basis_b):
        return False
    ra = sparse_rank(basis_a)
    rb = sparse_rank(basis_b)
    if ra != rb:
        return False
    return sparse_rank(basis_a + basis_b) == ra


def dense_to_sparse(vectors: list[list[Scalar]]) -> list[dict[int, Scalar]]:
    return [{i: v for i, v in enumerate(vec) if not v.is_zero()} for vec in vectors]


def harmonic_space_dense_oracle(model, k: int) -> list[Form]:
    """The degree-k harmonic space by dense elimination, in the model's coframe."""
    comp = model.orthogonalized()
    lap = hodge_laplacian(comp)
    masks = degree_masks(comp.dim, k)
    index = {m: i for i, m in enumerate(masks)}
    dense = [[ZERO] * len(masks) for _ in masks]
    for c, col in lap.cols.items():
        ci = index.get(c)
        if ci is None:
            continue
        for r, v in col.items():
            dense[index[r]][ci] = v
    return [
        model.to_native(Form(comp.dim, {masks[i]: v for i, v in enumerate(vec) if not v.is_zero()}))
        for vec in dense_kernel(dense, len(masks))
    ]


def sparse_echelon_scan(rows: list[SparseRow]) -> list[tuple[SparseRow, int]]:
    """Fraction-free elimination with a full pivot scan at every step.

    The pivot key is (complexity, row index, column) over every active
    entry; each updated entry is (pval v - rv pv) / prev_piv.
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
    return pivots


def stacked_kernel_nullities(model) -> list[tuple[int, int]]:
    """Per degree, the nullities of the stacked eight components and adjoints
    and of the stacked four component Laplacians, in the orthogonalized coframe."""
    comp = model.orthogonalized()
    gram = comp.gram()
    parts = list(differential_split(comp).components().values())
    adjs = [adjoint(p, gram) for p in parts]
    eight = parts + adjs
    laps = [laplacian(p, ps) for p, ps in zip(parts, adjs)]

    def nullity(ops: list[GradedOperator], k: int) -> int:
        rows: list[SparseRow] = []
        for op in ops:
            rows.extend(operator_degree_rows(op, k, comp.dim)[0])
        return len(sparse_kernel(rows, math.comb(comp.dim, k)))

    return [(nullity(eight, k), nullity(laps, k)) for k in range(comp.dim + 1)]


# -- Hodge star ------------------------------------------------------------------

def sqrt_in_field(s: Scalar, d: int) -> Scalar | None:
    """Exact square root of a nonnegative real scalar inside Q(sqrt d), or None."""
    if not s.is_real():
        raise ValueError("square root of a non-real scalar")
    if s.sign() < 0:
        return None
    sa = Fraction(s.a, s.q)
    sb = Fraction(s.b, s.q)

    def _rat_sqrt(f: Fraction) -> Fraction | None:
        if f < 0:
            return None
        np_, dp = f.numerator, f.denominator
        rn, rd = math.isqrt(np_), math.isqrt(dp)
        if rn * rn == np_ and rd * rd == dp:
            return Fraction(rn, rd)
        return None

    def _build(x: Fraction, y: Fraction) -> Scalar:
        den = x.denominator * y.denominator // math.gcd(x.denominator, y.denominator)
        return Scalar(
            x.numerator * (den // x.denominator),
            y.numerator * (den // y.denominator),
            0,
            0,
            den,
            d,
        )

    if sb == 0:
        r = _rat_sqrt(sa)
        if r is not None:
            return _build(r, Fraction(0))
        r = _rat_sqrt(sa / d)
        if r is not None:
            return _build(Fraction(0), r)
        return None
    disc = _rat_sqrt(sa * sa - d * sb * sb)
    if disc is None:
        return None
    for t in ((sa + disc) / 2, (sa - disc) / 2):
        x = _rat_sqrt(t)
        if x is not None and x != 0:
            y = sb / (2 * x)
            cand = _build(x, y)
            if cand * cand == Scalar(s.a, s.b, 0, 0, s.q, d):
                if cand.sign() < 0:
                    cand = -cand
                return cand
    return None


def det(gram: GramData) -> Scalar:
    _, dvals = gram.ldl()
    out = ONE
    for v in dvals:
        out = out * v
    return out


def _volume_root(gram: GramData, d: int) -> Scalar:
    root = sqrt_in_field(det(gram), d)
    if root is None:
        raise ValueError("star unavailable: det(g) is not a square in the field")
    return root


def star_available(gram: GramData, d: int) -> bool:
    return sqrt_in_field(det(gram), d) is not None


def volume_form(gram: GramData, d: int) -> Form:
    return Form.basis(gram.dim, (1 << gram.dim) - 1, _volume_root(gram, d))


def _same_degree_masks(dim: int, k: int):
    # iterate all masks of degree k (Gosper's hack)
    if k == 0:
        yield 0
        return
    m = (1 << k) - 1
    top = 1 << dim
    while m < top:
        yield m
        c = m & -m
        r = m + c
        m = (((r ^ m) >> 2) // c) | r


def star(gram: GramData, d: int, a: Form) -> Form:
    """Complex-linear star with a ^ star(b) = <a, conj(b)> vol, over Q(sqrt d)(i)."""
    root = _volume_root(gram, d)
    full = (1 << gram.dim) - 1
    out = Form.zero(gram.dim)
    for mj, s in a.coeffs.items():
        piece: dict[int, Scalar] = {}
        for mi in _same_degree_masks(gram.dim, mj.bit_count()):
            p = pairing_via_minors(gram, mi, mj)
            if p.is_zero():
                continue
            comp = full ^ mi
            sgn, _ = wedge_masks(mi, comp)
            v = p * s * root
            if sgn < 0:
                v = -v
            t = piece.get(comp)
            v = v if t is None else t + v
            if not v.is_zero():
                piece[comp] = v
            elif comp in piece:
                del piece[comp]
        out = out + Form(gram.dim, piece)
    return out


def star_operator(gram: GramData, d: int) -> GradedOperator:
    cols = {m: star(gram, d, Form.basis(gram.dim, m)).coeffs for m in range(1 << gram.dim)}
    return GradedOperator(gram.dim, cols, None, check=False)
