"""Independent reference routes the tests compare the production code with.

* ``wedge_sign_pairwise``: the sign of u^m1 ^ u^m2 by counting, one index
  of m1 at a time, the indices of m2 below it, against the one sign key
  per mask (``exterior.sign_key``) that ``Form.wedge``, the Koszul sums
  and ``algebra_map_blocks`` read, here through ``wedge_masks``.  The
  Scalar Koszul route and the Hodge star below take their signs from it.
* ``pairing_via_minors`` and ``inner_via_minors``: the Hermitian pairing
  induced on each exterior power, <u^I, u^J> = det of the g^{-1} minor on
  (I, J); works on coupled metrics, against the production pairing through
  the norm weights of a diagonal metric.
* ``adjoint_via_minors``: the literal Gram sandwich G^{-1} P^dagger G, with
  the inverse Gram blocks as minors of g; works on coupled metrics.
* ``adjoint_via_ldl``: the production adjoint conjugated through the LDL^T
  coframe of a coupled metric, i.e. what computing in the orthogonalized
  presentation amounts to.
* ``wedge_image`` and ``wedge_map``: a degree-0 algebra map u^i -> images[i]
  of 1-forms in Scalar arithmetic, one ``Form.wedge`` per index, against
  the integer blocks of ``operators.algebra_map_blocks`` and
  ``algebra_map_apply``.
* ``field_coordinates``, ``regular_matrix``, ``field_product`` and
  ``normalized_entry``: Q(sqrt d)(i) in ``fractions.Fraction`` coordinates on
  the basis 1, w, i, iw, each element acting by its 4x4 rational matrix,
  against the integer field kernel of ``scalars`` that ``Scalar``,
  ``linalg`` and ``operators`` share.
* ``dense_kernel`` and ``harmonic_space_dense_oracle``: textbook dense
  Gauss-Jordan elimination with first-nonzero pivoting, against the sparse
  fraction-free production route; ``spans_equal`` compares the results.
* ``sparse_echelon_scan``: the fraction-free elimination in ``Scalar``
  arithmetic that rescans every active entry for the pivot at each step and
  divides each entry by the previous pivot; the production elimination
  ``linalg._eliminate``, with integer-tuple entries, a heap of per-row
  least (complexity, row, column) keys, a column index and a hoisted
  division, entered from Scalar rows through ``linalg._entry_rows`` and
  read back as Scalar rows by ``sparse_echelon``, must return literally
  the same rows.
* ``eliminate_by_scan``: the same integer elimination on entry rows with
  each pivot found by a pass over every row's cached least (complexity,
  column), ``min`` then ``index``, against the production heap, which must
  pick the same pivots and give literally the same pivot rows.
* ``scalar_columns``, ``operator_rows``, ``operator_degree_rows``,
  ``scalar_kernel`` and ``scalar_pivot_columns``: the Scalar-row route
  from an operator block into elimination, its columns converted to
  Scalars in store order and turned into rows by ``linalg.transpose``,
  then converted back into entry rows by ``linalg._entry_rows``; with it
  ``harmonic_space_by_scalar_rows`` and ``harmonic_pq_by_scalar_rows``,
  against the production kernels and ranks, which read entry rows
  straight off the integer store (``GradedOperator.entry_rows``) and must
  give literally the same bases and pivots (the Betti numbers against
  ``betti_by_full_ranks``).
* ``order_det_by_forms``: ORDER_DET's graded Leibniz rule as Form
  differences on every basis form, against the production check, which
  compares integer columns and builds the Forms only where they differ;
  the witness and residual must be literally the same.
* ``kunneth``: the Kunneth convolution of two Betti vectors or two Hodge
  tables, against the Betti numbers and Hodge tables of product models.
* ``jacobi_issues_dense``: the Jacobi identity on every basis triple as
  the dense sum over every index through ``cval``, against the production
  sum over the nonzero structure constants in ``validate_model``.
* ``connection_by_koszul_formula`` and ``verify_connection_densely``: the
  Levi-Civita table by the Koszul formula with every sum over every index,
  and its metric and torsion tests as dense sums, against
  ``models.ConnectionTable``, which sums the nonzero terms only; the tables
  and the first failing triple's message must be literally the same.
* ``stacked_kernel_nullities``: the kernel intersections of HODGE_ABCD
  (a) and (b) as stacked eliminations of the eight components and adjoints
  and of the four component Laplacians, against the production kernel of
  their PSD sum.
* ``hodge_abcd_by_harmonic_space``: HODGE_ABCD that lists the Delta_d
  kernel of every degree (``harmonic_space``), tests it against every
  kernel and compares its dimension with the per-type nullities of S,
  against the check, which compares those nullities with the Betti
  numbers and takes a Delta_d kernel only in a degree where they differ;
  status, witness and residual must be the same.
* ``split_by_four_derivations``: each component of d as its own
  derivation, from the D_J pieces (``decompose_by_d_j``) of d eta and
  d conj(eta), against the production split, which builds mu and del from
  eta-frame pieces and conjugates them.
* ``barred_requirements``: the twenty barred requirements of D2_SPLIT,
  NK_COR, LAP_COM, AUX_COM, BR67 and TORSION_OP composed directly from
  delbar, mubar, ``adjoint`` and ``mult_operator``, against the conjugates
  the checks record through ``_Acc.pair``.
* ``commutator_by_composition``: [[P, Q]] = P Q - (-1)^{|P||Q|} Q P with
  every column of both products composed, against ``bracket_sum``,
  ``graded_commutator`` and ``laplacian``, which build a bracket of
  bounded operators from its columns of degree <= r and one
  reconstruction.  Every bracket and Laplacian of the oracles below is
  composed this way.
* ``composed_requirements``: the requirements of D2_SPLIT, BR67, AUX_COM,
  PROP_LAP and L_DELTA that contain a bracket of two components of d or of
  a component and L_mu_omega, each such bracket composed as P Q -
  (-1)^{|P||Q|} Q P from full matrices, against the checks, which build them
  by order (``bracket_sum``).
* ``FullRouteAcc``: every requirement sum c_i T_i of the catalogue built
  on full matrices (the sum of the terms' stores by one ``combination``,
  each bracket term held by ``bracket_sum``) and decided by
  ``is_zero``, with its witness and residual read off the full sum, against
  the production ``_Acc``, which decides it on its columns of degree <= R
  (Koszul) and rebuilds only a failing sum.
* ``laplacian_of_del_minus_delbar``: Delta_(del-delbar) as [[P*, P]] of
  P = del - delbar with ``adjoint_via_minors``, against DELTA_SUM's
  expansion Delta_del + Delta_delbar - X - conj X, X = [[delbar*, del]].
* ``monomial_form``, ``form_to_pq``, ``pq_coords_to_form`` and
  ``decompose_via_monomials``: the eta-monomials of the chosen (1,0)/(0,1)
  generators of ``pq_basis`` expanded as Scalar forms (``wedge_image``),
  and coordinates in them through the images ``u_in_eta`` of the coframe
  (each eta_all[i] solved in the chosen eta with ``linalg.solve``), all in
  Scalar arithmetic; grouping them by bidegree is the type decomposition
  that the production ``decompose_form``, on the integer eta-frame, must
  reproduce.
* ``j_derivation``, ``off_type`` and ``decompose_by_d_j``: type through D_J,
  the derivation extending J from 1-forms (``ScalarDerivationAction``),
  which acts on Lambda^{p,q} as i(p - q).  ``off_type`` = D_J form -
  i(p - q) form is zero exactly when a (p+q)-form has type (p,q), and
  ``decompose_by_d_j`` takes, in each degree k with m types, the D_J
  eigencomponents from the powers D_J^j form, j < m, through the inverse
  Vandermonde matrix of the eigenvalues i(2p - k).  Against the production
  eta-frame type test and ``decompose_form``.
* ``j_apply``: J on forms as the Scalar algebra map of the J u^i
  (``wedge_map``), against the production ``j_operator`` on the integer
  store.
* ``harmonic_pq_via_monomials``: the harmonic (p,q)-forms as the kernel of
  Delta_d on the eta-monomials of type (p,q), against the production
  kernel of S on the columns of type (p,q) of its eta-frame.
* ``harmonic_pq_by_laplacian``: the harmonic (p,q)-forms as the
  combinations of the Delta_d-kernel ``harmonic_space(p + q)`` with no
  eta-coordinate outside type (p,q) (``PQBasis.outside``), against the
  same production kernel of S; it shares no operator with it but d.
* ``ranks_of_d_in_full`` and ``betti_by_full_ranks``: b_k = C(n, k) - r_k
  - r_{k-1} with every degree block of d turned into Scalar rows
  (``operator_degree_rows``) and ranked in full with ``sparse_rank``,
  against the production ranks, taken by clearing on the top half of the
  degrees (reading d's integer store and leaving out the rows at the pivot
  columns of the degree above) and by Poincare duality, r_k = r_{n-1-k},
  on the rest.
* ``ScalarOperator`` and ``scalar_adjoint``: the operator store as sparse
  columns of ``Scalar`` (every entry normalized on its own, sums and
  products through ``linalg.add_scaled``), against the production store of
  one denominator times integer coordinates; ``ScalarOperator.of`` reads a
  production operator entry by entry.  ``scalar_adjoint`` is also the
  reference of the adjoints by order (``operators.adjoint_by_order``,
  every ``adj:`` memo).
* ``scalar_koszul_column``, ``scalar_reconstruct``, ``scalar_derivation``,
  ``scalar_koszul_coefficients`` and ``ScalarDerivationAction``: the Koszul
  sum sum_J L_{beta_J} iota_J column by column in ``Scalar`` arithmetic
  (each sum and sign on its own Scalar, the operator through the Scalar
  constructor), against the production sums of integer coordinates over
  one common denominator; the results, key orders and degree errors must
  be literally the same.
* ``off_type_failures``: type preservation of the degree-0 difference
  Laplacian as ``off_type`` on its image of every eta-monomial, against
  VANISH_COR's matrix of it in the eta-monomial basis.
* ``vanish_cor_by_store``: VANISH_COR with its frame's store built, the
  rows of every type scanned and every type's block ranked, against the
  check, which reads type preservation off the frame's Koszul
  coefficients and ranks only the blocks of the types with h^{p,q} != 0;
  status, witness and residual must be the same.
* ``diagonal_operator``: the diagonal m -> weight(m) m through the Scalar
  constructor, against the counting operator H, a Koszul sum.
* ``j_pq_every_degree``: J_PQ as J E_k - E_k D_k on every block E_k of the
  eta-frame, D the ``diagonal_operator`` of i^(p-q), composed from the
  full ``j_operator``, against the production check, which applies J to
  the 2n generators only.
* ``frame_columns_by_composition``: F P E with every column composed, block
  by block from ``algebra_map_blocks``, against the production
  ``PQBasis.frame``, which composes the blocks of degree <= r of a P of
  order <= r and rebuilds the rest by one reconstruction.
  ``swapped`` exchanges the halves of an eta-monomial mask: conj E(m) =
  (-1)^(pq) E(swapped m) for m of type (p,q).
* ``koszul_coefficients``: the beta_J with |J| <= r of the production
  Koszul integral (``operators._koszul_integral``) as Scalar forms, against
  ``scalar_koszul_coefficients``.
* ``koszul_sum_at_once``, ``reconstruct_at_once`` and
  ``from_low_columns_at_once``: a Koszul sum with its store scattered at
  once from the prepared coefficients (``operators._reconstruct``), checked
  for degree and normalized on the store (``GradedOperator._normalized``),
  against the production operator held by its coefficients, normalized on
  them, with columns summed singly where some are read and the store built
  on the first read that walks it.
* ``d_squared_by_composition``: d d with every column of d composed,
  against ``validate_model``, which takes d d = (1/2)[[d, d]] by order from
  its columns of degree <= 1.
* ``frame_sum_by_composition``: DC_FRAME's sum_j L_{J u^j} nabla_j composed
  term by term from ``mult_operator`` and the operators ``nabla_operator``,
  against the one Koszul reconstruction of the production route.
* The Hodge star (``star``, ``star_operator``, ``volume_form``) with
  a ^ star(b) = <a, conj(b)> vol, available when det(g) is a square in the
  field Q(sqrt d)(i) the caller names (``sqrt_in_field``); d* = -*d* in even
  dimension.  ``sqrt_ext`` builds num/den sqrt(d) for the tests.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from nkhodge.bidegree import DifferentialSplit, differential_split, j_operator, pq_basis
from nkhodge.checks import _Acc, _adjoints, _difference_low_columns, _ops, _parts
from nkhodge.exterior import (
    Form,
    GramData,
    graded_lex_key,
    indices_from_mask,
    mask_label,
    sign_key,
)
from nkhodge.hodge import betti_numbers, degree_masks, h_pq, harmonic_pq, harmonic_space, hodge_laplacian, s_frame
from nkhodge.linalg import (
    EntryRow,
    SparseRow,
    _eliminate,
    _entry_rows,
    _row_min,
    _scalar_row,
    add_scaled,
    inverse,
    pivot_columns,
    solve,
    sparse_kernel,
    sparse_rank,
    transpose,
)
from nkhodge.linalg import _clear_row as _clear_entry_row
from nkhodge.models import ValidationIssue
from nkhodge.operators import (
    Column,
    GradedOperator,
    _check_degree,
    _integral,
    _koszul_integral,
    _prepare,
    _reconstruct,
    adjoint,
    algebra_map_apply,
    algebra_map_blocks,
    combination,
    derivation_from_one_forms,
    mult_operator,
)
from nkhodge.scalars import I, ONE, ZERO, Scalar, add, product, rational, reduce
from nkhodge.scalars import inverse as field_inverse


# -- wedge signs ----------------------------------------------------------------

def wedge_sign_pairwise(m1: int, m2: int) -> tuple[int, int]:
    """(sign, union) for u^m1 ^ u^m2; sign 0 when they overlap.  The sign is
    the parity of #{(i, j) : i in m1, j in m2, j < i}, counted index by index."""
    if m1 & m2:
        return 0, 0
    sign = 1
    m = m1
    while m:
        low = m & -m
        if (m2 & (low - 1)).bit_count() & 1:
            sign = -sign
        m ^= low
    return sign, m1 | m2


def diagonal_operator(dim: int, weight) -> GradedOperator:
    """Degree-0 operator m -> weight(m) * m for a mask -> Scalar function,
    through the Scalar constructor."""
    return GradedOperator(dim, {m: {m: weight(m)} for m in range(1 << dim)}, 0, check=False)


def j_pq_every_degree(model, i: Scalar) -> str | None:
    """J_PQ's witness, J != i^(p-q) on the least type (p,q) with a column of
    J E_k - E_k D_k off over every degree k, D the diagonal of i^(p-q) for
    the given unit i; None when no column is off."""
    pqb = pq_basis(model)
    j = j_operator(model)
    powers = [i**k for k in range(4)]

    def eigenvalue(m: int) -> Scalar:
        p, q = pqb.bidegree_of_mask(m)
        return powers[(p - q) % 4]

    diagonal = diagonal_operator(model.dim, eigenvalue)
    off = set()
    for e_k in algebra_map_blocks(model.dim, pqb.generators):
        wrong = j.compose(e_k) - e_k.compose(diagonal)
        off.update(pqb.bidegree_of_mask(m) for m in wrong.coords)
    if not off:
        return None
    p, q = min(off)
    return f"J != i^(p-q) on ({p},{q})"


def wedge_masks(m1: int, m2: int) -> tuple[int, int]:
    """(sign, union) for u^m1 ^ u^m2 from the sign key of m1; sign 0 when
    they overlap."""
    if m1 & m2:
        return 0, 0
    return (-1 if (m2 & sign_key(m1)).bit_count() & 1 else 1), m1 | m2


# -- brackets -------------------------------------------------------------------

def commutator_by_composition(p, q):
    """[[P, Q]] = P Q - (-1)^{|P||Q|} Q P, both products composed in full."""
    pq, qp = p.compose(q), q.compose(p)
    return pq + qp if p.degree * q.degree % 2 else pq - qp


br = commutator_by_composition  # every bracket of the oracles below


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


def wedge_image(images: list[Form], mask: int, table: dict[int, Form]) -> Form:
    """Image of u^mask under the algebra map u^i -> images[i], in Scalar
    arithmetic through ``Form.wedge``.

    ``table`` memoizes images by mask and is filled lazily: a miss builds
    only the chain mask, mask minus its lowest index, ... down to the first
    cached entry, as images[low] ^ image(rest).
    """
    chain = []
    m = mask
    while m not in table:
        if m == 0:
            table[0] = Form.basis(images[0].dim, 0)
            break
        chain.append(m)
        m &= m - 1
    for m in reversed(chain):
        low = m & -m
        table[m] = images[low.bit_length() - 1].wedge(table[m ^ low])
    return table[mask]


def wedge_map(images: list[Form], form: Form, table: dict[int, Form]) -> Form:
    """Image of a form under the algebra map u^i -> images[i] (lazy, as above)."""
    out: dict[int, Scalar] = {}
    for mask, coeff in form.coeffs.items():
        add_scaled(out, wedge_image(images, mask, table).coeffs, coeff)
    return Form(form.dim, out)


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
    return out.with_degree(deg)


# -- the field Q(sqrt d)(i) --------------------------------------------------------

def field_coordinates(a: int, b: int, c: int, e: int, q: int) -> list[Fraction]:
    """The rational coordinates of ((a + b w) + i (c + e w)) / q on the basis 1, w, i, iw."""
    return [Fraction(x, q) for x in (a, b, c, e)]


def regular_matrix(x: list[Fraction], d: int) -> list[list[Fraction]]:
    """The 4x4 rational matrix of multiplication by x on the basis 1, w, i, iw
    (w^2 = d, i^2 = -1): its columns are x, x w, x i and x i w."""
    a, b, c, e = x
    cols = [(a, b, c, e), (d * b, a, d * e, c), (-c, -e, a, b), (-d * e, -c, d * b, a)]
    return [[col[r] for col in cols] for r in range(4)]


def field_product(x: list[Fraction], y: list[Fraction], d: int) -> list[Fraction]:
    """x y, as the matrix of x applied to the coordinates of y."""
    return [sum(m * v for m, v in zip(row, y)) for row in regular_matrix(x, d)]


def normalized_entry(x: list[Fraction]) -> tuple[int, int, int, int, int]:
    """The normalized (a, b, c, e, q) of rational coordinates: q is the lcm
    of their reduced denominators, so no prime divides q and every numerator."""
    q = math.lcm(*(f.denominator for f in x))
    return (*(int(f * q) for f in x), q)


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


def _complexity(s: Scalar) -> int:
    """Bit size of a scalar; ``int.bit_length`` ignores the sign."""
    return s.a.bit_length() + s.b.bit_length() + s.c.bit_length() + s.e.bit_length() + s.q.bit_length()


def _clear_row(row: SparseRow) -> SparseRow:
    """Scale a row to a primitive integral representative (kernel unchanged)."""
    lcm = 1
    for s in row.values():
        lcm = lcm * s.q // math.gcd(lcm, s.q)
    fac = Scalar(lcm, 0, 0, 0)
    out = {c: v * fac for c, v in row.items()}
    content = 0
    for v in out.values():
        content = math.gcd(content, abs(v.a), abs(v.b), abs(v.c), abs(v.e))
    if content > 1:
        inv = Scalar(1, 0, 0, 0, content)
        out = {c: v * inv for c, v in out.items()}
    return out


def sparse_echelon(rows: list[SparseRow]) -> list[tuple[SparseRow, int]]:
    """The pivots of the production elimination ``linalg._eliminate`` on
    Scalar rows (``linalg._entry_rows``), (row, pivot column) in
    elimination order, with each pivot row as Scalars."""
    active, d = _entry_rows(rows)
    return [(_scalar_row(prow, d), pc) for prow, pc in _eliminate(active, d)]


def sparse_echelon_scan(rows: list[SparseRow]) -> list[tuple[SparseRow, int]]:
    """Fraction-free elimination in ``Scalar`` arithmetic with a full pivot
    scan at every step.

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



def eliminate_by_scan(rows: list[EntryRow], d: int) -> list[tuple[EntryRow, int]]:
    """``linalg._eliminate`` with the pivot found by a pass over every
    active row's cached least (complexity, column): ``min`` of the
    complexities, then ``index`` for the first row that has it."""
    retired = sys.maxsize  # above any complexity
    active: list[EntryRow | None] = [_clear_entry_row(row) for row in rows if row]
    mins = [_row_min(r) for r in active]
    cxs = [cx for cx, _ in mins]
    cols = [c for _, c in mins]
    holders: dict[int, list[int]] = {}
    for i, row in enumerate(active):
        for col in row:
            holders.setdefault(col, []).append(i)
    pivots: list[tuple[EntryRow, int]] = []
    inv = (1, 0, 0, 0, 1)
    for _ in range(len(active)):
        cx = min(cxs)
        if cx == retired:
            break
        ri = cxs.index(cx)
        prow, pc = active[ri], cols[ri]
        active[ri], cxs[ri] = None, retired
        pval = prow[pc]
        scale = product(pval, inv, d)
        others = [(col, pv) for col, pv in prow.items() if col != pc]
        for i in holders.pop(pc):
            row = active[i]
            if row is None or pc not in row:
                continue
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
                cxs[i], cols[i] = _row_min(out)
            else:
                active[i], cxs[i] = None, retired
        pivots.append((prow, pc))
        inv = field_inverse(pval, d)
    return pivots

# -- the Scalar-row route into elimination -------------------------------------------

def scalar_columns(op: GradedOperator, masks=None):
    """(mask, column of Scalars) in op's store order, only the columns at
    ``masks`` (a container) when it is given.  One Scalar per distinct
    entry, shared by the columns; nothing is kept."""
    image: dict[tuple[int, int, int, int], Scalar] = {}
    for c, col in op.coords.items():
        if masks is None or c in masks:
            out = {}
            for r, t in col.items():
                v = image.get(t)
                if v is None:
                    v = image[t] = Scalar(t[0], t[1], t[2], t[3], op.q, op.d)
                out[r] = v
            yield c, out


def operator_rows(op: GradedOperator, masks: list[int]) -> list[SparseRow]:
    """Row-sparse Scalar matrix of the block of op's columns at ``masks``,
    column j at masks[j]: read in store order (``scalar_columns``) and
    turned into rows by ``linalg.transpose``."""
    index = {m: j for j, m in enumerate(masks)}
    return transpose((index[c], col) for c, col in scalar_columns(op, index))


def operator_degree_rows(op: GradedOperator, k: int, dim: int) -> tuple[list[SparseRow], list[int]]:
    """``operator_rows`` of the degree-k block, its columns in graded-lex
    mask order, and those masks."""
    masks = degree_masks(dim, k)
    return operator_rows(op, masks), masks


def scalar_kernel(rows: list[SparseRow], ncols: int) -> list[SparseRow]:
    """A kernel basis of Scalar rows: the production elimination entered
    through the Scalar adapter ``linalg._entry_rows``."""
    return sparse_kernel(*_entry_rows(rows), ncols)


def scalar_pivot_columns(op: GradedOperator, masks: list[int], skip_rows=()) -> list[int]:
    """The pivot columns, as masks, of the block of op's columns at
    ``masks`` with the rows in ``skip_rows`` left out: the columns as
    Scalars, taken in the order of ``masks`` and keyed by mask, eliminated
    as Scalar rows (``sparse_echelon``)."""
    columns = dict(scalar_columns(op, set(masks)))
    kept = ((c, {r: v for r, v in columns[c].items() if r not in skip_rows}) for c in masks if c in columns)
    return [pc for _, pc in sparse_echelon(transpose(kept))]


def harmonic_space_by_scalar_rows(model, k: int) -> list[Form]:
    """The Delta_d-kernel in degree k through Scalar rows, in the model's
    coframe."""
    comp = model.orthogonalized()
    rows, masks = operator_degree_rows(hodge_laplacian(comp), k, comp.dim)
    return [
        model.to_native(Form(comp.dim, {masks[i]: v for i, v in vec.items()}))
        for vec in scalar_kernel(rows, len(masks))
    ]


def harmonic_pq_by_scalar_rows(model, p: int, q: int) -> list[Form]:
    """ker S on the columns of type (p,q) of ``s_frame`` through Scalar
    rows, mapped back through E, in the model's coframe."""
    comp = model.orthogonalized()
    pqb = pq_basis(comp)
    masks = pqb.monomial_masks(p, q)
    rows = operator_rows(s_frame(comp), masks)
    kernel = [Form(comp.dim, {masks[j]: v for j, v in vec.items()}) for vec in scalar_kernel(rows, len(masks))]
    return [model.to_native(f) for f in algebra_map_apply(pqb.generators, kernel)]


def stacked_kernel_nullities(model) -> list[tuple[int, int]]:
    """Per degree, the nullities of the stacked eight components and adjoints
    and of the stacked four component Laplacians, in the orthogonalized coframe."""
    comp = model.orthogonalized()
    gram = comp.gram()
    parts = list(differential_split(comp).components().values())
    adjs = [adjoint(p, gram) for p in parts]
    eight = parts + adjs
    laps = [br(ps, p) for p, ps in zip(parts, adjs)]

    def nullity(ops: list[GradedOperator], k: int) -> int:
        rows: list[SparseRow] = []
        for op in ops:
            rows.extend(operator_degree_rows(op, k, comp.dim)[0])
        return len(scalar_kernel(rows, math.comb(comp.dim, k)))

    return [(nullity(eight, k), nullity(laps, k)) for k in range(comp.dim + 1)]


def hodge_abcd_by_harmonic_space(model, acc: _Acc):
    """HODGE_ABCD as it was checked with the Delta_d kernel of every degree
    (``harmonic_space``) listed and counted.

    (a) harmonic = intersection of the kernels of the components and their
    adjoints, (b) = that of the four component Laplacians, (c) the Hodge
    numbers add up to the Betti numbers, (d) conjugation symmetry.

    Lemma: the Hermitian product is positive definite, so
    ker sum_i P_i* P_i = intersection of the ker P_i.  Over the eight
    operators of (a) the sum is S = Delta_mu + Delta_del + Delta_delbar +
    Delta_mubar, and each Delta_P = P*P + PP*, so nullity(S) per degree
    closes (a) and (b).  First every harmonic form must lie in every
    kernel.  Then S must preserve every Lambda^{p,q}: no column of type
    (p,q) of F S E (``hodge.s_frame``) has a row of another type.  With
    that, nullity(S) in degree k is the sum of the nullities of S on the
    Lambda^{p,q} with p + q = k, the h^{p,q} of ``harmonic_pq``, and (a),
    (b) compare it with dim ker Delta_d.  (c) compares the same sum with
    b_k from the ranks of d, which need no metric: the paper's statement
    that Hodge numbers relate to Betti numbers as on a Kahler manifold,
    from two computations that share only d.

    Dropping Delta_mubar from S changes none of this on a nearly Kahler
    model: PROP_LAP gives Delta_mubar = Delta_mu + (Delta_del -
    Delta_delbar)/2, so every x with (Delta_mu + Delta_del + Delta_delbar)
    x = 0, each term positive semidefinite, has Delta_mubar x = 0 too.  On
    kodaira-thurston mu = 0.
    """
    mu, de, db, mb = _parts(model)
    eight = [mu, de, db, mb, *_adjoints(model)]
    laps = _ops(model, "lap:mu", "lap:del", "lap:delbar", "lap:mubar")
    n = model.dim // 2
    types = [(p, q) for p in range(n + 1) for q in range(n + 1)]
    pq_bases = {pq: harmonic_pq(model, *pq) for pq in types}
    harmonic = [harmonic_space(model, k) for k in range(model.dim + 1)]
    # (a), (b): containment of the harmonic space in every kernel
    for k, basis in enumerate(harmonic):
        for v in basis:
            for idx, op in enumerate(eight):
                if not op.apply(v).is_zero():
                    acc.require(f"(a) harmonic {k}-form escapes kernel of component {idx}", False)
            for idx, op in enumerate(laps):
                if not op.apply(v).is_zero():
                    acc.require(f"(b) harmonic {k}-form escapes a component Laplacian kernel", False)
    pqb, frame = pq_basis(model), s_frame(model)
    for p, q in types:
        rows = (r for m in pqb.monomial_masks(p, q) for r in frame.coords.get(m, {}))
        acc.require(f"S preserves ({p},{q})", all(pqb.bidegree_of_mask(r) == (p, q) for r in rows))
    # (a), (b): nullity(S) = dim harmonic closes both directions; (c) the Betti numbers
    betti = betti_numbers(model)
    for k, basis in enumerate(harmonic):
        nullity = sum(len(pq_bases[(p, k - p)]) for p in range(max(0, k - n), min(n, k) + 1))
        acc.require(f"(a) dim intersection of 8 kernels = dim harmonic, degree {k}", nullity == len(basis))
        acc.require(f"(b) dim intersection of 4 Laplacian kernels = dim harmonic, degree {k}", nullity == len(basis))
        acc.require(f"(c) sum of h^(p,q) = b_k, degree {k}", nullity == betti[k])
    # (d) conjugation maps harmonic (p,q) onto (q,p)
    lap = hodge_laplacian(model)
    for (p, q), basis in pq_bases.items():
        acc.require(f"(d) h^({p},{q}) = h^({q},{p})", len(basis) == len(pq_bases[(q, p)]))
        conjugates = [v.conjugate() for v in basis]
        for w, coords in zip(conjugates, pqb.coordinates(conjugates)):
            if not lap.apply(w).is_zero():
                acc.require(f"(d) conjugate of harmonic ({p},{q})-form not harmonic", False)
            if pqb.outside(coords, q, p):
                acc.require(f"(d) conjugate of ({p},{q})-form not of type ({q},{p})", False)


# -- model validation ------------------------------------------------------------

def jacobi_issues_dense(model) -> list[ValidationIssue]:
    """The Jacobi failures by the dense sum over every index, through ``cval``."""
    n = model.dim
    c = model.cval
    issues = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(n):
                    acc = ZERO
                    for m in range(n):
                        acc = acc + c(i, j, m) * c(m, k, l)
                        acc = acc + c(j, k, m) * c(m, i, l)
                        acc = acc + c(k, i, m) * c(m, j, l)
                    if not acc.is_zero():
                        issues.append(ValidationIssue("jacobi", (i + 1, j + 1, k + 1, l + 1)))
    return issues



def connection_by_koszul_formula(model) -> list[list[list[Scalar]]]:
    """Gamma^k_{ij} = (1/2) g^{kl} (P(i,j,l) - P(j,l,i) + P(l,i,j)), with
    P(a,b,c) = g([e_a, e_b], e_c), every sum taken over every index."""
    n = model.dim
    g = model.metric
    ginv = model.gram().g_inv

    def pair_bracket(i: int, j: int, k: int) -> Scalar:
        acc = ZERO
        for l, v in model.bracket_basis(i, j):
            acc = acc + v * g[l][k]
        return acc

    gamma = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rhs = [pair_bracket(i, j, k) - pair_bracket(j, k, i) + pair_bracket(k, i, j) for k in range(n)]
            for k in range(n):
                acc = ZERO
                for l in range(n):
                    if not rhs[l].is_zero():
                        acc = acc + ginv[k][l] * rhs[l]
                gamma[i][j][k] = acc / rational(2)
    return gamma


def verify_connection_densely(model, gamma) -> None:
    """Metric compatibility and then torsion at every (i, j, k) in turn,
    each as the dense sum over every index; the first failure raises."""
    n = model.dim
    g = model.metric
    for i in range(n):
        for j in range(n):
            for k in range(n):
                compat = ZERO
                for l in range(n):
                    compat = compat + gamma[i][j][l] * g[l][k]
                    compat = compat + gamma[i][k][l] * g[j][l]
                if not compat.is_zero():
                    raise ValueError(f"connection not metric ({i + 1},{j + 1},{k + 1})")
                tors = gamma[i][j][k] - gamma[j][i][k] - model.cval(i, j, k)
                if not tors.is_zero():
                    raise ValueError(f"connection has torsion ({i + 1},{j + 1},{k + 1})")

# -- the split of d and its barred half ----------------------------------------

def split_by_four_derivations(model) -> DifferentialSplit:
    """The four components, each the derivation with its own coframe values:
    with u^i = eta + conj(eta), the pieces of d eta and d conj(eta) of the
    component's target type, without assuming conjugation symmetry."""
    d = model.d()
    zero = Form.zero(model.dim)
    mu_im, del_im, delbar_im, mubar_im = [], [], [], []
    for eta in pq_basis(model).eta_all:
        d_eta = decompose_by_d_j(model, d.apply(eta))
        d_etabar = decompose_by_d_j(model, d.apply(eta.conjugate()))
        mu_im.append(d_etabar.get((2, 0), zero))
        del_im.append(d_eta.get((2, 0), zero) + d_etabar.get((1, 1), zero))
        delbar_im.append(d_eta.get((1, 1), zero) + d_etabar.get((0, 2), zero))
        mubar_im.append(d_eta.get((0, 2), zero))
    return DifferentialSplit(
        *(derivation_from_one_forms(model.dim, im) for im in (mu_im, del_im, delbar_im, mubar_im))
    )


def barred_requirements(model) -> dict[str, GradedOperator]:
    """The barred requirement of each conjugate pair in the catalogue, by
    label, composed directly from ``differential_split``'s delbar and mubar,
    ``adjoint`` and ``mult_operator`` (not from ``named_operator``)."""
    split = differential_split(model)
    gram = model.gram()
    mu, de, db, mb = split.mu, split.del_, split.delbar, split.mubar
    mus, des, dbs, mbs = (adjoint(p, gram) for p in (mu, de, db, mb))
    l_op = mult_operator(model.omega())
    lam = adjoint(l_op, gram)
    lmb = mult_operator(mb.apply(model.omega())).with_degree(3)
    lmbs = adjoint(lmb, gram)
    two_i, third_i, three = Scalar(0, 0, 2, 0), I * rational(1, 3), rational(3)
    return {
        # D2_SPLIT
        "mubar^2": mb.compose(mb),
        "[[delbar,mubar]]": br(db, mb),
        "[[del,mubar]] + delbar^2": br(de, mb) + db.compose(db),
        # NK_COR
        "[delbar*,L] - i del": br(dbs, l_op) - de.scale(I),
        "[delbar,Lambda] - i del*": br(db, lam) - des.scale(I),
        "[mubar*,L] - 2i mu": br(mbs, l_op) - mu.scale(two_i),
        "[mubar,Lambda] - 2i mu*": br(mb, lam) - mus.scale(two_i),
        # LAP_COM
        "[[del*,mubar]]": br(des, mb),
        "[[mubar*,del]]": br(mbs, de),
        "[[mubar*,mu]]": br(mbs, mu),
        "[[del*,delbar]] + [[delbar*,mubar]]": br(des, db) + br(dbs, mb),
        "[[del*,delbar]] + [[mu*,del]]": br(des, db) + br(mus, de),
        # AUX_COM
        "[[mu*, L_mubar_omega]]": br(mus, lmb),
        "[[del*, L_mubar_omega]]": br(des, lmb),
        "[[del,mubar]] - (i/3)[[delbar*, L_mubar_omega]]": br(de, mb) - br(dbs, lmb).scale(third_i),
        # BR67
        "[[L_mubar_omega, mubar]]": br(lmb, mb),
        "[[L_mubar_omega, delbar]]": br(lmb, db),
        "[[L_mubar_omega, del]]": br(lmb, de),
        # TORSION_OP
        "[Lambda, L_mubar_omega] + 3mubar": br(lam, lmb) + mb.scale(three),
        "[L_mubar_omega*, L] + 3mubar*": br(lmbs, l_op) + mbs.scale(three),
    }


def composed_requirements(model) -> dict[str, GradedOperator]:
    """The requirements, by label, of the check sites whose brackets of
    derivations, or of a derivation and L_mu_omega, the catalogue builds
    from coframe values; here every such bracket is composed."""
    split = differential_split(model)
    mu, de, db, mb = split.mu, split.del_, split.delbar, split.mubar
    gram = model.gram()
    mus, des = adjoint(mu, gram), adjoint(de, gram)
    l_op = mult_operator(model.omega())
    lam = adjoint(l_op, gram)
    lm = mult_operator(mu.apply(model.omega())).with_degree(3)
    lmb = lm.conjugated()
    d_lm = br(adjoint(lm, gram), lm)
    d_lmb = d_lm.conjugated()
    third_i = I * rational(1, 3)
    mb_mu = mu.compose(mb) + mb.compose(mu)
    mus_lm = br(mus, lm)
    mbs_lmb = mus_lm.conjugated()
    lam_mu_lmb = br(lam, br(mu, lmb))
    de2 = de.compose(de)
    return {
        # D2_SPLIT
        "mu^2": mu.compose(mu),
        "[[del,mu]]": br(de, mu),
        "[[delbar,mu]] + del^2": br(db, mu) + de2,
        "[[del,delbar]] + [[mu,mubar]]": br(de, db) + br(mu, mb),
        # BR67
        "[[L_mu_omega, mu]]": br(lm, mu),
        "[[L_mu_omega, del]]": br(lm, de),
        "[[L_mu_omega, delbar]]": br(lm, db),
        "[[L_mu_omega, mubar]] + [[L_mubar_omega, mu]]": br(lm, mb) + br(lmb, mu),
        # AUX_COM
        "[[delbar,mu]] + (i/3)[[del*, L_mu_omega]]": br(db, mu) + br(des, lm).scale(third_i),
        # PROP_LAP
        "[[mubar,mu]] + (i/3)[[mu*,L_mu_omega]] - (i/3)[[mubar*,L_mubar_omega]]": (
            mb_mu + mus_lm.scale(third_i) - mbs_lmb.scale(third_i)
        ),
        "[[Lambda,[[mu,L_mubar_omega]]]] - i[[mu*,L_mu_omega]] - i[[mubar*,L_mubar_omega]]": (
            lam_mu_lmb - (mus_lm + mbs_lmb).scale(I)
        ),
        "[[mubar,mu]] - (i/9)[Delta_Lmu - Delta_Lmubar, L]": mb_mu - br(d_lm - d_lmb, l_op).scale(I * rational(1, 9)),
        "[[Lambda,[[mu,L_mubar_omega]]]] + (i/3)[Delta_Lmu + Delta_Lmubar, L]": (
            lam_mu_lmb + br(d_lm + d_lmb, l_op).scale(third_i)
        ),
        # L_DELTA
        "[L,Delta_d] - 2i del^2 + ([[mu*,L_mu_omega]] + [[mubar*,L_mubar_omega]]) + 2i delbar^2": (
            br(l_op, br(adjoint(model.d(), gram), model.d()))
            + (mus_lm - de2.scale(Scalar(0, 0, 2, 0)))
            + (mus_lm - de2.scale(Scalar(0, 0, 2, 0))).conjugated()
        ),
    }


class FullRouteAcc(_Acc):
    """The catalogue's requirements decided on full matrices: each sum
    c_i T_i is one ``combination`` of its terms' full stores, zero exactly
    when ``is_zero``, with its witness and residual read off it, and a
    barred partner is its conjugate.  Against the production ``_Acc``,
    which decides a sum on its columns of degree <= R and rebuilds only a
    failing one."""

    def op(self, label, terms):
        self._full(label, combination(terms))

    def pair(self, label, conj_label, terms):
        op = combination(terms)
        self._full(label, op)
        self._full(conj_label, op.conjugated())

    def _full(self, label, op):
        if not op.is_zero():
            self._fail(label + ": " + (op.first_witness() or ""), op.max_abs_approx())


def laplacian_of_del_minus_delbar(model) -> GradedOperator:
    """[[P*, P]] for P = del - delbar, with the minor-sandwich adjoint."""
    split = differential_split(model)
    p = split.del_ - split.delbar
    return br(adjoint_via_minors(p, model.gram()), p)


# -- eta-monomial coordinates ----------------------------------------------------
# bit a (a < n) of a monomial mask: generator eta^a; bit n + a: conj(eta^a)

def monomial_form(model, pqmask: int) -> Form:
    """One eta-monomial in real coordinates, expanded as a Scalar form."""
    table = model._memo("oracle:monomial_table", dict)
    return wedge_image(pq_basis(model).generators, pqmask, table)


def u_in_eta(model) -> list[Form]:
    """u^i = eta_all[i] + conj(eta_all[i]) in eta-monomial coordinates."""

    def build():
        pqb = pq_basis(model)
        n = pqb.n
        chosen = [f.coeffs for f in pqb.eta]
        out = []
        for f in pqb.eta_all:
            x = solve(chosen, f.coeffs)
            u = {1 << a: s for a, s in x.items()}
            u.update({1 << (n + a): s.conjugate() for a, s in x.items()})
            out.append(Form(model.dim, u))
        return out

    return model._memo("oracle:u_in_eta", build)


def form_to_pq(model, form: Form) -> dict[int, Scalar]:
    """Coordinates of a form in the eta-monomial basis."""
    return wedge_map(u_in_eta(model), form, model._memo("oracle:u_in_eta_table", dict)).coeffs


def pq_coords_to_form(model, coords: dict[int, Scalar]) -> Form:
    out = Form.zero(model.dim)
    for pqmask, v in coords.items():
        out = out + monomial_form(model, pqmask).scale(v)
    return out


def decompose_via_monomials(model, form: Form) -> dict[tuple[int, int], Form]:
    """The pure-bidegree pieces of a form, grouped by the type of each eta-monomial."""
    pqb = pq_basis(model)
    groups: dict[tuple[int, int], dict[int, Scalar]] = {}
    for pqmask, v in form_to_pq(model, form).items():
        groups.setdefault(pqb.bidegree_of_mask(pqmask), {})[pqmask] = v
    return {bid: pq_coords_to_form(model, coords) for bid, coords in groups.items()}


def harmonic_pq_via_monomials(model, p: int, q: int) -> list[Form]:
    """Kernel of Delta_d on the eta-monomials of type (p,q), in the model's coframe."""
    comp = model.orthogonalized()
    pqb = pq_basis(comp)
    masks = pqb.monomial_masks(p, q)
    lap = hodge_laplacian(comp)
    rows = transpose((j, lap.apply(monomial_form(comp, m)).coeffs) for j, m in enumerate(masks))
    return [
        model.to_native(pq_coords_to_form(comp, {masks[j]: v for j, v in vec.items()}))
        for vec in scalar_kernel(rows, len(masks))
    ]


def harmonic_pq_by_laplacian(model, p: int, q: int) -> list[Form]:
    """The combinations of ``harmonic_space(p + q)`` with no eta-coordinate
    outside type (p,q): one small kernel with a column per harmonic form,
    in the model's coframe."""
    comp = model.orthogonalized()
    basis = harmonic_space(comp, p + q)
    pqb = pq_basis(comp)  # the eta-coordinates of the basis serve every type of its degree
    coords = comp._memo(f"oracle:harmonic_eta:{p + q}", lambda: pqb.coordinates(basis))
    rows = transpose((i, pqb.outside(c, p, q)) for i, c in enumerate(coords))
    return [
        model.to_native(sum((basis[i].scale(c) for i, c in vec.items()), Form.zero(comp.dim)))
        for vec in scalar_kernel(rows, len(basis))
    ]


def ranks_of_d_in_full(model) -> list[int]:
    """The rank of d on every degree, each block as Scalar rows with every
    row kept."""
    comp = model.orthogonalized()
    d, dim = comp.d(), comp.dim
    return [sparse_rank(operator_degree_rows(d, k, dim)[0]) for k in range(dim + 1)]


def betti_by_full_ranks(model) -> list[int]:
    """The Betti numbers from ``ranks_of_d_in_full``."""
    ranks = ranks_of_d_in_full(model)
    dim = len(ranks) - 1
    return [math.comb(dim, k) - ranks[k] - (ranks[k - 1] if k else 0) for k in range(dim + 1)]


# -- type through D_J ------------------------------------------------------------

def j_derivation(model) -> ScalarDerivationAction:
    """D_J, the derivation extending J from 1-forms; i(p - q) on Lambda^{p,q}."""
    return model._memo("oracle:j_derivation", lambda: ScalarDerivationAction(model.dim, model.j_one_form_rows()))


def off_type(model, form: Form, p: int, q: int) -> Form:
    """D_J form - i(p - q) form: zero exactly when a (p+q)-form has type (p,q)."""
    return j_derivation(model).apply(form) - form.scale(I * rational(p - q))


def decompose_by_d_j(model, form: Form) -> dict[tuple[int, int], Form]:
    """The pure-bidegree pieces by degree, then increasing p.  In degree k
    the piece x_p is the D_J eigencomponent for i(2p - k), so
    D_J^j form = sum_p (i(2p - k))^j x_p for j below the number of types,
    and the inverse Vandermonde matrix solves for the x_p."""
    n = model.dim // 2
    out: dict[tuple[int, int], Form] = {}
    for k in sorted({m.bit_count() for m in form.coeffs}):
        types = range(max(0, k - n), min(n, k) + 1)
        powers = [Form(form.dim, {m: v for m, v in form.coeffs.items() if m.bit_count() == k})]
        while len(powers) < len(types):
            powers.append(j_derivation(model).apply(powers[-1]))
        vandermonde = [[(I * rational(2 * p - k)) ** j for p in types] for j in range(len(types))]
        for p, row in zip(types, inverse(vandermonde)):
            part: dict[int, Scalar] = {}
            for w, power in zip(row, powers):
                if not w.is_zero():
                    add_scaled(part, power.coeffs, w)
            if part:
                out[(p, k - p)] = Form(form.dim, part)
    return out


def j_apply(model, form: Form) -> Form:
    """(J alpha)(X_1,...,X_k) = alpha(J X_1,...,J X_k), as the Scalar algebra
    map of the J u^i."""
    return wedge_map(model.j_one_form_rows(), form, model._memo("oracle:j_table", dict))


# -- Hodge star ------------------------------------------------------------------

def sqrt_ext(d: int, num: int = 1, den: int = 1) -> Scalar:
    """num/den times sqrt(d), a constructor the tests share."""
    return Scalar(0, num, 0, 0, den, d)


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
            sgn, _ = wedge_sign_pairwise(mi, comp)
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


# -- the dict-of-Scalar operator store ---------------------------------------------

class ScalarOperator:
    """Sparse exact matrix as columns of normalized ``Scalar`` entries.

    The reference for ``GradedOperator``: the same operations, each entry
    its own Scalar, every sum and product accumulated through
    ``linalg.add_scaled``.  It carries no order bound, so its graded
    commutator is always composed.
    """

    __slots__ = ("dim", "cols", "degree")
    order_bound = None

    def __init__(self, dim: int, cols: dict[int, Column], degree: int | None = None):
        clean: dict[int, Column] = {}
        for c, col in cols.items():
            kept = {r: v for r, v in col.items() if not v.is_zero()}
            if kept:
                clean[c] = kept
        self.dim = dim
        self.cols = clean
        self.degree = degree

    @classmethod
    def of(cls, op: GradedOperator) -> ScalarOperator:
        return cls(op.dim, op.cols, op.degree)

    def is_zero(self) -> bool:
        return not self.cols

    def nnz(self) -> int:
        return sum(len(col) for col in self.cols.values())

    def apply(self, form: Form) -> Form:
        out: Column = {}
        for m, s in form.coeffs.items():
            col = self.cols.get(m)
            if col is not None:
                add_scaled(out, col, s)
        return Form(self.dim, out)

    def column_form(self, mask: int) -> Form:
        return Form(self.dim, dict(self.cols.get(mask, {})))

    def __add__(self, other: ScalarOperator) -> ScalarOperator:
        deg = self.degree if self.degree == other.degree else None
        cols = {c: dict(col) for c, col in self.cols.items()}
        for c, col in other.cols.items():
            add_scaled(cols.setdefault(c, {}), col)
        return ScalarOperator(self.dim, cols, deg)

    def __sub__(self, other: ScalarOperator) -> ScalarOperator:
        return self + other.scale(Scalar(-1, 0, 0, 0))

    def __neg__(self) -> ScalarOperator:
        return self.scale(Scalar(-1, 0, 0, 0))

    def scale(self, s: Scalar) -> ScalarOperator:
        if s.is_zero():
            return ScalarOperator(self.dim, {}, self.degree)
        cols = {c: {r: v * s for r, v in col.items()} for c, col in self.cols.items()}
        return ScalarOperator(self.dim, cols, self.degree)

    def compose(self, other: ScalarOperator) -> ScalarOperator:
        deg = None
        if self.degree is not None and other.degree is not None:
            deg = self.degree + other.degree
        cols: dict[int, Column] = {}
        for c, col in other.cols.items():
            acc: Column = {}
            for mid, v in col.items():
                right = self.cols.get(mid)
                if right is not None:
                    add_scaled(acc, right, v)
            if acc:
                cols[c] = acc
        return ScalarOperator(self.dim, cols, deg)

    def conjugated(self) -> ScalarOperator:
        cols = {c: {r: v.conjugate() for r, v in col.items()} for c, col in self.cols.items()}
        return ScalarOperator(self.dim, cols, self.degree)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScalarOperator):
            return NotImplemented
        return self.dim == other.dim and self.cols == other.cols

    __hash__ = None

    def first_witness(self) -> str | None:
        if not self.cols:
            return None
        c = min(self.cols, key=graded_lex_key)
        r = min(self.cols[c], key=graded_lex_key)
        return f"column {mask_label(c)}, row {mask_label(r)}: {self.cols[c][r].literal()}"

    def max_abs_approx(self) -> float:
        out = 0.0
        for col in self.cols.values():
            for v in col.values():
                out = max(out, abs(v.approx()))
        return out


def scalar_adjoint(p: ScalarOperator, gram: GramData) -> ScalarOperator:
    """The weighted conjugate transpose conj(P[r][c]) w(c) / w(r), entry by entry."""
    cols: dict[int, Column] = {}
    for c, col in p.cols.items():
        for r, v in col.items():
            cols.setdefault(r, {})[c] = v.conjugate() * gram.weight(c) * gram.inverse_weight(r)
    return ScalarOperator(p.dim, cols, -p.degree if p.degree is not None else None)


# -- the Scalar Koszul route ----------------------------------------------------------

def scalar_koszul_column(beta: dict[int, Form], mask: int) -> Column:
    """Column ``mask`` of sum_J L_{beta_J} iota_J: the terms with J inside mask."""
    col: Column = {}
    for jm, form in beta.items():
        if jm & mask != jm:
            continue
        rest = mask ^ jm
        eps, _ = wedge_sign_pairwise(jm, rest)  # u^mask = eps u^J ^ u^rest
        for bm, bv in form.coeffs.items():
            sign, target = wedge_sign_pairwise(bm, rest)
            if sign == 0:
                continue
            v = bv if sign == eps else -bv
            t = col.get(target)
            v = v if t is None else t + v
            if v.is_zero():
                col.pop(target, None)
            else:
                col[target] = v
    return col


def scalar_reconstruct(dim: int, beta: dict[int, Form], degree: int | None) -> GradedOperator:
    cols = {m: scalar_koszul_column(beta, m) for m in range(1 << dim)}
    return GradedOperator(dim, cols, degree)


def _scalar_coframe_coefficients(images: list[Form]) -> dict[int, Form]:
    return {1 << i: f for i, f in enumerate(images) if not f.is_zero()}


def scalar_derivation(dim: int, images: list[Form], degree: int = 1) -> GradedOperator:
    return scalar_reconstruct(dim, _scalar_coframe_coefficients(images), degree)


def koszul_coefficients(p: GradedOperator, r: int) -> dict[int, Form]:
    """beta_J for |J| <= r as the production Koszul integral reads them off
    P's columns of degree <= r, one Scalar per coefficient entry."""
    beta, _, _ = _koszul_integral(p, r)
    return {jm: Form(p.dim, {m: p._entry(t) for m, t in b.items()}) for jm, b in beta.items()}


def scalar_koszul_coefficients(p: GradedOperator, r: int) -> dict[int, Form]:
    """beta_M = P(u^M) - sum eps beta_J ^ u^{M-J} in order of increasing |M| <= r."""
    beta: dict[int, Form] = {}
    masks = sorted((m for m in range(1 << p.dim) if m.bit_count() <= r), key=int.bit_count)
    for mask in masks:
        b = p.column_form(mask) - Form(p.dim, scalar_koszul_column(beta, mask))
        if not b.is_zero():
            beta[mask] = b
    return beta


def koszul_sum_at_once(dim: int, coeffs, q: int, d: int, degree: int | None) -> GradedOperator:
    """The operator of prepared coefficient forms over q with its store
    built at once: scattered by ``operators._reconstruct``, checked for
    degree and normalized on the store."""
    store = _reconstruct(dim, coeffs)
    _check_degree(store, degree)
    bound = max((jm.bit_count() for jm, _ in coeffs), default=0)
    return GradedOperator._normalized(dim, degree, q, d, False, store, bound)


def reconstruct_at_once(dim: int, beta: dict[int, Form], degree: int | None) -> GradedOperator:
    coeffs, q, d = _integral(beta)
    return koszul_sum_at_once(dim, _prepare(coeffs), q, d, degree)


def from_low_columns_at_once(p: GradedOperator, r: int) -> GradedOperator:
    _, prepared, _ = _koszul_integral(p, r)
    return koszul_sum_at_once(p.dim, prepared, p.q, p.d, p.degree)


class ScalarDerivationAction:
    """The derivation with the given coframe images, column by column in Scalars."""

    def __init__(self, dim: int, images: list[Form]):
        self.beta = _scalar_coframe_coefficients(images)
        self.columns: dict[int, Column] = {}

    def apply(self, form: Form) -> Form:
        out: Column = {}
        for m, s in form.coeffs.items():
            col = self.columns.get(m)
            if col is None:
                col = self.columns[m] = scalar_koszul_column(self.beta, m)
            add_scaled(out, col, s)
        return Form(form.dim, out)


# -- VANISH_COR's type test ---------------------------------------------------------

def off_type_failures(model, diff: GradedOperator) -> list[str]:
    """VANISH_COR's labels "difference Laplacian preserves (p,q)" for the
    types (p,q) where ``off_type`` finds an image diff(m) of an
    eta-monomial m of type (p,q) that is not of type (p,q)."""
    pqb = pq_basis(model)
    failed = []
    for p in range(pqb.n + 1):
        for q in range(pqb.n + 1):
            images = (diff.apply(monomial_form(model, mask)) for mask in pqb.monomial_masks(p, q))
            if not all(off_type(model, img, p, q).is_zero() for img in images):
                failed.append(f"difference Laplacian preserves ({p},{q})")
    return failed


def vanish_cor_by_store(model, acc: _Acc) -> None:
    """VANISH_COR with the frame's store built: the rows of the columns of
    every type (p,q) scanned for type, every type's block ranked, and
    h^{p,q} = 0 required wherever that block has full rank."""
    pqb = pq_basis(model)
    frame = pqb.frame(*_difference_low_columns(model))
    store = frame.coords
    for p in range(pqb.n + 1):
        for q in range(pqb.n + 1):
            masks = pqb.monomial_masks(p, q)
            rows = (r for m in masks for r in store.get(m, ()))
            acc.require(
                f"difference Laplacian preserves ({p},{q})", all(pqb.bidegree_of_mask(r) == (p, q) for r in rows)
            )
            if len(pivot_columns(*frame.entry_rows(masks))) == len(masks):
                acc.require(f"invertible difference on ({p},{q}) forces h = 0", h_pq(model, p, q) == 0)


def frame_columns_by_composition(model, op: GradedOperator) -> dict[int, dict[int, Scalar]]:
    """The columns of F op E keyed by eta-monomial, every column composed:
    F_{k+deg} op E_k on every block of E, whatever the order bound of op,
    with the blocks of E and F taken from ``algebra_map_blocks`` here."""
    pqb = pq_basis(model)
    f_blocks = list(algebra_map_blocks(pqb.dim, pqb.dual))[op.degree:]
    e_blocks = algebra_map_blocks(pqb.dim, pqb.generators)
    products = (f_k.compose(op.compose(e_k)) for f_k, e_k in zip(f_blocks, e_blocks))
    return {m: col for block in products for m, col in block.cols.items()}


def swapped(pqb, pqmask: int) -> int:
    """The eta-monomial mask with its low and high halves exchanged: conj
    E(m) = (-1)^(pq) E(swapped m) for m of type (p,q), since conj eta^a is
    generator n + a and the p low factors pass the q high ones."""
    n = pqb.n
    return (pqmask >> n) | ((pqmask & ((1 << n) - 1)) << n)


# -- DC_FRAME's frame sum -----------------------------------------------------

def nabla_operator(model, i: int) -> GradedOperator:
    """nabla_i on all 2^dim basis forms: the degree-0 derivation with the
    coframe values ``nabla_images(i)``."""
    return derivation_from_one_forms(model.dim, model.nabla_images(i), degree=0)


def frame_sum_by_composition(model) -> GradedOperator:
    """sum_j L_{J u^j} nabla_j as the sum of the compositions, term by term."""
    n = model.dim
    total = GradedOperator.zero(n, 1)
    for j in range(n):
        total = total + mult_operator(j_apply(model, Form.basis(n, 1 << j))).compose(nabla_operator(model, j))
    return total


# -- validation -------------------------------------------------------------------

def d_squared_by_composition(model) -> GradedOperator:
    """d d, every column of d composed."""
    d = model.d()
    return d.compose(d)


# -- ORDER_DET's Leibniz rule -------------------------------------------------------

def order_det_by_forms(model, acc: _Acc) -> None:
    """ORDER_DET with both sides of d(u^m) = d(u^low) ^ u^rest - u^low ^
    d(u^rest) built as Forms through ``Form.wedge`` on every basis form."""
    d = model.d()
    dim = model.dim
    acc.form("d(1)", d.column_form(0))
    for m in range(1, 1 << dim):
        low, rest = m & -m, m & (m - 1)
        leibniz = d.column_form(low).wedge(Form.basis(dim, rest)) - Form.basis(dim, low).wedge(
            d.column_form(rest)
        )
        acc.form(f"d({mask_label(m)}) - graded Leibniz expansion", d.column_form(m) - leibniz)


# -- Kunneth ----------------------------------------------------------------------

def kunneth(table_x: list, table_y: list) -> list:
    """The Kunneth convolution of two Betti vectors, b_k = sum b_i b'_(k-i),
    or of two Hodge tables, h^(p,q) = sum h^(a,b) h'^(p-a,q-b)."""
    if table_x and isinstance(table_x[0], list):
        out = [[0] * (len(table_x[0]) + len(table_y[0]) - 1) for _ in range(len(table_x) + len(table_y) - 1)]
        for a, row_x in enumerate(table_x):
            for b, hx in enumerate(row_x):
                for c, row_y in enumerate(table_y):
                    for e, hy in enumerate(row_y):
                        out[a + c][b + e] += hx * hy
        return out
    out = [0] * (len(table_x) + len(table_y) - 1)
    for i, bx in enumerate(table_x):
        for j, by in enumerate(table_y):
            out[i + j] += bx * by
    return out
