"""Graded operators as sparse exact matrices on the exterior algebra.

Operators are stored column-wise over the bitmask basis (column mask ->
sparse column of row mask -> Scalar), tagged with a degree.  Sums,
products and applications accumulate columns through ``linalg.add_scaled``,
which drops every entry that cancels, so operator equality is literal matrix
equality over the scalar tower.

The metric adjoint P* is the operator with <P a, b> = <a, P* b>.  Every
computation runs in an orthogonal coframe (``LieAlgebraModel.orthogonalized``),
where the basis forms are pairwise orthogonal with <u^m, u^m> = 1/w(m), so
the adjoint is the weighted conjugate transpose
P*[c][r] = conj(P[r][c]) w(c) / w(r).  A coupled metric is refused; the test
suite checks the result against the literal minor-determinant sandwich
G^{-1} P^dagger G on coupled metrics and against -*d* for d.

Every operator is uniquely P = sum_J L_{beta_J} iota_J, with iota_J the
contraction u^J ^ u^R -> u^R, and its algebraic order is max |J| over the
nonzero beta_J (Koszul, *Crochet de Schouten-Nijenhuis et cohomologie*,
1985).  ``koszul_coefficients`` reads the beta_J with |J| <= r off the
columns of degree <= r and ``reconstruct`` sums them back up, so an
operator of order <= r is the reconstruction of its low-degree columns.
That is the order test (``algebraic_order_at_most``: P equals its
reconstruction) and the only route from coframe values to a derivation
(``derivation_from_one_forms``).
"""

from __future__ import annotations

from .exterior import Form, GramData, graded_lex_key, mask_label, wedge_masks
from .linalg import add_scaled
from .scalars import ONE, Scalar

Column = dict[int, Scalar]


class GradedOperator:
    """Sparse exact matrix with a declared degree."""

    __slots__ = ("dim", "cols", "degree")

    def __init__(
        self,
        dim: int,
        cols: dict[int, Column],
        degree: int | None = None,
        *,
        check: bool = True,
    ):
        clean: dict[int, Column] = {}
        for c, col in cols.items():
            kept = {r: v for r, v in col.items() if not v.is_zero()}
            if kept:
                clean[c] = kept
        self.dim = dim
        self.cols = clean
        self.degree = degree
        if check and degree is not None:
            for c, col in clean.items():
                kc = c.bit_count()
                for r in col:
                    if r.bit_count() != kc + degree:
                        raise ValueError(
                            f"entry ({mask_label(r)}, {mask_label(c)}) violates degree {degree}"
                        )

    # -- basic structure ---------------------------------------------------

    @classmethod
    def zero(cls, dim: int, degree: int | None = 0) -> GradedOperator:
        return cls(dim, {}, degree)

    @classmethod
    def identity(cls, dim: int) -> GradedOperator:
        return cls(dim, {m: {m: ONE} for m in range(1 << dim)}, 0, check=False)

    @classmethod
    def diagonal(cls, dim: int, weight) -> GradedOperator:
        """Degree-0 operator m -> weight(m) * m for a mask -> Scalar function."""
        cols = {}
        for m in range(1 << dim):
            w = weight(m)
            if not w.is_zero():
                cols[m] = {m: w}
        return cls(dim, cols, 0, check=False)

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

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: GradedOperator) -> GradedOperator:
        deg = self.degree if self.degree == other.degree else None
        cols = {c: dict(col) for c, col in self.cols.items()}
        for c, col in other.cols.items():
            add_scaled(cols.setdefault(c, {}), col)
        return GradedOperator(self.dim, cols, deg, check=False)

    def __sub__(self, other: GradedOperator) -> GradedOperator:
        return self + other.scale(Scalar(-1, 0, 0, 0))

    def __neg__(self) -> GradedOperator:
        return self.scale(Scalar(-1, 0, 0, 0))

    def scale(self, s: Scalar) -> GradedOperator:
        if s.is_zero():
            return GradedOperator(self.dim, {}, self.degree, check=False)
        cols = {c: {r: v * s for r, v in col.items()} for c, col in self.cols.items()}
        return GradedOperator(self.dim, cols, self.degree, check=False)

    def compose(self, other: GradedOperator) -> GradedOperator:
        """self after other (matrix product self . other)."""
        deg = None
        if self.degree is not None and other.degree is not None:
            deg = self.degree + other.degree
        cols: dict[int, Column] = {}
        my = self.cols
        for c, col in other.cols.items():
            acc: Column = {}
            for mid, v in col.items():
                right = my.get(mid)
                if right is not None:
                    add_scaled(acc, right, v)
            if acc:
                cols[c] = acc
        return GradedOperator(self.dim, cols, deg, check=False)

    def conjugated(self) -> GradedOperator:
        """conj . P . conj; entry-wise conjugation since the basis is real."""
        cols = {c: {r: v.conjugate() for r, v in col.items()} for c, col in self.cols.items()}
        return GradedOperator(self.dim, cols, self.degree, check=False)

    # -- comparison & diagnostics ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedOperator):
            return NotImplemented
        return self.dim == other.dim and self.cols == other.cols

    def __hash__(self):  # pragma: no cover
        raise TypeError("GradedOperator is not hashable")

    def first_witness(self) -> str | None:
        """Label of the graded-lex-first nonzero entry (for residual reports)."""
        if not self.cols:
            return None
        c = min(self.cols, key=graded_lex_key)
        r = min(self.cols[c], key=graded_lex_key)
        return f"column {mask_label(c)}, row {mask_label(r)}: {self.cols[c][r].literal()}"

    def max_abs_approx(self) -> float:
        out = 0.0
        for col in self.cols.values():
            for v in col.values():
                a = abs(v.approx())
                if a > out:
                    out = a
        return out

    def __repr__(self) -> str:
        return f"GradedOperator(dim={self.dim}, degree={self.degree}, nnz={self.nnz()})"


# ---------------------------------------------------------------------------
# multiplication operators

def mult_operator(beta: Form) -> GradedOperator:
    """Left wedge multiplication L_beta, the Koszul sum with beta_{empty} = beta only.

    beta must be homogeneous (or zero).
    """
    deg = beta.degree()
    if deg is None and not beta.is_zero():
        raise ValueError("multiplication operator needs a homogeneous form")
    return reconstruct(beta.dim, {0: beta}, deg if deg is not None else 0)


# ---------------------------------------------------------------------------
# adjoints

def adjoint(p: GradedOperator, gram: GramData) -> GradedOperator:
    """Metric adjoint over a diagonal metric; a coupled one raises ValueError."""
    weights, inverses = gram.mask_weights()
    cols: dict[int, Column] = {}
    for c, col in p.cols.items():
        wc = weights[c]
        for r, v in col.items():
            cols.setdefault(r, {})[c] = v.conjugate() * wc * inverses[r]
    deg = -p.degree if p.degree is not None else None
    return GradedOperator(p.dim, cols, deg, check=False)


# ---------------------------------------------------------------------------
# graded commutators and Laplacians

def graded_commutator(p: GradedOperator, q: GradedOperator) -> GradedOperator:
    """[[P, Q]] = P Q - (-1)^{|P||Q|} Q P; degrees must be declared."""
    if p.degree is None or q.degree is None:
        raise ValueError("graded commutator needs declared degrees")
    pq = p.compose(q)
    qp = q.compose(p)
    if (p.degree * q.degree) % 2:
        return pq + qp
    return pq - qp


def laplacian(p: GradedOperator, gram: GramData) -> GradedOperator:
    """P-Laplacian [[P*, P]]."""
    return graded_commutator(adjoint(p, gram), p)


# ---------------------------------------------------------------------------
# Koszul reconstruction, derivations and algebraic order

def _koszul_column(beta: dict[int, Form], mask: int) -> Column:
    """Column ``mask`` of sum_J L_{beta_J} iota_J: the terms with J inside mask."""
    col: Column = {}
    for jm, form in beta.items():
        if jm & mask != jm:
            continue
        rest = mask ^ jm
        eps, _ = wedge_masks(jm, rest)  # u^mask = eps u^J ^ u^rest
        for bm, bv in form.coeffs.items():
            sign, target = wedge_masks(bm, rest)
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


def koszul_coefficients(p: GradedOperator, r: int) -> dict[int, Form]:
    """beta_J for |J| <= r, read off the columns of P on masks of degree <= r.

    In order of increasing degree, beta_M = P(u^M) - sum eps beta_J ^ u^{M-J}
    over the proper subsets J of M, where u^M = eps u^J ^ u^{M-J}.  Zero
    coefficients are omitted.
    """
    beta: dict[int, Form] = {}
    masks = sorted((m for m in range(1 << p.dim) if m.bit_count() <= r), key=int.bit_count)
    for mask in masks:
        b = p.column_form(mask) - Form(p.dim, _koszul_column(beta, mask))
        if not b.is_zero():
            beta[mask] = b
    return beta


def reconstruct(dim: int, beta: dict[int, Form], degree: int | None) -> GradedOperator:
    """sum_J L_{beta_J} iota_J for coefficient forms keyed by the mask J."""
    cols = {m: _koszul_column(beta, m) for m in range(1 << dim)}
    return GradedOperator(dim, cols, degree)


def derivation_from_one_forms(dim: int, images: list[Form], degree: int = 1) -> GradedOperator:
    """Unique derivation with the given coframe images, zero on 1.

    It is sum_i L_{images[i]} iota_i; the Koszul sum carries the sign of an
    odd (degree 1) or even (degree 0) derivation by itself.
    """
    if len(images) != dim:
        raise ValueError(f"need {dim} coframe images, got {len(images)}")
    return reconstruct(dim, {1 << i: f for i, f in enumerate(images) if not f.is_zero()}, degree)


def algebraic_order_at_most(p: GradedOperator, r: int) -> bool:
    """Whether P lies in the algebraic-order filtration level r.

    Level 0 is exactly the multiplication operators; level r requires
    [[P, L_beta]] to lie in level r-1 for every form beta.  By Koszul's
    theorem that holds exactly when P equals the reconstruction from its
    columns of degree <= r.
    """
    if r < 0:
        raise ValueError("order bound must be nonnegative")
    return p == reconstruct(p.dim, koszul_coefficients(p, r), p.degree)
