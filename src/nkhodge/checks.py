"""The identity catalogue: every check as an exact pass/fail computation.

A check evaluates both sides of an operator or form identity over the
scalar tower and compares literally; pass means exact zero difference.
Residuals reported alongside are decimal embeddings for humans only and
never participate in the verdict.

Applicability is a static guard per check:

* ``universal``  - holds on every validated model, including the negative
  control;
* ``nk``         - nearly Kahler identities; these *run* on every model and
  are expected to fail on declared negative controls;
* ``nk6``        - need a strict nearly Kahler structure in dimension six,
  otherwise the check is skipped;
* ``kahler``     - need mu = 0 on a nearly Kahler model, otherwise skipped.

Every model is checked in its exactly orthogonalized presentation
(``LieAlgebraModel.orthogonalized``, the model itself when its metric is
diagonal); identities are coframe-covariant, so verdicts transfer, and
witnesses name that presentation's coframe.

Each operator has one route in every dimension.  The components of d,
L, L_mu_omega and L_mubar_omega, their adjoints (``adj:mu``)
and their Laplacians (``lap:mu``) come by name from ``named_operator``,
which builds each once per model from its own operand, the barred ones
included.  The split of d comes from
``differential_split`` (mu and del are the derivations with their coframe
values, delbar and mubar their conjugates), and DC_DEF tests the same
J^{-1} d J derivation that ``d_c`` builds (``twisted_differential``).

Every operator the catalogue names carries an order bound
(``operators``): 1 for the components of d, 0 for L and L_mu_omega, and
for an adjoint its operand's bound plus its degree; a bracket [[P, Q]]
has r_P + r_Q - 1, floored at 0.  Every bracket is an operator held by
the Koszul coefficients of its products on the columns of degree <= r
(``bracket_sum``, ``br`` its one-term case); at dim 12, with r <= 2, that
is at most 79 of the 4,096 columns.  A bracket of a component with
L_mu_omega or L_mubar_omega, as in BR67, has r = 0.  Every operator
requirement is a sum c_i T_i = 0 of such operators (such as D2_SPLIT's
[[delbar,mu]] + del^2).  The Koszul coefficients are linear in the
operator and unique, so the sum is held by the same combination of the
terms' coefficients (``combination``, as ``operators`` states), and it
is zero exactly when none is left.  Only a failing requirement builds
its store, by one scatter of those coefficients, for its witness and
residual.  THETA_BRACKET's sum has composed terms L_a L_b*, so it is
merged on the stores.

A barred requirement that is the conjugate of an unbarred one, such as
[delbar*, L] - i del of [del*, L] + i delbar, goes through ``_Acc.pair``:
the unbarred sum is decided, then right after it its conjugate, taken on
its coefficients, so the barred half is never built a second time.
Likewise a self-conjugate sum X + conj X, such as [[L_mu_omega, mubar]] +
[[L_mubar_omega, mu]] or Delta_(del-delbar) = Delta_del + Delta_delbar - X -
conj X with X = [[delbar*,del]] (bilinearity of [[P*,P]]), is read from
its unbarred half X and conj X, which ``conjugated`` builds on X's Koszul
coefficients.  That X is kept under a memo key of its own, and LAP_COM
and DELTA_SUM, which both read it, share its products, so neither X nor
conj X is ever built in full.

The ORDER_* checks use the Koszul test of ``algebraic_order_at_most``: an
operator of order <= r equals the reconstruction from its columns on
forms of degree <= r.  They never read a bound: d* and Lambda are the
full weighted transposes (``bidegree.full_adjoint``), not the memoized
adjoints, which are rebuilt by order from their operands' bounds and so
pass the test by construction, and ORDER_BRACKET composes [[d*, L]] in
full, since building it by order would assume what it tests.
ORDER_DET checks that d is a derivation through the graded Leibniz rule
on every basis form, independently of the reconstruction that builds d:
each column of d's store is compared with the signed relabelling of the
two columns the rule names (``exterior.sign_key``), and the Form
difference is built only where they differ, for the witness.

Type is read in the eta-frame only (``bidegree.PQBasis``).
``decompose_form`` gives the pieces (LEM_NK, SU3_STRUCT), and HODGE_ABCD
(d) asks that each conjugated harmonic form have no eta-coordinate outside
its type.  DIM6_EIGEN, VANISH_COR and HODGE_ABCD read operators in the
eta-monomial basis, F P E (``PQBasis.frame``).  E is an algebra map, so
F P E has the order of P in the eta-coframe, and every operator they read
is bounded by 2: the frame composes the blocks of degree <= r only, r the
bound of P, which read P's columns of degree <= r only, and rebuilds the
rest by one reconstruction.  Each operator sum a frame is taken of is held
by its summed Koszul coefficients, so none is built.
DIM6_EIGEN asks that each of its operators be its scalar, or that scalar
times F L E, on the columns of each type.  J_PQ asks that J be i^(p-q)
on the eta-monomials of type (p,q); J, E and that diagonal are algebra
maps, so it reads J on the 2n generators only, where it is J^2 = -1.
VANISH_COR reads type preservation off the frame's Koszul coefficients:
a term L_{eta^b} iota_J moves type by t(b) - t(J), and the coefficients
are unique, so with none that moves type every (p,q) is preserved, and
only otherwise are the rows of the columns of each type scanned.  Where
the rank of the columns of type (p,q) is full, h^{p,q} must vanish, and
that holds trivially where h^{p,q} = 0, a count by rank of the S frame
(``hodge.h_pq``), as NK6_VANISH's are; so the rank, that of the images
diff(m) since F is invertible, is taken only on the types with h^{p,q}
!= 0, on those columns of the frame alone (``GradedOperator.entry_rows``,
``linalg.pivot_columns``), and the frame's store is never built.  Its
difference Laplacian Delta_{L_mu omega} - Delta_{L_mubar omega} is
X - conj X, X = [[L_mu_omega*, L_mu_omega]], on their coefficients, so
neither Laplacian is built.  Both type tests are ``PQBasis.preserves_type``.
HODGE_ABCD reads the frame of S = Delta_mu + Delta_del + Delta_delbar +
Delta_mubar (``hodge.s_frame``, built the same way): S must preserve
every type, and then the per-type kernels of S that ``harmonic_pq`` takes
add up, degree by degree, to the Betti numbers of ``betti_numbers``,
which decides (a), (b) and (c) at once, since ker S lies in ker Delta_d
and dim ker Delta_d = b_k (the Hodge theorem).  A Delta_d kernel
(``harmonic_space``) is taken only in a degree where that count fails,
to name the witness, so a passing model reads no ``lap:d`` there.
A DIM6_EIGEN witness names an eta-monomial.  DC_FRAME's frame sum
sum_j L_{J u^j} nabla_j is one Koszul reconstruction from its coframe
values.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .bidegree import (
    d_c,
    decompose_form,
    full_adjoint,
    j_operator,
    lefschetz_triple,
    named_operator,
    pq_basis,
    twisted_differential,
)
from .exterior import Form, mask_label, sign_key
from .hodge import betti_numbers, h_pq, harmonic_pq, harmonic_space, hodge_laplacian, s_frame
# sparse_kernel is not called here: perfbench/tests reads checks.sparse_kernel
# as one of the aliases its tracer rebinds
from .linalg import inverse, pivot_columns, sparse_kernel
from .models import LieAlgebraModel, nabla_omega_symmetrization, nk_report, su3_extract
from .operators import (
    MINUS_ONE,
    GradedOperator,
    adjoint,
    algebra_map_apply,
    algebraic_order_at_most,
    bracket_sum,
    combination,
    derivation_from_one_forms,
    graded_commutator as br,
    mult_operator,
)
from .scalars import I, ONE, ZERO, Scalar, rational


@dataclass
class CheckResult:
    check_id: str
    status: str  # "pass" | "fail" | "skip"
    exact_zero: bool
    residual_approx: float
    witness: str | None
    ms: float
    skip_reason: str | None = None


@dataclass
class SuiteReport:
    model: str
    results: list[CheckResult]
    verdict: bool
    total_ms: float


class _Acc:
    """Collects labelled exact-zero requirements for one check."""

    def __init__(self):
        self.zero = True
        self.residual = 0.0
        self.witness: str | None = None

    def op(self, label: str, terms):
        """Require sum c_i T_i = 0 (``combination``)."""
        self._require_zero(label, combination(terms))

    def pair(self, label: str, conj_label: str, terms):
        """The requirement ``terms`` under ``label``, then its conjugate, the
        barred partner requirement, under ``conj_label``."""
        op = combination(terms)
        self._require_zero(label, op)
        self._require_zero(conj_label, op.conjugated())

    def _require_zero(self, label: str, op: GradedOperator):
        """A nonzero sum fails with its first entry and its largest one."""
        if not op.is_zero():
            self._fail(label + ": " + (op.first_witness() or ""), op.max_abs_approx())

    def form(self, label: str, f: Form):
        if not f.is_zero():
            mask = next(iter(f.terms()))[0]
            self._fail(f"{label}: {mask_label(mask)} = {f.coeffs[mask].literal()}", f.max_abs_approx())

    def scalar(self, label: str, s: Scalar):
        if not s.is_zero():
            self._fail(f"{label}: {s.literal()}", abs(s.approx()))

    def require(self, label: str, ok: bool, residual: float = 1.0):
        if not ok:
            self._fail(label, residual)

    def _fail(self, witness: str, residual: float):
        if self.zero:
            self.witness = witness
        self.zero = False
        self.residual = max(self.residual, residual)


# ---------------------------------------------------------------------------
# shared derived operators (memoized per model)

def _ops(model, *names: str) -> list[GradedOperator]:
    return [named_operator(model, name) for name in names]


def _parts(model):
    return _ops(model, "mu", "del", "delbar", "mubar")


def _adjoints(model):
    return _ops(model, "adj:mu", "adj:del", "adj:delbar", "adj:mubar")


def _delbar_star_del(model) -> GradedOperator:
    """X = [[delbar*, del]], held by its Koszul coefficients, which LAP_COM
    and DELTA_SUM share.  Its memo key is not an operator name, so no
    ``named_operator`` build can hit it."""
    return model._memo("[[adj:delbar,del]]", lambda: br(*_ops(model, "adj:delbar", "del")))


def _su3(model):
    return model._memo("su3", lambda: su3_extract(model))


# ---------------------------------------------------------------------------
# the catalogue

def check_d2_split(model, acc: _Acc):
    """The relations that d^2 = 0 forces among mu, del, delbar and mubar.
    Each is a sum of brackets and squares of derivations, of order <= 1."""
    mu, de, db, mb = _parts(model)
    acc.pair("mu^2", "mubar^2", [(ONE, bracket_sum([], squares=[mu]))])
    acc.pair("[[del,mu]]", "[[delbar,mubar]]", [(ONE, br(de, mu))])
    acc.pair("[[delbar,mu]] + del^2", "[[del,mubar]] + delbar^2", [(ONE, bracket_sum([(db, mu)], squares=[de]))])
    acc.op("[[del,delbar]] + [[mu,mubar]]", [(ONE, bracket_sum([(de, db), (mu, mb)]))])


def check_sl2(model, acc: _Acc):
    """The sl2 relations of L, Lambda and H, each decided on the summed
    Koszul coefficients of its terms (H is held by its own)."""
    l_op, lam, h = lefschetz_triple(model)
    acc.op("[L,Lambda] - H", [(ONE, br(l_op, lam)), (MINUS_ONE, h)])
    acc.op("[H,L] - 2L", [(ONE, br(h, l_op)), (rational(-2), l_op)])
    acc.op("[H,Lambda] + 2Lambda", [(ONE, br(h, lam)), (rational(2), lam)])


def check_j_pq(model, acc: _Acc):
    """J = i^(p-q) on the eta-monomials of type (p,q), that is J E = E D
    with D the diagonal of i^(p-q).  J, E and D are algebra maps, so this
    holds exactly when it holds on the generators: J eta^a = i eta^a and
    J conj(eta^a) = -i conj(eta^a).  J is applied to them through the
    columns of the algebra map of the J u^i that they need.  The least
    type with a generator off, (0,1) before (1,0), is the witness."""
    pqb = pq_basis(model)
    images = algebra_map_apply(model.j_one_form_rows(), pqb.generators)
    off = {
        pqb.bidegree_of_mask(1 << a)
        for a, (g, jg) in enumerate(zip(pqb.generators, images))
        if jg != g.scale(I if a < pqb.n else -I)
    }
    if off:
        p, q = min(off)
        acc.require(f"J != i^(p-q) on ({p},{q})", False)


def check_bracket_pq(model, acc: _Acc):
    """[X^{1,0}, Y^{1,0}]^{1,0} = N(X, Y)^{1,0}/8 for every pair of frame
    vectors, component by component.  The (0,1) identity is its conjugate,
    since the frame, J, N and the structure constants are real, so it holds
    exactly when this one does, with the same residual."""
    n = model.dim
    basis = [[ONE if t == s else ZERO for t in range(n)] for s in range(n)]
    tensor = model.nijenhuis_tensor()
    half = rational(1, 2)
    eighth = rational(1, 8)
    for i in range(n):
        for j in range(i + 1, n):
            x, y = basis[i], basis[j]
            jx, jy = model.j_vector(x), model.j_vector(y)
            x10 = [(a - I * b) * half for a, b in zip(x, jx)]
            y10 = [(a - I * b) * half for a, b in zip(y, jy)]
            bracket = model.bracket(x10, y10)
            jb = model.j_vector(bracket)
            nv = [tensor[i][j][k] for k in range(n)]
            jn = model.j_vector(nv)
            diffs = [(v + I * w) * half - (a + I * b) * eighth for v, w, a, b in zip(bracket, jb, nv, jn)]
            for k, r in enumerate(diffs):
                acc.scalar(f"(1,0)-bracket component ({i + 1},{j + 1})_{k + 1}", r)


def check_mu_oneforms(model, acc: _Acc):
    mu, _, _, mb = _parts(model)
    nij = model.nijenhuis_op()
    for t, ju in enumerate(model.j_one_form_rows()):
        a = Form.basis(model.dim, 1 << t)
        mu_a, mb_a = mu.apply(a), mb.apply(a)
        acc.form(
            f"(mu+mubar)u^{t + 1} + (1/4) N u^{t + 1}",
            mu_a + mb_a + nij.apply(a).scale(rational(1, 4)),
        )
        acc.form(
            f"(mu-mubar)u^{t + 1} + (i/4) N(J u^{t + 1})",
            mu_a - mb_a + nij.apply(ju).scale(Scalar(0, 0, 1, 0, 4)),
        )


def check_nij_mu(model, acc: _Acc):
    """N = -4(mu + mubar): a sum of three derivations."""
    mu, _, _, mb = _parts(model)
    four = rational(4)
    acc.op("N + 4(mu+mubar)", [(ONE, model.nijenhuis_op()), (four, mu), (four, mb)])


def check_dc_def(model, acc: _Acc):
    """J^-1 d J = i(mu - del + delbar - mubar): a sum of derivations."""
    mu, de, db, mb = _parts(model)
    terms = [(ONE, twisted_differential(model)), (-I, mu), (I, de), (-I, db), (I, mb)]
    acc.op("J^-1 d J - i(mu - del + delbar - mubar)", terms)


def check_nk_def(model, acc: _Acc):
    n = model.dim
    nabla_om = [model.nabla_omega(i) for i in range(n)]
    for (i, j, k), r in nabla_omega_symmetrization(nabla_om):
        acc.scalar(f"(nabla omega) symmetrization ({i},{j},{k})", r)
    d_om = model.d().apply(model.omega())
    three = rational(3)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                jk = (1 << j) | (1 << k)
                acc.scalar(
                    f"(d omega - 3 nabla omega)({i + 1},{j + 1},{k + 1})",
                    d_om.coeffs.get((1 << i) | jk, ZERO) - three * nabla_om[i].coeffs.get(jk, ZERO),
                )


def check_lem_nk(model, acc: _Acc):
    n = model.dim
    tensor = model.nijenhuis_tensor()
    gamma = model.connection().gamma
    four = rational(4)
    for i in range(n):
        for j in range(n):
            jy = [model.J[a][j] for a in range(n)]
            njy = [
                sum((gamma[i][t][k] * jy[t] for t in range(n)), start=ZERO)
                - sum((model.J[k][t] * gamma[i][j][t] for t in range(n)), start=ZERO)
                for k in range(n)
            ]
            want = model.j_vector(njy)
            for k in range(n):
                acc.scalar(
                    f"N - 4J(nabla J) at ({i + 1},{j + 1})_{k + 1}",
                    tensor[i][j][k] - four * want[k],
                )
    parts = decompose_form(model, model.d().apply(model.omega()))
    for bid, piece in parts.items():
        if bid not in ((3, 0), (0, 3)):
            acc.form(f"(d omega)^{bid}", piece)
    # i(mu - mubar) u^t for each t, from mu and mubar by linearity
    mu, _, _, mb = _parts(model)
    basis = [Form.basis(n, 1 << t) for t in range(n)]
    i_mm = [(mu.apply(a) - mb.apply(a)).scale(I) for a in basis]
    j, j_rows = j_operator(model), model.j_one_form_rows()
    for i in range(n):
        vec = [ONE if s == i else ZERO for s in range(n)]
        nabla = model.nabla_action(i)
        for t, a in enumerate(basis):
            lhs = nabla.apply(j_rows[t])
            rhs = -i_mm[t].contract_vector(vec) + j.apply(nabla.apply(a))
            acc.form(f"nabla_{i + 1}(J u^{t + 1}) identity", lhs - rhs)
    gram = model.gram()
    for t, a in enumerate(basis):
        sharp = gram.sharp(a)
        rhs = Form.zero(n)
        for i in range(n):
            if not sharp[i].is_zero():
                rhs = rhs + model.nabla_omega(i).scale(sharp[i])
        acc.form(f"i(mu-mubar)u^{t + 1} + nabla_sharp omega", i_mm[t] + rhs)


def check_br67(model, acc: _Acc):
    """The six vanishing brackets of L_mu_omega and L_mubar_omega with the
    components of d (barred partners by conjugation) and the mixed
    relation: a bracket of L_beta and a derivation has order 0, so each is
    built from the constant column of its products."""
    lm = named_operator(model, "L_mu_omega")
    lm_mu, lm_de, lm_db, lm_mb = (br(lm, p) for p in _parts(model))
    acc.pair("[[L_mu_omega, mu]]", "[[L_mubar_omega, mubar]]", [(ONE, lm_mu)])
    acc.pair("[[L_mu_omega, del]]", "[[L_mubar_omega, delbar]]", [(ONE, lm_de)])
    acc.pair("[[L_mu_omega, delbar]]", "[[L_mubar_omega, del]]", [(ONE, lm_db)])
    acc.op("[[L_mu_omega, mubar]] + [[L_mubar_omega, mu]]", [(ONE, lm_mb), (ONE, lm_mb.conjugated())])


def check_su3_struct(model, acc: _Acc):
    try:
        su3 = _su3(model)
    except ValueError as exc:
        acc.require(f"SU(3) data extraction: {exc}", False)
        return
    parts = decompose_form(model, su3.theta_s)
    acc.require("mu(omega) pure (3,0)", set(parts) == {(3, 0)})
    acc.require("lambda^2 > 0", su3.lambda_sq.sign() > 0)
    # re-assert the scaled structure equation from the stored data
    im_theta = (su3.theta_s - su3.theta_s.conjugate()).scale(Scalar(0, 0, -1, 0, 2))
    lhs = model.d().apply(im_theta)
    rhs = su3.omega.wedge(su3.omega).scale(su3.lambda_sq * rational(-3, 8))
    acc.form("d Im(mu omega) + (3/8) lambda^2 omega^2", lhs - rhs)


def _frame_sum(model) -> GradedOperator:
    """sum_j L_{J u^j} nabla_j over dual pairs (coframe, frame); no metric
    weight enters.  With nabla_j = sum_k L_{nabla_j u^k} iota_k this is, by
    Koszul, the derivation with coframe values sum_j J u^j ^ nabla_j u^k."""
    n = model.dim
    images = [Form.zero(n)] * n
    for j, ju in enumerate(model.j_one_form_rows()):
        for k, nabla_u in enumerate(model.nabla_images(j)):
            images[k] = images[k] + ju.wedge(nabla_u)
    return derivation_from_one_forms(n, images)


def check_dc_frame(model, acc: _Acc):
    """d^c = -sum_j L_{J u^j} nabla_j + 2i(mu - mubar): a sum of
    derivations."""
    mu, _, _, mb = _parts(model)
    two_i = Scalar(0, 0, 2, 0)
    terms = [(ONE, d_c(model)), (ONE, _frame_sum(model)), (-two_i, mu), (two_i, mb)]
    acc.op("d^c + sum(J u^j ^ nabla_j) - 2i(mu-mubar)", terms)


def check_nk_main(model, acc: _Acc):
    """[d*, L] = -d^c + 3i(mu - mubar) = i(2mu + del - delbar - 2mubar):
    [d*, L] has order <= 2 + 0 - 1 and the rest are derivations."""
    mu, de, db, mb = _parts(model)
    dstar, l_op = _ops(model, "adj:d", "L")
    lhs = br(dstar, l_op)
    three_i, two_i = Scalar(0, 0, 3, 0), Scalar(0, 0, 2, 0)
    acc.op("[d*,L] + d^c - 3i(mu-mubar)", [(ONE, lhs), (ONE, d_c(model)), (-three_i, mu), (three_i, mb)])
    acc.op("[d*,L] - i(2mu + del - delbar - 2mubar)", [(ONE, lhs), (-two_i, mu), (-I, de), (I, db), (two_i, mb)])


def check_nk_cor(model, acc: _Acc):
    """The commutators of the components and their adjoints with L and
    Lambda, barred partners by conjugation."""
    mu, de, db, mb = _parts(model)
    mus, des, dbs, mbs = _adjoints(model)
    l_op, lam, _ = lefschetz_triple(model)
    two_i = Scalar(0, 0, 2, 0)
    acc.pair("[del*,L] + i delbar", "[delbar*,L] - i del", [(ONE, br(des, l_op)), (I, db)])
    acc.pair("[del,Lambda] + i delbar*", "[delbar,Lambda] - i del*", [(ONE, br(de, lam)), (I, dbs)])
    acc.pair("[mu*,L] + 2i mubar", "[mubar*,L] - 2i mu", [(ONE, br(mus, l_op)), (two_i, mb)])
    acc.pair("[mu,Lambda] + 2i mubar*", "[mubar,Lambda] - 2i mu*", [(ONE, br(mu, lam)), (two_i, mbs)])


def check_torsion_op(model, acc: _Acc):
    """[Lambda, L_{d omega}] = -3(mu + mubar) and its component forms
    [Lambda, L_mu_omega] = -3mu and [L_mu_omega*, L] = -3mu*, barred
    partners by conjugation."""
    mu, _, _, mb = _parts(model)
    l_op, lam, _ = lefschetz_triple(model)
    d_om = model.d().apply(model.omega())
    l_dom = mult_operator(d_om) if not d_om.is_zero() else GradedOperator.zero(model.dim, 3)
    mus, lm, lms = _ops(model, "adj:mu", "L_mu_omega", "adj:L_mu_omega")
    three = rational(3)
    acc.op("[Lambda, L_d_omega] + 3(mu+mubar)", [(ONE, br(lam, l_dom)), (three, mu), (three, mb)])
    acc.pair("[Lambda, L_mu_omega] + 3mu", "[Lambda, L_mubar_omega] + 3mubar", [(ONE, br(lam, lm)), (three, mu)])
    acc.pair("[L_mu_omega*, L] + 3mu*", "[L_mubar_omega*, L] + 3mubar*", [(ONE, br(lms, l_op)), (three, mus)])


def check_aux_com(model, acc: _Acc):
    """Brackets of L_mu_omega with adjoints of components, and [[delbar,
    mu]], barred partners by conjugation: each of order <= 1."""
    mu, _, db, _ = _parts(model)
    _, des, dbs, mbs = _adjoints(model)
    lm = named_operator(model, "L_mu_omega")
    third_i = I * rational(1, 3)
    acc.pair("[[mubar*, L_mu_omega]]", "[[mu*, L_mubar_omega]]", [(ONE, br(mbs, lm))])
    acc.pair("[[delbar*, L_mu_omega]]", "[[del*, L_mubar_omega]]", [(ONE, br(dbs, lm))])
    acc.pair(
        "[[delbar,mu]] + (i/3)[[del*, L_mu_omega]]",
        "[[del,mubar]] - (i/3)[[delbar*, L_mubar_omega]]",
        [(ONE, br(db, mu)), (third_i, br(des, lm))],
    )


def check_lap_com(model, acc: _Acc):
    """Brackets of the components with the adjoints, barred partners by
    conjugation: each of order <= 2."""
    mu, de, db, mb = _parts(model)
    mus, des, dbs, mbs = _adjoints(model)
    acc.pair("[[delbar*,mu]]", "[[del*,mubar]]", [(ONE, br(dbs, mu))])
    acc.pair("[[mu*,delbar]]", "[[mubar*,del]]", [(ONE, br(mus, db))])
    acc.pair("[[mu*,mubar]]", "[[mubar*,mu]]", [(ONE, br(mus, mb))])
    dbs_de = _delbar_star_del(model)
    acc.pair(
        "[[delbar*,del]] + [[del*,mu]]", "[[del*,delbar]] + [[delbar*,mubar]]", [(ONE, dbs_de), (ONE, br(des, mu))]
    )
    acc.pair(
        "[[delbar*,del]] + [[mubar*,delbar]]", "[[del*,delbar]] + [[mu*,del]]", [(ONE, dbs_de), (ONE, br(mbs, db))]
    )


def check_prop_lap(model, acc: _Acc):
    """The relations among [[mubar, mu]], the brackets of L_mu_omega and the
    Laplacians.
    [Delta_Lmu -+ Delta_Lmubar, L] is [Delta_Lmu, L] -+ its conjugate, L
    being real."""
    l_op, lam, _ = lefschetz_triple(model)
    mu, mb, mus, lm, lmb = _ops(model, "mu", "mubar", "adj:mu", "L_mu_omega", "L_mubar_omega")
    d_lm, d_lmb = _ops(model, "lap:L_mu_omega", "lap:L_mubar_omega")
    third_i = I * rational(1, 3)
    mb_mu, mus_lm = br(mb, mu), br(mus, lm)
    mbs_lmb = mus_lm.conjugated()
    lam_mu_lmb = br(lam, br(mu, lmb))
    # [Delta_Lmu, L]; L is real, so its conjugate is [Delta_Lmubar, L]
    lap_l = br(d_lm, l_op)
    acc.op(
        "[[mubar,mu]] + (i/3)[[mu*,L_mu_omega]] - (i/3)[[mubar*,L_mubar_omega]]",
        [(ONE, mb_mu), (third_i, mus_lm), (-third_i, mbs_lmb)],
    )
    acc.op(
        "[[Lambda,[[mu,L_mubar_omega]]]] - i[[mu*,L_mu_omega]] - i[[mubar*,L_mubar_omega]]",
        [(ONE, lam_mu_lmb), (-I, mus_lm), (-I, mbs_lmb)],
    )
    ninth_i = I * rational(1, 9)
    acc.op(
        "[[mubar,mu]] - (i/9)[Delta_Lmu - Delta_Lmubar, L]",
        [(ONE, mb_mu), (-ninth_i, lap_l), (ninth_i, lap_l.conjugated())],
    )
    acc.op(
        "[[Lambda,[[mu,L_mubar_omega]]]] + (i/3)[Delta_Lmu + Delta_Lmubar, L]",
        [(ONE, lam_mu_lmb), (third_i, lap_l), (third_i, lap_l.conjugated())],
    )
    d_mu, d_del, d_db, d_mb = _ops(model, "lap:mu", "lap:del", "lap:delbar", "lap:mubar")
    two = rational(2)
    acc.op(
        "(Delta_del - Delta_delbar) + 2(Delta_mu - Delta_mubar)",
        [(ONE, d_del), (-ONE, d_db), (two, d_mu), (-two, d_mb)],
    )
    two_ninths = rational(2, 9)
    acc.op(
        "(Delta_del - Delta_delbar) + (2/9)(Delta_Lmu - Delta_Lmubar)",
        [(ONE, d_del), (-ONE, d_db), (two_ninths, d_lm), (-two_ninths, d_lmb)],
    )


# DIM6_EIGEN's four operators in the order it reads them: each label and the
# operator's scalar on Lambda^{p,q} over lambda^2 (for the last, times L)
_DIM6_EIGENVALUES = (
    ("Delta_L_mu_omega - (9l2/4)(1-p+p(p-1)/2)", lambda p, q: rational(9 * (2 - 2 * p + p * (p - 1)), 8)),
    ("(Delta_del - Delta_delbar) - (l2/4)(3-p-q)(p-q)", lambda p, q: rational((3 - p - q) * (p - q), 4)),
    ("(Delta_Lmu - Delta_Lmubar) + (9l2/8)(3-p-q)(p-q)", lambda p, q: rational(-9 * (3 - p - q) * (p - q), 8)),
    ("[[mubar,mu]] - i(l2/4)(p-q)L", lambda p, q: I * rational(p - q, 4)),
)


def check_dim6_eigen(model, acc: _Acc):
    """Each operator of ``_DIM6_EIGENVALUES`` is its scalar on every
    Lambda^{p,q}, read in the eta-frame.  Each frame, and that of L, is
    taken of an operator held by Koszul coefficients, a sum by the summed
    coefficients of its terms, so none of the sums is built."""
    lam2 = _su3(model).lambda_sq
    pqb = pq_basis(model)
    d_lm, d_del, d_db, mu, mb, l_op = _ops(model, "lap:L_mu_omega", "lap:del", "lap:delbar", "mu", "mubar", "L")
    ops = (
        d_lm,
        combination([(ONE, d_del), (MINUS_ONE, d_db)]),
        _difference_laplacian(model),
        br(mb, mu),
        l_op,
    )
    *frames, l_frame = (pqb.frame(op) for op in ops)
    for p in range(4):
        for q in range(4):
            for m in pqb.monomial_masks(p, q):
                # column m of F P E against the scalar times column m of F Id E or F L E
                units = [Form.basis(model.dim, m)] * 3 + [l_frame.column_form(m)]
                for (label, coeff), frame, unit in zip(_DIM6_EIGENVALUES, frames, units):
                    got = frame.column_form(m)
                    acc.form(f"{label} on ({p},{q})", got - unit.scale(lam2 * coeff(p, q)))


def check_theta_bracket(model, acc: _Acc):
    """[[L_theta*, L_theta]] = (9 lambda^2/4)(Id - S1 + S2), theta = mu omega,
    with S1 and S2 the unitary sums of L_a L_b* over the eta 1-forms and
    their wedge pairs.  The products L_a L_b* are composed, so the sum is
    merged on the stores, at dim 6 only."""
    su3 = _su3(model)
    lam2 = su3.lambda_sq
    gram = model.gram()
    pqb = pq_basis(model)
    dim = model.dim
    eta = pqb.eta
    lm, lms = _ops(model, "L_mu_omega", "adj:L_mu_omega")

    def unitary_weighted_terms(forms: list[Form], sign: Scalar) -> list[tuple[Scalar, GradedOperator]]:
        """The terms of sign * sum_{a,b} h^{ba} L_a L_b^*."""
        h = [[gram.inner(x, y) for y in forms] for x in forms]
        hinv = inverse(h)
        ops = [mult_operator(f) for f in forms]
        adjs = [adjoint(op, gram) for op in ops]
        n = len(forms)
        return [(sign * hinv[b][a], ops[a].compose(adjs[b])) for a in range(n) for b in range(n) if hinv[b][a]]

    pairs = [(a, b) for a in range(3) for b in range(a + 1, 3)]
    c = lam2 * rational(9, 4)
    s1 = unitary_weighted_terms(eta, c)
    s2 = unitary_weighted_terms([eta[a].wedge(eta[b]) for a, b in pairs], -c)
    terms = [(ONE, br(lms, lm)), (-c, GradedOperator.identity(dim)), *s1, *s2]
    acc.op("[[L_theta*, L_theta]] - (9l2/4)(Id - S1 + S2)", terms)


def check_l_delta(model, acc: _Acc):
    """[L, Delta_d] against del^2, delbar^2 and the brackets of L_mu_omega:
    every bracket has order <= 1, and the barred half is the conjugate of
    the unbarred one."""
    de, mus, l_op, lm = _ops(model, "del", "adj:mu", "L", "L_mu_omega")
    unbarred = [(ONE, br(mus, lm)), (Scalar(0, 0, -2, 0), bracket_sum([], squares=[de]))]
    barred = [(c.conjugate(), b.conjugated()) for c, b in unbarred]
    acc.op(
        "[L,Delta_d] - 2i del^2 + ([[mu*,L_mu_omega]] + [[mubar*,L_mubar_omega]]) + 2i delbar^2",
        [(ONE, br(l_op, hodge_laplacian(model))), *unbarred, *barred],
    )


def check_delta_sum(model, acc: _Acc):
    """Delta_d = Delta_(del-delbar) + Delta_mu + Delta_mubar: a sum of
    Laplacians of order <= 2."""
    lap_d, d_del, d_db, d_mu, d_mb = _ops(model, "lap:d", "lap:del", "lap:delbar", "lap:mu", "lap:mubar")
    x = _delbar_star_del(model)  # Delta_(del-delbar) = Delta_del + Delta_delbar - X - conj X
    terms = [(ONE, lap_d), (-ONE, d_del), (-ONE, d_db), (ONE, x), (ONE, x.conjugated()), (-ONE, d_mu), (-ONE, d_mb)]
    acc.op("Delta_d - Delta_(del-delbar) - Delta_mu - Delta_mubar", terms)


def check_hodge_abcd(model, acc: _Acc):
    """(a) harmonic = intersection of the kernels of the components and their
    adjoints, (b) = that of the four component Laplacians, (c) the Hodge
    numbers add up to the Betti numbers, (d) conjugation symmetry.

    Lemma: the Hermitian product is positive definite, so
    ker sum_i P_i* P_i = intersection of the ker P_i.  Over the eight
    operators of (a) the sum is S = Delta_mu + Delta_del + Delta_delbar +
    Delta_mubar, and each Delta_P = P*P + PP*, so ker S is the intersection
    of the eight kernels and of the four Laplacian kernels.  S must
    preserve every Lambda^{p,q}: no column of type (p,q) of F S E
    (``hodge.s_frame``) has a row of another type.  With that, nullity_k,
    the dimension of ker S in degree k, is the sum of the h^{p,q} of
    ``harmonic_pq`` with p + q = k.

    (a), (b) and (c) compare nullity_k with b_k from the ranks of d
    (``betti_numbers``), which need no metric, by two facts:

    * ker S lies in ker Delta_d: if S x = 0, every component and adjoint
      kills x, so d x = 0 and d* x = 0;
    * dim ker Delta_d = b_k, the finite-dimensional Hodge theorem
      (Lambda^k = ker Delta_d + im d + im d*, orthogonally), which needs
      only d d = 0, certified by ``validate_model``, and the positive
      definite product.

    So ker S is the whole harmonic space of degree k exactly when
    nullity_k = b_k, and a harmonic form can escape a kernel only in a
    degree where they differ.  Only there is the Delta_d kernel taken
    (``harmonic_space``), first, and each of its forms tested against
    every kernel, so that the witness names the form that escapes.  (c) is
    the paper's statement that Hodge numbers relate to Betti numbers as on
    a Kahler manifold, from two computations that share only d.  After
    (c) the eight operators and the four Laplacians must kill each basis
    form of ker S on every Lambda^{p,q}, and (d) asks that each conjugate
    w have the swapped type and d w = 0 = d* w, which is Delta_d w = 0 by
    positive definiteness, so no Delta_d is read where the counts agree.

    Dropping Delta_mubar from S changes none of this on a nearly Kahler
    model: PROP_LAP gives Delta_mubar = Delta_mu + (Delta_del -
    Delta_delbar)/2, so every x with (Delta_mu + Delta_del + Delta_delbar)
    x = 0, each term positive semidefinite, has Delta_mubar x = 0 too.  On
    kodaira-thurston mu = 0.
    """
    mu, de, db, mb = _parts(model)
    eight = [mu, de, db, mb, *_adjoints(model)]
    laps = _ops(model, "lap:mu", "lap:del", "lap:delbar", "lap:mubar")

    def contained(label: str, basis: list[Form]):
        for v in basis:
            for idx, op in enumerate(eight):
                if not op.apply(v).is_zero():
                    acc.require(f"(a) {label} escapes kernel of component {idx}", False)
            for op in laps:
                if not op.apply(v).is_zero():
                    acc.require(f"(b) {label} escapes a component Laplacian kernel", False)

    n = model.dim // 2
    types = [(p, q) for p in range(n + 1) for q in range(n + 1)]
    pq_bases = {pq: harmonic_pq(model, *pq) for pq in types}
    nullity = [
        sum(len(pq_bases[(p, k - p)]) for p in range(max(0, k - n), min(n, k) + 1)) for k in range(model.dim + 1)
    ]
    betti = betti_numbers(model)
    # a harmonic form escapes a kernel only where the counts differ
    for k, (count, b) in enumerate(zip(nullity, betti)):
        if count != b:
            contained(f"harmonic {k}-form", harmonic_space(model, k))
    pqb, frame = pq_basis(model), s_frame(model)
    for p, q in types:
        acc.require(f"S preserves ({p},{q})", pqb.preserves_type(frame, p, q))
    # (a), (b): ker S is all of ker Delta_d iff nullity = dim ker Delta_d = b_k; (c) the Betti numbers
    for k, (count, b) in enumerate(zip(nullity, betti)):
        acc.require(f"(a) dim intersection of 8 kernels = dim harmonic, degree {k}", count == b)
        acc.require(f"(b) dim intersection of 4 Laplacian kernels = dim harmonic, degree {k}", count == b)
        acc.require(f"(c) sum of h^(p,q) = b_k, degree {k}", count == b)
    for (p, q), basis in pq_bases.items():
        contained(f"ker S on ({p},{q})", basis)
    # (d) conjugation maps harmonic (p,q) onto (q,p)
    d, dstar = _ops(model, "d", "adj:d")
    for (p, q), basis in pq_bases.items():
        acc.require(f"(d) h^({p},{q}) = h^({q},{p})", len(basis) == len(pq_bases[(q, p)]))
        conjugates = [v.conjugate() for v in basis]
        for w, coords in zip(conjugates, pqb.coordinates(conjugates)):
            if not (d.apply(w).is_zero() and dstar.apply(w).is_zero()):
                acc.require(f"(d) conjugate of harmonic ({p},{q})-form not harmonic", False)
            if pqb.outside(coords, q, p):
                acc.require(f"(d) conjugate of ({p},{q})-form not of type ({q},{p})", False)


def _difference_laplacian(model) -> GradedOperator:
    """Delta_{L_mu omega} - Delta_{L_mubar omega} as X - conj X with X =
    [[L_mu_omega*, L_mu_omega]], held by their Koszul coefficients
    (``combination``), with no Laplacian built."""
    x = br(*_ops(model, "adj:L_mu_omega", "L_mu_omega"))
    return combination([(ONE, x), (MINUS_ONE, x.conjugated())])


def check_vanish_cor(model, acc: _Acc):
    """The degree-0 difference Laplacian in the eta-monomial basis, F diff E
    with E the algebra map of the generators and F = E^{-1}, built from the
    columns of degree <= 2 of diff only and held by its Koszul
    coefficients.  It preserves (p,q) when every row of each column of
    type (p,q) has type (p,q), which holds on every type at once when no
    coefficient L_{eta^b} iota_J moves type, t(b) != t(J)
    (``PQBasis.preserves_type``).  "Invertible on Lambda^{p,q} forces
    h^{p,q} = 0" holds trivially where h^{p,q} = 0, so the memoized
    ``h_pq`` is read first, and only a type with h^{p,q} != 0 has its rank
    taken, that of the images diff(m), F being invertible, on the
    columns of that type alone (``GradedOperator.entry_rows``), with no
    store of the frame built."""
    pqb = pq_basis(model)
    frame = pqb.frame(_difference_laplacian(model))
    n = pqb.n
    for p in range(n + 1):
        for q in range(n + 1):
            acc.require(f"difference Laplacian preserves ({p},{q})", pqb.preserves_type(frame, p, q))
            if h_pq(model, p, q):
                masks = pqb.monomial_masks(p, q)
                invertible = len(pivot_columns(*frame.entry_rows(masks))) == len(masks)
                acc.require(f"invertible difference on ({p},{q}) forces h = 0", not invertible)


def check_nk6_vanish(model, acc: _Acc):
    su3 = _su3(model)
    mu, _, _, mb = _parts(model)
    theta = su3.theta_s
    acc.require("mubar(mu omega) != 0", not mb.apply(theta).is_zero())
    om3 = model.omega().wedge(model.omega()).wedge(model.omega())
    tt = theta.conjugate().wedge(theta)
    mask = next(iter(om3.coeffs))
    ratio = tt.coeffs.get(mask, ZERO) / om3.coeffs[mask]
    acc.require("conj(mu omega) ^ mu omega is a nonzero multiple of omega^3",
                (not ratio.is_zero()) and tt == om3.scale(ratio))
    n = model.dim // 2
    for p in range(n + 1):
        for q in range(n + 1):
            if p == q or p + q == 3:
                continue
            acc.require(f"h^({p},{q}) = 0", h_pq(model, p, q) == 0)
    acc.require("h^(3,0) = 0", h_pq(model, 3, 0) == 0)
    acc.require("h^(0,3) = 0", h_pq(model, 0, 3) == 0)


def check_order_lb(model, acc: _Acc):
    """Lambda_{u^1} and Lambda = L*, each the full transpose: the memoized
    Lambda is rebuilt from L's bound and would pass by construction."""
    gram = model.gram()
    lam1 = adjoint(mult_operator(Form.basis(model.dim, 1)), gram)
    acc.require("order(Lambda_u1) <= 1", algebraic_order_at_most(lam1, 1))
    lam = full_adjoint(model, "L")
    acc.require("order(Lambda_omega) <= 2", algebraic_order_at_most(lam, 2))


def check_order_dstar(model, acc: _Acc):
    """d* as the full transpose of d (``full_adjoint``): the memoized d* is
    rebuilt from d's bound and would pass by construction."""
    acc.require("order(d*) <= 2", algebraic_order_at_most(full_adjoint(model, "d"), 2))


def check_order_bracket(model, acc: _Acc):
    # d* the full transpose and the bracket composed in full, neither by
    # order: the check tests the order of the bracket, so it must not
    # assume it
    dstar, l_op = full_adjoint(model, "d"), named_operator(model, "L")
    acc.require("order([d*,L]) <= 1", algebraic_order_at_most(dstar.compose(l_op) - l_op.compose(dstar), 1))


def check_order_det(model, acc: _Acc):
    """d(1) = 0 and the graded Leibniz rule on every basis form:
    d(u^m) = d(u^low) ^ u^rest - u^low ^ d(u^rest), low the lowest index of m.

    Both sides are compared on d's integer coordinates: row r of column low
    enters at r | rest with the sign of u^r ^ u^rest, row r of column rest
    at low | r with minus that of u^low ^ u^r.  Only a mask where they
    differ builds them as Forms, for the witness and residual."""
    d = model.d()
    dim = model.dim
    acc.form("d(1)", d.column_form(0))
    coords = d.coords
    for m in range(1, 1 << dim):
        low, rest = m & -m, m & (m - 1)
        # (target, coordinates, parity of the sign) of each side's rows
        first, second = coords.get(low, {}), coords.get(rest, {})
        terms = [(r | rest, t, (rest & sign_key(r)).bit_count()) for r, t in first.items() if not r & rest]
        terms += [(low | r, t, (r & sign_key(low)).bit_count() + 1) for r, t in second.items() if not r & low]
        leibniz: dict[int, tuple[int, ...]] = {}
        for target, t, odd in terms:
            if odd & 1:
                t = (-t[0], -t[1], -t[2], -t[3])
            x = leibniz.get(target)
            leibniz[target] = t if x is None else (x[0] + t[0], x[1] + t[1], x[2] + t[2], x[3] + t[3])
        if {r: t for r, t in leibniz.items() if any(t)} != coords.get(m, {}):
            expansion = d.column_form(low).wedge(Form.basis(dim, rest)) - Form.basis(dim, low).wedge(
                d.column_form(rest)
            )
            acc.form(f"d({mask_label(m)}) - graded Leibniz expansion", d.column_form(m) - expansion)


def check_diff_lapl_kahler(model, acc: _Acc):
    """Delta_del = Delta_delbar where mu = 0."""
    d_del, d_db = _ops(model, "lap:del", "lap:delbar")
    acc.op("Delta_del - Delta_delbar (mu = 0 degeneration)", [(ONE, d_del), (MINUS_ONE, d_db)])


@dataclass(frozen=True)
class CheckSpec:
    fn: object
    applicability: str  # universal | nk | nk6 | kahler


CHECKS: dict[str, CheckSpec] = {
    "AUX_COM": CheckSpec(check_aux_com, "nk"),
    "BR67": CheckSpec(check_br67, "nk"),
    "BRACKET_PQ": CheckSpec(check_bracket_pq, "universal"),
    "D2_SPLIT": CheckSpec(check_d2_split, "universal"),
    "DC_DEF": CheckSpec(check_dc_def, "universal"),
    "DC_FRAME": CheckSpec(check_dc_frame, "nk"),
    "DELTA_SUM": CheckSpec(check_delta_sum, "nk"),
    "DIFF_LAPL_KAHLER": CheckSpec(check_diff_lapl_kahler, "kahler"),
    "DIM6_EIGEN": CheckSpec(check_dim6_eigen, "nk6"),
    "HODGE_ABCD": CheckSpec(check_hodge_abcd, "nk"),
    "J_PQ": CheckSpec(check_j_pq, "universal"),
    "L_DELTA": CheckSpec(check_l_delta, "nk"),
    "LAP_COM": CheckSpec(check_lap_com, "nk"),
    "LEM_NK": CheckSpec(check_lem_nk, "nk"),
    "MU_ONEFORMS": CheckSpec(check_mu_oneforms, "universal"),
    "NIJ_MU": CheckSpec(check_nij_mu, "universal"),
    "NK_COR": CheckSpec(check_nk_cor, "nk"),
    "NK_DEF": CheckSpec(check_nk_def, "nk"),
    "NK_MAIN": CheckSpec(check_nk_main, "nk"),
    "NK6_VANISH": CheckSpec(check_nk6_vanish, "nk6"),
    "ORDER_BRACKET": CheckSpec(check_order_bracket, "universal"),
    "ORDER_DET": CheckSpec(check_order_det, "universal"),
    "ORDER_DSTAR": CheckSpec(check_order_dstar, "universal"),
    "ORDER_LB": CheckSpec(check_order_lb, "universal"),
    "PROP_LAP": CheckSpec(check_prop_lap, "nk"),
    "SL2": CheckSpec(check_sl2, "universal"),
    "SU3_STRUCT": CheckSpec(check_su3_struct, "nk6"),
    "THETA_BRACKET": CheckSpec(check_theta_bracket, "nk6"),
    "TORSION_OP": CheckSpec(check_torsion_op, "nk"),
    "VANISH_COR": CheckSpec(check_vanish_cor, "nk"),
}

UNIVERSAL_CHECKS = tuple(sorted(cid for cid, s in CHECKS.items() if s.applicability == "universal"))


def _skip_reason(model, spec: CheckSpec) -> str | None:
    if spec.applicability in ("universal", "nk"):
        return None
    report = nk_report(model)
    if spec.applicability == "nk6":
        if model.dim != 6:
            return "requires a six-dimensional model"
        if not (report.nearly_kahler and report.strict):
            return "requires a strict nearly Kahler structure (lambda^2 = 0 here)"
        return None
    if spec.applicability == "kahler":
        if not (report.nearly_kahler and report.mu_zero):
            return "requires a nearly Kahler model with mu = 0"
        return None
    raise AssertionError(spec.applicability)


def run_check(model: LieAlgebraModel, check_id: str) -> CheckResult:
    spec = CHECKS.get(check_id)
    if spec is None:
        raise KeyError(f"unknown check id {check_id!r}")
    start = time.perf_counter()
    target = model.orthogonalized()
    reason = _skip_reason(target, spec)
    if reason is not None:
        ms = (time.perf_counter() - start) * 1000.0
        return CheckResult(check_id, "skip", False, 0.0, None, ms, reason)
    acc = _Acc()
    spec.fn(target, acc)
    ms = (time.perf_counter() - start) * 1000.0
    status = "pass" if acc.zero else "fail"
    return CheckResult(check_id, status, acc.zero, acc.residual, acc.witness, ms)


def run_suite(
    model: LieAlgebraModel,
    selection: list[str] | None = None,
    expected_failures: tuple[str, ...] | None = None,
) -> SuiteReport:
    """Run the selected checks (default: the whole catalogue) in id order."""
    if expected_failures is None:
        expected_failures = model.expected_failures
    chosen = sorted(selection if selection is not None else CHECKS)
    start = time.perf_counter()
    results = [run_check(model, cid) for cid in chosen]
    verdict = True
    for res in results:
        expected = "fail" if res.check_id in expected_failures else "pass"
        if res.status == "skip":
            continue
        if res.status != expected:
            verdict = False
    total_ms = (time.perf_counter() - start) * 1000.0
    return SuiteReport(model.name, results, verdict, total_ms)
