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
del - delbar, L, L_mu_omega and L_mubar_omega, their adjoints (``adj:mu``)
and their Laplacians (``lap:mu``) come by name from ``named_operator``,
which builds each once per model.  The split of d comes from
``differential_split`` (each component is the derivation with its coframe
values), and DC_DEF tests the same J^{-1} d J derivation that ``d_c``
builds (``twisted_differential``).  The ORDER_* checks use the Koszul test
of ``algebraic_order_at_most``: an operator of order <= r equals the
reconstruction from its columns on forms of degree <= r.  HODGE_ABCD
takes one kernel per degree, of the PSD sum of the component Laplacians.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .bidegree import (
    d_c,
    decompose_form,
    j_apply,
    lefschetz_triple,
    named_operator,
    pq_basis,
    twisted_differential,
)
from .exterior import Form, mask_label
from .hodge import harmonic_pq, harmonic_space, hodge_laplacian, operator_degree_rows
from .linalg import inverse, sparse_kernel, sparse_rank, transpose
from .models import LieAlgebraModel, nabla_omega_symmetrization, nk_report, su3_extract
from .operators import (
    GradedOperator,
    adjoint,
    algebraic_order_at_most,
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

    def op(self, label: str, op: GradedOperator):
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


def _su3(model):
    return model._memo("su3", lambda: su3_extract(model))


def _frame_vectors(model) -> list[list[Scalar]]:
    n = model.dim
    return [[ONE if t == s else ZERO for t in range(n)] for s in range(n)]


def _n_on_one_form(model, alpha: Form) -> Form:
    """(N alpha)(X, Y) = alpha(N(X, Y)) as a 2-form, for a 1-form alpha."""
    n = model.dim
    tensor = model.nijenhuis_tensor()
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            acc = ZERO
            for k in range(n):
                v = alpha.coeffs.get(1 << k)
                if v is not None and not tensor[i][j][k].is_zero():
                    acc = acc + v * tensor[i][j][k]
            if not acc.is_zero():
                out[(1 << i) | (1 << j)] = acc
    return Form(n, out)


# ---------------------------------------------------------------------------
# the catalogue

def check_d2_split(model, acc: _Acc):
    mu, de, db, mb = _parts(model)
    acc.op("mu^2", mu.compose(mu))
    acc.op("mubar^2", mb.compose(mb))
    acc.op("[[del,mu]]", br(de, mu))
    acc.op("[[delbar,mubar]]", br(db, mb))
    acc.op("[[delbar,mu]] + del^2", br(db, mu) + de.compose(de))
    acc.op("[[del,mubar]] + delbar^2", br(de, mb) + db.compose(db))
    acc.op("[[del,delbar]] + [[mu,mubar]]", br(de, db) + br(mu, mb))


def check_sl2(model, acc: _Acc):
    l_op, lam, h = lefschetz_triple(model)
    acc.op("[L,Lambda] - H", br(l_op, lam) - h)
    acc.op("[H,L] - 2L", br(h, l_op) - l_op.scale(rational(2)))
    acc.op("[H,Lambda] + 2Lambda", br(h, lam) + lam.scale(rational(2)))


def check_j_pq(model, acc: _Acc):
    pqb = pq_basis(model)
    n = pqb.n
    for p in range(n + 1):
        for q in range(n + 1):
            eig = I ** ((p - q) % 4)
            for v in pqb.basis_forms(p, q):
                if j_apply(model, v) != v.scale(eig):
                    acc.require(f"J != i^(p-q) on ({p},{q})", False)
                    return


def check_bracket_pq(model, acc: _Acc):
    n = model.dim
    basis = _frame_vectors(model)
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
            got01 = [(v + I * w) * half for v, w in zip(bracket, jb)]
            nv = [tensor[i][j][k] for k in range(n)]
            jn = model.j_vector(nv)
            want = [(a + I * b) * eighth for a, b in zip(nv, jn)]
            for k in range(n):
                acc.scalar(f"(1,0)-bracket component ({i + 1},{j + 1})_{k + 1}", got01[k] - want[k])
            x01 = [(a + I * b) * half for a, b in zip(x, jx)]
            y01 = [(a + I * b) * half for a, b in zip(y, jy)]
            bracket2 = model.bracket(x01, y01)
            jb2 = model.j_vector(bracket2)
            got10 = [(v - I * w) * half for v, w in zip(bracket2, jb2)]
            want2 = [(a - I * b) * eighth for a, b in zip(nv, jn)]
            for k in range(n):
                acc.scalar(f"(0,1)-bracket component ({i + 1},{j + 1})_{k + 1}", got10[k] - want2[k])


def check_mu_oneforms(model, acc: _Acc):
    mu, _, _, mb = _parts(model)
    for t in range(model.dim):
        a = Form.basis(model.dim, 1 << t)
        acc.form(
            f"(mu+mubar)u^{t + 1} + (1/4) N u^{t + 1}",
            (mu + mb).apply(a) + _n_on_one_form(model, a).scale(rational(1, 4)),
        )
        acc.form(
            f"(mu-mubar)u^{t + 1} + (i/4) N(J u^{t + 1})",
            (mu - mb).apply(a)
            + _n_on_one_form(model, j_apply(model, a)).scale(Scalar(0, 0, 1, 0, 4)),
        )


def check_nij_mu(model, acc: _Acc):
    mu, _, _, mb = _parts(model)
    acc.op("N + 4(mu+mubar)", model.nijenhuis_op() + (mu + mb).scale(rational(4)))


def check_dc_def(model, acc: _Acc):
    mu, de, db, mb = _parts(model)
    alt = (mu - de + db - mb).scale(I)
    acc.op("J^-1 d J - i(mu - del + delbar - mubar)", twisted_differential(model) - alt)


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
    mu, _, _, mb = _parts(model)
    mm = mu - mb
    for i in range(n):
        vec = [ONE if s == i else ZERO for s in range(n)]
        for t in range(n):
            a = Form.basis(n, 1 << t)
            lhs = model.nabla_op(i).apply(j_apply(model, a))
            rhs = -(mm.apply(a.scale(I))).contract_vector(vec) + j_apply(
                model, model.nabla_op(i).apply(a)
            )
            acc.form(f"nabla_{i + 1}(J u^{t + 1}) identity", lhs - rhs)
    gram = model.gram()
    for t in range(n):
        a = Form.basis(n, 1 << t)
        sharp = gram.sharp(a)
        rhs = Form.zero(n)
        for i in range(n):
            if not sharp[i].is_zero():
                rhs = rhs + model.nabla_omega(i).scale(sharp[i])
        acc.form(f"i(mu-mubar)u^{t + 1} + nabla_sharp omega", mm.apply(a).scale(I) + rhs)


def check_br67(model, acc: _Acc):
    mu, de, db, mb = _parts(model)
    lm, lmb = _ops(model, "L_mu_omega", "L_mubar_omega")
    acc.op("[[L_mu_omega, mu]]", br(lm, mu))
    acc.op("[[L_mu_omega, del]]", br(lm, de))
    acc.op("[[L_mu_omega, delbar]]", br(lm, db))
    acc.op("[[L_mubar_omega, mubar]]", br(lmb, mb))
    acc.op("[[L_mubar_omega, delbar]]", br(lmb, db))
    acc.op("[[L_mubar_omega, del]]", br(lmb, de))
    acc.op("[[L_mu_omega, mubar]] + [[L_mubar_omega, mu]]", br(lm, mb) + br(lmb, mu))


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


def check_dc_frame(model, acc: _Acc):
    n = model.dim
    mu, _, _, mb = _parts(model)
    # sum_j L_{J u^j} nabla_j over dual pairs (coframe, frame); no metric weight enters
    frame_sum = GradedOperator.zero(n, 1)
    for j in range(n):
        frame_sum = frame_sum + mult_operator(j_apply(model, Form.basis(n, 1 << j))).compose(
            model.nabla_op(j)
        )
    acc.op(
        "d^c + sum(J u^j ^ nabla_j) - 2i(mu-mubar)",
        d_c(model) + frame_sum - (mu - mb).scale(Scalar(0, 0, 2, 0)),
    )


def check_nk_main(model, acc: _Acc):
    mu, de, db, mb = _parts(model)
    dstar, l_op = _ops(model, "adj:d", "L")
    lhs = br(dstar, l_op)
    acc.op(
        "[d*,L] + d^c - 3i(mu-mubar)",
        lhs + d_c(model) - (mu - mb).scale(Scalar(0, 0, 3, 0)),
    )
    acc.op(
        "[d*,L] - i(2mu + del - delbar - 2mubar)",
        lhs - (mu.scale(rational(2)) + de - db - mb.scale(rational(2))).scale(I),
    )


def check_nk_cor(model, acc: _Acc):
    mu, de, db, mb = _parts(model)
    mus, des, dbs, mbs = _adjoints(model)
    l_op, lam, _ = lefschetz_triple(model)
    two_i = Scalar(0, 0, 2, 0)
    acc.op("[del*,L] + i delbar", br(des, l_op) + db.scale(I))
    acc.op("[del,Lambda] + i delbar*", br(de, lam) + dbs.scale(I))
    acc.op("[delbar*,L] - i del", br(dbs, l_op) - de.scale(I))
    acc.op("[delbar,Lambda] - i del*", br(db, lam) - des.scale(I))
    acc.op("[mu*,L] + 2i mubar", br(mus, l_op) + mb.scale(two_i))
    acc.op("[mu,Lambda] + 2i mubar*", br(mu, lam) + mbs.scale(two_i))
    acc.op("[mubar*,L] - 2i mu", br(mbs, l_op) - mu.scale(two_i))
    acc.op("[mubar,Lambda] - 2i mu*", br(mb, lam) - mus.scale(two_i))


def check_torsion_op(model, acc: _Acc):
    mu, de, db, mb = _parts(model)
    mus, _, _, mbs = _adjoints(model)
    l_op, lam, _ = lefschetz_triple(model)
    d_om = model.d().apply(model.omega())
    l_dom = mult_operator(d_om) if not d_om.is_zero() else GradedOperator.zero(model.dim, 3)
    lm, lmb = _ops(model, "L_mu_omega", "L_mubar_omega")
    three = rational(3)
    acc.op("[Lambda, L_d_omega] + 3(mu+mubar)", br(lam, l_dom) + (mu + mb).scale(three))
    acc.op("[Lambda, L_mu_omega] + 3mu", br(lam, lm) + mu.scale(three))
    acc.op("[Lambda, L_mubar_omega] + 3mubar", br(lam, lmb) + mb.scale(three))
    lms, lmbs = _ops(model, "adj:L_mu_omega", "adj:L_mubar_omega")
    acc.op("[L_mu_omega*, L] + 3mu*", br(lms, l_op) + mus.scale(three))
    acc.op("[L_mubar_omega*, L] + 3mubar*", br(lmbs, l_op) + mbs.scale(three))


def check_aux_com(model, acc: _Acc):
    mu, de, db, mb = _parts(model)
    mus, des, dbs, mbs = _adjoints(model)
    lm, lmb = _ops(model, "L_mu_omega", "L_mubar_omega")
    third_i = I * rational(1, 3)
    acc.op("[[mubar*, L_mu_omega]]", br(mbs, lm))
    acc.op("[[delbar*, L_mu_omega]]", br(dbs, lm))
    acc.op("[[mu*, L_mubar_omega]]", br(mus, lmb))
    acc.op("[[del*, L_mubar_omega]]", br(des, lmb))
    acc.op("[[delbar,mu]] + (i/3)[[del*, L_mu_omega]]", br(db, mu) + br(des, lm).scale(third_i))
    acc.op("[[del,mubar]] - (i/3)[[delbar*, L_mubar_omega]]", br(de, mb) - br(dbs, lmb).scale(third_i))


def check_lap_com(model, acc: _Acc):
    mu, de, db, mb = _parts(model)
    mus, des, dbs, mbs = _adjoints(model)
    acc.op("[[delbar*,mu]]", br(dbs, mu))
    acc.op("[[del*,mubar]]", br(des, mb))
    acc.op("[[mu*,delbar]]", br(mus, db))
    acc.op("[[mubar*,del]]", br(mbs, de))
    acc.op("[[mu*,mubar]]", br(mus, mb))
    acc.op("[[mubar*,mu]]", br(mbs, mu))
    dbs_de, des_db = br(dbs, de), br(des, db)
    acc.op("[[delbar*,del]] + [[del*,mu]]", dbs_de + br(des, mu))
    acc.op("[[delbar*,del]] + [[mubar*,delbar]]", dbs_de + br(mbs, db))
    acc.op("[[del*,delbar]] + [[mu*,del]]", des_db + br(mus, de))
    acc.op("[[del*,delbar]] + [[delbar*,mubar]]", des_db + br(dbs, mb))


def check_prop_lap(model, acc: _Acc):
    mu, de, db, mb = _parts(model)
    mus, _, _, mbs = _adjoints(model)
    l_op, lam, _ = lefschetz_triple(model)
    lm, lmb, d_lm, d_lmb = _ops(model, "L_mu_omega", "L_mubar_omega", "lap:L_mu_omega", "lap:L_mubar_omega")
    third_i = I * rational(1, 3)
    mb_mu, mus_lm, mbs_lmb = br(mb, mu), br(mus, lm), br(mbs, lmb)
    lam_mu_lmb = br(lam, br(mu, lmb))
    diff_l = d_lm - d_lmb
    acc.op(
        "[[mubar,mu]] + (i/3)[[mu*,L_mu_omega]] - (i/3)[[mubar*,L_mubar_omega]]",
        mb_mu + mus_lm.scale(third_i) - mbs_lmb.scale(third_i),
    )
    acc.op(
        "[[Lambda,[[mu,L_mubar_omega]]]] - i[[mu*,L_mu_omega]] - i[[mubar*,L_mubar_omega]]",
        lam_mu_lmb - (mus_lm + mbs_lmb).scale(I),
    )
    acc.op(
        "[[mubar,mu]] - (i/9)[Delta_Lmu - Delta_Lmubar, L]",
        mb_mu - br(diff_l, l_op).scale(I * rational(1, 9)),
    )
    acc.op(
        "[[Lambda,[[mu,L_mubar_omega]]]] + (i/3)[Delta_Lmu + Delta_Lmubar, L]",
        lam_mu_lmb + br(d_lm + d_lmb, l_op).scale(third_i),
    )
    d_mu, d_del, d_db, d_mb = _ops(model, "lap:mu", "lap:del", "lap:delbar", "lap:mubar")
    acc.op(
        "(Delta_del - Delta_delbar) + 2(Delta_mu - Delta_mubar)",
        (d_del - d_db) + (d_mu - d_mb).scale(rational(2)),
    )
    acc.op(
        "(Delta_del - Delta_delbar) + (2/9)(Delta_Lmu - Delta_Lmubar)",
        (d_del - d_db) + diff_l.scale(rational(2, 9)),
    )


def check_dim6_eigen(model, acc: _Acc):
    su3 = _su3(model)
    lam2 = su3.lambda_sq
    pqb = pq_basis(model)
    mu, _, _, mb = _parts(model)
    d_lm, d_lmb, d_del, d_db = _ops(model, "lap:L_mu_omega", "lap:L_mubar_omega", "lap:del", "lap:delbar")
    diff_l = d_lm - d_lmb
    diff_d = d_del - d_db
    commy = br(mb, mu)
    omega = model.omega()
    for p in range(4):
        for q in range(4):
            c_mu = lam2 * rational(9, 4) * (rational(1) - rational(p) + rational(p * (p - 1), 2))
            c_dl = lam2 * rational((3 - p - q) * (p - q), 4)
            c_dlm = -lam2 * rational(9 * (3 - p - q) * (p - q), 8)
            c_mm = lam2 * rational(p - q, 4) * I
            for v in pqb.basis_forms(p, q):
                acc.form(
                    f"Delta_L_mu_omega - (9l2/4)(1-p+p(p-1)/2) on ({p},{q})",
                    d_lm.apply(v) - v.scale(c_mu),
                )
                acc.form(
                    f"(Delta_del - Delta_delbar) - (l2/4)(3-p-q)(p-q) on ({p},{q})",
                    diff_d.apply(v) - v.scale(c_dl),
                )
                acc.form(
                    f"(Delta_Lmu - Delta_Lmubar) + (9l2/8)(3-p-q)(p-q) on ({p},{q})",
                    diff_l.apply(v) - v.scale(c_dlm),
                )
                acc.form(
                    f"[[mubar,mu]] - i(l2/4)(p-q)L on ({p},{q})",
                    commy.apply(v) - omega.wedge(v).scale(c_mm),
                )


def check_theta_bracket(model, acc: _Acc):
    su3 = _su3(model)
    lam2 = su3.lambda_sq
    gram = model.gram()
    pqb = pq_basis(model)
    dim = model.dim
    eta = pqb.eta
    lm, lms = _ops(model, "L_mu_omega", "adj:L_mu_omega")

    def unitary_weighted_sum(forms: list[Form]) -> GradedOperator:
        h = [[gram.inner(x, y) for y in forms] for x in forms]
        hinv = inverse(h)
        acc_op = GradedOperator.zero(dim, 0)
        ops = [mult_operator(f) for f in forms]
        adjs = [adjoint(op, gram) for op in ops]
        for a in range(len(forms)):
            for b in range(len(forms)):
                if not hinv[b][a].is_zero():
                    acc_op = acc_op + ops[a].compose(adjs[b]).scale(hinv[b][a])
        return acc_op

    s1 = unitary_weighted_sum(eta)
    pairs = [(a, b) for a in range(3) for b in range(a + 1, 3)]
    s2 = unitary_weighted_sum([eta[a].wedge(eta[b]) for a, b in pairs])
    lhs = br(lms, lm)
    rhs = (GradedOperator.identity(dim) - s1 + s2).scale(lam2 * rational(9, 4))
    acc.op("[[L_theta*, L_theta]] - (9l2/4)(Id - S1 + S2)", lhs - rhs)


def check_l_delta(model, acc: _Acc):
    mu, de, db, mb = _parts(model)
    mus, _, _, mbs = _adjoints(model)
    l_op = lefschetz_triple(model)[0]
    lap_d = hodge_laplacian(model)
    lm, lmb = _ops(model, "L_mu_omega", "L_mubar_omega")
    two_i = Scalar(0, 0, 2, 0)
    acc.op(
        "[L,Delta_d] - 2i del^2 + ([[mu*,L_mu_omega]] + [[mubar*,L_mubar_omega]]) + 2i delbar^2",
        br(l_op, lap_d)
        - de.compose(de).scale(two_i)
        + br(mus, lm)
        + br(mbs, lmb)
        + db.compose(db).scale(two_i),
    )


def check_delta_sum(model, acc: _Acc):
    lap_d, d_mix, d_mu, d_mb = _ops(model, "lap:d", "lap:del-delbar", "lap:mu", "lap:mubar")
    acc.op("Delta_d - Delta_(del-delbar) - Delta_mu - Delta_mubar", lap_d - d_mix - d_mu - d_mb)


def check_hodge_abcd(model, acc: _Acc):
    """(a) harmonic = intersection of the kernels of the components and their
    adjoints, (b) = that of the four component Laplacians, (c) bidegree
    split, (d) conjugation symmetry.

    Lemma: the Hermitian product is positive definite, so
    ker sum_i P_i* P_i = intersection of the ker P_i.  Over the eight
    operators of (a) the sum is S = Delta_mu + Delta_del + Delta_delbar +
    Delta_mubar, and each Delta_P = P*P + PP*, so one kernel of S per degree
    closes (a) and (b).
    """
    mu, de, db, mb = _parts(model)
    eight = [mu, de, db, mb, *_adjoints(model)]
    laps = _ops(model, "lap:mu", "lap:del", "lap:delbar", "lap:mubar")
    s_op = laps[0] + laps[1] + laps[2] + laps[3]
    n = model.dim // 2
    pq_dims: dict[tuple[int, int], int] = {}
    pq_bases: dict[tuple[int, int], list[Form]] = {}
    for p in range(n + 1):
        for q in range(n + 1):
            basis = harmonic_pq(model, p, q)
            pq_dims[(p, q)] = len(basis)
            pq_bases[(p, q)] = basis
    for k in range(model.dim + 1):
        harmonic = harmonic_space(model, k)
        hk = len(harmonic)
        # (a), (b): containment of the harmonic space in every kernel, then
        # nullity(S) = dim harmonic closes both directions
        for v in harmonic:
            for idx, op in enumerate(eight):
                if not op.apply(v).is_zero():
                    acc.require(f"(a) harmonic {k}-form escapes kernel of component {idx}", False)
            for idx, op in enumerate(laps):
                if not op.apply(v).is_zero():
                    acc.require(f"(b) harmonic {k}-form escapes a component Laplacian kernel", False)
        rows, masks = operator_degree_rows(s_op, k, model.dim)
        nullity = len(sparse_kernel(rows, len(masks)))
        acc.require(f"(a) dim intersection of 8 kernels = dim harmonic, degree {k}", nullity == hk)
        acc.require(f"(b) dim intersection of 4 Laplacian kernels = dim harmonic, degree {k}", nullity == hk)
        # (c) bidegree split
        total = sum(pq_dims.get((p, k - p), 0) for p in range(max(0, k - n), min(n, k) + 1))
        acc.require(f"(c) sum of h^(p,q) = dim harmonic, degree {k}", total == hk)
    # (d) conjugation maps harmonic (p,q) onto (q,p)
    lap = hodge_laplacian(model)
    for (p, q), basis in pq_bases.items():
        acc.require(f"(d) h^({p},{q}) = h^({q},{p})", pq_dims[(p, q)] == pq_dims[(q, p)])
        for v in basis:
            w = v.conjugate()
            if not lap.apply(w).is_zero():
                acc.require(f"(d) conjugate of harmonic ({p},{q})-form not harmonic", False)
            parts = decompose_form(model, w)
            if not set(parts) <= {(q, p)}:
                acc.require(f"(d) conjugate of ({p},{q})-form not of type ({q},{p})", False)


def check_vanish_cor(model, acc: _Acc):
    pqb = pq_basis(model)
    d_lm, d_lmb = _ops(model, "lap:L_mu_omega", "lap:L_mubar_omega")
    diff = d_lm - d_lmb
    n = pqb.n
    for p in range(n + 1):
        for q in range(n + 1):
            masks = pqb.monomial_masks(p, q)
            cols = [pqb.form_to_pq(diff.apply(pqb.monomial_form(mask))) for mask in masks]
            acc.require(
                f"difference Laplacian preserves ({p},{q})",
                all(pqb.bidegree_of_mask(m) == (p, q) for col in cols for m in col),
            )
            invertible = sparse_rank(transpose(enumerate(cols))) == len(masks)
            if invertible:
                acc.require(
                    f"invertible difference on ({p},{q}) forces h = 0",
                    len(harmonic_pq(model, p, q)) == 0,
                )


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
            h = len(harmonic_pq(model, p, q))
            if p == q or p + q == 3:
                continue
            acc.require(f"h^({p},{q}) = 0", h == 0)
    acc.require("h^(3,0) = 0", len(harmonic_pq(model, 3, 0)) == 0)
    acc.require("h^(0,3) = 0", len(harmonic_pq(model, 0, 3)) == 0)


def check_order_lb(model, acc: _Acc):
    gram = model.gram()
    lam1 = adjoint(mult_operator(Form.basis(model.dim, 1)), gram)
    acc.require("order(Lambda_u1) <= 1", algebraic_order_at_most(lam1, 1))
    lam = lefschetz_triple(model)[1]
    acc.require("order(Lambda_omega) <= 2", algebraic_order_at_most(lam, 2))


def check_order_dstar(model, acc: _Acc):
    acc.require("order(d*) <= 2", algebraic_order_at_most(named_operator(model, "adj:d"), 2))


def check_order_bracket(model, acc: _Acc):
    dstar, l_op = _ops(model, "adj:d", "L")
    acc.require("order([d*,L]) <= 1", algebraic_order_at_most(br(dstar, l_op), 1))


def check_order_det(model, acc: _Acc):
    d = model.d()
    rebuilt = derivation_from_one_forms(
        model.dim, [d.apply(Form.basis(model.dim, 1 << i)) for i in range(model.dim)]
    )
    acc.op("derivation rebuilt from coframe values - d", rebuilt - d)


def check_diff_lapl_kahler(model, acc: _Acc):
    d_del, d_db = _ops(model, "lap:del", "lap:delbar")
    acc.op("Delta_del - Delta_delbar (mu = 0 degeneration)", d_del - d_db)


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

# checks cheap enough for big models without --deep: no adjoints, no kernels
FAST_SUBSET = (
    "BR67",
    "BRACKET_PQ",
    "D2_SPLIT",
    "DC_DEF",
    "DC_FRAME",
    "LEM_NK",
    "MU_ONEFORMS",
    "NIJ_MU",
    "NK_DEF",
    "ORDER_DET",
)

DEEP_DIM = 10


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


def default_selection(model: LieAlgebraModel, deep: bool) -> list[str]:
    if model.dim >= DEEP_DIM and not deep:
        return [cid for cid in sorted(CHECKS) if cid in FAST_SUBSET]
    return sorted(CHECKS)


def run_suite(
    model: LieAlgebraModel,
    selection: list[str] | None = None,
    expected_failures: tuple[str, ...] | None = None,
    deep: bool = False,
) -> SuiteReport:
    if expected_failures is None:
        expected_failures = model.expected_failures
    chosen = sorted(selection) if selection is not None else default_selection(model, deep)
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
