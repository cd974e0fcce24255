import itertools
import sys
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import nkhodge.operators
from nkhodge.bidegree import (
    _BASE_OPERATORS,
    DifferentialSplit,
    counting_operator,
    d_c,
    decompose_form,
    differential_split,
    j_apply,
    j_operator,
    lefschetz_triple,
    named_operator,
    pq_basis,
    twisted_differential,
)
from nkhodge.checks import CHECKS, run_suite
from nkhodge.exterior import Form
from nkhodge.hodge import hodge_numbers
from nkhodge.linalg import sparse_rank
from nkhodge.models import builtin_model, model_from_json, model_to_json, nk_report
from nkhodge.operators import GradedOperator, graded_commutator
from nkhodge.scalars import I, ONE, Scalar, rational
from oracles import adjoint_via_minors


# -- oracles: the literal definitions that the derivation routes replace ------

def pq_projector(model, p, q) -> GradedOperator:
    """Projector onto Lambda^{p,q} as a matrix over the real-index basis."""
    pq = pq_basis(model)
    if not (0 <= p <= pq.n and 0 <= q <= pq.n):
        raise ValueError(f"bidegree ({p},{q}) out of range")

    def build():
        cols = {}
        for mask in range(1 << model.dim):
            if mask.bit_count() != p + q:
                continue
            wanted = {
                m: v
                for m, v in pq.form_to_pq(Form.basis(model.dim, mask)).items()
                if pq.bidegree_of_mask(m) == (p, q)
            }
            if wanted:
                cols[mask] = dict(pq.pq_coords_to_form(wanted).coeffs)
        return GradedOperator(model.dim, cols, 0, check=False)

    return model._memo(f"projector{p},{q}", build)


def split_by_projectors(model) -> DifferentialSplit:
    """Each component as the sum over (p,q) of pi^{p+dp,q+dq} d pi^{p,q}."""
    d = model.d()
    n = model.dim // 2
    shifts = {"mu": (2, -1), "del": (1, 0), "delbar": (0, 1), "mubar": (-1, 2)}
    parts = {}
    for name, (dp, dq) in shifts.items():
        acc = GradedOperator.zero(model.dim, 1)
        for p in range(n + 1):
            for q in range(n + 1):
                if not (0 <= p + dp <= n and 0 <= q + dq <= n):
                    continue
                left = pq_projector(model, p + dp, q + dq)
                right = pq_projector(model, p, q)
                acc = acc + left.compose(d.compose(right))
        parts[name] = GradedOperator(model.dim, acc.cols, 1, check=False)
    return DifferentialSplit(parts["mu"], parts["del"], parts["delbar"], parts["mubar"])


def j_inverse_d_j_matrix(model) -> GradedOperator:
    """J^{-1} o d o J as a literal product of matrices, J^{-1} = (-1)^k J on degree k."""
    j_op = j_operator(model)
    j_inv_cols = {
        c: {r: (v if c.bit_count() % 2 == 0 else -v) for r, v in col.items()}
        for c, col in j_op.cols.items()
    }
    j_inv = GradedOperator(model.dim, j_inv_cols, 0, check=False)
    return j_inv.compose(model.d().compose(j_op))


def j_inverse_apply(model, form: Form) -> Form:
    """J^{-1} = (-1)^k J on degree k (since J^2 = (-1)^k there)."""
    out = Form.zero(model.dim)
    for k in range(model.dim + 1):
        piece = Form(model.dim, {m: v for m, v in form.coeffs.items() if m.bit_count() == k})
        if piece.is_zero():
            continue
        img = j_apply(model, piece)
        out = out + (img if k % 2 == 0 else -img)
    return out


class TestPQBasis:
    @pytest.mark.parametrize("name", ["torus6", "s3xs3-nk", "kodaira-thurston"])
    def test_dimension_count(self, name, request):
        model = __import__("nkhodge.models", fromlist=["builtin_model"]).builtin_model(name)
        pqb = pq_basis(model)
        n = model.dim // 2
        for k in range(model.dim + 1):
            total = sum(
                len(pqb.monomial_masks(p, k - p)) for p in range(max(0, k - n), min(n, k) + 1)
            )
            assert total == comb(model.dim, k)
        for p in range(n + 1):
            for q in range(n + 1):
                assert len(pqb.monomial_masks(p, q)) == comb(n, p) * comb(n, q)

    @pytest.mark.parametrize(
        "name, chosen",
        [
            ("torus6", [0, 2, 4]),
            ("s3xs3-nk", [0, 1, 2]),
            ("kodaira-thurston", [0, 2]),
            ("su2-four", [0, 1, 2, 6, 7, 8]),
        ],
    )
    @pytest.mark.parametrize("presentation", ["native", "orthogonalized"])
    def test_greedy_first_independent_subset(self, name, chosen, presentation, request):
        fixture = {"torus6": "torus6", "s3xs3-nk": "s3xs3", "kodaira-thurston": "kodaira", "su2-four": "su2four"}
        model = request.getfixturevalue(fixture[name])
        if presentation == "orthogonalized":
            model = model.orthogonalized()
        pqb = pq_basis(model)
        rows = [f.coeffs for f in pqb.eta_all]
        # eta_all[i] is kept exactly when it raises the rank of eta_all[:i]
        greedy = [i for i in range(model.dim) if sparse_rank(rows[: i + 1]) > sparse_rank(rows[:i])]
        assert pqb.chosen == greedy == chosen
        assert pqb.eta == [pqb.eta_all[i] for i in chosen]
        n = model.dim // 2
        for f in pqb.eta_all:
            coords = pqb.form_to_pq(f)
            assert all(m.bit_count() == 1 and m < 1 << n for m in coords)
            rebuilt = Form.zero(model.dim)
            for m, x in coords.items():
                rebuilt = rebuilt + pqb.eta[m.bit_length() - 1].scale(x)
            assert rebuilt == f

    def test_roundtrip(self, s3xs3):
        pqb = pq_basis(s3xs3)
        for mask in range(64):
            f = Form.basis(6, mask)
            assert pqb.pq_coords_to_form(pqb.form_to_pq(f)) == f

    def test_projector_on_one_form(self, torus6):
        # pi^{1,0} e^1 = (e^1 - i J e^1)/2 = (e^1 + i e^2)/2 with Je_1 = e_2
        proj = pq_projector(torus6, 1, 0)
        got = proj.apply(Form.basis(6, 0b000001))
        expect = (Form.basis(6, 0b000001) + Form.basis(6, 0b000010).scale(I)).scale(
            rational(1, 2)
        )
        assert got == expect

    def test_projectors_resolve_identity(self, s3xs3):
        acc = GradedOperator.zero(6, 0)
        for p in range(4):
            for q in range(4):
                acc = acc + pq_projector(s3xs3, p, q)
        assert acc == GradedOperator.identity(6)

    def test_projectors_idempotent_orthogonal(self, s3xs3):
        p20 = pq_projector(s3xs3, 2, 0)
        p11 = pq_projector(s3xs3, 1, 1)
        assert p20.compose(p20) == p20
        assert p20.compose(p11).is_zero()

    def test_out_of_range(self, s3xs3):
        with pytest.raises(ValueError):
            pq_projector(s3xs3, 4, 0)


class TestJAction:
    def test_multiplicative(self, s3xs3):
        a = Form.basis(6, 0b000001)
        b = Form.basis(6, 0b001010)
        lhs = j_apply(s3xs3, a.wedge(b))
        rhs = j_apply(s3xs3, a).wedge(j_apply(s3xs3, b))
        assert lhs == rhs

    @given(
        st.lists(st.tuples(st.integers(0, 63), st.integers(-3, 3), st.integers(-3, 3)), max_size=3),
        st.lists(st.tuples(st.integers(0, 63), st.integers(-3, 3), st.integers(-3, 3)), max_size=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_multiplicative_random(self, terms_a, terms_b):
        model = __import__("nkhodge.models", fromlist=["builtin_model"]).builtin_model("s3xs3-nk")
        a = Form(6, {m: Scalar(x, y, 0, 0, 1, 3) for m, x, y in terms_a})
        b = Form(6, {m: Scalar(x, 0, y, 0, 1, 3) for m, x, y in terms_b})
        assert j_apply(model, a.wedge(b)) == j_apply(model, a).wedge(j_apply(model, b))

    def test_eigenvalues(self, s3xs3):
        pqb = pq_basis(s3xs3)
        for p in range(4):
            for q in range(4):
                eig = I ** ((p - q) % 4)
                for v in pqb.basis_forms(p, q):
                    assert j_apply(s3xs3, v) == v.scale(eig)

    def test_omega_fixed(self, s3xs3, torus6):
        for m in (s3xs3, torus6):
            assert j_apply(m, m.omega()) == m.omega()

    def test_inverse(self, s3xs3):
        f = Form(6, {0b000111: ONE, 0b000001: I})
        assert j_inverse_apply(s3xs3, j_apply(s3xs3, f)) == f

    def test_operator_matrix_matches_action(self, kodaira):
        op = j_operator(kodaira)
        f = Form(4, {0b0011: ONE, 0b0101: I})
        assert op.apply(f) == j_apply(kodaira, f)


class TestSplit:
    def test_routes_agree_dim6(self, s3xs3, torus6, kodaira):
        for m in (s3xs3, torus6, kodaira):
            a = split_by_projectors(m)
            b = differential_split(m)
            for name in ("mu", "del", "delbar", "mubar"):
                assert a.components()[name] == b.components()[name]

    def test_total_and_conjugation(self, s3xs3):
        split = differential_split(s3xs3)
        assert split.total() == s3xs3.d()
        assert split.mubar == split.mu.conjugated()
        assert split.delbar == split.del_.conjugated()

    def test_bidegree_images(self, s3xs3):
        split = differential_split(s3xs3)
        for op, (dp, dq) in (
            (split.mu, (2, -1)),
            (split.del_, (1, 0)),
            (split.delbar, (0, 1)),
            (split.mubar, (-1, 2)),
        ):
            for p in range(4):
                for q in range(4):
                    pt, qt = p + dp, q + dq
                    for v in pq_basis(s3xs3).basis_forms(p, q):
                        img = op.apply(v)
                        if img.is_zero():
                            continue
                        parts = decompose_form(s3xs3, img)
                        assert set(parts) == {(pt, qt)}

    def test_torus_components_vanish(self, torus6):
        split = differential_split(torus6)
        assert all(op.is_zero() for op in split.components().values())

    def test_strictness_mu_nonzero(self, s3xs3):
        assert not differential_split(s3xs3).mu.is_zero()

    def test_kodaira_integrable(self, kodaira):
        split = differential_split(kodaira)
        assert split.mu.is_zero()
        assert split.delbar.compose(split.delbar).is_zero()


class TestDC:
    def test_torus_dc_zero(self, torus6):
        assert d_c(torus6).is_zero()

    def test_dc_nonzero_strict(self, s3xs3):
        assert not d_c(s3xs3).is_zero()

    def test_derivation_route_matches_matrix_route(self, s3xs3, torus6, kodaira):
        for m in (s3xs3, torus6, kodaira):
            assert twisted_differential(m) == j_inverse_d_j_matrix(m)

    def test_dc_differs_from_adjoint_bracket_by_torsion(self, s3xs3_ortho):
        # [d*, L] + d^c = 3i(mu - mubar) != 0 in the strict case
        from nkhodge.operators import adjoint

        dstar = adjoint(s3xs3_ortho.d(), s3xs3_ortho.gram())
        l_op = lefschetz_triple(s3xs3_ortho)[0]
        split = differential_split(s3xs3_ortho)
        gap = graded_commutator(dstar, l_op) + d_c(s3xs3_ortho)
        expect = (split.mu - split.mubar).scale(Scalar(0, 0, 3, 0))
        assert gap == expect
        assert not gap.is_zero()


class TestLefschetz:
    def test_counting_operator_values(self, s3xs3):
        h = counting_operator(s3xs3)
        assert h.apply(Form.basis(6, 0)) == Form.basis(6, 0, rational(-3))
        assert h.apply(Form.basis(6, 0b000111)).is_zero()  # degree 3 = n
        assert h.apply(Form.basis(6, 0b111111)) == Form.basis(6, 0b111111, rational(3))

    def test_sl2_relations(self, s3xs3_ortho, torus6, kodaira):
        for m in (s3xs3_ortho, torus6, kodaira):
            l_op, lam, h = lefschetz_triple(m)
            assert graded_commutator(l_op, lam) == h
            assert graded_commutator(h, l_op) == l_op.scale(rational(2))
            assert graded_commutator(h, lam) == lam.scale(rational(-2))


class TestDeclaredDegrees:
    """Declared degrees, which fix the signs of the graded commutators in the checks."""

    def test_split_lefschetz_degrees(self, s3xs3_ortho, torus6, kodaira):
        for m in (s3xs3_ortho, torus6, kodaira):
            for op in differential_split(m).components().values():
                assert op.degree == 1
            l_op, lam, h = lefschetz_triple(m)
            assert (l_op.degree, lam.degree, h.degree) == (2, -2, 0)

    def test_zero_l_mu_omega_keeps_degree_three(self, torus6, kodaira):
        for m in (torus6, kodaira):
            for op in (named_operator(m, "L_mu_omega"), named_operator(m, "L_mubar_omega")):
                assert op.is_zero()
                assert op.degree == 3


class TestNamedOperator:
    @pytest.mark.parametrize("base", sorted(_BASE_OPERATORS))
    @pytest.mark.parametrize("fixture", ["s3xs3", "kodaira"])
    def test_adjoint_and_laplacian_match_oracle(self, base, fixture, request):
        model = request.getfixturevalue(fixture).orthogonalized()
        p = named_operator(model, base)
        p_star = adjoint_via_minors(p, model.gram())
        assert named_operator(model, "adj:" + base) == p_star
        assert named_operator(model, "lap:" + base) == graded_commutator(p_star, p)

    def test_unknown_name(self, torus6):
        for name in ("lambda", "adj:adj:d", "lap:", "star:d"):
            with pytest.raises(KeyError):
                named_operator(torus6, name)

    @pytest.mark.parametrize(
        "name, calls", [("torus6", 10), ("s3xs3-nk", 16), ("kodaira-thurston", 10)]
    )
    def test_catalogue_builds_each_adjoint_once(self, name, calls, monkeypatch):
        # every module alias of adjoint records what it receives; the
        # catalogue and the Hodge table then run on a model with empty caches
        original = nkhodge.operators.adjoint
        received = []

        def recording(p, gram):
            received.append(p)
            return original(p, gram)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("nkhodge") and getattr(module, "adjoint", None) is original:
                monkeypatch.setattr(module, "adjoint", recording)
        model = model_from_json(model_to_json(builtin_model(name)))
        run_suite(model, selection=sorted(CHECKS))
        if nk_report(model).nearly_kahler:
            hodge_numbers(model)
        assert len(received) == calls
        # zero operators of one degree are all equal (every d component on torus6)
        nonzero = [p for p in received if not p.is_zero()]
        for a, b in itertools.combinations(nonzero, 2):
            assert not (a == b and a.degree == b.degree)
