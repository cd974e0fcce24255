import itertools

import pytest
from hypothesis import given, settings, strategies as st

from nkhodge.bidegree import differential_split, lefschetz_triple
from nkhodge.exterior import Form
from nkhodge.models import builtin_model
from nkhodge.operators import (
    GradedOperator,
    adjoint,
    algebraic_order_at_most,
    derivation_from_one_forms,
    graded_commutator,
    koszul_coefficients,
    laplacian,
    mult_operator,
    reconstruct,
)
from nkhodge.scalars import ONE, ZERO, Scalar, rational
from oracles import adjoint_via_ldl, adjoint_via_minors, inner_via_minors, star_operator


def restrict_degree(p, k):
    """The columns of P on forms of degree k."""
    cols = {c: col for c, col in p.cols.items() if c.bit_count() == k}
    return GradedOperator(p.dim, cols, p.degree, check=False)


# -- oracles for the Koszul order test ---------------------------------------
# Both follow the recursive definition: level 0 is the multiplication
# operators, level r needs [[P, L_beta]] in level r-1 for every form beta.

def _is_multiplication(p):
    cand = p.apply(Form.basis(p.dim, 0))
    if cand.degree() is None and not cand.is_zero():
        return False
    return p == mult_operator(cand)


def coframe_order_at_most(p, r):
    """beta ranges over the coframe u^i only (the derivation rule covers the rest)."""
    if r == 0:
        return _is_multiplication(p)
    return all(
        coframe_order_at_most(graded_commutator(p, mult_operator(Form.basis(p.dim, 1 << i))), r - 1)
        for i in range(p.dim)
    )


def full_order_at_most(p, r):
    """beta ranges over every basis form; a level-0 operator lies in every level."""
    if p.is_zero() or _is_multiplication(p):
        return True
    if r == 0:
        return False
    return all(
        full_order_at_most(graded_commutator(p, mult_operator(Form.basis(p.dim, mask))), r - 1)
        for mask in range(1, 1 << p.dim)
    )


def order_test_operators(model):
    gram = model.gram()
    d = model.d()
    dstar = adjoint(d, gram)
    split = differential_split(model)
    l_op, lam, h = lefschetz_triple(model)
    return {
        "d": d,
        "d*": dstar,
        "L": l_op,
        "Lambda": lam,
        "H": h,
        "[d*,L]": graded_commutator(dstar, l_op),
        "[d*,d]": graded_commutator(dstar, d),
        "mu": split.mu,
        "mu*": adjoint(split.mu, gram),
        "d d*": d.compose(dstar),
        "nabla_1": model.nabla_op(0),
    }


def interior_operator(dim, j):
    """iota_{e_j} from the contraction of forms, column by column."""
    vec = [ONE if i == j else ZERO for i in range(dim)]
    cols = {m: Form.basis(dim, m).contract_vector(vec).coeffs for m in range(1 << dim)}
    return GradedOperator(dim, cols, -1)


@st.composite
def koszul_sums(draw):
    """Coefficient forms beta_J (homogeneous, possibly zero) for |J| <= 3 in dimension 4."""
    beta = {}
    for _ in range(draw(st.integers(0, 4))):
        j = draw(st.sampled_from([m for m in range(16) if m.bit_count() <= 3]))
        k = draw(st.integers(0, 4))
        masks = [m for m in range(16) if m.bit_count() == k]
        terms = draw(st.lists(st.tuples(st.sampled_from(masks), st.integers(-3, 3)), min_size=1, max_size=3))
        beta[j] = Form(4, {m: rational(v) for m, v in terms})
    return beta


@st.composite
def forms6(draw, max_terms=3):
    coeffs = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mask = draw(st.integers(0, 63))
        coeffs[mask] = Scalar(
            draw(st.integers(-4, 4)), draw(st.integers(-4, 4)), draw(st.integers(-4, 4)), 0, 1, 3
        )
    return Form(6, coeffs)


def catalogue_ops(model):
    split = differential_split(model)
    l_op, lam, _ = lefschetz_triple(model)
    lm = mult_operator(split.mu.apply(model.omega()))
    lm = GradedOperator(model.dim, lm.cols, 3, check=False)
    return {
        "d": model.d(),
        "mu": split.mu,
        "del": split.del_,
        "L": l_op,
        "Lambda": lam,
        "L_mu_omega": lm,
    }


class TestGradedOperator:
    def test_degree_enforced(self):
        with pytest.raises(ValueError, match="degree"):
            GradedOperator(4, {0b0001: {0b0011: ONE}}, degree=0)

    def test_check_is_keyword_only(self):
        # a fourth positional argument (once a bidegree tag) is refused
        with pytest.raises(TypeError):
            GradedOperator(4, {}, 0, False)

    def test_apply_matches_columns(self, s3xs3):
        d = s3xs3.d()
        f = Form.basis(6, 0b000011)
        assert d.apply(f) == d.column_form(0b000011)

    def test_compose_degree_addition(self, s3xs3):
        d = s3xs3.d()
        dd = d.compose(d)
        assert dd.degree == 2
        assert dd.is_zero()

    def test_restrict_degree(self, s3xs3):
        d1 = restrict_degree(s3xs3.d(), 1)
        assert all(c.bit_count() == 1 for c in d1.cols)


class TestMultOperators:
    def test_wedge_column(self, torus6):
        l1 = mult_operator(Form.basis(6, 0b000001))
        assert l1.apply(Form.basis(6, 0b000010)) == Form.basis(6, 0b000011)

    def test_requires_homogeneous(self):
        mixed = Form(6, {0b000001: ONE, 0b000011: ONE})
        with pytest.raises(ValueError, match="homogeneous"):
            mult_operator(mixed)

    def test_lambda_of_one_form_orthonormal(self, torus6):
        lam1 = adjoint(mult_operator(Form.basis(6, 0b000001)), torus6.gram())
        assert lam1.apply(Form.basis(6, 0b000011)) == Form.basis(6, 0b000010)

    def test_lambda_omega_matches_triple(self, s3xs3_ortho):
        _, lam, _ = lefschetz_triple(s3xs3_ortho)
        l_om = mult_operator(s3xs3_ortho.omega())
        assert adjoint(l_om, s3xs3_ortho.gram()) == lam

    def test_lambda_omega_on_omega_is_n(self, torus6):
        _, lam, _ = lefschetz_triple(torus6)
        assert lam.apply(torus6.omega()) == Form.basis(6, 0, rational(3))


class TestAdjoint:
    def test_identity_self_adjoint(self, s3xs3_ortho):
        ident = GradedOperator.identity(6)
        assert adjoint(ident, s3xs3_ortho.gram()) == ident

    def test_involution(self, s3xs3_ortho):
        d = s3xs3_ortho.d()
        assert adjoint(adjoint(d, s3xs3_ortho.gram()), s3xs3_ortho.gram()) == d

    @pytest.mark.parametrize("name", ["mu", "del", "delbar", "mubar"])
    def test_duality_full_basis(self, s3xs3_ortho, name):
        # <P a, b> = <a, P* b> over the full basis, exact
        gram = s3xs3_ortho.gram()
        p = differential_split(s3xs3_ortho).components()[name]
        ps = adjoint(p, gram)
        for a_mask in range(64):
            a = Form.basis(6, a_mask)
            pa = p.apply(a)
            for b_mask in range(64):
                if (b_mask.bit_count()) != a_mask.bit_count() + 1:
                    continue
                b = Form.basis(6, b_mask)
                assert inner_via_minors(gram, pa, b) == inner_via_minors(gram, a, ps.apply(b))

    def test_ortho_route_equals_minor_route(self, s3xs3, kodaira):
        for model in (s3xs3, kodaira):
            gram = model.gram()
            for op in (model.d(), mult_operator(model.omega())):
                op = GradedOperator(model.dim, op.cols, op.degree if op.degree is not None else 2, check=False)
                assert adjoint_via_ldl(op, gram) == adjoint_via_minors(op, gram)

    @given(
        st.lists(st.integers(-2, 2), min_size=16, max_size=16),
        st.lists(st.tuples(st.integers(0, 15), st.integers(-3, 3)), min_size=1, max_size=4),
    )
    @settings(max_examples=20, deadline=None)
    def test_routes_agree_on_random_spd_metrics(self, entries, op_terms):
        # random SPD metric g = A^T A + I over the rationals (dimension 4)
        from nkhodge.exterior import GramData

        a = [[rational(entries[4 * i + j]) for j in range(4)] for i in range(4)]
        g = [
            [
                sum((a[k][i] * a[k][j] for k in range(4)), start=rational(0))
                + (ONE if i == j else rational(0))
                for j in range(4)
            ]
            for i in range(4)
        ]
        gram = GramData(g)
        beta = Form(4, {1 << (m % 4): rational(v) for m, v in op_terms if v})
        if beta.is_zero():
            return
        op = mult_operator(beta)
        assert adjoint_via_ldl(op, gram) == adjoint_via_minors(op, gram)

    def test_coupled_metric_rejected(self, s3xs3):
        with pytest.raises(ValueError, match="diagonal metric"):
            adjoint(s3xs3.d(), s3xs3.gram())

    def test_dstar_is_minus_star_d_star(self, kodaira, s3xs3_ortho):
        # an independent route through the Hodge star; det(g) is 1 and 27/64
        for model in (kodaira, s3xs3_ortho):
            gram = model.gram()
            star = star_operator(gram, model.ext_d)
            d = model.d()
            assert not d.is_zero()
            assert adjoint(d, gram) == -star.compose(d.compose(star))

    def test_duality_for_adjoint_operators(self, s3xs3_ortho):
        # the spec-listed eight: the four components and their adjoints
        gram = s3xs3_ortho.gram()
        split = differential_split(s3xs3_ortho)
        for p in split.components().values():
            ps = adjoint(p, gram)
            for a_mask in range(64):
                a = Form.basis(6, a_mask)
                psa = ps.apply(a)
                for b_mask in range(64):
                    if b_mask.bit_count() != a_mask.bit_count() - 1:
                        continue
                    b = Form.basis(6, b_mask)
                    assert inner_via_minors(gram, psa, b) == inner_via_minors(gram, a, p.apply(b))

    def test_bracket_adjoint_rule(self, s3xs3_ortho):
        # [[P,Q]]* = [[Q*,P*]] on catalogue pairs
        gram = s3xs3_ortho.gram()
        ops = catalogue_ops(s3xs3_ortho)
        for a, b in itertools.combinations(ops.values(), 2):
            lhs = adjoint(graded_commutator(a, b), gram)
            rhs = graded_commutator(adjoint(b, gram), adjoint(a, gram))
            assert lhs == rhs


class TestCommutator:
    def test_requires_degrees(self):
        p = GradedOperator(4, {}, None)
        with pytest.raises(ValueError, match="degrees"):
            graded_commutator(p, p)

    def test_d_with_itself(self, s3xs3):
        d = s3xs3.d()
        assert graded_commutator(d, d) == d.compose(d).scale(rational(2))
        assert graded_commutator(d, d).is_zero()

    def test_graded_jacobi_on_catalogue(self, s3xs3_ortho):
        ops = list(catalogue_ops(s3xs3_ortho).values())
        for p, q, r in itertools.combinations(ops, 3):
            lhs = graded_commutator(p, graded_commutator(q, r))
            rhs = graded_commutator(graded_commutator(p, q), r)
            term = graded_commutator(q, graded_commutator(p, r))
            if (p.degree * q.degree) % 2:
                rhs = rhs - term
            else:
                rhs = rhs + term
            assert lhs == rhs

    def test_conjugation_compatibility(self, s3xs3_ortho):
        ops = catalogue_ops(s3xs3_ortho)
        for a, b in itertools.combinations(ops.values(), 2):
            lhs = graded_commutator(a, b).conjugated()
            rhs = graded_commutator(a.conjugated(), b.conjugated())
            assert lhs == rhs


class TestLaplacian:
    def test_degree_zero_and_self_adjoint(self, s3xs3_ortho):
        gram = s3xs3_ortho.gram()
        d = s3xs3_ortho.d()
        lap = laplacian(d, adjoint(d, gram))
        assert lap.degree == 0
        assert adjoint(lap, gram) == lap

    def test_torus_hodge_laplacian_zero(self, torus6):
        d = torus6.d()
        assert laplacian(d, adjoint(d, torus6.gram())).is_zero()

    def test_lefschetz_laplacian_is_minus_counting(self, s3xs3_ortho):
        l_op, lam, h = lefschetz_triple(s3xs3_ortho)
        assert laplacian(l_op, lam) == -h

    @given(forms6())
    @settings(max_examples=25, deadline=None)
    def test_positive_semidefinite_odd_degree(self, f):
        model = builtin_model("s3xs3-nk").orthogonalized()
        gram = model.gram()
        d = model.d()
        lap = laplacian(d, adjoint(d, gram))
        val = gram.inner(lap.apply(f), f)
        assert val.is_real() and val.sign() >= 0


class TestDerivations:
    def test_rebuild_d(self, s3xs3):
        d = s3xs3.d()
        images = [d.apply(Form.basis(6, 1 << i)) for i in range(6)]
        assert derivation_from_one_forms(6, images) == d

    def test_zero_images(self):
        assert derivation_from_one_forms(4, [Form.zero(4)] * 4).is_zero()

    def test_nijenhuis_derivation(self, s3xs3):
        split = differential_split(s3xs3)
        assert s3xs3.nijenhuis_op() == (split.mu + split.mubar).scale(rational(-4))

    def test_nabla_is_even_derivation(self, s3xs3):
        nabla = s3xs3.nabla_op(2)
        a = Form.basis(6, 0b000011)
        b = Form.basis(6, 0b010100)
        assert nabla.apply(a.wedge(b)) == nabla.apply(a).wedge(b) + a.wedge(nabla.apply(b))

    def test_degree_checked(self, s3xs3):
        images = [s3xs3.d().apply(Form.basis(6, 1 << i)) for i in range(6)]
        with pytest.raises(ValueError, match="degree"):
            derivation_from_one_forms(6, images, degree=0)
        with pytest.raises(ValueError, match="coframe images"):
            derivation_from_one_forms(6, images[:5])

    def test_leibniz_rule(self, s3xs3):
        d = s3xs3.d()
        a = Form.basis(6, 0b000101)
        b = Form.basis(6, 0b011000)
        lhs = d.apply(a.wedge(b))
        rhs = d.apply(a).wedge(b) + a.wedge(d.apply(b))  # |a| = 2 even
        assert lhs == rhs


class TestAlgebraicOrder:
    def test_mult_operator_order_zero(self, s3xs3):
        l1 = mult_operator(Form.basis(6, 0b000111))
        assert algebraic_order_at_most(l1, 0)

    def test_d_is_not_order_zero(self, s3xs3):
        assert not algebraic_order_at_most(s3xs3.d(), 0)
        assert algebraic_order_at_most(s3xs3.d(), 1)

    def test_coframe_reduction_matches_full_recursion(self, s3xs3_ortho):
        # the definition ranges beta over all basis forms, the coframe oracle
        # over u^i only -- all three tests agree on a genuine order-2 case
        lam = lefschetz_triple(s3xs3_ortho)[1]
        for r in (1, 2):
            assert full_order_at_most(lam, r) == coframe_order_at_most(lam, r)
            assert full_order_at_most(lam, r) == algebraic_order_at_most(lam, r)

    @pytest.mark.parametrize("name", ["torus6", "s3xs3-nk", "kodaira-thurston"])
    def test_koszul_matches_both_oracles(self, name):
        model = builtin_model(name).orthogonalized()
        for label, op in order_test_operators(model).items():
            # the levels are nested, so the full recursion runs up to its first pass
            full_first = next((r for r in range(4) if full_order_at_most(op, r)), 4)
            for r in range(4):
                got = algebraic_order_at_most(op, r)
                assert got == coframe_order_at_most(op, r), (label, r)
                assert got == (r >= full_first), (label, r)

    def test_known_orders(self, s3xs3_ortho):
        first = {}
        for label, op in order_test_operators(s3xs3_ortho).items():
            first[label] = next(r for r in range(5) if algebraic_order_at_most(op, r))
        assert first == {
            "d": 1, "d*": 2, "L": 0, "Lambda": 2, "H": 1, "[d*,L]": 1,
            "[d*,d]": 2, "mu": 1, "mu*": 2, "d d*": 3, "nabla_1": 1,
        }

    @given(koszul_sums())
    @settings(max_examples=40, deadline=None)
    def test_random_koszul_sums_have_exact_order(self, beta):
        iota = [interior_operator(4, j) for j in range(4)]
        op = GradedOperator.zero(4, None)
        for jm, b in beta.items():
            contraction = GradedOperator.identity(4)
            for j in range(4):
                if jm >> j & 1:
                    contraction = iota[j].compose(contraction)
            op = op + mult_operator(b).compose(contraction)
        assert reconstruct(4, beta, None) == op
        order = max((jm.bit_count() for jm, b in beta.items() if not b.is_zero()), default=0)
        for r in range(5):
            assert algebraic_order_at_most(op, r) == (r >= order)

    def test_full_expansion_reconstructs(self, s3xs3_ortho):
        dstar = adjoint(s3xs3_ortho.d(), s3xs3_ortho.gram())
        for op in (dstar, s3xs3_ortho.d().compose(dstar)):
            beta = koszul_coefficients(op, 6)
            assert max(jm.bit_count() for jm in beta) <= 3
            assert reconstruct(6, beta, op.degree) == op

    def test_negative_bound_rejected(self, s3xs3):
        with pytest.raises(ValueError, match="nonnegative"):
            algebraic_order_at_most(s3xs3.d(), -1)

    def test_bracket_order_bound(self, s3xs3_ortho):
        # [[A^r, A^s]] subset A^{r+s-1}: order([d*, L]) <= 1
        gram = s3xs3_ortho.gram()
        dstar = adjoint(s3xs3_ortho.d(), gram)
        l_op = lefschetz_triple(s3xs3_ortho)[0]
        assert algebraic_order_at_most(graded_commutator(dstar, l_op), 1)
