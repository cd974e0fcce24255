import functools
import itertools
import sys
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import nkhodge.bidegree
import nkhodge.operators
from nkhodge.bidegree import (
    _BASE_OPERATORS,
    DifferentialSplit,
    counting_operator,
    d_c,
    decompose_form,
    differential_split,
    j_operator,
    lefschetz_triple,
    named_operator,
    pq_basis,
    twisted_differential,
)
from nkhodge.checks import CHECKS, run_suite
from nkhodge.exterior import Form
from nkhodge.hodge import h_pq, harmonic_pq, harmonic_space, hodge_numbers
from nkhodge.linalg import sparse_rank
from nkhodge.models import BUILTIN_NAMES, builtin_model, model_from_json, model_to_json, nk_report
from nkhodge.operators import (
    GradedOperator,
    adjoint,
    adjoint_by_order,
    algebra_map_blocks,
    combination,
    derivation_from_one_forms,
    graded_commutator,
    low_columns,
)
from nkhodge.scalars import I, ONE, Scalar, rational
from oracles import (
    ScalarOperator,
    adjoint_via_minors,
    commutator_by_composition,
    decompose_by_d_j,
    decompose_via_monomials,
    diagonal_operator,
    form_to_pq,
    harmonic_pq_via_monomials,
    j_apply,
    monomial_form,
    off_type,
    pq_coords_to_form,
    scalar_adjoint,
    scalar_columns,
    spans_equal,
    split_by_four_derivations,
    swapped,
    wedge_image,
)


# -- oracles: the literal definitions that the derivation routes replace ------

def _coefficients(p: GradedOperator) -> dict:
    """(J, b) -> coordinates of the term u^b of beta_J, for an operator held
    by its Koszul coefficients."""
    return {(jm, bm): u for jm, form in p._symbol for bm, _, u, _ in form}


def conjugate_by_store(p: GradedOperator) -> GradedOperator:
    """conj P entry by entry over P's Scalar store (``ScalarOperator``), the
    oracle of conjugation on the Koszul coefficients."""
    ref = ScalarOperator.of(p).conjugated()
    return GradedOperator(ref.dim, ref.cols, ref.degree)


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
                for m, v in form_to_pq(model, Form.basis(model.dim, mask)).items()
                if pq.bidegree_of_mask(m) == (p, q)
            }
            if wanted:
                cols[mask] = dict(pq_coords_to_form(model, wanted).coeffs)
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


def j_matrix(model) -> GradedOperator:
    """J as the matrix of its Scalar action on every basis form."""
    cols = {m: j_apply(model, Form.basis(model.dim, m)).coeffs for m in range(1 << model.dim)}
    return GradedOperator(model.dim, cols, 0, check=False)


def j_inverse_d_j_matrix(model) -> GradedOperator:
    """J^{-1} o d o J as a literal product of matrices, J^{-1} = (-1)^k J on degree k."""
    j_op = j_matrix(model)
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
        img = j_operator(model).apply(piece)
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
            coords = form_to_pq(model, f)
            assert all(m.bit_count() == 1 and m < 1 << n for m in coords)
            rebuilt = Form.zero(model.dim)
            for m, x in coords.items():
                rebuilt = rebuilt + pqb.eta[m.bit_length() - 1].scale(x)
            assert rebuilt == f

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_frames_are_the_monomials_and_inverse(self, name):
        # column m of E is the eta-monomial m, F = E^{-1} degree by degree,
        # F Id E is the identity block by block, and F applied to a form
        # is F's columns on its support
        model = builtin_model(name).orthogonalized()
        pqb = pq_basis(model)
        table = {}
        e_blocks = list(algebra_map_blocks(model.dim, pqb.generators))
        f_blocks = list(algebra_map_blocks(model.dim, pqb.dual))
        one = GradedOperator.identity(model.dim)
        frames = [f_k.compose(one.compose(e_k)) for f_k, e_k in zip(f_blocks, e_blocks)]
        assert len(e_blocks) == len(frames) == model.dim + 1
        for k, (e_k, f_k, frame) in enumerate(zip(e_blocks, f_blocks, frames)):
            masks = [m for m in range(1 << model.dim) if m.bit_count() == k]
            assert list(e_k.coords) == list(f_k.coords) == masks
            for m in masks:
                assert e_k.column_form(m) == wedge_image(pqb.generators, m, table)
            identity = GradedOperator(model.dim, {m: {m: ONE} for m in masks}, 0)
            assert frame == identity  # F_k Id E_k = F_k E_k
            assert e_k.compose(f_k) == identity
            top = masks[-1]
            assert pqb.coordinates([Form.basis(model.dim, top, I)]) == [f_k.column_form(top).scale(I).coeffs]

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_conjugate_monomial_is_the_swapped_monomial(self, name):
        # conj E(m) = (-1)^(pq) E(swapped m) on every column of E: conjugation
        # exchanges the halves of an eta-monomial
        model = builtin_model(name).orthogonalized()
        pqb = pq_basis(model)
        for e_k in algebra_map_blocks(model.dim, pqb.generators):
            for m in e_k.coords:
                p, q = pqb.bidegree_of_mask(m)
                assert pqb.bidegree_of_mask(swapped(pqb, m)) == (q, p)
                want = e_k.column_form(swapped(pqb, m)).scale(rational((-1) ** (p * q)))
                assert e_k.column_form(m).conjugate() == want

    def test_roundtrip(self, s3xs3):
        for mask in range(64):
            f = Form.basis(6, mask)
            assert pq_coords_to_form(s3xs3, form_to_pq(s3xs3, f)) == f

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


SMALL_MODELS = ["torus6", "s3xs3-nk", "kodaira-thurston"]


@functools.lru_cache(maxsize=None)
def _ortho(name):
    return builtin_model(name).orthogonalized()


class TestTypeByDerivation:
    """The eta-frame type test and decomposition against type through D_J
    and the Scalar eta-monomial coordinates of the oracles."""

    @staticmethod
    def _of_type(model, form, p, q):
        pqb = pq_basis(model)
        return not pqb.outside(pqb.coordinates([form])[0], p, q)

    @pytest.mark.parametrize("name", SMALL_MODELS)
    def test_off_type_vanishes_exactly_at_the_monomial_type(self, name):
        model = _ortho(name)
        pqb = pq_basis(model)
        n = pqb.n
        for p in range(n + 1):
            for q in range(n + 1):
                for mask in pqb.monomial_masks(p, q):
                    v = monomial_form(model, mask)
                    k = p + q
                    for r in range(max(0, k - n), min(n, k) + 1):
                        assert off_type(model, v, r, k - r).is_zero() == (r == p)
                        assert self._of_type(model, v, r, k - r) == (r == p)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_type_test_and_pieces_match_d_j_on_harmonic_forms(self, name):
        # the harmonic forms of each degree and their conjugates, pure or not
        model = _ortho(name)
        n = model.dim // 2
        for k in range(model.dim + 1):
            for v in harmonic_space(model, k):
                for f in (v, v.conjugate()):
                    for r in range(max(0, k - n), min(n, k) + 1):
                        assert self._of_type(model, f, r, k - r) == off_type(model, f, r, k - r).is_zero()
                    assert decompose_form(model, f) == decompose_by_d_j(model, f)

    @given(
        st.sampled_from(SMALL_MODELS),
        st.lists(
            st.tuples(st.integers(0, 63), *[st.integers(-3, 3)] * 4), min_size=1, max_size=6
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_decompose_matches_monomial_grouping(self, name, terms):
        model = _ortho(name)
        mask_limit = (1 << model.dim) - 1
        form = Form(model.dim, {m & mask_limit: Scalar(a, b, c, e, 1, 3) for m, a, b, c, e in terms})
        parts = decompose_form(model, form)
        assert parts == decompose_via_monomials(model, form) == decompose_by_d_j(model, form)
        # by degree, then increasing p
        assert list(parts) == sorted(parts, key=lambda pq: (pq[0] + pq[1], pq[0]))

    def test_decompose_matches_monomial_grouping_on_d_eta_su2four(self, su2four):
        model = su2four.orthogonalized()
        d = model.d()
        for eta in pq_basis(model).eta_all:
            for f in (d.apply(eta), d.apply(eta.conjugate())):
                assert decompose_form(model, f) == decompose_via_monomials(model, f) == decompose_by_d_j(model, f)

    @pytest.mark.parametrize("name", [*SMALL_MODELS, "su2-four"])
    def test_harmonic_pq_spans_match_monomial_kernel(self, name):
        model = builtin_model(name)
        fresh = model_from_json(model_to_json(model))  # counted by ranks, no basis memoized
        n = model.dim // 2
        for p in range(n + 1):
            for q in range(n + 1):
                count = h_pq(fresh, p, q)
                got = harmonic_pq(model, p, q)
                want = harmonic_pq_via_monomials(model, p, q)
                assert len(got) == len(want) == count, (p, q)
                assert spans_equal([dict(f.coeffs) for f in got], [dict(f.coeffs) for f in want])

    def test_harmonic_pq_out_of_range(self, s3xs3):
        for p, q in ((4, 0), (0, -1), (3, 4)):
            with pytest.raises(ValueError):
                harmonic_pq(s3xs3, p, q)


class TestJAction:
    """J built on the integer store against its Scalar action and its
    eigenvalues on the eta-monomials."""

    def test_multiplicative(self, s3xs3):
        j = j_operator(s3xs3)
        a = Form.basis(6, 0b000001)
        b = Form.basis(6, 0b001010)
        assert j.apply(a.wedge(b)) == j.apply(a).wedge(j.apply(b))

    @given(
        st.lists(st.tuples(st.integers(0, 63), st.integers(-3, 3), st.integers(-3, 3)), max_size=3),
        st.lists(st.tuples(st.integers(0, 63), st.integers(-3, 3), st.integers(-3, 3)), max_size=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_multiplicative_random(self, terms_a, terms_b):
        j = j_operator(builtin_model("s3xs3-nk"))
        a = Form(6, {m: Scalar(x, y, 0, 0, 1, 3) for m, x, y in terms_a})
        b = Form(6, {m: Scalar(x, 0, y, 0, 1, 3) for m, x, y in terms_b})
        assert j.apply(a.wedge(b)) == j.apply(a).wedge(j.apply(b))

    def test_eigenvalues(self, s3xs3):
        pqb = pq_basis(s3xs3)
        for p in range(4):
            for q in range(4):
                eig = I ** ((p - q) % 4)
                for mask in pqb.monomial_masks(p, q):
                    v = monomial_form(s3xs3, mask)
                    assert j_operator(s3xs3).apply(v) == v.scale(eig)

    def test_omega_fixed(self, s3xs3, torus6):
        for m in (s3xs3, torus6):
            assert j_operator(m).apply(m.omega()) == m.omega()

    def test_inverse(self, s3xs3):
        f = Form(6, {0b000111: ONE, 0b000001: I})
        assert j_inverse_apply(s3xs3, j_operator(s3xs3).apply(f)) == f

    def test_operator_matrix_matches_action(self, kodaira, s3xs3, torus6):
        for model in (kodaira, s3xs3.orthogonalized(), torus6):
            assert j_operator(model) == j_matrix(model)
        f = Form(4, {0b0011: ONE, 0b0101: I})
        assert j_operator(kodaira).apply(f) == j_apply(kodaira, f)


class TestSplit:
    def test_routes_agree_dim6(self, s3xs3, torus6, kodaira):
        for m in (s3xs3, torus6, kodaira):
            a = split_by_projectors(m)
            b = differential_split(m)
            for name in ("mu", "del", "delbar", "mubar"):
                assert a.components()[name] == b.components()[name]

    @pytest.mark.parametrize("name", [*SMALL_MODELS, "su2-four"])
    def test_conjugation_route_matches_four_derivations(self, name):
        model = _ortho(name)
        assert differential_split(model) == split_by_four_derivations(model)

    def test_total_and_conjugation(self, s3xs3):
        split = differential_split(s3xs3)
        assert split.mu + split.del_ + split.delbar + split.mubar == s3xs3.d()
        assert split.mubar == conjugate_by_store(split.mu)
        assert split.delbar == conjugate_by_store(split.del_)

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
                    for mask in pq_basis(s3xs3).monomial_masks(p, q):
                        img = op.apply(monomial_form(s3xs3, mask))
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

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_coframe_invariants_hold_on_every_column(self, name):
        # the split and d_c assert their sums on the columns of degree <= 1;
        # on every built-in the sums of the full matrices agree too
        model = builtin_model(name).orthogonalized()
        split = differential_split(model)
        parts = list(split.components().values())
        assert combination([(ONE, p) for p in parts]) == model.d()
        assert combination(list(zip((I, -I, I, -I), parts))) == d_c(model)

    @pytest.mark.parametrize("name", ["s3xs3-nk", "kodaira-thurston"])
    def test_one_changed_coframe_value_of_the_twisted_differential_raises(self, name, monkeypatch):
        import nkhodge.bidegree

        model = model_from_json(model_to_json(builtin_model(name)))
        true = twisted_differential(model)
        images = [true.column_form(1 << i) for i in range(model.dim)]
        images[2] = images[2] + Form.basis(model.dim, 0b1001)
        changed = derivation_from_one_forms(model.dim, images)
        monkeypatch.setattr(nkhodge.bidegree, "twisted_differential", lambda m: changed)
        with pytest.raises(AssertionError, match="J\\^\\{-1\\} d J disagrees"):
            d_c(model)

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

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_counting_operator_is_the_diagonal(self, name):
        # H as the Koszul sum -n + sum_i L_{u^i} iota_i, of order 1, is
        # literally the diagonal |m| - n, column and row orders included
        model = builtin_model(name).orthogonalized()
        h = counting_operator(model)
        n = model.dim // 2
        want = diagonal_operator(model.dim, lambda m: rational(m.bit_count() - n))
        assert (h.q, h.d, h.real, h.degree) == (want.q, want.d, want.real, want.degree)
        assert list(h.coords.items()) == list(want.coords.items())
        assert (h.order_bound, want.order_bound) == (1, None)

    def test_h_is_built_once_per_model(self):
        # like L and Lambda, H is memoized: every lefschetz_triple call of a
        # catalogue run shares one reconstruction
        model = model_from_json(model_to_json(builtin_model("s3xs3-nk"))).orthogonalized()
        first, second = lefschetz_triple(model), lefschetz_triple(model)
        assert all(a is b for a, b in zip(first, second))
        assert first[2] is counting_operator(model)

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
        assert named_operator(model, "lap:" + base) == commutator_by_composition(p_star, p)

    def test_unknown_name(self, torus6):
        for name in ("lambda", "adj:adj:d", "lap:", "star:d", "del-delbar", "lap:del-delbar"):
            with pytest.raises(KeyError):
                named_operator(torus6, name)

    @pytest.mark.parametrize(
        "name, calls", [("torus6", 12), ("s3xs3-nk", 18), ("kodaira-thurston", 12)]
    )
    def test_catalogue_builds_each_adjoint_once(self, name, calls, monkeypatch):
        # every module alias of adjoint records what it receives; the
        # catalogue and the Hodge table then run on a model with empty caches.
        # A memoized adjoint is built by order, so adjoint receives its
        # operand's low columns, once, the barred operands' included; the
        # order tests read full transposes (``full_adjoint``), built anew on
        # each call: d for ORDER_BRACKET and ORDER_DSTAR, L for ORDER_LB
        original = nkhodge.operators.adjoint
        received, full = [], []
        full_adjoint = nkhodge.bidegree.full_adjoint

        def recording(p, gram):
            received.append(p)
            return original(p, gram)

        def recording_full(model, base):
            full.append((base, len(received)))
            return full_adjoint(model, base)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("nkhodge"):
                if getattr(module, "adjoint", None) is original:
                    monkeypatch.setattr(module, "adjoint", recording)
                if getattr(module, "full_adjoint", None) is full_adjoint:
                    monkeypatch.setattr(module, "full_adjoint", recording_full)
        model = model_from_json(model_to_json(builtin_model(name)))
        run_suite(model, selection=sorted(CHECKS))
        if nk_report(model).nearly_kahler:
            hodge_numbers(model)
        assert len(received) == calls
        comp = model.orthogonalized()
        assert [base for base, _ in full] == ["d", "d", "L"]
        transposed = [received[i] for _, i in full]
        assert [p is named_operator(comp, base) for p, (base, _) in zip(transposed, full)] == [True] * 3
        rest = [p for i, p in enumerate(received) if i not in {j for _, j in full}]
        # zero operators of one degree are all equal (every d component on torus6)
        nonzero = [p for p in rest if not p.is_zero()]
        for a, b in itertools.combinations(nonzero, 2):
            assert not (a == b and a.degree == b.degree)
        barred = [named_operator(comp, b) for b in ("delbar", "mubar", "L_mubar_omega")]
        for b in (b for b in barred if not b.is_zero()):
            low = low_columns(b, b.order_bound)
            assert sum(p == low and p.degree == b.degree for p in nonzero) == 1

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_barred_names_are_the_conjugates_of_their_partners(self, name):
        # each barred adjoint and Laplacian, and L_mubar_omega, is built from
        # its own operand; the entry-wise conjugate of its unbarred partner's
        # Scalar store is the oracle, since the norm weights and omega are
        # real, so conj(P*) = (conj P)* and conj L_mu_omega = L_mubar_omega.
        # On su2-four that oracle is taken for L_mu_omega and its adjoint
        # only, to keep the test short, and the walk over the integer store
        # otherwise (``conjugated`` of a built store, itself checked against
        # the Scalar one in test_operator_store).  On a fresh model every
        # partner is held by its Koszul coefficients, and so is its
        # conjugate, conjugated on them (as the split's delbar and mubar
        # are): they are the barred name's coefficients, which are unique
        model = model_from_json(model_to_json(builtin_model(name))).orthogonalized()
        assert [named_operator(model, b)._coords for b in ("delbar", "mubar")] == [None, None]
        partners = {"delbar": "del", "mubar": "mu", "L_mubar_omega": "L_mu_omega"}
        pairs = [(f"{kind}:{b}", f"{kind}:{p}") for b, p in partners.items() for kind in ("adj", "lap")]
        for barred, partner in [*pairs, ("L_mubar_omega", "L_mu_omega")]:
            p, got = named_operator(model, partner), named_operator(model, barred)
            held = p.conjugated()
            if not p.real:
                assert held._coords is None and _coefficients(held) == _coefficients(got), partner
            if model.dim > 6 and partner not in ("L_mu_omega", "adj:L_mu_omega"):
                p.coords
                want = p.conjugated()
            else:
                want = conjugate_by_store(p)
            assert got == want, barred
            assert (got.q, got.d, got.degree, got.order_bound) == (held.q, held.d, held.degree, held.order_bound)
            assert (want.q, want.d, want.degree) == (got.q, got.d, got.degree)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_adjoints_by_order_are_the_full_transposes(self, name):
        # adj:<name> is rebuilt from its operand's low columns, and the store
        # is unique: it equals the full weighted transpose, with the same
        # degree and bound, and the Scalar transpose entry by entry for the
        # unbarred names; on su2-four the Scalar one for d only, to keep the
        # test short (the full transpose itself is compared with it in
        # test_operator_store)
        model = builtin_model(name).orthogonalized()
        gram = model.gram()
        for base in sorted(_BASE_OPERATORS):
            p, got = named_operator(model, base), named_operator(model, "adj:" + base)
            want = adjoint(p, gram)
            assert got == want and (got.degree, got.order_bound) == (want.degree, want.order_bound), base
            if base in (("d",) if model.dim > 6 else ("d", "mu", "del", "L", "L_mu_omega")):
                ref = scalar_adjoint(ScalarOperator(p.dim, dict(scalar_columns(p)), p.degree), gram)
                assert got == GradedOperator(ref.dim, ref.cols, ref.degree), base

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_an_operand_bound_one_too_low_changes_the_adjoint(self, name):
        # read from too few columns, every nonzero adjoint misses its top
        # Koszul coefficients: the guard that the bound is what the adjoint
        # by order rests on
        model = builtin_model(name).orthogonalized()
        gram = model.gram()
        for base in sorted(_BASE_OPERATORS):
            p = named_operator(model, base)
            if p.is_zero():
                continue
            lowered = p.with_degree(p.degree)
            lowered.order_bound = p.order_bound - 1
            assert adjoint_by_order(lowered, gram) != named_operator(model, "adj:" + base), base
