import dataclasses
import json
import random
import re

import pytest

import nkhodge.bidegree
import nkhodge.checks
import nkhodge.hodge
import nkhodge.linalg
import nkhodge.operators
from nkhodge.checks import (
    CHECKS,
    UNIVERSAL_CHECKS,
    CheckResult,
    _Acc,
    _skip_reason,
    run_check,
    run_suite,
)
from nkhodge.bidegree import (
    DifferentialSplit,
    counting_operator,
    d_c,
    differential_split,
    lefschetz_triple,
    named_operator,
    pq_basis,
    twisted_differential,
)
from nkhodge.exterior import Form, GramData, sign_key
from nkhodge.hodge import betti_numbers, degree_masks, harmonic_pq, harmonic_space, hodge_numbers, s_frame
from nkhodge.linalg import sparse_kernel
from nkhodge.models import (
    BUILTIN_NAMES,
    KODAIRA_EXPECTED_FAILURES,
    LieAlgebraModel,
    builtin_model,
    model_from_json,
    model_to_json,
    nk_report,
    product_model,
    su3_extract,
)
from nkhodge.operators import (
    GradedOperator,
    algebra_map_apply,
    algebra_map_blocks,
    bracket_columns,
    bracket_sum,
    derivation_from_one_forms,
    from_low_columns,
    graded_commutator,
    low_columns,
    reconstruct,
)
from nkhodge.scalars import I, Scalar, rational
import oracles
from oracles import (
    FullRouteAcc,
    LowColumnsAcc,
    barred_requirements,
    commutator_by_composition,
    frame_columns_by_composition,
    frame_sum_by_composition,
    hodge_abcd_by_harmonic_space,
    j_pq_every_degree,
    laplacian_of_del_minus_delbar,
    off_type_failures,
    order_det_by_forms,
    stacked_kernel_nullities,
    vanish_cor_by_store,
)
from variants import scaled_metric


class TestCatalogue:
    def test_catalogue_contents(self):
        expected = {
            "AUX_COM", "BR67", "BRACKET_PQ", "D2_SPLIT", "DC_DEF", "DC_FRAME",
            "DELTA_SUM", "DIFF_LAPL_KAHLER", "DIM6_EIGEN", "HODGE_ABCD", "J_PQ",
            "L_DELTA", "LAP_COM", "LEM_NK", "MU_ONEFORMS", "NIJ_MU", "NK_COR",
            "NK_DEF", "NK_MAIN", "NK6_VANISH", "ORDER_BRACKET", "ORDER_DET",
            "ORDER_DSTAR", "ORDER_LB", "PROP_LAP", "SL2", "SU3_STRUCT",
            "THETA_BRACKET", "TORSION_OP", "VANISH_COR",
        }
        assert set(CHECKS) == expected

    def test_unknown_check_id(self, torus6):
        with pytest.raises(KeyError):
            run_check(torus6, "NOT_A_CHECK")

    def test_default_suite_runs_every_check(self, su2four, monkeypatch):
        # no dimension threshold: the twelve-dimensional model gets the whole catalogue
        ran = []

        def stub(model, check_id):
            ran.append(check_id)
            return CheckResult(check_id, "pass", True, 0.0, None, 0.0)

        monkeypatch.setattr(nkhodge.checks, "run_check", stub)
        rep = run_suite(su2four)
        assert ran == sorted(CHECKS)
        assert [r.check_id for r in rep.results] == sorted(CHECKS)


class TestResults:
    def test_pass_iff_exact_zero(self, torus6):
        res = run_check(torus6, "SL2")
        assert res.status == "pass" and res.exact_zero
        assert res.residual_approx == 0.0
        assert res.witness is None

    def test_negative_control_witness(self, kodaira):
        res = run_check(kodaira, "NK_MAIN")
        assert res.status == "fail"
        assert not res.exact_zero
        assert res.witness is not None
        assert res.residual_approx > 0

    def test_skip_reason(self, torus6):
        res = run_check(torus6, "DIM6_EIGEN")
        assert res.status == "skip"
        assert "strict" in res.skip_reason

    def test_kahler_check_runs_on_torus(self, torus6):
        res = run_check(torus6, "DIFF_LAPL_KAHLER")
        assert res.status == "pass"

    def test_kahler_check_skipped_on_strict(self, s3xs3):
        res = run_check(s3xs3, "DIFF_LAPL_KAHLER")
        assert res.status == "skip"


class TestSuite:
    def test_s3xs3_all_pass(self, s3xs3):
        rep = run_suite(s3xs3)
        assert rep.verdict
        statuses = {r.check_id: r.status for r in rep.results}
        assert statuses["NK_MAIN"] == "pass"
        assert statuses["DIM6_EIGEN"] == "pass"
        assert statuses["DIFF_LAPL_KAHLER"] == "skip"

    def test_torus_all_pass_with_nk6_skips(self, torus6):
        rep = run_suite(torus6)
        assert rep.verdict
        skipped = {r.check_id for r in rep.results if r.status == "skip"}
        assert skipped == {"DIM6_EIGEN", "NK6_VANISH", "SU3_STRUCT", "THETA_BRACKET"}

    def test_kodaira_expected_failures_exactly_match(self, kodaira):
        rep = run_suite(kodaira)
        assert rep.verdict  # failures matched declared expectations
        failed = tuple(sorted(r.check_id for r in rep.results if r.status == "fail"))
        assert failed == tuple(sorted(KODAIRA_EXPECTED_FAILURES))

    def test_unexpected_pass_fails_verdict(self, kodaira):
        # declaring a passing check as an expected failure must flip the verdict
        rep = run_suite(kodaira, expected_failures=KODAIRA_EXPECTED_FAILURES + ("SL2",))
        assert not rep.verdict

    def test_universal_checks_pass_on_negative_control(self, kodaira):
        rep = run_suite(kodaira, selection=list(UNIVERSAL_CHECKS))
        assert rep.verdict
        assert all(r.status == "pass" for r in rep.results)

    def test_selection_order_deterministic(self, torus6):
        rep = run_suite(torus6, selection=["SL2", "D2_SPLIT"])
        assert [r.check_id for r in rep.results] == ["D2_SPLIT", "SL2"]

    def test_native_presentation_builds_only_its_coframe_data(self, s3xs3):
        # every check and table runs on the orthogonalized presentation, so a
        # coupled model itself holds only what orthogonalizing it needs
        from nkhodge.hodge import hodge_numbers
        from nkhodge.models import model_from_json, model_to_json, validate_model

        fresh = model_from_json(model_to_json(s3xs3))
        assert validate_model(fresh).ok
        rep = run_suite(fresh, selection=sorted(CHECKS))
        assert rep.verdict and len(rep.results) == 30
        assert hodge_numbers(fresh).sum_rule_holds()
        assert set(fresh._cache) <= {"gram", "d", "ortho"}

    def test_metric_scaling_preserves_verdicts(self, s3xs3):
        scaled = scaled_metric(s3xs3, rational(4))
        rep_a = run_suite(s3xs3)
        rep_b = run_suite(scaled)
        a = {r.check_id: r.status for r in rep_a.results}
        b = {r.check_id: r.status for r in rep_b.results}
        assert a == b
        assert rep_b.verdict


class TestMixedDimensionProducts:
    def test_dim8_product_universal_checks(self, kodaira):
        # a diagonal metric: the product is its own orthogonalized presentation
        from nkhodge.models import product_model, validate_model

        p = product_model(kodaira, kodaira)
        assert p.dim == 8
        assert validate_model(p).ok
        rep = run_suite(p, selection=list(UNIVERSAL_CHECKS))
        assert rep.verdict and all(r.status == "pass" for r in rep.results)

    def test_dim10_coupled_nonnk_product(self, kodaira, s3xs3):
        # a coupled metric in dimension 10, checked in its orthogonalized
        # presentation; the product is not nearly Kahler (one factor is not)
        from nkhodge.models import nearly_kahler_residual, product_model, validate_model

        p = product_model(kodaira, s3xs3)
        assert p.dim == 10
        assert validate_model(p).ok
        assert not nearly_kahler_residual(p).nearly_kahler
        rep = run_suite(p, selection=["D2_SPLIT", "NIJ_MU", "DC_DEF", "MU_ONEFORMS", "SL2"])
        assert rep.verdict and all(r.status == "pass" for r in rep.results)
        nk = run_check(p, "NK_DEF")
        assert nk.status == "fail" and nk.witness is not None


# the three six-dimensional built-ins and the dim-8 and dim-10 products of
# TestMixedDimensionProducts, each built fresh
_HODGE_ABCD_ORACLE_MODELS = {
    **{name: (lambda name=name: _fresh(name)) for name in ("torus6", "s3xs3-nk", "kodaira-thurston")},
    "kodaira-thurston^2": lambda: product_model(builtin_model("kodaira-thurston"), builtin_model("kodaira-thurston")),
    "kodaira-thurston x s3xs3-nk": lambda: product_model(builtin_model("kodaira-thurston"), builtin_model("s3xs3-nk")),
}


# every built-in and the dim-8 and dim-10 products, each built fresh
_VANISH_COR_ORACLE_MODELS = {**_HODGE_ABCD_ORACLE_MODELS, "su2-four": lambda: _fresh("su2-four")}


class TestHodgeAbcdKernel:
    @pytest.mark.parametrize("name", ["torus6", "s3xs3-nk", "kodaira-thurston"])
    def test_psd_sum_kernel_equals_stacked_kernels(self, name):
        # ker (Delta_mu + Delta_del + Delta_delbar + Delta_mubar) is the
        # intersection of the eight component kernels and of the four
        # Laplacian kernels, also where it is smaller than the harmonic
        # space, whose dimension is b_k in every degree (the Hodge theorem
        # that HODGE_ABCD reads its counts by)
        model = builtin_model(name)
        comp = model.orthogonalized()
        laps = [named_operator(comp, "lap:" + c) for c in ("mu", "del", "delbar", "mubar")]
        s_op = laps[0] + laps[1] + laps[2] + laps[3]
        betti = betti_numbers(model)
        short = []
        for k, stacked in enumerate(stacked_kernel_nullities(model)):
            masks = degree_masks(comp.dim, k)
            nullity = len(sparse_kernel(*s_op.entry_rows(masks), len(masks)))
            assert (nullity, nullity) == stacked, k
            assert len(harmonic_space(model, k)) == betti[k], k
            if nullity != betti[k]:
                short.append(k)
        assert short == ([1, 3] if name == "kodaira-thurston" else [])

    @pytest.mark.parametrize("name", sorted(_HODGE_ABCD_ORACLE_MODELS))
    def test_agrees_with_the_harmonic_space_oracle(self, name):
        model = _HODGE_ABCD_ORACLE_MODELS[name]()
        got, want = _hodge_abcd_both_routes(model)
        assert got == want
        if name == "kodaira-thurston":
            assert got[2] == "(a) harmonic 1-form escapes kernel of component 1"

    @pytest.mark.parametrize(
        "mutation, witness",
        [
            ("type-breaking S", "S preserves (0,1)"),
            ("adjoints one order too low", "(a) harmonic 1-form escapes kernel of component 0"),
        ],
    )
    def test_agrees_with_the_harmonic_space_oracle_under_a_mutation(self, mutation, witness, monkeypatch):
        # under the second, nullity(S) = [1, 6, 15, ...] against b = [1, 0,
        # 0, 2, ...], so degree 1 still takes the Delta_d kernel
        model = _fresh("s3xs3-nk")
        if mutation == "type-breaking S":
            _break_the_type_of_s(monkeypatch)
        else:
            _declare_adjoint_operands_one_order_too_low(monkeypatch)
        got, want = _hodge_abcd_both_routes(model)
        assert got == want
        assert got[:3] == ("fail", False, witness)

    def test_type_breaking_s_fails_with_the_preservation_label(self, monkeypatch):
        # L_{u^1} iota_{e_2} added to S breaks type; the containment tests
        # that run before it read harmonic_space and the component
        # Laplacians, so the first failure is the new requirement
        model = _fresh("s3xs3-nk")
        _break_the_type_of_s(monkeypatch)
        acc = _RecordingAcc()
        CHECKS["HODGE_ABCD"].fn(model.orthogonalized(), acc)
        assert acc.failed[0] == "S preserves (0,1)"
        res = run_check(model, "HODGE_ABCD")
        assert (res.status, res.witness) == ("fail", "S preserves (0,1)")

    def test_a_basis_form_off_ker_s_fails_the_containment_after_c(self, monkeypatch):
        # the h^{2,1} = 1 basis form of s3xs3-nk swapped for an eta-monomial
        # of type (2,1): every count still agrees, so the first failure is
        # the lemma's containment, tested on the basis forms after (c)
        model = _fresh("s3xs3-nk")
        target = model.orthogonalized()
        pqb = pq_basis(target)
        monomial = algebra_map_apply(pqb.generators, [Form.basis(target.dim, pqb.monomial_masks(2, 1)[0])])
        original = nkhodge.checks.harmonic_pq
        monkeypatch.setattr(
            nkhodge.checks, "harmonic_pq", lambda m, p, q: monomial if (p, q) == (2, 1) else original(m, p, q)
        )
        acc = _RecordingAcc()
        CHECKS["HODGE_ABCD"].fn(target, acc)
        assert acc.failed[0] == "(a) ker S on (2,1) escapes kernel of component 1"
        assert "(b) ker S on (2,1) escapes a component Laplacian kernel" in acc.failed
        assert acc.failed[-1] == "(d) conjugate of harmonic (2,1)-form not harmonic"

    @pytest.mark.parametrize("name", ["torus6", "s3xs3-nk", "kodaira-thurston"])
    def test_dropping_delta_mubar_is_hidden_by_an_identity(self, name, monkeypatch):
        # S without Delta_mubar gives the same HODGE_ABCD result and the same
        # Hodge table on every model tried.  The identity that hides it:
        # Delta_mubar = Delta_mu + (Delta_del - Delta_delbar)/2 (PROP_LAP) on
        # a nearly Kahler model, so the three terms left, each positive
        # semidefinite, vanish only where Delta_mubar does; mu = 0 on
        # kodaira-thurston
        text = model_to_json(builtin_model(name))
        want, true_model = run_check(model_from_json(text), "HODGE_ABCD"), model_from_json(text)
        nearly_kahler = nk_report(true_model).nearly_kahler
        table = hodge_numbers(true_model).h if nearly_kahler else None
        true_frame = s_frame(true_model)

        def without_delta_mubar(m):
            return bracket_sum([tuple(named_operator(m, n) for n in (f"adj:{c}", c)) for c in ("mu", "del", "delbar")])

        monkeypatch.setattr(nkhodge.hodge, "s_operator", without_delta_mubar)
        model = model_from_json(text)
        got = run_check(model, "HODGE_ABCD")
        assert (got.status, got.exact_zero, got.witness) == (want.status, want.exact_zero, want.witness)
        if nearly_kahler:
            assert hodge_numbers(model).h == table
        comp = model.orthogonalized()
        assert (s_frame(comp) == true_frame) == (name != "s3xs3-nk")
        d_mu, d_del, d_db, d_mb = (named_operator(comp, "lap:" + c) for c in ("mu", "del", "delbar", "mubar"))
        if name == "kodaira-thurston":
            assert d_mu.is_zero() and d_mb.is_zero()
        else:
            assert d_mb == d_mu + (d_del - d_db).scale(rational(1, 2))


class _RecordingAcc(_Acc):
    """An _Acc that keeps every operator requirement by label, the barred
    labels recorded through ``pair`` and the labels of failed
    ``require``s."""

    def __init__(self):
        super().__init__()
        self.ops = {}
        self.paired = []
        self.failed = []

    def require(self, label, ok, residual=1.0):
        if not ok:
            self.failed.append(label)
        super().require(label, ok, residual)

    def _require_zero(self, label, op):
        assert label not in self.ops, label
        self.ops[label] = op
        super()._require_zero(label, op)

    def pair(self, label, conj_label, terms):
        self.paired.append(conj_label)
        super().pair(label, conj_label, terms)


class TestBarredPairs:
    PAIRED_CHECKS = ("D2_SPLIT", "NK_COR", "LAP_COM", "AUX_COM", "BR67", "TORSION_OP")

    def test_conjugate_records_match_direct_formulas(self):
        # random mu and del over Q(i) with delbar, mubar their conjugates: no
        # identity holds, so every barred requirement is a nonzero operator
        model = model_from_json(model_to_json(builtin_model("torus6")))
        rng = random.Random(20251)
        two_masks = [m for m in range(1 << 6) if m.bit_count() == 2]

        def random_derivation():
            images = [
                Form(6, {m: Scalar(rng.randint(-3, 3), 0, rng.randint(-3, 3), 0) for m in two_masks})
                for _ in range(6)
            ]
            return derivation_from_one_forms(6, images)

        mu, de = random_derivation(), random_derivation()
        model._cache["split"] = DifferentialSplit(mu, de, de.conjugated(), mu.conjugated())
        acc = _RecordingAcc()
        for cid in self.PAIRED_CHECKS:
            CHECKS[cid].fn(model, acc)
        want = barred_requirements(model)
        assert len(want) == 20
        assert sorted(acc.paired) == sorted(want)
        for label, op in want.items():
            assert not op.is_zero(), label
            assert acc.ops[label] == op, label


class TestSelfConjugateSums:
    @pytest.mark.parametrize("name", ["torus6", "s3xs3-nk", "kodaira-thurston"])
    def test_no_conjugate_compose_pairs(self, name, monkeypatch):
        # every product a check composes, its shared builds included (a fresh
        # model per check): the entry-wise conjugate of a product comes from
        # conjugating it, never from composing the conjugate operands
        original = GradedOperator.compose
        operands = []

        def recording(p, q):
            operands.append((p, q))
            return original(p, q)

        monkeypatch.setattr(GradedOperator, "compose", recording)
        text = model_to_json(builtin_model(name))
        found, seen, calls = [], 0, 0
        for cid in sorted(CHECKS):
            model = model_from_json(text)
            operands.clear()
            run_check(model, cid)
            calls += len(operands)
            # zero operators of one degree are all equal (every d component on torus6)
            pairs = [(p, q) for p, q in operands if not (p.is_zero() or q.is_zero())]
            seen += len(pairs)
            for x, (p, q) in enumerate(pairs):
                conj = (p.conjugated(), q.conjugated())
                if conj != (p, q):
                    found += [(cid, x, y) for y in range(x + 1, len(pairs)) if pairs[y] == conj]
        # the recording is live on every model; on torus6, where d vanishes and
        # J_PQ composes nothing, no check composes a nonzero pair at all
        assert calls > 0 and found == []
        assert (seen == 0) == (name == "torus6")

    @pytest.mark.parametrize("order", [("LAP_COM", "DELTA_SUM"), ("DELTA_SUM", "LAP_COM")])
    def test_lap_com_and_delta_sum_share_x(self, order, monkeypatch):
        # X = [[delbar*, del]]: its products are computed once per model, at
        # its own r = 2, whichever of its two readers runs first, and both
        # read its Koszul coefficients
        original = nkhodge.operators.bracket_columns
        calls = []

        def recording(pairs, squares=()):
            low, r = original(pairs, squares)
            calls.append((list(pairs), r))
            return low, r

        monkeypatch.setattr(nkhodge.operators, "bracket_columns", recording)
        model = model_from_json(model_to_json(builtin_model("s3xs3-nk")))
        for cid in order:
            assert run_check(model, cid).status == "pass"
        comp = model.orthogonalized()
        x_factors = (named_operator(comp, "adj:delbar"), named_operator(comp, "del"))
        x_calls = [r for pairs, r in calls if len(pairs) == 1 and all(a is b for a, b in zip(pairs[0], x_factors))]
        assert x_calls == [2]

    @pytest.mark.parametrize("name", ["s3xs3-nk", "kodaira-thurston"])
    def test_delta_sum_matches_minor_laplacian(self, name):
        # DELTA_SUM records Delta_d - Delta_(del-delbar) - Delta_mu - Delta_mubar;
        # solve it for the Delta_(del-delbar) that the check expands
        model = builtin_model(name).orthogonalized()
        acc = _RecordingAcc()
        CHECKS["DELTA_SUM"].fn(model, acc)
        (recorded,) = acc.ops.values()
        lap_d, d_mu, d_mb = (named_operator(model, n) for n in ("lap:d", "lap:mu", "lap:mubar"))
        assert lap_d - d_mu - d_mb - recorded == laplacian_of_del_minus_delbar(model)


class TestOrderDet:
    @staticmethod
    def _flip_signs(monkeypatch):
        """A sign flipped on the columns of degree >= 3 of every store that a
        Koszul sum builds from its coefficients, so on those of d itself,
        which ORDER_DET reads in full: rebuilding d from its coframe values
        repeats the flip, the Leibniz rule does not.  A column is a dict of
        integer coordinates over the operator's denominator.  Returns the
        unflipped ``_reconstruct``."""
        original = nkhodge.operators._reconstruct

        def flipped(dim, coeffs):
            return {
                m: col if m.bit_count() < 3 else {r: (-a, -b, -c, -e) for r, (a, b, c, e) in col.items()}
                for m, col in original(dim, coeffs).items()
            }

        monkeypatch.setattr(nkhodge.operators, "_reconstruct", flipped)
        return original

    def test_detects_a_sign_flip_in_the_reconstruction_of_d(self, monkeypatch):
        original = self._flip_signs(monkeypatch)
        model = model_from_json(model_to_json(builtin_model("s3xs3-nk")))
        d = model.orthogonalized().d()
        assert run_check(model, "ORDER_DET").status == "fail"
        unflipped = original(d.dim, d._symbol)
        assert all((d.coords[m] == col) == (m.bit_count() < 3) for m, col in unflipped.items())

    def test_witness_and_residual_are_those_of_the_form_route(self, monkeypatch):
        # the check compares d's integer columns and builds the Form
        # difference only where they differ, so a failure reads as the
        # route that builds it on every basis form
        self._flip_signs(monkeypatch)
        model = model_from_json(model_to_json(builtin_model("s3xs3-nk")))
        got = run_check(model, "ORDER_DET")
        want = _Acc()
        order_det_by_forms(model.orthogonalized(), want)
        assert got.status == "fail"
        assert (got.witness, got.residual_approx) == (want.witness, want.residual)

    @pytest.mark.parametrize("name", ["torus6", "s3xs3-nk", "kodaira-thurston"])
    def test_a_passing_model_builds_no_form(self, monkeypatch, name):
        # the Form difference is built only where the integer columns differ,
        # and on a built-in they never do; the Form route agrees
        wedges = []
        wedge = Form.wedge
        monkeypatch.setattr(Form, "wedge", lambda a, b: wedges.append(1) or wedge(a, b))
        assert run_check(builtin_model(name), "ORDER_DET").status == "pass"
        assert wedges == []
        monkeypatch.undo()
        acc = _Acc()
        order_det_by_forms(builtin_model(name).orthogonalized(), acc)
        assert acc.zero


class TestOrderChecksReadTheFullTranspose:
    """An adjoint by order passes the Koszul order test by construction, so
    ORDER_DSTAR and ``nkhodge order --op dstar`` read d* as the full
    weighted transpose (``full_adjoint``)."""

    @staticmethod
    def _one_wrong_degree_three_entry(monkeypatch):
        """Each adjoint of degree -1 built in ``bidegree`` with a column of
        degree 3 gets one entry of that column off by one: the full transpose
        of d does, while the adjoint by order transposes d's columns of
        degree <= 1 only and reads no such column."""
        original = nkhodge.bidegree.adjoint

        def mutated(p, gram):
            out = original(p, gram)
            column = next((m for m in sorted(out.coords) if m.bit_count() == 3), None)
            if out.degree != -1 or column is None:
                return out
            row = min(out.coords[column])
            return out + GradedOperator(out.dim, {column: {row: Scalar(1, 0, 0, 0)}}, -1)

        monkeypatch.setattr(nkhodge.bidegree, "adjoint", mutated)

    def test_order_dstar_and_the_cli_fail(self, monkeypatch, capsys):
        from nkhodge.cli import main

        self._one_wrong_degree_three_entry(monkeypatch)
        model = _fresh("s3xs3-nk")
        result = run_check(model, "ORDER_DSTAR")
        assert (result.status, result.witness) == ("fail", "order(d*) <= 2")
        # the catalogue's d* by order is the true one
        assert run_check(model, "NK_MAIN").status == "pass"
        assert main(["order", "builtin:s3xs3-nk", "--op", "dstar", "--max", "2", "--report", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["order_at_most"] == {"0": False, "1": False, "2": False}

    def test_order_bracket_fails(self, monkeypatch):
        # [[d*, L]] composed from the full transpose carries the entry off, in
        # a column of degree 3 + 2, where the reconstruction from the columns
        # of degree <= 1 has none
        self._one_wrong_degree_three_entry(monkeypatch)
        result = run_check(_fresh("s3xs3-nk"), "ORDER_BRACKET")
        assert (result.status, result.witness) == ("fail", "order([d*,L]) <= 1")

    def test_order_lb_fails_with_one_entry_off_in_a_degree_three_column(self, monkeypatch):
        # Lambda as the full transpose of L with one entry of its first column
        # of degree 3 off by one: the reconstruction from its columns of
        # degree <= 2 does not have it; Lambda_{u^1} is untouched
        original = nkhodge.checks.full_adjoint

        def mutated(model, base):
            out = original(model, base)
            if base != "L":
                return out
            column = next(m for m in sorted(out.coords) if m.bit_count() == 3)
            entry = {column: {min(out.coords[column]): Scalar(1, 0, 0, 0)}}
            return out + GradedOperator(out.dim, entry, out.degree)

        monkeypatch.setattr(nkhodge.checks, "full_adjoint", mutated)
        result = run_check(_fresh("s3xs3-nk"), "ORDER_LB")
        assert (result.status, result.witness, result.residual_approx) == ("fail", "order(Lambda_omega) <= 2", 1.0)


def _fresh(name):
    """A built-in model with no memo, not the shared cached instance."""
    return model_from_json(model_to_json(builtin_model(name)))


def _difference_laplacian(model):
    return named_operator(model, "lap:L_mu_omega") - named_operator(model, "lap:L_mubar_omega")


def _type_breaking_extra(model):
    """L_{u^1} iota_{e_2} (u^2 -> u^1, degree 0), real; J pairs u^1 with u^4
    and u^2 with u^5 on s3xs3-nk, so it breaks type."""
    return reconstruct(model.dim, {0b10: Form.basis(model.dim, 0b1)}, 0)


def _break_the_type_of_s(monkeypatch):
    """S plus ``_type_breaking_extra`` in ``s_operator``, on any model."""
    original = nkhodge.hodge.s_operator

    def mutated(m):
        return original(m) + _type_breaking_extra(m)

    monkeypatch.setattr(nkhodge.hodge, "s_operator", mutated)


def _declare_adjoint_operands_one_order_too_low(monkeypatch):
    """Every adjoint by order rebuilt from its operand with the order bound
    declared one too low (a bound of 0 is kept)."""
    original = nkhodge.bidegree.adjoint_by_order

    def one_too_low(p, gram):
        if p.order_bound:
            p = p.with_degree(p.degree)
            p.order_bound -= 1
        return original(p, gram)

    monkeypatch.setattr(nkhodge.bidegree, "adjoint_by_order", one_too_low)


def _hodge_abcd_both_routes(model):
    """(status, exact_zero, witness, residual) of HODGE_ABCD and of the
    oracle that lists the Delta_d kernel of every degree, on one model."""
    res = run_check(model, "HODGE_ABCD")
    acc = _Acc()
    hodge_abcd_by_harmonic_space(model.orthogonalized(), acc)
    want = ("pass" if acc.zero else "fail", acc.zero, acc.witness, acc.residual)
    return (res.status, res.exact_zero, res.witness, res.residual_approx), want


def _mutate_low_columns(monkeypatch, extra):
    """``operators.bracket_columns`` with ``extra`` added to the low columns
    it returns, for every bracket built after.  For an imaginary ``extra``
    of degree 0, as below, VANISH_COR's difference [[L_mu_omega*,
    L_mu_omega]] - conj gains 2 extra, and S = X + conj X, the operator of
    ``harmonic_pq``, does not change."""
    original = nkhodge.operators.bracket_columns

    def mutated(pairs, squares=()):
        low, r = original(pairs, squares)
        return low + extra, r

    monkeypatch.setattr(nkhodge.operators, "bracket_columns", mutated)


def _spy_e_blocks(monkeypatch, pqb):
    """The degree of every block of E that ``PQBasis.frame`` builds,
    in order (the type route's ``algebra_map_apply`` passes masks, the
    frame does not)."""
    seen = []
    original = nkhodge.bidegree.algebra_map_blocks

    def spy(dim, images, masks=None):
        for k, block in enumerate(original(dim, images, masks)):
            if masks is None and images is pqb.generators:
                seen.append(k)
            yield block

    monkeypatch.setattr(nkhodge.bidegree, "algebra_map_blocks", spy)
    return seen


class TestVanishCor:
    """VANISH_COR reads type preservation off the rows of the difference
    Laplacian's matrix in the eta-monomial basis; the oracle runs
    ``off_type`` on the image of every eta-monomial."""

    @staticmethod
    def _type_failures(model):
        acc = _RecordingAcc()
        CHECKS["VANISH_COR"].fn(model, acc)
        return [label for label in acc.failed if label.startswith("difference Laplacian preserves")]

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_commutator_matches_off_type_oracle(self, name):
        model = builtin_model(name).orthogonalized()
        assert self._type_failures(model) == off_type_failures(model, _difference_laplacian(model))

    def test_type_breaking_mutation_fails_with_the_oracle_labels(self, monkeypatch):
        # L_{u^1} iota_{e_2} (u^2 -> u^1, degree 0) added to the difference
        # Laplacian that the check reads; J pairs u^1 with u^4 and u^2 with
        # u^5, so it breaks type
        model = _fresh("s3xs3-nk")
        target = model.orthogonalized()
        extra = reconstruct(target.dim, {0b10: Form.basis(target.dim, 0b1)}, 0)
        want = off_type_failures(target, _difference_laplacian(target) + extra)
        assert len(want) == 14  # every type but (0,0) and (3,3)
        original = nkhodge.checks._difference_laplacian

        def mutated(m):
            return original(m) + extra

        monkeypatch.setattr(nkhodge.checks, "_difference_laplacian", mutated)
        assert self._type_failures(target) == want
        res = run_check(model, "VANISH_COR")
        assert res.status == "fail" and res.witness == want[0]

    def test_imaginary_type_breaking_mutation_fails_with_the_oracle_labels(self, monkeypatch):
        # i L_{u^1} iota_{e_2} added to the low columns of [[L_mu_omega*,
        # L_mu_omega]], so its conjugate to those of Delta_{L_mubar omega}:
        # the difference gains 2i L_{u^1} iota_{e_2}, of order 1, so it stays
        # imaginary and of order <= 2 and breaks type
        model = _fresh("s3xs3-nk")
        target = model.orthogonalized()
        extra = _type_breaking_extra(target).scale(I)
        want = off_type_failures(target, _difference_laplacian(target) + extra.scale(rational(2)))
        assert len(want) == 14  # every type but (0,0) and (3,3)
        _mutate_low_columns(monkeypatch, extra)
        assert self._type_failures(target) == want
        res = run_check(model, "VANISH_COR")
        assert res.status == "fail" and res.witness == want[0]

    @pytest.mark.parametrize("name", sorted(_VANISH_COR_ORACLE_MODELS))
    def test_agrees_with_the_store_oracle(self, name):
        got, want = _vanish_cor_both_routes(_VANISH_COR_ORACLE_MODELS[name]())
        assert got == want

    def test_a_coefficient_moved_off_type_fails_both_routes(self, monkeypatch):
        # one Koszul coefficient entry u^b of the difference frame's beta_J
        # moved to a mask of the same degree and another type: the frame
        # stays of degree 0 and order <= 2 and no longer preserves type
        model = _fresh("s3xs3-nk")
        target = model.orthogonalized()
        _count_every_h_pq(target)  # the S frame is built before the mutation
        original = nkhodge.bidegree.PQBasis.frame

        def mutated(pqb, op):
            return _move_one_coefficient_off_type(original(pqb, op), pqb.n)

        monkeypatch.setattr(nkhodge.bidegree.PQBasis, "frame", mutated)
        got, want = _vanish_cor_both_routes(model)
        assert got == want
        assert got[0] == "fail" and got[2].startswith("difference Laplacian preserves (")

    def test_a_nonzero_h_where_the_difference_is_invertible_fails_both_routes(self, monkeypatch):
        model = _fresh("s3xs3-nk")
        target = model.orthogonalized()
        _count_every_h_pq(target)
        pqb = pq_basis(target)
        frame = pqb.frame(nkhodge.checks._difference_laplacian(target))
        types = [(p, q) for p in range(pqb.n + 1) for q in range(pqb.n + 1)]
        invertible = [
            pq for pq in types
            if len(nkhodge.linalg.pivot_columns(*frame.entry_rows(pqb.monomial_masks(*pq)))) == len(pqb.monomial_masks(*pq))
        ]
        assert invertible and all(nkhodge.hodge.h_pq(target, *pq) == 0 for pq in invertible)
        forced_at = invertible[0]
        true_h_pq = nkhodge.hodge.h_pq

        def forced(m, p, q):
            return 1 if (p, q) == forced_at else true_h_pq(m, p, q)

        for module in (nkhodge.checks, oracles):
            monkeypatch.setattr(module, "h_pq", forced)
        got, want = _vanish_cor_both_routes(model)
        assert got == want
        assert got[:3] == ("fail", False, "invertible difference on ({},{}) forces h = 0".format(*forced_at))


def _count_every_h_pq(model):
    n = model.dim // 2
    for p in range(n + 1):
        for q in range(n + 1):
            nkhodge.hodge.h_pq(model, p, q)


def _move_one_coefficient_off_type(frame, n):
    """The frame held by its Koszul coefficients with the first entry u^b,
    b nonempty, of a beta_J moved to b', one bit of b swapped for its
    partner in the other half of the eta-monomial bits, where b' is no
    entry of beta_J yet: same degree, another type."""
    symbol = [(jm, list(form)) for jm, form in frame._symbol]
    for jm, form in symbol:
        taken = {bm for bm, *_ in form}
        for k, (bm, _, u, neg) in enumerate(form):
            for i in range(2 * n):
                partner = i + n if i < n else i - n
                moved = bm ^ (1 << i) ^ (1 << partner)
                if bm >> i & 1 and not bm >> partner & 1 and moved not in taken:
                    form[k] = (moved, sign_key(moved) ^ sign_key(jm), u, neg)
                    return nkhodge.operators._koszul_sum(frame.dim, symbol, frame.q, frame.d, frame.degree)
    raise AssertionError("no coefficient entry to move")


def _vanish_cor_both_routes(model):
    """(status, exact_zero, witness, residual) of VANISH_COR and of the
    oracle that builds the frame's store and ranks every type's block."""
    res = run_check(model, "VANISH_COR")
    acc = _Acc()
    vanish_cor_by_store(model.orthogonalized(), acc)
    want = ("pass" if acc.zero else "fail", acc.zero, acc.witness, acc.residual)
    return (res.status, res.exact_zero, res.witness, res.residual_approx), want


# the operators whose eta-frame matrices DIM6_EIGEN and VANISH_COR read, and
# the order bound each carries
_FRAME_OPERATORS = {
    "Delta_L_mu_omega": (lambda m: named_operator(m, "lap:L_mu_omega"), 2),
    "diff": (_difference_laplacian, 2),
    "Delta_del - Delta_delbar": (lambda m: named_operator(m, "lap:del") - named_operator(m, "lap:delbar"), 2),
    "L": (lambda m: named_operator(m, "L"), 0),
    "[[mubar,mu]]": (lambda m: graded_commutator(*(named_operator(m, n) for n in ("mubar", "mu"))), 1),
}


def _in_frame(model, op):
    """The columns of F op E as DIM6_EIGEN reads them: ``PQBasis.frame``,
    which reads the operator's own bound."""
    return pq_basis(model).frame(op).cols


class TestInFrame:
    """``PQBasis.frame`` composes the blocks of degree <= r of an operator
    of order <= r and rebuilds the frame by one reconstruction; the oracle
    composes every column."""

    @pytest.mark.parametrize(
        "name, label",
        [(n, label) for n in BUILTIN_NAMES for label in _FRAME_OPERATORS if n != "su2-four" or label == "diff"],
    )
    def test_matches_every_column_composed(self, name, label):
        model = builtin_model(name).orthogonalized()
        op = _FRAME_OPERATORS[label][0](model)
        assert _in_frame(model, op) == frame_columns_by_composition(model, op)

    def test_every_frame_operator_carries_its_bound(self):
        # on s3xs3-nk each operator above is nonzero and bounded, so each
        # takes the order route
        model = builtin_model("s3xs3-nk").orthogonalized()
        for build, bound in _FRAME_OPERATORS.values():
            op = build(model)
            assert not op.is_zero()
            assert op.order_bound == bound

    def test_the_frame_needs_an_order_bound(self, monkeypatch):
        # r is the operator's bound: diff, bounded by 2, is multiplied on
        # the 22 columns of E of degree <= 2 only, reading its own columns
        # of degree <= 2, so its store is never built, and the frame is
        # still whole; the same matrix through the constructor carries no
        # bound, and the frame refuses it
        model = builtin_model("s3xs3-nk").orthogonalized()
        pqb = pq_basis(model)
        diff = nkhodge.checks._difference_laplacian(model)
        assert (diff.order_bound, diff._coords) == (2, None)
        original = GradedOperator._times_columns
        columns = []

        def recording(p, q, cols, order_bound=None):
            if p is diff:
                columns.extend(cols)
            return original(p, q, cols, order_bound)

        monkeypatch.setattr(GradedOperator, "_times_columns", recording)
        got = pqb.frame(diff).cols
        assert sorted(columns) == [m for m in range(64) if m.bit_count() <= 2]
        assert diff._coords is None
        monkeypatch.undo()
        assert got == frame_columns_by_composition(model, diff)
        unbounded = GradedOperator(model.dim, diff.cols, diff.degree)
        assert unbounded.order_bound is None
        with pytest.raises(TypeError):
            pqb.frame(unbounded)


class TestDcFrame:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_koszul_frame_sum_matches_composition(self, name):
        model = builtin_model(name).orthogonalized()
        assert nkhodge.checks._frame_sum(model) == frame_sum_by_composition(model)


def _composed(pairs, squares):
    """A sum of brackets and odd squares with every product composed."""
    terms = [commutator_by_composition(p, q) for p, q in pairs] + [p.compose(p) for p in squares]
    return sum(terms[1:], terms[0])


class TestBracketsByOrder:
    """Every bracket, Laplacian and sum of brackets the catalogue builds by
    order is literally its composition."""

    @pytest.mark.parametrize("name", ["torus6", "kodaira-thurston", "s3xs3-nk"])
    def test_every_catalogue_bracket_matches_its_composition(self, name, monkeypatch):
        # every bracket goes through bracket_columns at its own r, by
        # bracket_sum (graded_commutator, laplacian): a requirement's term, a
        # named Laplacian and a frame's operand; the columns it computes are
        # those of the composition, which is their reconstruction
        original = nkhodge.operators.bracket_columns
        built = []

        def recording(pairs, squares=()):
            low, got_r = original(pairs, squares)
            built.append((list(pairs), list(squares), low, got_r))
            return low, got_r

        # bracket_sum looks bracket_columns up in operators
        monkeypatch.setattr(nkhodge.operators, "bracket_columns", recording)
        expected = KODAIRA_EXPECTED_FAILURES if name == "kodaira-thurston" else ()
        assert run_suite(_fresh(name), expected_failures=expected).verdict
        assert len(built) > 30
        for pairs, squares, low, got_r in built:
            assert None not in [op.order_bound for pair in pairs for op in pair] + [p.order_bound for p in squares]
            assert got_r == nkhodge.operators.bracket_order(pairs, squares)
            want = _composed(pairs, squares)
            assert low == low_columns(want, got_r) and low.degree == want.degree
            assert from_low_columns(low, got_r) == want

    def test_su2_four_brackets_match_their_compositions(self):
        model = builtin_model("su2-four").orthogonalized()
        d, dstar, l_op, lm, lms = (
            named_operator(model, n) for n in ("d", "adj:d", "L", "L_mu_omega", "adj:L_mu_omega")
        )
        assert named_operator(model, "lap:d") == commutator_by_composition(dstar, d)
        assert nkhodge.checks.br(dstar, l_op) == commutator_by_composition(dstar, l_op)
        d_lm = commutator_by_composition(lms, lm)
        assert named_operator(model, "lap:L_mu_omega") == d_lm
        assert _difference_laplacian(model) == d_lm - d_lm.conjugated()


# the checks whose requirements are operator sums, recorded through _Acc.op
# and _Acc.pair; every other check records forms, scalars and booleans only
_REQUIREMENT_CHECKS = (
    "AUX_COM", "BR67", "D2_SPLIT", "DC_DEF", "DC_FRAME", "DELTA_SUM", "DIFF_LAPL_KAHLER", "L_DELTA",
    "LAP_COM", "NIJ_MU", "NK_COR", "NK_MAIN", "PROP_LAP", "SL2", "THETA_BRACKET", "TORSION_OP",
)


def _recording(route):
    """The accumulator class ``route`` keeping, in order, the label of every
    requirement it decides and every failure as (witness, residual)."""

    class Recording(route):
        def __init__(self):
            super().__init__()
            self.labels, self.failures = [], []

        def op(self, label, terms):
            self.labels.append(label)
            super().op(label, terms)

        def pair(self, label, conj_label, terms):
            self.labels += [label, conj_label]
            super().pair(label, conj_label, terms)

        def _fail(self, witness, residual):
            self.failures.append((witness, residual))
            super()._fail(witness, residual)

    return Recording


# the production route and its two oracles: the rule of low columns, and
# every sum merged on full stores
_ROUTES = {"coefficients": _Acc, "low columns": LowColumnsAcc, "full": FullRouteAcc}


def _routes(model):
    """route -> check id -> (labels, failures, exact zero, witness,
    residual) of each applicable requirement check on an orthogonalized
    model: each requirement's label, and its witness and residual where it
    fails, in the order the check decides them.  Every sum of the full
    route is merged on stores."""
    ids = [cid for cid in _REQUIREMENT_CHECKS if _skip_reason(model, CHECKS[cid]) is None]
    out = {}
    for route, acc_class in _ROUTES.items():
        out[route] = {}
        for cid in ids:
            acc = _recording(acc_class)()
            CHECKS[cid].fn(model, acc)
            out[route][cid] = (acc.labels, acc.failures, acc.zero, acc.witness, acc.residual)
            if route == "full":
                assert len(acc.sums) == len(acc.labels) and all(op._symbol is None for op in acc.sums)
    return out


class TestRequirementsByOrder:
    """Every requirement sum c_i T_i is held by the summed Koszul
    coefficients of its terms, decided by whether any is left, and its
    store is built only when it fails.  Two oracles decide each one too:
    on its columns of degree <= R, R the largest order bound of its terms
    (``LowColumnsAcc``), and on full stores (``FullRouteAcc``)."""

    def test_the_requirement_checks_are_those_that_record_operators(self):
        # on s3xs3-nk every check but the Kahler one applies: 60 requirements
        class Counting(_Acc):
            def _require_zero(self, label, op):
                counts[cid] = counts.get(cid, 0) + 1
                super()._require_zero(label, op)

        model = builtin_model("s3xs3-nk").orthogonalized()
        counts = {}
        for cid in sorted(CHECKS):
            if _skip_reason(model, CHECKS[cid]) is None:
                CHECKS[cid].fn(model, Counting())
        assert sorted(counts) == sorted(set(_REQUIREMENT_CHECKS) - {"DIFF_LAPL_KAHLER"})
        assert sum(counts.values()) == 60
        # a term held by no Koszul coefficients, such as one through the
        # constructor, which carries no bound, makes the sum one of full
        # stores, decided as well
        lap = named_operator(model, "lap:mu")
        unbounded = GradedOperator(model.dim, lap.cols, lap.degree)
        sums = []

        class Keeping(_Acc):
            def _require_zero(self, label, op):
                sums.append(op)
                super()._require_zero(label, op)

        acc = Keeping()
        acc.op("zero", [(rational(1), lap), (rational(-1), unbounded)])
        acc.op("twice", [(rational(1), lap), (rational(1), unbounded)])
        assert [(op._symbol, op.order_bound) for op in sums] == [(None, None), (None, None)]
        assert sums[0].is_zero() and sums[1] == lap.scale(rational(2))
        assert acc.witness == "twice: " + lap.scale(rational(2)).first_witness()

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_matches_the_full_matrix_route(self, name):
        # every requirement's label, witness and residual, and each check's
        # status, alike on the three routes; kodaira-thurston fails eight of
        # these checks, with the golden witnesses
        routes = _routes(builtin_model(name).orthogonalized())
        new = routes["coefficients"]
        assert new == routes["low columns"] == routes["full"]
        failing = sorted(cid for cid, outcome in new.items() if not outcome[2])
        if name == "kodaira-thurston":
            assert failing == ["DC_FRAME", "DELTA_SUM", "LAP_COM", "L_DELTA", "NK_COR", "NK_MAIN", "PROP_LAP", "TORSION_OP"]
            assert new["NK_MAIN"][3] == "[d*,L] + d^c - 3i(mu-mubar): column 1, row e4: 1"
        else:
            assert failing == []

    @pytest.mark.parametrize("name", ["kodaira-thurston^2", "kodaira-thurston x s3xs3-nk"])
    def test_the_three_routes_agree_on_the_products(self, name):
        # the dim-8 and dim-10 products of TestMixedDimensionProducts: neither
        # is nearly Kahler, so the nk checks fail on some requirements
        routes = _routes(_HODGE_ABCD_ORACLE_MODELS[name]().orthogonalized())
        assert routes["coefficients"] == routes["low columns"] == routes["full"]
        outcomes = routes["coefficients"].values()
        assert sum(len(labels) for labels, *_ in outcomes) > 50
        assert any(failures for _, failures, *_ in outcomes)

    def test_a_sign_flipped_in_mu_fails_alike_on_both_routes(self):
        # mu(u^1) negated, mubar its conjugate, every operator built from
        # them after: each requirement check but SL2 fails, on all three
        # routes with the same witness and residual for every requirement.
        # d^c, the nearly Kahler report and the SU(3) data are built first,
        # from the true split.
        model = _fresh("s3xs3-nk").orthogonalized()
        d_c(model), nk_report(model), nkhodge.checks._su3(model)
        split = differential_split(model)
        images = [split.mu.column_form(1 << i) for i in range(model.dim)]
        assert not images[0].is_zero()
        images[0] = images[0].scale(rational(-1))
        mu = derivation_from_one_forms(model.dim, images)
        model._cache["split"] = DifferentialSplit(mu, split.del_, split.delbar, mu.conjugated())
        routes = _routes(model)
        new = routes["coefficients"]
        assert new == routes["low columns"] == routes["full"]
        assert [cid for cid, outcome in new.items() if outcome[2]] == ["SL2"]
        assert new["D2_SPLIT"][3] == "[[del,mu]]: column e2, row e2^e3^e6: -1/12-1/36*w*I"
        assert new["NK_MAIN"][3] == "[d*,L] + d^c - 3i(mu-mubar): column e1, row e2^e6: 1*w"

    def test_adjoints_declared_one_order_too_low(self, monkeypatch):
        # every memoized adjoint is rebuilt from its operand's columns of
        # degree <= the operand's bound (``adjoint_by_order``); with that
        # bound declared one too low, the adjoints of d and of its four
        # components miss their top Koszul coefficients (those of L and
        # L_mu_omega, bounded by 0, are kept), and so does everything built
        # from them: ten checks fail, each at its first broken requirement.
        # The ORDER_* checks read the full transposes and pass
        _declare_adjoint_operands_one_order_too_low(monkeypatch)
        failed = {r.check_id: r.witness for r in run_suite(_fresh("s3xs3-nk")).results if r.status == "fail"}
        assert sorted(failed) == [
            "AUX_COM", "DIM6_EIGEN", "HODGE_ABCD", "L_DELTA", "NK6_VANISH",
            "NK_COR", "NK_MAIN", "PROP_LAP", "TORSION_OP", "VANISH_COR",
        ]
        assert failed["NK_MAIN"] == "[d*,L] + d^c - 3i(mu-mubar): column e1, row e2^e3: 2/3*w"
        assert failed["L_DELTA"] == (
            "[L,Delta_d] - 2i del^2 + ([[mu*,L_mu_omega]] + [[mubar*,L_mubar_omega]]) + 2i delbar^2: "
            "column e1, row e1^e2^e5: -1/9*w"
        )
        assert failed["PROP_LAP"] == (
            "[[mubar,mu]] + (i/3)[[mu*,L_mu_omega]] - (i/3)[[mubar*,L_mubar_omega]]: column e1, row e2^e4^e5: 1/6"
        )
        assert failed["TORSION_OP"] == "[L_mu_omega*, L] + 3mu*: column e1^e2, row e3: 1/2"
        assert failed["HODGE_ABCD"] == "(a) harmonic 1-form escapes kernel of component 0"
        assert failed["VANISH_COR"] == "invertible difference on (0,1) forces h = 0"

    def test_a_wrong_norm_weight_in_d_star(self, monkeypatch):
        # adj:d alone rebuilt over a metric whose norm weight w(u^1) is
        # doubled, every other operator true: HODGE_ABCD reads d* in (d)
        # only, since it takes no Delta_d kernel where its counts agree, and
        # still fails there; so do the three checks that read d* or Delta_d
        # in their requirements.  ORDER_DSTAR reads the full transpose
        model = _fresh("s3xs3-nk")
        target = model.orthogonalized()
        d = target.d()
        original = nkhodge.bidegree.adjoint_by_order

        def wrong_weight(p, gram):
            if p is d:
                gram = GramData(gram.g)
                for m in range(1 << gram.dim):
                    gram.weight(m)
                gram._w[1] = gram._w[1] * rational(2)
            return original(p, gram)

        monkeypatch.setattr(nkhodge.bidegree, "adjoint_by_order", wrong_weight)
        failed = {r.check_id: r.witness for r in run_suite(model).results if r.status == "fail"}
        assert failed == {
            "DELTA_SUM": "Delta_d - Delta_(del-delbar) - Delta_mu - Delta_mubar: column e1, row e1: 16/9",
            "HODGE_ABCD": "(d) conjugate of harmonic (1,2)-form not harmonic",
            "L_DELTA": (
                "[L,Delta_d] - 2i del^2 + ([[mu*,L_mu_omega]] + [[mubar*,L_mubar_omega]]) + 2i delbar^2: "
                "column 1, row e1^e4: -2/3*w"
            ),
            "NK_MAIN": "[d*,L] + d^c - 3i(mu-mubar): column e2, row e1^e3: 1/3*w",
        }

    @pytest.mark.parametrize("name", ["torus6", "s3xs3-nk", "kodaira-thurston"])
    def test_only_a_failing_requirement_is_rebuilt(self, name, monkeypatch):
        # a requirement held by Koszul coefficients is decided on them; only a
        # failing one builds its store, for its witness and residual, by at
        # most one scatter of the coefficients (a barred partner conjugates
        # the store of its unbarred half)
        scatters, decided, failed = [], [], []
        reconstruct, require, fail = nkhodge.operators._reconstruct, _Acc._require_zero, _Acc._fail

        def recording(dim, coeffs):
            scatters.append(dim)
            return reconstruct(dim, coeffs)

        def requiring(self, label, op):
            held, before = op._coords is None, len(scatters)
            require(self, label, op)
            decided.append((label, held, op._coords is not None, len(scatters) - before))

        def failing(self, witness, residual):
            if ": column " in witness:
                failed.append(witness.partition(": column ")[0])
            fail(self, witness, residual)

        monkeypatch.setattr(nkhodge.operators, "_reconstruct", recording)
        monkeypatch.setattr(_Acc, "_require_zero", requiring)
        monkeypatch.setattr(_Acc, "_fail", failing)
        expected = KODAIRA_EXPECTED_FAILURES if name == "kodaira-thurston" else ()
        assert run_suite(_fresh(name), expected_failures=expected).verdict
        held = [(label, built) for label, was_held, built, _ in decided if was_held]
        assert held and held == [(label, label in failed) for label, _ in held]
        assert all(n <= (label in failed) for label, _, _, n in decided)
        assert (len(failed) > 0) == (name == "kodaira-thurston")


class TestCostGuards:
    def test_su2_four_sl2_d2_split_and_nk_main_rebuild_nothing(self, monkeypatch):
        # once the shared builds exist (the split, adj:d, L, Lambda, H, d^c),
        # the three checks decide every requirement on its Koszul
        # coefficients: each of their 8 brackets is held by the Koszul
        # integral of its products (``operators.from_low_columns``), and
        # there is no store scatter
        model = _fresh("su2-four")
        target = model.orthogonalized()
        lefschetz_triple(target), named_operator(target, "adj:d"), d_c(target)
        calls = []

        def spy(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)

            return wrapped

        for name in ("from_low_columns", "_reconstruct"):
            monkeypatch.setattr(nkhodge.operators, name, spy(f"nkhodge.operators.{name}", getattr(nkhodge.operators, name)))
        for cid in ("SL2", "D2_SPLIT", "NK_MAIN"):
            assert run_check(model, cid).status == "pass"
        assert calls == ["nkhodge.operators.from_low_columns"] * 8

    def test_hodge_numbers_maps_no_form_back(self, monkeypatch):
        # the table counts the kernels in the orthogonalized presentation; its
        # entries are the numbers of harmonic forms mapped back
        model = _fresh("s3xs3-nk")
        assert model.orthogonalized() is not model
        original = LieAlgebraModel.to_native
        calls = []

        def counting(self, form):
            calls.append(form)
            return original(self, form)

        monkeypatch.setattr(LieAlgebraModel, "to_native", counting)
        table = hodge_numbers(model).h
        assert calls == []
        assert table == [[len(harmonic_pq(model, p, q)) for q in range(4)] for p in range(4)]
        assert len(calls) == sum(map(sum, table)) == 4

    def test_nk_residual_builds_no_nabla_operator(self):
        # nabla omega is one lazy derivation action applied to omega; no
        # route builds the 2^dim-column operators nabla_i
        model = _fresh("s3xs3-nk")
        assert nk_report(model).nearly_kahler
        assert run_check(model, "NK_DEF").status == "pass"
        target = model.orthogonalized()
        for cache in (model._cache, target._cache):
            assert not [key for key in cache if re.fullmatch(r"nabla\d+", key)]
        assert {f"nabla_omega{i}" for i in range(target.dim)} <= set(target._cache)

    def test_dc_frame_builds_no_nabla_operator(self):
        # the frame sum is one Koszul reconstruction from the coframe values
        model = _fresh("s3xs3-nk")
        assert run_check(model, "DC_FRAME").status == "pass"
        for cache in (model._cache, model.orthogonalized()._cache):
            assert not [key for key in cache if re.fullmatch(r"nabla\d+", key)]

    def test_vanish_cor_memoizes_neither_d_j_nor_the_commutator(self, monkeypatch):
        # the check works in the eta-frame: it builds no derivation, holds one
        # commutator, X = [[L_mu_omega*, L_mu_omega]], by its Koszul
        # coefficients and never builds its store (X - conj X is summed on
        # their coefficients), and keeps no frame
        model = _fresh("s3xs3-nk")
        target = model.orthogonalized()
        called = []

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                called.append((name, args, out))
                return out

            return wrapped

        for name in ("derivation_from_one_forms", "br"):
            monkeypatch.setattr(nkhodge.checks, name, spy(name, getattr(nkhodge.checks, name)))
        before = {id(cache): set(cache) for cache in (model._cache, target._cache)}
        assert run_check(model, "VANISH_COR").status == "pass"
        [(name, args, x)] = called
        operands = [named_operator(target, n) for n in ("adj:L_mu_omega", "L_mu_omega")]
        assert name == "br" and [a is b for a, b in zip(args, operands)] == [True, True]
        assert x._coords is None
        frames = _frame_blocks(pq_basis(target))
        added = [
            cache[key] for cache in (model._cache, target._cache) for key in set(cache) - before[id(cache)]
        ]
        assert added
        for value in added:
            assert not (isinstance(value, GradedOperator) and any(value == op for op in frames))

    def test_vanish_cor_builds_the_e_blocks_of_degree_at_most_two(self, monkeypatch):
        # the difference Laplacian and S have order <= 2: E is built up to
        # degree 2 and no further, for the difference's frame and then for
        # the S frame that harmonic_pq reads and keeps, also when a mutation
        # of order 1 breaks type
        model = _fresh("s3xs3-nk")
        seen = _spy_e_blocks(monkeypatch, pq_basis(model.orthogonalized()))
        assert run_check(model, "VANISH_COR").status == "pass"
        assert seen == [0, 1, 2, 0, 1, 2]
        seen.clear()
        _mutate_low_columns(monkeypatch, _type_breaking_extra(model.orthogonalized()).scale(I))
        assert run_check(model, "VANISH_COR").status == "fail"
        assert seen == [0, 1, 2]

    def test_su2_four_operators_build_no_operand_store(self):
        # SL2, D2_SPLIT, NK_MAIN and ORDER_DSTAR on a fresh su2-four, shared
        # builds included, read H and J^{-1} d J only through some of their
        # columns, each summed from the Koszul coefficients: neither store is
        # built
        model = _fresh("su2-four")
        assert run_suite(model, ["SL2", "D2_SPLIT", "NK_MAIN", "ORDER_DSTAR"]).verdict
        target = model.orthogonalized()
        assert (counting_operator(target)._coords, twisted_differential(target)._coords) == (None, None)

    def test_su2_four_catalogue_composes_little(self, catalogue_run):
        # every bracket and frame of bounded order goes by order, validation
        # takes d d by order too, and J_PQ reads J on the generators only:
        # what is left is the frame blocks of degree <= 2 and ORDER_BRACKET's
        # [[d*, L]], which is composed in full, with d* the full transpose
        # (``full_adjoint``), not the memoized adjoint by order
        run = catalogue_run("su2-four")
        model, calls = run.model, run.composed
        assert run.verdict
        assert len(calls) <= 14
        target = model.orthogonalized()
        dstar, l_op = named_operator(target, "adj:d"), named_operator(target, "L")
        factors = [q if p is l_op else p for p, q in calls if (p is l_op) != (q is l_op)]
        assert len(factors) == 2 and factors[0] is factors[1]
        assert factors[0] is not dstar and factors[0] == dstar

    def test_su2_four_hodge_abcd_takes_no_delta_d_kernel(self, catalogue_run):
        # nullity(S) = b_k in every degree, so after the whole catalogue on a
        # fresh su2-four no Delta_d kernel was taken (``harmonic_space``
        # memoizes every degree it is called for) and no store of Delta_d
        # was built: DELTA_SUM and L_DELTA read its Koszul coefficients and
        # the bracket [L, Delta_d] its low columns only
        run = catalogue_run("su2-four")
        target = run.model.orthogonalized()
        assert run.verdict
        assert named_operator(target, "lap:d")._coords is None
        assert not [key for m in (run.model, target) for key in m._cache if key.startswith("harmonic:")]

    def test_su2_four_catalogue_builds_four_stores(self, catalogue_run):
        # after the whole catalogue on a fresh su2-four every adjoint and
        # Laplacian, L_mu_omega and L_mubar_omega, the four components of d
        # (delbar and mubar conjugated on the coefficients of del and mu) and
        # X are still held by their Koszul coefficients, and the only
        # operators with a built store are those that some reader walks in
        # full
        run = catalogue_run("su2-four")
        assert run.verdict
        named = [
            (k, built) for k, built in run.stored if k.startswith(("adj:", "lap:")) or k in ("L_mu_omega", "L_mubar_omega")
        ]
        assert {k for k, _ in named} >= {"adj:mubar", "lap:mubar", "L_mu_omega", "L_mubar_omega"}
        assert [k for k, built in named if built] == []
        assert ("[[adj:delbar,del]]", False) in run.stored
        built = sorted(k for k, b in run.stored if b)
        assert built == sorted(["d", "L", "frame:S", "j_operator"])

    def test_d2_split_and_br67_compose_nothing(self, monkeypatch):
        # every bracket of both checks is a derivation or L_{P mu omega},
        # built from coframe values: no product of matrices, the shared builds
        # on a fresh model included (the split, L_mu_omega); validating the
        # model and its orthogonalized coframe takes d d by order and
        # composes nothing either, but runs first all the same
        original = GradedOperator.compose
        calls = []

        def recording(p, q):
            calls.append((p, q))
            return original(p, q)

        model = _fresh("s3xs3-nk")
        model.orthogonalized()
        monkeypatch.setattr(GradedOperator, "compose", recording)
        for cid in ("D2_SPLIT", "BR67"):
            assert run_check(model, cid).status == "pass"
        assert calls == []

    def test_j_pq_builds_no_j_operator(self):
        # J_PQ applies J to the 2n generators only, through the columns of
        # the algebra map they need: no J, no memo of it, and no product
        model = _fresh("su2-four")
        assert run_suite(model, ["J_PQ"]).verdict
        for cache in (model._cache, model.orthogonalized()._cache):
            assert "j_operator" not in cache

    def test_nk_main_and_dc_def_build_no_j_operator(self):
        # J^{-1} d J takes J only on the twelve 2-forms d(J u^i), through the
        # columns of the algebra map they need
        model = _fresh("s3xs3-nk")
        for cid in ("NK_MAIN", "DC_DEF"):
            assert run_check(model, cid).status == "pass"
        for cache in (model._cache, model.orthogonalized()._cache):
            assert "j_operator" not in cache
        assert "jdj" in model.orthogonalized()._cache

    def test_nk_main_and_sl2_combine_each_requirement_in_one_pass(self, monkeypatch):
        # on su2-four every requirement sum c_i P_i is one combination, and
        # no binary sum, difference, negation or scale runs on an operator
        # of (nearly) all 4,096 columns, in the checks or the builds they
        # set off
        model = _fresh("su2-four")
        full = 1 << model.dim
        combined, binary, made = [], [], []
        original, require = nkhodge.operators.combination, _Acc._require_zero

        def recording(terms):
            out = original(terms)
            made.append((len(terms), out))
            return out

        def counting(self, label, op):
            # the outermost combination, the one whose result is the
            # requirement; the products of its bracket terms come before,
            # when the terms are built
            combined.extend(n for n, out in made if out is op)
            require(self, label, op)

        def spy(name, method):
            def wrapped(p, *args):
                if any(isinstance(x, GradedOperator) and 2 * len(x.coords) > full for x in (p, *args)):
                    binary.append(name)
                return method(p, *args)

            return wrapped

        for module in (nkhodge.operators, nkhodge.checks):
            monkeypatch.setattr(module, "combination", recording)
        monkeypatch.setattr(_Acc, "_require_zero", counting)
        for name in ("__add__", "__sub__", "__neg__", "scale"):
            monkeypatch.setattr(GradedOperator, name, spy(name, getattr(GradedOperator, name)))
        assert run_check(model, "NK_MAIN").status == "pass"
        assert combined == [4, 5]
        assert run_check(model, "SL2").status == "pass"
        assert combined == [4, 5, 2, 2, 2]
        assert binary == []

    def test_catalogue_keeps_no_eta_monomial_form_or_frame_block(self):
        # every reading of type goes through the eta-frame's two primitives,
        # which keep nothing: after the whole catalogue no memo holds a form
        # per eta-monomial or a block of E or F
        model = _fresh("s3xs3-nk")
        assert run_suite(model).verdict
        target = model.orthogonalized()
        pqb = pq_basis(target)
        frames = _frame_blocks(pqb)
        values = [value for cache in (model._cache, target._cache) for value in cache.values()]
        assert pqb in values and any(isinstance(value, GradedOperator) for value in values)
        for value in values:
            assert not (isinstance(value, GradedOperator) and any(value == op for op in frames))
            assert not any(isinstance(f, Form) for table in _dicts_in(value) for f in table.values())
        attrs = list(vars(pqb).values())
        kept = [f for attr in attrs if isinstance(attr, list) for f in attr if isinstance(f, Form)]
        assert kept and all(f.degree() == 1 for f in kept)
        assert not list(_dicts_in(attrs))


def _frame_blocks(pqb):
    """Every block of E and F of the eta-frame."""
    return [*algebra_map_blocks(pqb.dim, pqb.generators), *algebra_map_blocks(pqb.dim, pqb.dual)]


def _dicts_in(value):
    """The dicts in a value, at any depth of lists, tuples and dicts."""
    if isinstance(value, dict):
        yield value
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _dicts_in(item)



class TestTypeRouteMutations:
    """The checks that read type in the eta-frame can still fail: each
    mutation of the route, by monkeypatch, fails with a pinned label."""

    def test_j_pq_fails_with_the_eigenvalue_i_to_the_q_minus_p(self, monkeypatch):
        # I -> -i turns the expected i^(p-q) into i^(q-p); composed in every
        # degree with the same eigenvalues, the oracle names the same type
        minus_i = Scalar(0, 0, -1, 0)
        monkeypatch.setattr(nkhodge.checks, "I", minus_i)
        model = _fresh("s3xs3-nk")
        res = run_check(model, "J_PQ")
        assert (res.status, res.witness) == ("fail", "J != i^(p-q) on (0,1)")
        assert j_pq_every_degree(model.orthogonalized(), minus_i) == res.witness

    @pytest.mark.parametrize("generator, witness", [(0, "(1,0)"), (3, "(0,1)")])
    def test_j_pq_fails_with_one_generator_image_off_by_a_sign(self, generator, witness, monkeypatch):
        # the J image of eta^1 (generator 0) or of conj(eta^1) (generator 3)
        # negated: J_PQ fails on the type of that generator alone
        original = nkhodge.checks.algebra_map_apply

        def one_sign_off(images, forms):
            out = original(images, forms)
            out[generator] = out[generator].scale(rational(-1))
            return out

        monkeypatch.setattr(nkhodge.checks, "algebra_map_apply", one_sign_off)
        res = run_check(_fresh("s3xs3-nk"), "J_PQ")
        assert (res.status, res.witness) == ("fail", f"J != i^(p-q) on {witness}")

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_j_pq_matches_the_every_degree_oracle(self, name):
        # on the generators against J E_k - E_k D_k composed in every degree
        model = _fresh(name)
        res = run_check(model, "J_PQ")
        want = j_pq_every_degree(model.orthogonalized(), I)
        assert (res.status, res.witness) == ("pass" if want is None else "fail", want)

    def test_dim6_eigen_fails_with_one_lambda_squared_coefficient_off(self, monkeypatch):
        # (l2/2) in place of (l2/4) in the Delta_del - Delta_delbar formula:
        # on (0,1), with lambda^2 = 8/9, the eta-coordinate of eta-monomial e4
        # is off by lambda^2/2
        table = list(nkhodge.checks._DIM6_EIGENVALUES)
        table[1] = (table[1][0], lambda p, q: rational((3 - p - q) * (p - q), 2))
        monkeypatch.setattr(nkhodge.checks, "_DIM6_EIGENVALUES", tuple(table))
        res = run_check(_fresh("s3xs3-nk"), "DIM6_EIGEN")
        assert res.status == "fail"
        assert res.witness == "(Delta_del - Delta_delbar) - (l2/4)(3-p-q)(p-q) on (0,1): e4 = 4/9"

    def test_harmonic_pq_with_p_and_q_swapped_in_the_type_test(self, monkeypatch):
        # the type-(q,p) columns of the S frame taken for type (p,q): the
        # (p,q) entries of the table of harmonic forms become the (q,p) ones
        want = {pq: harmonic_pq(_fresh("s3xs3-nk"), *pq) for pq in ((0, 0), (1, 2), (2, 1), (3, 3))}
        original = nkhodge.bidegree.PQBasis.monomial_masks
        monkeypatch.setattr(nkhodge.bidegree.PQBasis, "monomial_masks", lambda self, p, q: original(self, q, p))
        model = _fresh("s3xs3-nk")
        got = {pq: harmonic_pq(model, *pq) for pq in want}
        assert [len(got[pq]) for pq in want] == [1, 1, 1, 1]
        assert got[(0, 0)] == want[(0, 0)] and got[(3, 3)] == want[(3, 3)]
        assert got[(1, 2)] == want[(2, 1)] != want[(1, 2)]
        assert got[(2, 1)] == want[(1, 2)] != want[(2, 1)]


class TestBarredOperandMutation:
    """The barred adjoints and Laplacians are built from the barred
    components, so a change to mubar alone reaches adj:mubar and lap:mubar:
    DELTA_SUM fails, and HODGE_ABCD names adj:mubar as the kernel a
    harmonic form escapes.  Were they the conjugates of mu's, both would
    read mu's unchanged answers."""

    def test_a_sign_in_mubar_alone_reaches_its_adjoint_and_laplacian(self):
        # orthogonalized s3xs3-nk, with d^c, the nearly Kahler report and the
        # SU(3) data built first (each reads the split); then mubar becomes the
        # derivation with its first nonzero coframe value negated, mu untouched
        model = _fresh("s3xs3-nk").orthogonalized()
        for build in (d_c, nk_report, nkhodge.checks._su3):
            build(model)
        split = differential_split(model)
        images = [split.mubar.apply(Form.basis(model.dim, 1 << i)) for i in range(model.dim)]
        i = next(i for i, f in enumerate(images) if not f.is_zero())
        images[i] = images[i].scale(rational(-1))
        split.mubar = derivation_from_one_forms(model.dim, images)
        failed = {r.check_id: r.witness for r in run_suite(model).results if r.status == "fail"}
        assert sorted(failed) == [
            "D2_SPLIT", "DC_DEF", "DC_FRAME", "DELTA_SUM", "DIM6_EIGEN", "HODGE_ABCD", "LAP_COM",
            "LEM_NK", "MU_ONEFORMS", "NIJ_MU", "NK_COR", "NK_MAIN", "PROP_LAP", "TORSION_OP",
        ]
        assert failed["DELTA_SUM"] == (
            "Delta_d - Delta_(del-delbar) - Delta_mu - Delta_mubar: column e1, row e4: 1/9*w*I"
        )
        # component 7 of (a) is adj:mubar
        assert failed["HODGE_ABCD"] == "(a) ker S on (1,2) escapes kernel of component 7"


def _keep_negated_coordinates(monkeypatch):
    """``GradedOperator.conjugated`` with each coefficient entry (b, key, u,
    neg) of a held non-real operator made (b, key, conj u, neg): the negated
    coordinates left unconjugated."""
    original = GradedOperator.conjugated

    def conjugated(p):
        out = original(p)
        if out is not p and p._coords is None:
            out._symbol = [
                (jm, [(bm, key, u, neg) for (bm, key, u, _), (_, _, _, neg) in zip(form, own)])
                for (jm, form), (_, own) in zip(out._symbol, p._symbol)
            ]
        return out

    monkeypatch.setattr(GradedOperator, "conjugated", conjugated)


class TestHeldConjugationMutation:
    """A held operator is conjugated on its Koszul coefficients: the split's
    delbar and mubar, and conj X in S, DELTA_SUM, BR67 and VANISH_COR, among
    others.  A fault there fails the catalogue on s3xs3-nk; on torus6 every
    operator is real, so conjugation returns its operand and nothing fails."""

    def test_negated_coordinates_left_unconjugated(self, monkeypatch):
        # a term with an odd sign reads the negated coordinates, so delbar and
        # mubar go wrong on the columns of degree >= 2, and so does every
        # column read off a conjugate.  A sum of held operators never reads
        # them: it merges the coefficient coordinates and prepares its own.
        # So the split's invariant d = mu + del + delbar + mubar passes, and
        # so does VANISH_COR, whose X - conj X is summed from the
        # coefficients of X and conj X; the brackets that read the columns
        # of delbar, mubar or a conjugate fail
        _keep_negated_coordinates(monkeypatch)
        model = _fresh("s3xs3-nk")
        split = differential_split(model.orthogonalized())
        split.del_.coords  # conjugated on its store, which the mutation leaves alone
        assert split.delbar != split.del_.conjugated()
        failed = {r.check_id: r.witness for r in run_suite(model).results if r.status == "fail"}
        assert sorted(failed) == [
            "AUX_COM", "BR67", "D2_SPLIT", "DELTA_SUM", "DIM6_EIGEN", "HODGE_ABCD", "LAP_COM", "PROP_LAP",
        ]
        assert failed["D2_SPLIT"] == "[[delbar,mu]] + del^2: column e1, row e1^e3^e6: 1/36*w*I"
        assert run_suite(_fresh("torus6")).verdict


class TestUnpinnedChecksFail:
    """A failing case for the checks that no other test makes fail."""

    def test_bracket_pq_fails_with_one_nijenhuis_entry_off(self):
        # N(e_1, e_2) gains 1 in its third component in the memo the check
        # reads: the (1,0)-bracket identity of that pair fails first on that
        # component
        model = _fresh("s3xs3-nk")
        tensor = model.orthogonalized().nijenhuis_tensor()
        tensor[0][1][2] = tensor[0][1][2] + rational(1)
        result = run_check(model, "BRACKET_PQ")
        assert (result.status, result.witness) == ("fail", "(1,0)-bracket component (1,2)_3: -1/8")
        assert result.residual_approx == pytest.approx(3 ** 0.5 / 12)

    def test_sl2_fails_with_a_wrong_coefficient_in_h(self):
        # H with beta_{1} = 2 u^1 in place of u^1 counts u^1 twice: [L, Lambda]
        # - H is off on the column e1, as on the two oracle routes, and the
        # other requirement checks are untouched
        target = _fresh("s3xs3-nk").orthogonalized()
        dim = target.dim
        beta = {1 << i: Form.basis(dim, 1 << i) for i in range(dim)}
        beta[1] = Form.basis(dim, 1, rational(2))
        beta[0] = Form.basis(dim, 0, rational(-(dim // 2)))
        target._cache["H"] = reconstruct(dim, beta, 0)
        routes = _routes(target)
        new = routes["coefficients"]
        assert new == routes["low columns"] == routes["full"]
        assert [cid for cid, outcome in new.items() if not outcome[2]] == ["SL2"]
        assert new["SL2"][1][0][0] == "[L,Lambda] - H: column e1, row e1: -1"
        result = run_check(target, "SL2")
        assert (result.status, result.witness) == ("fail", "[L,Lambda] - H: column e1, row e1: -1")

    def test_su3_struct_fails_with_lambda_squared_doubled(self):
        # lambda^2 = 8/9 on s3xs3-nk, doubled in the SU(3) memo: the scaled
        # structure equation is off on e1^e2^e4^e5
        target = _fresh("s3xs3-nk").orthogonalized()
        su3 = su3_extract(target)
        assert su3.lambda_sq == rational(8, 9)
        target._cache["su3"] = dataclasses.replace(su3, lambda_sq=su3.lambda_sq * rational(2))
        result = run_check(target, "SU3_STRUCT")
        assert (result.status, result.witness) == ("fail", "d Im(mu omega) + (3/8) lambda^2 omega^2: e1^e2^e4^e5 = -1/2")
        assert result.residual_approx == 0.5
