import pytest

from nkhodge.checks import (
    CHECKS,
    FAST_SUBSET,
    UNIVERSAL_CHECKS,
    default_selection,
    run_check,
    run_suite,
)
from nkhodge.bidegree import named_operator
from nkhodge.hodge import harmonic_space, operator_degree_rows
from nkhodge.linalg import sparse_kernel
from nkhodge.models import KODAIRA_EXPECTED_FAILURES, builtin_model, scaled_metric
from nkhodge.scalars import rational
from oracles import stacked_kernel_nullities


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

    def test_fast_subset_is_known(self):
        assert set(FAST_SUBSET) <= set(CHECKS)

    def test_default_selection_small_model(self, torus6):
        assert default_selection(torus6, deep=False) == sorted(CHECKS)

    def test_default_selection_large_model(self, su2four):
        assert default_selection(su2four, deep=False) == sorted(FAST_SUBSET)
        assert default_selection(su2four, deep=True) == sorted(CHECKS)


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


class TestHodgeAbcdKernel:
    @pytest.mark.parametrize("name", ["torus6", "s3xs3-nk", "kodaira-thurston"])
    def test_psd_sum_kernel_equals_stacked_kernels(self, name):
        # ker (Delta_mu + Delta_del + Delta_delbar + Delta_mubar) is the
        # intersection of the eight component kernels and of the four
        # Laplacian kernels, also where it is smaller than the harmonic space
        model = builtin_model(name)
        comp = model.orthogonalized()
        laps = [named_operator(comp, "lap:" + c) for c in ("mu", "del", "delbar", "mubar")]
        s_op = laps[0] + laps[1] + laps[2] + laps[3]
        short = []
        for k, stacked in enumerate(stacked_kernel_nullities(model)):
            rows, masks = operator_degree_rows(s_op, k, comp.dim)
            nullity = len(sparse_kernel(rows, len(masks)))
            assert (nullity, nullity) == stacked, k
            if nullity != len(harmonic_space(model, k)):
                short.append(k)
        assert short == ([1, 3] if name == "kodaira-thurston" else [])
