"""Acceptance criteria, one test per criterion.

Every check is exact (pass means literal zero over the scalar tower); the
stated wall-clock bounds are asserted where the criterion fixes one.  Each
test prints one [ACCEPT] line so a log scan shows the per-criterion verdict.
"""

import time
from math import comb

import pytest

from nkhodge.bidegree import differential_split, pq_basis
from nkhodge.checks import UNIVERSAL_CHECKS, run_check, run_suite
from nkhodge.hodge import (
    harmonic_pq,
    harmonic_space,
    hodge_numbers,
)
from nkhodge.linalg import sparse_rank
from nkhodge.models import (
    builtin_model,
    nearly_kahler_residual,
    su3_extract,
)
from nkhodge.scalars import rational
from oracles import form_to_pq, harmonic_space_dense_oracle, monomial_form, spans_equal
from variants import perturbed_structure, scaled_metric

UNIVERSAL = sorted(UNIVERSAL_CHECKS)


_REPORTER = None


@pytest.fixture(scope="session", autouse=True)
def _wire_reporter(request):
    # route the per-criterion lines through pytest's own terminal writer so
    # they survive output capture and land in any piped log
    global _REPORTER
    _REPORTER = request.config.pluginmanager.get_plugin("terminalreporter")


def _announce(num: int, ok: bool, detail: str = ""):
    marker = "PASS" if ok else "FAIL"
    line = f"[ACCEPT] criterion {num}: {marker} {detail}"
    if _REPORTER is not None:
        _REPORTER.write_line("")
        _REPORTER.write_line(line)
    else:  # pragma: no cover - plain python invocation
        print(line)
    assert ok


def _all_pass(model, selection):
    report = run_suite(model, selection=selection)
    bad = [r for r in report.results if r.status != "pass"]
    return report, bad


class TestCriterion1:
    def test_universal_checks_timed_small_models(self, torus6, kodaira):
        start = time.perf_counter()
        for model in (torus6, kodaira):
            _, bad = _all_pass(model, UNIVERSAL)
            assert not bad, bad
        elapsed = time.perf_counter() - start
        _announce(1, elapsed < 5.0, f"(torus6 + kodaira-thurston universal, {elapsed:.2f}s < 5s)")

    def test_universal_checks_s3xs3(self, s3xs3):
        start = time.perf_counter()
        _, bad = _all_pass(s3xs3, UNIVERSAL)
        elapsed = time.perf_counter() - start
        assert not bad, bad
        _announce(1, elapsed < 30.0, f"(s3xs3-nk universal, {elapsed:.2f}s < 30s)")

    def test_universal_checks_su2four(self, su2four):
        start = time.perf_counter()
        _, bad = _all_pass(su2four, UNIVERSAL)
        elapsed = time.perf_counter() - start
        assert not bad, bad
        _announce(1, True, f"(su2-four universal, untimed, {elapsed:.1f}s)")


class TestCriterion2:
    IDS = ["BR67", "DC_FRAME", "LEM_NK", "NK_COR", "NK_MAIN", "TORSION_OP"]

    def test_nk_identities_pass_on_nk_models(self, torus6, s3xs3, su2four):
        for model in (torus6, s3xs3, su2four):
            _, bad = _all_pass(model, self.IDS)
            assert not bad, (model.name, [(r.check_id, r.witness) for r in bad])
        _announce(2, True, "(NK identities on torus6, s3xs3-nk, su2-four)")

    def test_negative_control(self, kodaira):
        res = run_check(kodaira, "NK_MAIN")
        ok = res.status == "fail" and res.witness is not None and res.residual_approx > 0
        _announce(2, ok, f"(NK_MAIN fails on kodaira-thurston, witness: {res.witness})")


class TestCriterion3:
    IDS = ["AUX_COM", "DELTA_SUM", "LAP_COM", "L_DELTA", "PROP_LAP"]

    def test_laplacian_relations_timed(self, torus6, s3xs3):
        start = time.perf_counter()
        for model in (torus6, s3xs3):
            _, bad = _all_pass(model, self.IDS)
            assert not bad, (model.name, bad)
        elapsed = time.perf_counter() - start
        _announce(3, elapsed < 60.0, f"(Laplacian relations, {elapsed:.2f}s < 60s)")


class TestCriterion4:
    def test_dim6_eigenvalues(self, s3xs3, s3xs3_ortho):
        res = run_check(s3xs3, "DIM6_EIGEN")
        assert res.status == "pass", res.witness
        # independent spot re-derivation at (p,q) = (0,0): the scalar is lambda^2 * 9/4
        su3 = su3_extract(s3xs3)
        from nkhodge.bidegree import named_operator
        from nkhodge.exterior import Form

        lap = named_operator(s3xs3_ortho, "lap:L_mu_omega")
        unit = Form.basis(6, 0)
        assert lap.apply(unit) == unit.scale(su3.lambda_sq * rational(9, 4))
        _announce(4, True, f"(16 blocks, lambda^2 = {su3.lambda_sq.literal()})")


class TestCriterion5:
    def test_hodge_abcd_and_table(self, s3xs3):
        res = run_check(s3xs3, "HODGE_ABCD")
        assert res.status == "pass", res.witness
        rep = hodge_numbers(s3xs3)
        expected = [[0] * 4 for _ in range(4)]
        expected[0][0] = expected[3][3] = 1
        expected[2][1] = expected[1][2] = 1
        assert rep.h == expected
        assert rep.betti == [1, 0, 0, 2, 0, 0, 1]
        split = differential_split(s3xs3)
        theta = split.mu.apply(s3xs3.omega())
        assert not split.mubar.apply(theta).is_zero()  # mubar(mu omega) != 0
        assert harmonic_pq(s3xs3, 3, 0) == []
        _announce(5, True, "(kernel equalities, h table, h^(3,0) = 0 witnessed)")


class TestCriterion6:
    def test_torus_hodge_table_timed(self, torus6):
        start = time.perf_counter()
        rep = hodge_numbers(torus6)
        elapsed = time.perf_counter() - start
        for p in range(4):
            for q in range(4):
                assert rep.h[p][q] == comb(3, p) * comb(3, q)
        _announce(6, elapsed < 1.0, f"(torus6 h-table binomial, {elapsed:.3f}s < 1s)")


class TestCriterion7:
    def test_vanishing_from_invertibility(self, s3xs3, s3xs3_ortho):
        res = run_check(s3xs3, "VANISH_COR")
        assert res.status == "pass", res.witness
        # the invertible blocks are exactly those off {p=q} union {p+q=3}
        # (8 blocks; the criterion text says 12, a miscount -- see ledger)
        from nkhodge.bidegree import named_operator

        ortho = s3xs3_ortho
        pqb = pq_basis(ortho)
        diff = named_operator(ortho, "lap:L_mu_omega") - named_operator(ortho, "lap:L_mubar_omega")
        invertible = set()
        for p in range(4):
            for q in range(4):
                masks = pqb.monomial_masks(p, q)
                rows = {}
                for j, mask in enumerate(masks):
                    img = diff.apply(monomial_form(ortho, mask))
                    for pqmask, v in form_to_pq(ortho, img).items():
                        rows.setdefault(pqmask, {})[j] = v
                if sparse_rank(list(rows.values())) == len(masks):
                    invertible.add((p, q))
        off_union = {
            (p, q) for p in range(4) for q in range(4) if p != q and p + q != 3
        }
        assert invertible == off_union
        for (p, q) in off_union:
            assert len(harmonic_pq(s3xs3, p, q)) == 0
        _announce(7, True, f"(invertible blocks = {len(off_union)} off-union blocks, all with h = 0)")


class TestCriterion8:
    def test_deep_dim12_checks_within_budget(self, su2four):
        start = time.perf_counter()
        report = run_suite(su2four, selection=["DELTA_SUM", "NK_MAIN", "TORSION_OP"])
        bad = [r for r in report.results if r.status != "pass"]
        assert not bad, [(r.check_id, r.witness) for r in bad]
        rep = hodge_numbers(su2four)
        assert rep.sum_rule_holds()
        assert rep.betti == [1, 0, 0, 4, 0, 0, 6, 0, 0, 4, 0, 0, 1]
        elapsed = time.perf_counter() - start
        _announce(8, elapsed < 1800.0, f"(su2-four deep checks + Hodge sum rule, {elapsed:.0f}s < 1800s)")


class TestCriterion9:
    @pytest.mark.parametrize("name", ["torus6", "kodaira-thurston", "s3xs3-nk", "su2-four"])
    def test_oracle_agreement_every_degree(self, name):
        model = builtin_model(name)
        start = time.perf_counter()
        for k in range(model.dim + 1):
            sparse = harmonic_space(model, k)
            dense = harmonic_space_dense_oracle(model, k)
            assert len(sparse) == len(dense), (name, k)
            if sparse:
                rows_a = [dict(f.coeffs) for f in sparse]
                rows_b = [dict(f.coeffs) for f in dense]
                assert spans_equal(rows_a, rows_b), (name, k)
        elapsed = time.perf_counter() - start
        _announce(9, True, f"({name}: sparse = dense oracle on all degrees, {elapsed:.1f}s)")


class TestCriterion10:
    def test_perturbations_detected(self, s3xs3):
        scaling_slots = set()
        d2_broken = 0
        for i in range(6):
            for j in range(i + 1, 6):
                for k in range(6):
                    bad = perturbed_structure(s3xs3, i, j, k, rational(1, 2))
                    d = bad.d()
                    if not d.compose(d).is_zero():
                        d2_broken += 1
                        assert d.compose(d).first_witness() is not None
                    else:
                        # still a Lie algebra: must be caught by the NK residual
                        scaling_slots.add((i, j, k))
                        rep = nearly_kahler_residual(bad)
                        assert not rep.nearly_kahler
                        assert rep.witness is not None
        assert d2_broken == 84
        assert scaling_slots == {
            (0, 1, 2), (0, 2, 1), (1, 2, 0), (3, 4, 5), (3, 5, 4), (4, 5, 3),
        }
        _announce(10, True, "(84/90 slots break d^2 with witness; 6 cyclic scalings caught by NK residual)")

    def test_metric_scaling(self, s3xs3):
        scaled = scaled_metric(s3xs3, rational(4))
        su3 = su3_extract(scaled)
        assert su3.lambda_sq == rational(8, 9) / rational(4)
        rep_a = run_suite(s3xs3)
        rep_b = run_suite(scaled)
        verdicts_a = {r.check_id: r.status for r in rep_a.results}
        verdicts_b = {r.check_id: r.status for r in rep_b.results}
        assert verdicts_a == verdicts_b
        assert rep_b.verdict
        _announce(10, True, "(metric x4 => lambda^2 x 1/4, all verdicts unchanged)")
