"""Tests of the benchmark's own pieces: relabelling, verdict tally, tracer.

    python3 -m pytest perfbench/tests
"""

import copy
import json
from pathlib import Path

import pytest

import nkhodge.checks
import nkhodge.linalg
import nkhodge.models
import nkhodge.operators
import calibrate
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("seed", [0, 1])
def test_relabelling_preserves_expected_answers(seed):
    models = workloads.make_models("catalogue-6d", seed, 0)
    for name, model in models.items():
        base = nkhodge.models.builtin_model(name)
        assert (model.metric, model.J) == (base.metric, base.J)
    moved = [
        name for name, model in models.items()
        if model.structure != nkhodge.models.builtin_model(name).structure
    ]
    assert moved, "the relabelling left every model unchanged"
    tally = workloads.Tally()
    workloads.run_round("catalogue-6d", models, tally)
    assert tally.attempted == 3 * len(workloads.CATALOGUE_CHECKS) + 2
    assert tally.failed == 0, tally.mismatches


def test_wrong_expected_answer_raises_fail_rate():
    expected = copy.deepcopy(workloads.EXPECTED)
    expected["checks"]["torus6"]["fail"].append("NK_MAIN")
    tally = workloads.Tally(expected)
    model = workloads.make_models("catalogue-6d", 0, 0)["torus6"]
    tally.suite(model, ("NK_MAIN", "SL2"))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.fail_rate > 0
    assert "NK_MAIN" in tally.mismatches[0]


def test_raising_suite_fails_every_verdict_it_owed():
    tally = workloads.Tally()
    model = workloads.make_models("catalogue-6d", 0, 0)["torus6"]
    tally.suite(model, ("SL2", "NO_SUCH_CHECK"))
    assert (tally.attempted, tally.failed) == (2, 2)


def test_self_times_on_hand_built_tree():
    # A [0, 10] holds B [1, 4] and C [5, 9]; C holds D [6, 8]; E [11, 12]
    # is a second root outside the window [0, 10.5].
    spans = [
        ["checks.SL2", 0.0, 10.0, -1, None],
        ["operators.compose", 1.0, 4.0, 0, {"operators.compose_out_nnz": 7}],
        ["linalg.kernel", 5.0, 9.0, 0, {"linalg.rows_in": 3, "linalg.nullity_sum": 1}],
        ["operators.compose", 6.0, 8.0, 2, {"operators.compose_out_nnz": 5}],
        ["operators.compose", 11.0, 12.0, -1, {"operators.compose_out_nnz": 100}],
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 2.0, 2.0, 1.0]
    assert tracing.in_windows(spans, [(0.0, 10.5)]) == [0, 1, 2, 3]
    m = tracing.layer_metrics(spans, [(0.0, 10.5)], ("SL2",))
    assert m["operators.compose_self_s"] == 5.0
    assert m["operators.compose_calls"] == 2
    assert m["operators.compose_out_nnz"] == 12
    assert m["linalg.kernel_self_s"] == 2.0
    assert (m["linalg.rows_in"], m["linalg.nullity_sum"]) == (3, 1)
    assert m["checks.SL2_s"] == 10.0
    assert m["checks.self_s"] == 3.0
    assert m["trace.untraced_s"] == 0.5
    assert m["trace.accounted_s"] == 10.5


def test_tracer_rebinds_every_alias_and_restores_them():
    kernel = nkhodge.linalg.sparse_kernel
    model = workloads.make_models("catalogue-6d", 0, 0)["torus6"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert nkhodge.checks.sparse_kernel is nkhodge.linalg.sparse_kernel is not kernel
        assert nkhodge.checks.br is nkhodge.operators.graded_commutator
        nkhodge.checks.run_suite(model, ["HODGE_ABCD"])
    finally:
        tracer.uninstall()
    assert nkhodge.checks.sparse_kernel is kernel is nkhodge.linalg.sparse_kernel
    names = {span[0] for span in tracer.spans}
    assert {"checks.HODGE_ABCD", "linalg.kernel", "operators.compose", "hodge.harmonic_pq"} <= names
    assert all(own >= 0 for own in tracing.self_times(tracer.spans))


def test_benchmark_file_lists_what_the_trace_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    window = [(0.0, 1.0)]
    reported = set(tracing.layer_metrics([], window, workloads.CATALOGUE_CHECKS)) - {"trace.accounted_s"}
    reported |= {"scalars.mul_ns", "scalars.add_ns", "scalars.div_ns", "trace.overhead_pct"}
    assert {m["name"] for m in bench["per_layer"]} == reported
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)


def test_calibration_rescales_to_reference_speed():
    cal = calibrate.Calibrator()
    ref = calibrate.REF_CHUNK_S
    # a host at half the reference speed: chunks take twice REF_CHUNK_S
    cal.samples = [(1.0, 2 * ref), (5.0, 2 * ref), (20.0, 2 * ref)]
    # a 10 s window holding two chunks: 10 - 4 ref seconds of work, at half speed
    assert cal.chunk_time(0.0, 10.0) == 4 * ref
    assert cal.rescale(0.0, 10.0) == pytest.approx((10.0 - 4 * ref) / 2)
    assert cal.rescale(10.0, 12.0, speed_from=cal.samples) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        cal.rescale(10.0, 12.0)
    cal.samples = []
    cal.sample(3)
    assert len(cal.samples) == 3 and all(d > 0 for _, d in cal.samples)
