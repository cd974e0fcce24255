"""The benchmark's outside-in tracer still finds every name it wraps.

``perfbench/tracer.py`` rebinds functions and methods of the package by
name; ``install`` fails when one of them is renamed or deleted, which
would otherwise silently drop a layer from the per-layer trace.
"""

import importlib.util
from pathlib import Path

import nkhodge.bidegree
import nkhodge.operators
from nkhodge.checks import run_suite
from nkhodge.models import builtin_model, model_from_json, model_to_json

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_uninstall_restore_every_name():
    tracer = load_tracer()
    mult = nkhodge.operators.mult_operator
    compose = nkhodge.operators.GradedOperator.compose
    t = tracer.Tracer()
    try:
        t.install()
        assert nkhodge.operators.mult_operator is not mult
        assert nkhodge.bidegree.mult_operator is not mult
    finally:
        t.uninstall()
    assert nkhodge.operators.mult_operator is mult
    assert nkhodge.bidegree.mult_operator is mult
    assert nkhodge.operators.GradedOperator.compose is compose


def test_catalogue_records_the_type_route_spans():
    # decompose_form and j_operator stay on the route the catalogue takes, so
    # their per-layer self times measure it
    tracer = load_tracer()
    model = model_from_json(model_to_json(builtin_model("s3xs3-nk")))
    t = tracer.Tracer()
    try:
        t.install()
        assert run_suite(model).verdict
    finally:
        t.uninstall()
    own = tracer.self_times(t.spans)
    for name in ("bidegree.decompose", "bidegree.j_operator"):
        spans = [i for i, span in enumerate(t.spans) if span[0] == name]
        assert spans, name
        assert sum(own[i] for i in spans) > 0, name
