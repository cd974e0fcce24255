"""The benchmark's outside-in tracer still finds every name it wraps.

``perfbench/tracer.py`` rebinds functions and methods of the package by
name; ``install`` fails when one of them is renamed or deleted, which
would otherwise silently drop a layer from the per-layer trace.
"""

import importlib.util
from pathlib import Path

import nkhodge.bidegree
import nkhodge.operators

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
