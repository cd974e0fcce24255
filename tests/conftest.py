from dataclasses import dataclass

import pytest

from nkhodge import operators
from nkhodge.checks import run_suite
from nkhodge.models import LieAlgebraModel, builtin_model, model_from_json, model_to_json
from nkhodge.operators import GradedOperator
from nkhodge.scalars import Scalar


@pytest.fixture(scope="session")
def torus6():
    return builtin_model("torus6")


@pytest.fixture(scope="session")
def s3xs3():
    return builtin_model("s3xs3-nk")


@pytest.fixture(scope="session")
def kodaira():
    return builtin_model("kodaira-thurston")


@pytest.fixture(scope="session")
def su2four():
    return builtin_model("su2-four")


@pytest.fixture(scope="session")
def s3xs3_ortho(s3xs3):
    """s3xs3-nk in its orthogonalized coframe, where adjoints are defined."""
    return s3xs3.orthogonalized()


@pytest.fixture
def scalars_built(monkeypatch):
    """A one-item list that counts every Scalar built from here on, through
    the constructor or ``Scalar._normalized``."""
    built = [0]
    init, normalized = Scalar.__init__, Scalar._normalized.__func__

    def counting_init(self, *args):
        built[0] += 1
        init(self, *args)

    def counting_normalized(cls, *args):
        built[0] += 1
        return normalized(cls, *args)

    monkeypatch.setattr(Scalar, "__init__", counting_init)
    monkeypatch.setattr(Scalar, "_normalized", classmethod(counting_normalized))
    return built


@dataclass
class CatalogueRun:
    """``run_suite`` on a fresh built-in model: its verdict, every product it
    composed (``GradedOperator.compose``) and the arguments of every Koszul
    sum it held (``operators._koszul_sum``), its shared builds included, and
    (key, whether it holds a built store) for each operator memoized on the
    model or its orthogonalized presentation, read right after the run."""

    model: LieAlgebraModel
    verdict: bool
    composed: list
    koszul_sums: list
    stored: list


@pytest.fixture(scope="session")
def catalogue_run():
    """name -> the ``CatalogueRun`` of that built-in, run once per session
    for the tests that read it."""
    runs: dict[str, CatalogueRun] = {}

    def run(name: str) -> CatalogueRun:
        if name not in runs:
            model = model_from_json(model_to_json(builtin_model(name)))
            composed, sums = [], []
            compose, koszul_sum = GradedOperator.compose, operators._koszul_sum
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(GradedOperator, "compose", lambda p, q: composed.append((p, q)) or compose(p, q))
                mp.setattr(operators, "_koszul_sum", lambda *args: sums.append(args) or koszul_sum(*args))
                verdict = run_suite(model).verdict
            presentations = {id(m): m for m in (model, model.orthogonalized())}.values()
            stored = [
                (k, v._coords is not None)
                for m in presentations
                for k, v in m._cache.items()
                if isinstance(v, GradedOperator)
            ]
            runs[name] = CatalogueRun(model, verdict, composed, sums, stored)
        return runs[name]

    return run
