import pytest

from nkhodge.models import builtin_model
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
