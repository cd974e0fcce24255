import pytest

from nkhodge.models import builtin_model


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
