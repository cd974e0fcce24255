import pytest
from hypothesis import given, strategies as st

from nkhodge.scalars import HALF, I, ONE, ZERO, Scalar, rational
from oracles import sqrt_in_field


def scal(a=0, b=0, c=0, e=0, q=1, d=3):
    return Scalar(a, b, c, e, q, d)


small = st.integers(min_value=-30, max_value=30)
pos = st.integers(min_value=1, max_value=12)


@st.composite
def scalars(draw, d=3):
    return Scalar(draw(small), draw(small), draw(small), draw(small), draw(pos), d)


class TestFieldAxioms:
    @given(scalars(), scalars(), scalars())
    def test_ring_laws(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z

    @given(scalars())
    def test_additive_inverse(self, x):
        assert (x - x).is_zero()

    @given(scalars())
    def test_multiplicative_inverse(self, x):
        if x.is_zero():
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        else:
            assert x * x.inverse() == ONE
            assert (ONE / x) * x == ONE

    @given(scalars())
    def test_conjugation_involution(self, x):
        assert x.conjugate().conjugate() == x
        assert (x * x.conjugate()).is_real()
        assert (x * x.conjugate()).sign() >= 0

    @given(scalars(), scalars())
    def test_conjugation_multiplicative(self, x, y):
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()


class TestTower:
    def test_sqrt_value(self):
        w = Scalar.sqrt_ext(3)
        assert w * w == rational(3)
        assert (w * w).d == 1  # rational results fold back to the base field

    def test_imag_unit(self):
        assert I * I == rational(-1)
        assert I.conjugate() == -I

    def test_real_components(self):
        x = scal(1, 2, 3, 4, 5)
        real = Scalar(x.a, x.b, 0, 0, x.q, x.d)
        imag = Scalar(x.c, x.e, 0, 0, x.q, x.d)
        assert real + imag * I == x

    def test_mixing_extensions_rejected(self):
        w3 = Scalar.sqrt_ext(3)
        w2 = Scalar.sqrt_ext(2)
        with pytest.raises(ValueError):
            w3 + w2

    def test_rationals_mix_with_any_extension(self):
        assert rational(1, 2) + Scalar.sqrt_ext(3) == scal(1, 2, 0, 0, 2)

    def test_d_equals_one_folds(self):
        assert Scalar(1, 1, 0, 0, 1, 1) == rational(2)


class TestOrder:
    def test_sign_rational(self):
        assert rational(-3, 7).sign() == -1
        assert ZERO.sign() == 0

    def test_sign_mixed(self):
        # 2 - sqrt(3) > 0, 1 - sqrt(3) < 0
        assert scal(2, -1).sign() == 1
        assert scal(1, -1).sign() == -1
        assert scal(-5, 3).sign() == 1  # 3*sqrt(3) ~ 5.196 > 5

    def test_sign_non_real_raises(self):
        with pytest.raises(ValueError):
            I.sign()

    def test_comparisons(self):
        assert HALF < ONE
        assert scal(0, 1) > rational(17, 10)


class TestLiterals:
    @given(scalars())
    def test_roundtrip(self, x):
        assert Scalar.parse(x.literal(), d=3) == x

    def test_examples(self):
        assert Scalar.parse("0") == ZERO
        assert Scalar.parse("1/2") == HALF
        assert Scalar.parse("1/2+3/4*w", d=3) == scal(2, 3, 0, 0, 4)
        assert Scalar.parse("-1*I") == -I
        assert Scalar.parse("1/3*w*I", d=3) == scal(0, 0, 0, 1, 3)

    @pytest.mark.parametrize(
        "bad",
        ["", "2/4", "1/1", "0/2", "1 + 2", "+1", "1/2+0*w", "w", "3/4*w+1/2", "1*w*Ix"],
    )
    def test_non_canonical_rejected(self, bad):
        with pytest.raises(ValueError):
            Scalar.parse(bad, d=3)

    def test_w_requires_extension(self):
        # with d = 1 the w coordinate folds away, so "...*w" is never canonical
        with pytest.raises(ValueError):
            Scalar.parse("1*w", d=1)


class TestSqrtInField:
    def test_rational_square(self):
        assert sqrt_in_field(rational(9, 4), 3) == rational(3, 2)

    def test_d_multiple(self):
        assert sqrt_in_field(rational(27, 16), 3) == Scalar.sqrt_ext(3, 3, 4)

    def test_mixed_square(self):
        x = scal(13, 4)  # (1 + 2*sqrt(3))^2
        assert sqrt_in_field(x, 3) == scal(1, 2)
        y = scal(3, 3, 0, 0, 2)  # ((3 + sqrt(3))/2)^2 = 3 + (3/2) sqrt(3)
        assert sqrt_in_field(y * y, 3) == y

    def test_non_square_in_extension(self):
        # 2 + sqrt(3) has norm 1 but is not a square inside Q(sqrt 3)
        assert sqrt_in_field(scal(2, 1), 3) is None

    def test_no_root(self):
        assert sqrt_in_field(rational(2), 3) is None

    def test_negative(self):
        assert sqrt_in_field(rational(-1), 3) is None
