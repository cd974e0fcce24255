import math

import pytest
from hypothesis import given, settings, strategies as st

from nkhodge.scalars import (
    HALF,
    I,
    ONE,
    ZERO,
    Scalar,
    add,
    common,
    complexity,
    inverse,
    join,
    product,
    rational,
    reduce,
)
from oracles import field_coordinates, field_product, normalized_entry, sqrt_ext, sqrt_in_field


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
        w = sqrt_ext(3)
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
        w3 = sqrt_ext(3)
        w2 = sqrt_ext(2)
        with pytest.raises(ValueError):
            w3 + w2

    def test_rationals_mix_with_any_extension(self):
        assert rational(1, 2) + sqrt_ext(3) == scal(1, 2, 0, 0, 2)

    def test_d_equals_one_folds(self):
        assert Scalar(1, 1, 0, 0, 1, 1) == rational(2)


coordinates = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**80), 2**80))
denominators = st.one_of(st.integers(1, 12), st.integers(1, 2**80))


@st.composite
def entries(draw, d):
    """An entry of Q(sqrt d)(i), normalized by the oracle: real on a coin
    flip, and on another a d = 1 entry (no sqrt(d) part)."""
    a, b, c, e = (draw(coordinates) for _ in range(4))
    if d == 1 or draw(st.booleans()):
        b = e = 0
    if draw(st.booleans()):
        c = e = 0
    return normalized_entry(field_coordinates(a, b, c, e, draw(denominators)))


field_cases = st.sampled_from([1, 2, 3, 5]).flatmap(lambda d: st.tuples(st.just(d), entries(d), entries(d)))


class TestFieldKernel:
    """The integer kernel against Fraction coordinates and the regular representation."""

    @given(field_cases, st.integers(1, 2**40))
    @settings(max_examples=300, deadline=None)
    def test_against_the_regular_representation(self, case, k):
        d, x, y = case
        fx, fy = field_coordinates(*x), field_coordinates(*y)
        assert reduce(*(t * k for t in x)) == x
        xy, s = field_product(fx, fy, d), [u + v for u, v in zip(fx, fy)]
        assert field_coordinates(*product(x, y, d)) == xy
        assert reduce(*product(x, y, d)) == normalized_entry(xy)
        assert field_coordinates(*add(x, y)) == s
        assert reduce(*add(x, y)) == normalized_entry(s)
        assert complexity(x) == sum(abs(t).bit_length() for t in x)
        if any(fx):
            inv = inverse(x, d)
            assert inv == normalized_entry(field_coordinates(*inv))
            assert field_product(fx, field_coordinates(*inv), d) == [1, 0, 0, 0]
        else:
            with pytest.raises(ZeroDivisionError):
                inverse(x, d)
        sx, sy = Scalar._normalized(*x, d), Scalar._normalized(*y, d)
        q, dc, coords = common([sx, sy, sx])
        assert q == math.lcm(x[4], y[4])
        assert dc == (d if x[1] or x[3] or y[1] or y[3] else 1)
        assert join(dc, sx.d) == join(sy.d, dc) == dc
        assert [field_coordinates(*t, q) for t in coords] == [fx, fy, fx]
        # Scalar arithmetic runs through the kernel
        for got, want in ((sx * sy, xy), (sx + sy, s)):
            assert (got.a, got.b, got.c, got.e, got.q) == normalized_entry(want)
            assert got.d == (d if got.b or got.e else 1)

    @pytest.mark.parametrize("d1, d2", [(2, 3), (3, 5), (5, 2)])
    def test_two_extensions_raise(self, d1, d2):
        with pytest.raises(ValueError, match=rf"incompatible extensions sqrt\({d1}\) vs sqrt\({d2}\)"):
            join(d1, d2)
        with pytest.raises(ValueError, match="incompatible extensions"):
            common([sqrt_ext(d1), rational(1, 2), sqrt_ext(d2)])

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_inverse_of_zero_raises(self, d):
        with pytest.raises(ZeroDivisionError):
            inverse((0, 0, 0, 0, 1), d)


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
        assert sqrt_in_field(rational(27, 16), 3) == sqrt_ext(3, 3, 4)

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
