import random

import pytest
from hypothesis import given, settings, strategies as st

from nkhodge.exterior import (
    Form,
    GramData,
    graded_lex_key,
    indices_from_mask,
    sign_key,
)
from nkhodge.scalars import HALF, I, ONE, Scalar, rational
from oracles import inner_via_minors, sqrt_ext, star, star_available, volume_form, wedge_masks, wedge_sign_pairwise

DIM = 4

small = st.integers(min_value=-6, max_value=6)


@st.composite
def forms(draw, dim=DIM, max_terms=4):
    n_terms = draw(st.integers(min_value=0, max_value=max_terms))
    coeffs = {}
    for _ in range(n_terms):
        mask = draw(st.integers(min_value=0, max_value=(1 << dim) - 1))
        coeffs[mask] = Scalar(draw(small), draw(small), draw(small), 0, 1, 3)
    return Form(dim, coeffs)


def identity_gram(dim):
    g = [[ONE if i == j else Scalar(0, 0, 0, 0) for j in range(dim)] for i in range(dim)]
    return GramData(g)


def contract(gram, alpha, target):
    """Contraction of ``target`` by the metric dual of the 1-form ``alpha``."""
    return target.contract_vector(gram.sharp(alpha))


def mask_from_indices(indices: tuple[int, ...] | list[int], dim: int) -> int:
    """Mask for a strictly increasing tuple of 1-based indices."""
    mask = 0
    prev = 0
    for i in indices:
        if not 1 <= i <= dim:
            raise ValueError(f"index {i} out of range 1..{dim}")
        if i <= prev:
            raise ValueError(f"indices not strictly increasing: {tuple(indices)}")
        prev = i
        mask |= 1 << (i - 1)
    return mask


def e(i, dim=DIM):
    return Form.basis(dim, mask_from_indices((i,), dim))


class TestMasks:
    def test_canonical_roundtrip(self):
        m = mask_from_indices((1, 3, 4), 6)
        assert indices_from_mask(m) == (1, 3, 4)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            mask_from_indices((3, 1), 6)
        with pytest.raises(ValueError):
            mask_from_indices((1, 1), 6)

    def test_wedge_sign(self):
        s, m = wedge_masks(0b001, 0b010)
        assert s == 1 and m == 0b011
        s, m = wedge_masks(0b010, 0b001)
        assert s == -1
        s, _ = wedge_masks(0b001, 0b001)
        assert s == 0

    def test_sign_key_matches_pairwise_count_up_to_dim_8(self):
        # every pair of masks over at most 8 indices: wedge_masks agrees with
        # the pairwise count, overlaps included, and on every disjoint pair
        # u^m1 ^ u^m2 = (-1)^popcount(m2 & K(m1)) u^(m1|m2)
        for m1 in range(1 << 8):
            key = sign_key(m1)
            for m2 in range(1 << 8):
                want = wedge_sign_pairwise(m1, m2)
                assert wedge_masks(m1, m2) == want
                if not m1 & m2:
                    assert (-1 if (m2 & key).bit_count() & 1 else 1) == want[0]

    def test_sign_key_of_wide_masks(self):
        # masks past 16 indices take the doubling loop of sign_key
        rng = random.Random(19)
        for width in (17, 33, 70):
            for _ in range(50):
                m1, m2 = rng.getrandbits(width), rng.getrandbits(width)
                m2 &= ~m1
                assert wedge_masks(m1, m2) == wedge_sign_pairwise(m1, m2)

    def test_graded_lex_order(self):
        masks = sorted(range(8), key=graded_lex_key)
        assert masks[0] == 0
        assert [m.bit_count() for m in masks] == sorted(m.bit_count() for m in masks)


class TestWedge:
    def test_basis_wedge(self):
        assert e(1).wedge(e(2)) == Form.basis(DIM, 0b0011)

    def test_nilpotent(self):
        assert e(1).wedge(e(1)).is_zero()

    def test_spec_example(self):
        a = e(1) + e(2)
        b = e(1) - e(2)
        assert a.wedge(b) == Form.basis(DIM, 0b0011, rational(-2))

    @given(forms(), forms(), forms())
    @settings(max_examples=60)
    def test_associative(self, a, b, c):
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))

    @given(forms(), forms())
    @settings(max_examples=60)
    def test_graded_commutative(self, a, b):
        # check homogeneous component-wise via degree split
        for ka in range(DIM + 1):
            fa = Form(DIM, {m: s for m, s in a.coeffs.items() if m.bit_count() == ka})
            for kb in range(DIM + 1):
                fb = Form(DIM, {m: s for m, s in b.coeffs.items() if m.bit_count() == kb})
                lhs = fa.wedge(fb)
                rhs = fb.wedge(fa)
                if ka * kb % 2:
                    rhs = -rhs
                assert lhs == rhs


class TestContraction:
    def test_first_slot(self):
        vec = [ONE] + [Scalar(0, 0, 0, 0)] * (DIM - 1)
        assert e(1).wedge(e(2)).contract_vector(vec) == e(2)

    def test_second_slot_sign(self):
        vec = [Scalar(0, 0, 0, 0), ONE] + [Scalar(0, 0, 0, 0)] * (DIM - 2)
        assert e(1).wedge(e(2)).contract_vector(vec) == -e(1)

    def test_sharp_identity_metric(self):
        gram = identity_gram(DIM)
        assert contract(gram, e(1), e(1).wedge(e(3))) == e(3)

    def test_square_zero(self):
        gram = identity_gram(DIM)
        v = gram.sharp(e(1) + e(2))
        f = e(1).wedge(e(2)).wedge(e(3))
        assert f.contract_vector(v).contract_vector(v).is_zero()

    @given(forms(), forms())
    @settings(max_examples=60)
    def test_antiderivation(self, a, b):
        vec = [ONE, rational(2), Scalar(0, 0, 0, 0), rational(-1)]
        for ka in range(DIM + 1):
            fa = Form(DIM, {m: s for m, s in a.coeffs.items() if m.bit_count() == ka})
            lhs = fa.wedge(b).contract_vector(vec)
            rhs = fa.contract_vector(vec).wedge(b)
            term = fa.wedge(b.contract_vector(vec))
            rhs = rhs + (term if ka % 2 == 0 else -term)
            assert lhs == rhs


class TestInnerProduct:
    def test_orthonormal_basis(self):
        gram = identity_gram(DIM)
        f = e(1).wedge(e(2))
        assert gram.inner(f, f) == ONE
        assert gram.inner(e(1), e(2)).is_zero()

    def test_unit_complex_coframe(self):
        # (1/sqrt 2)(e1 + i e2) has unit norm for the identity metric (d = 2)
        gram = identity_gram(2)
        inv_sqrt2 = sqrt_ext(2, 1, 2)
        theta = (Form.basis(2, 0b01) + Form.basis(2, 0b10).scale(I)).scale(inv_sqrt2)
        assert gram.inner(theta, theta) == ONE

    @given(forms(), forms())
    @settings(max_examples=40)
    def test_hermitian_symmetry(self, a, b):
        gram = identity_gram(DIM)
        assert gram.inner(a, b) == gram.inner(b, a).conjugate()

    @given(forms())
    @settings(max_examples=40)
    def test_positive(self, a):
        gram = identity_gram(DIM)
        v = gram.inner(a, a)
        assert v.is_real()
        assert v.sign() >= 0
        assert (v.sign() == 0) == a.is_zero()

    def test_heterogeneous_degrees_pair_to_zero(self):
        gram = identity_gram(DIM)
        assert gram.inner(e(1), e(1).wedge(e(2))).is_zero()

    def test_coupled_metric_rejected(self):
        z = Scalar(0, 0, 0, 0)
        g = [[ONE, -HALF, z, z], [-HALF, ONE, z, z], [z, z, ONE, z], [z, z, z, ONE]]
        with pytest.raises(ValueError, match="diagonal metric"):
            GramData(g).inner(e(1), e(1))

    @given(
        st.lists(
            st.builds(lambda a, b, q: Scalar(a, b, 0, 0, q, 3), small, small, st.integers(1, 3)).filter(
                lambda s: s.sign() > 0
            ),
            min_size=DIM,
            max_size=DIM,
        ),
        forms(max_terms=6),
        forms(max_terms=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_weighted_pairing_equals_minor_pairing(self, diag, a, b):
        # random positive diagonal metrics over Q(sqrt 3); the forms mix degrees
        z = Scalar(0, 0, 0, 0)
        gram = GramData([[diag[i] if i == j else z for j in range(DIM)] for i in range(DIM)])
        assert gram.inner(a, b) == inner_via_minors(gram, a, b)

    def test_nontrivial_metric(self):
        # g = [[1,-1/2],[-1/2,1]] on two indices; <u1,u1> = 4/3
        z = Scalar(0, 0, 0, 0)
        g = [[ONE, -HALF], [-HALF, ONE]]
        gram = GramData([[g[i][j] if i < 2 and j < 2 else (ONE if i == j else z) for j in range(4)] for i in range(4)])
        assert inner_via_minors(gram, e(1), e(1)) == rational(4, 3)
        assert inner_via_minors(gram, e(1), e(2)) == rational(2, 3)


class TestStar:
    def test_top_form_dim6(self):
        gram = identity_gram(6)
        f = Form.basis(6, mask_from_indices((1, 2, 3), 6))
        assert star(gram, 1, f) == Form.basis(6, mask_from_indices((4, 5, 6), 6))

    def test_star_one_is_volume(self):
        gram = identity_gram(6)
        assert star(gram, 1, Form.basis(6, 0)) == volume_form(gram, 1)

    def test_star_star_sign(self):
        gram = identity_gram(6)
        f = e(1, 6)
        assert star(gram, 1, star(gram, 1, f)) == -f

    def test_unavailable(self):
        z = Scalar(0, 0, 0, 0)
        g = [[rational(2) if i == j else z for j in range(2)] for i in range(2)]
        gram = GramData(g)  # det = 4, a square; det 2 below is not one in Q(sqrt 3)
        g2 = [[rational(2), z], [z, ONE]]
        gram2 = GramData(g2)
        assert not star_available(gram2, 3)
        with pytest.raises(ValueError):
            star(gram2, 3, Form.basis(2, 0b01))
        assert star_available(gram, 3)

    @given(forms(dim=4), forms(dim=4))
    @settings(max_examples=40)
    def test_defining_property(self, a, b):
        # top-degree part of a ^ star(conj b) is <a,b> vol (lower parts only
        # arise for inhomogeneous inputs, where the pairing is degree-diagonal)
        gram = identity_gram(4)
        vol = volume_form(gram, 1)
        full = (1 << 4) - 1
        lhs = a.wedge(star(gram, 1, b.conjugate()))
        top = Form(4, {m: s for m, s in lhs.coeffs.items() if m == full})
        assert top == vol.scale(gram.inner(a, b))

    @given(forms(dim=4), forms(dim=4))
    @settings(max_examples=40)
    def test_defining_property_coupled_metric(self, a, b):
        # same property over a non-diagonal metric whose determinant is a
        # square in Q(sqrt 3): per-pair blocks [[1,-1/2],[-1/2,1]], det = 9/16
        z = Scalar(0, 0, 0, 0)
        g = [[ONE, -HALF, z, z], [-HALF, ONE, z, z], [z, z, ONE, -HALF], [z, z, -HALF, ONE]]
        gram = GramData(g)
        assert star_available(gram, 3)
        vol = volume_form(gram, 3)
        full = (1 << 4) - 1
        lhs = a.wedge(star(gram, 3, b.conjugate()))
        top = Form(4, {m: s for m, s in lhs.coeffs.items() if m == full})
        assert top == vol.scale(inner_via_minors(gram, a, b))

    def test_star_star_sign_coupled_metric(self):
        z = Scalar(0, 0, 0, 0)
        g = [[ONE, -HALF, z, z], [-HALF, ONE, z, z], [z, z, ONE, -HALF], [z, z, -HALF, ONE]]
        gram = GramData(g)
        for mask in range(16):
            f = Form.basis(4, mask)
            sign = 1 if mask.bit_count() % 2 == 0 else -1
            expect = f if sign > 0 else -f
            assert star(gram, 3, star(gram, 3, f)) == expect


class TestLDL:
    @pytest.mark.parametrize(
        "entries, minor", [(((0, 1), (1, 0)), 1), (((1, 2), (2, 1)), 2)]
    )
    def test_rejects_metric_that_is_not_positive_definite(self, entries, minor):
        g = [[rational(v) for v in row] for row in entries]
        with pytest.raises(ValueError, match=rf"metric not positive-definite \(leading minor {minor}\)"):
            GramData(g)

    def test_reconstructs_metric(self):
        z = Scalar(0, 0, 0, 0)
        g = [
            [ONE, -HALF, z],
            [-HALF, rational(2), rational(1, 3)],
            [z, rational(1, 3), ONE],
        ]
        gram = GramData(g)
        m, dvals = gram.ldl()
        n = 3
        recon = [
            [
                sum(
                    (m[i][k] * m[j][k] * dvals[k] for k in range(n)),
                    start=z,
                )
                for j in range(n)
            ]
            for i in range(n)
        ]
        assert recon == g
        assert all(v.sign() > 0 for v in dvals)


class TestConvention:
    def test_hermitian_linear_in_first_slot(self):
        gram = identity_gram(DIM)
        a, b = e(1), e(1)
        assert gram.inner(a.scale(I), b) == I * gram.inner(a, b)
        assert gram.inner(a, b.scale(I)) == -I * gram.inner(a, b)

    def test_conjugate_form(self):
        f = e(1).scale(I)
        assert f.conjugate() == e(1).scale(-I)
        theta = e(1) + e(2).scale(I)
        assert theta.conjugate() == e(1) + e(2).scale(-I)
        real = e(1).wedge(e(2))
        assert real.conjugate() == real
