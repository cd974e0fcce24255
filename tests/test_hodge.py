from math import comb

import pytest

from nkhodge.bidegree import decompose_form
from nkhodge.hodge import (
    betti_numbers,
    harmonic_pq,
    harmonic_space,
    hodge_laplacian,
    hodge_numbers,
)
from nkhodge.models import builtin_model
from oracles import harmonic_space_dense_oracle, spans_equal


def _as_rows(forms):
    return [{m: v for m, v in f.coeffs.items()} for f in forms]


class TestHarmonicSpaces:
    def test_torus_everything_harmonic(self, torus6):
        for k in range(7):
            assert len(harmonic_space(torus6, k)) == comb(6, k)

    def test_s3xs3_middle_dimension(self, s3xs3):
        assert len(harmonic_space(s3xs3, 3)) == 2

    def test_harmonic_forms_are_killed_by_laplacian(self, s3xs3_ortho):
        lap = hodge_laplacian(s3xs3_ortho)
        for k in range(7):
            for v in harmonic_space(s3xs3_ortho, k):
                assert lap.apply(v).is_zero()

    def test_h30_vanishes_on_strict(self, s3xs3):
        assert harmonic_pq(s3xs3, 3, 0) == []

    def test_pq_harmonics_have_pure_type(self, s3xs3):
        for (p, q) in ((1, 2), (2, 1), (0, 0)):
            for v in harmonic_pq(s3xs3, p, q):
                assert set(decompose_form(s3xs3, v)) == {(p, q)}


class TestOracleAgreement:
    @pytest.mark.parametrize("name", ["torus6", "kodaira-thurston", "s3xs3-nk"])
    def test_sparse_matches_dense_all_degrees(self, name):
        model = builtin_model(name)
        for k in range(model.dim + 1):
            sparse = harmonic_space(model, k)
            dense = harmonic_space_dense_oracle(model, k)
            assert len(sparse) == len(dense)
            if sparse:
                assert spans_equal(_as_rows(sparse), _as_rows(dense))


class TestBetti:
    def test_torus(self, torus6):
        assert betti_numbers(torus6) == [comb(6, k) for k in range(7)]

    def test_s3xs3(self, s3xs3):
        assert betti_numbers(s3xs3) == [1, 0, 0, 2, 0, 0, 1]

    def test_kodaira(self, kodaira):
        # first Betti number 3 distinguishes the nilmanifold from a torus
        assert betti_numbers(kodaira) == [1, 3, 4, 3, 1]


class TestHodgeNumbers:
    def test_torus_table(self, torus6):
        rep = hodge_numbers(torus6)
        for p in range(4):
            for q in range(4):
                assert rep.h[p][q] == comb(3, p) * comb(3, q)
        assert rep.sum_rule_holds()

    def test_s3xs3_table(self, s3xs3):
        rep = hodge_numbers(s3xs3)
        expected = [[0] * 4 for _ in range(4)]
        expected[0][0] = expected[3][3] = 1
        expected[2][1] = expected[1][2] = 1
        assert rep.h == expected
        assert rep.betti == [1, 0, 0, 2, 0, 0, 1]

    def test_non_nk_rejected(self, kodaira):
        with pytest.raises(ValueError, match="not nearly Kahler"):
            hodge_numbers(kodaira)

    def test_symmetries(self, s3xs3):
        rep = hodge_numbers(s3xs3)
        n = 3
        for p in range(4):
            for q in range(4):
                assert rep.h[p][q] == rep.h[q][p]
                assert rep.h[p][q] == rep.h[n - p][n - q]
