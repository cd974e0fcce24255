import json
from math import comb
from pathlib import Path

import pytest

from nkhodge.bidegree import decompose_form, named_operator
from nkhodge.checks import run_check
from nkhodge.hodge import (
    betti_numbers,
    harmonic_pq,
    harmonic_space,
    hodge_laplacian,
    hodge_numbers,
    s_frame,
)
from nkhodge.models import builtin_model, model_from_json, model_to_json
from oracles import (
    commutator_by_composition,
    frame_columns_by_composition,
    harmonic_pq_by_laplacian,
    harmonic_space_dense_oracle,
    spans_equal,
)

GOLDEN = Path(__file__).parent / "golden"


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


class TestHarmonicPqByS:
    """``harmonic_pq`` is the kernel of S on the columns of type (p,q) of its
    eta-frame, which is built from S's columns of degree <= 2."""

    @pytest.mark.parametrize("name", ["torus6", "s3xs3-nk", "su2-four"])
    def test_spans_match_the_laplacian_split(self, name):
        model = builtin_model(name)
        n = model.dim // 2
        for p in range(n + 1):
            for q in range(n + 1):
                got = harmonic_pq(model, p, q)
                want = harmonic_pq_by_laplacian(model, p, q)
                assert len(got) == len(want), (p, q)
                assert spans_equal(_as_rows(got), _as_rows(want)), (p, q)

    @pytest.mark.parametrize("golden", sorted(path.name for path in GOLDEN.glob("hodge-*.json")))
    def test_per_type_tables_match_the_goldens(self, golden):
        doc = json.loads((GOLDEN / golden).read_text(encoding="utf-8"))["hodge"]
        model = builtin_model(golden.removeprefix("hodge-").removesuffix(".json"))
        n = model.dim // 2
        assert [[len(harmonic_pq(model, p, q)) for q in range(n + 1)] for p in range(n + 1)] == doc["h"]
        assert betti_numbers(model) == doc["betti"]

    @pytest.mark.parametrize("name", ["torus6", "s3xs3-nk", "kodaira-thurston"])
    def test_s_frame_matches_every_column_composed(self, name):
        model = builtin_model(name).orthogonalized()
        laps = [
            commutator_by_composition(named_operator(model, "adj:" + c), named_operator(model, c))
            for c in ("mu", "del", "delbar", "mubar")
        ]
        s_op = laps[0] + laps[1] + laps[2] + laps[3]
        assert dict(s_frame(model).scalar_columns()) == frame_columns_by_composition(model, s_op)

    def test_hodge_numbers_and_vanish_cor_build_no_full_laplacian(self):
        # S and VANISH_COR's difference enter through their columns of degree
        # <= 2 only, and the Betti numbers through d
        model = model_from_json(model_to_json(builtin_model("su2-four")))
        assert hodge_numbers(model).sum_rule_holds()
        assert run_check(model, "VANISH_COR").status == "pass"
        comp = model.orthogonalized()
        for cache in (model._cache, comp._cache):
            assert not {"adj:d", "lap:d", "lap:L_mu_omega", "lap:L_mubar_omega"} & set(cache)
        assert "frame:S" in comp._cache
