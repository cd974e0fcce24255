import functools
import json
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nkhodge.hodge as hodge
import nkhodge.linalg as linalg
import nkhodge.operators as operators
from nkhodge.bidegree import decompose_form, named_operator, pq_basis
from nkhodge.checks import _difference_laplacian, run_check
from nkhodge.hodge import (
    betti_numbers,
    degree_masks,
    h_pq,
    harmonic_pq,
    harmonic_space,
    hodge_laplacian,
    hodge_numbers,
    s_frame,
)
from nkhodge.models import (
    BUILTIN_NAMES,
    LieAlgebraModel,
    _identity_metric,
    _standard_j,
    builtin_model,
    model_from_json,
    model_to_json,
    nk_report,
    product_model,
    validate_model,
)
from nkhodge.operators import GradedOperator
from nkhodge.scalars import Scalar
from oracles import (
    betti_by_full_ranks,
    commutator_by_composition,
    frame_columns_by_composition,
    harmonic_pq_by_laplacian,
    harmonic_pq_by_scalar_rows,
    harmonic_pq_via_monomials,
    harmonic_space_by_scalar_rows,
    harmonic_space_dense_oracle,
    kunneth,
    ranks_of_d_in_full,
    scalar_columns,
    scalar_pivot_columns,
    spans_equal,
)
from variants import relabelled

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


def _su2_four_relabelled():
    perm = [7, 11, 3, 10, 8, 4, 9, 1, 0, 6, 2, 5]
    signs = [1, 1, 1, -1, -1, 1, 1, 1, -1, 1, 1, 1]
    return relabelled(builtin_model("su2-four"), perm, signs)


def _product(first, second):
    return product_model(builtin_model(first), builtin_model(second))


BETTI_MODELS = {
    **{name: functools.partial(builtin_model, name) for name in BUILTIN_NAMES},
    "kodaira-thurston^2": functools.partial(_product, "kodaira-thurston", "kodaira-thurston"),
    "kodaira-thurston x s3xs3-nk": functools.partial(_product, "kodaira-thurston", "s3xs3-nk"),
    "su2-four relabelled": _su2_four_relabelled,
}


@st.composite
def two_step_nilpotent(draw):
    """A 2-step nilpotent algebra of dimension 4, 6 or 8 with the standard
    metric and J: the brackets of the first dim - m frame vectors are
    integer combinations of the last m, which are central, so Jacobi and
    d d = 0 hold by construction."""
    dim = draw(st.sampled_from([4, 6, 8]))
    m = draw(st.integers(1, dim // 2))
    low = dim - m
    coeff = st.integers(-2, 2)
    structure = {}
    for i in range(low):
        for j in range(i + 1, low):
            vals = {k: Scalar(c, 0, 0, 0) for k in range(low, dim) if (c := draw(coeff))}
            if vals:
                structure[(i, j)] = vals
    return LieAlgebraModel("nil", dim, 1, structure, _identity_metric(dim), _standard_j(dim))


def _fresh_su2_four():
    model = model_from_json(model_to_json(builtin_model("su2-four")))
    model.orthogonalized().d()
    return model


class TestBetti:
    def test_torus(self, torus6):
        assert betti_numbers(torus6) == [comb(6, k) for k in range(7)]

    def test_s3xs3(self, s3xs3):
        assert betti_numbers(s3xs3) == [1, 0, 0, 2, 0, 0, 1]

    def test_kodaira(self, kodaira):
        # first Betti number 3 distinguishes the nilmanifold from a torus
        assert betti_numbers(kodaira) == [1, 3, 4, 3, 1]

    @pytest.mark.parametrize("name", sorted(BETTI_MODELS))
    def test_clearing_matches_full_ranks(self, name):
        model = BETTI_MODELS[name]()
        assert validate_model(model).ok
        assert betti_numbers(model) == betti_by_full_ranks(model)

    @given(two_step_nilpotent())
    @settings(max_examples=40, deadline=None)
    def test_clearing_matches_full_ranks_on_two_step_nilpotent_algebras(self, model):
        assert validate_model(model).ok
        betti = betti_numbers(model)
        assert betti == betti_by_full_ranks(model)
        assert betti[0] == betti[-1] == 1 and betti == betti[::-1]
        ranks = ranks_of_d_in_full(model)
        assert ranks == [ranks[model.dim - 1 - k] for k in range(model.dim)] + [0]

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_full_ranks_satisfy_poincare_duality(self, name):
        ranks = ranks_of_d_in_full(builtin_model(name))
        n = len(ranks) - 1
        assert ranks[n] == ranks[n - 1] == 0
        assert all(ranks[k] == ranks[n - 1 - k] for k in range(n))

    def test_a_non_unimodular_model_raises_instead_of_a_wrong_vector(self):
        # aff(1): [e1, e2] = e2, so du^2 = -u^1 ^ u^2 and d has rank 1 on degree 1
        aff = LieAlgebraModel("aff1", 2, 1, {(0, 1): {1: Scalar(1, 0, 0, 0)}}, _identity_metric(2), _standard_j(2))
        assert [issue.check for issue in validate_model(aff).issues] == ["unimodular"]
        assert betti_by_full_ranks(aff) == [1, 1, 0]
        with pytest.raises(AssertionError, match="rank 1 on degree 1: the model is not unimodular"):
            betti_numbers(aff)

    def test_clearing_leaves_su2_four_degree_six_459_rows_and_builds_no_scalar(self, monkeypatch, scalars_built):
        model = _fresh_su2_four()
        comp = model.orthogonalized()
        assert len(comp.d().entry_rows(degree_masks(12, 6))[0]) == 774  # every row, ranked in full
        calls = []
        eliminate = hodge.pivot_columns

        def spy(rows, d):
            pivots = eliminate(rows, d)
            calls.append((len(rows), len(pivots)))
            return pivots

        monkeypatch.setattr(hodge, "pivot_columns", spy)
        scalars_built[0] = 0
        assert betti_numbers(model) == [1, 0, 0, 4, 0, 0, 6, 0, 0, 4, 0, 0, 1]
        assert scalars_built[0] == 0
        # one elimination per degree, from degree 12 down to 6; degrees 5 to 0
        # by Poincare duality
        assert len(calls) == 7
        assert calls[12 - 6] == (459, 459)  # 792 - rank d_7 rows, all independent since b_7 = 0

    def test_clearing_one_extra_row_changes_su2_four_and_the_oracle_sees_it(self, monkeypatch):
        model = _fresh_su2_four()
        entry_rows = GradedOperator.entry_rows

        def one_more(self, masks, skip_rows=()):
            if masks and masks[0].bit_count() == 6:
                extra = min(r for c in masks for r in self.coords.get(c, {}) if r not in skip_rows)
                skip_rows = {*skip_rows, extra}
            return entry_rows(self, masks, skip_rows)

        monkeypatch.setattr(GradedOperator, "entry_rows", one_more)
        mutated = betti_numbers(model)
        assert mutated != betti_by_full_ranks(model)
        assert mutated[5:8] == [1, 8, 1]  # rank d_6, and by duality rank d_5, one short


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
        assert dict(scalar_columns(s_frame(model))) == frame_columns_by_composition(model, s_op)

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


# the four built-ins and the dim-8 and dim-10 products of TestMixedDimensionProducts
ORACLE_MODELS = {name: build for name, build in BETTI_MODELS.items() if name != "su2-four relabelled"}


def _literal(forms):
    return [list(f.coeffs.items()) for f in forms]


class TestCountsByRank:
    """h^{p,q} is the number of columns of type (p,q) of the S frame minus
    the rank of that block (``h_pq``): no kernel vector is built."""

    # su2-four's counts are compared with its kernels and monomial kernels
    # in test_bidegree (``test_harmonic_pq_spans_match_monomial_kernel``)
    @pytest.mark.parametrize("name", sorted(set(ORACLE_MODELS) - {"su2-four"}))
    def test_counts_are_the_kernel_dimensions(self, name):
        model = model_from_json(model_to_json(ORACLE_MODELS[name]()))
        comp = model.orthogonalized()
        n = model.dim // 2
        types = [(p, q) for p in range(n + 1) for q in range(n + 1)]
        counts = [h_pq(model, p, q) for p, q in types]
        assert not [key for key in comp._cache if key.startswith("harmonic_pq:")]  # counted by ranks
        assert counts == [len(harmonic_pq(model, p, q)) for p, q in types]
        assert counts == [len(harmonic_pq_via_monomials(model, p, q)) for p, q in types]

    def test_a_memoized_basis_is_counted_by_its_length(self, monkeypatch):
        model = model_from_json(model_to_json(builtin_model("s3xs3-nk")))
        lengths = [len(harmonic_pq(model, p, q)) for p in range(4) for q in range(4)]

        def refused(rows, d):
            raise AssertionError("a memoized basis is ranked again")

        monkeypatch.setattr(hodge, "pivot_columns", refused)
        assert [h_pq(model, p, q) for p in range(4) for q in range(4)] == lengths

    def test_out_of_range(self, s3xs3):
        for p, q in ((4, 0), (0, -1), (3, 4)):
            with pytest.raises(ValueError):
                h_pq(s3xs3, p, q)

    def test_hodge_numbers_and_vanish_cor_take_no_kernel_and_no_full_adjoint(self, monkeypatch):
        # on a fresh su2-four: h^{p,q} by ranks, so no kernel vector and no
        # map back through E; the adjoints by order, so no store of mu*,
        # del* or L_mu_omega*, and norm weights of masks of degree <= 3 only,
        # those of the low columns and their rows (53 of the 4,096).  The
        # split of d, which the nearly Kahler report needs, maps d eta
        # through F and E before the guard
        model = _fresh_su2_four()
        comp = model.orthogonalized()
        assert nk_report(model).nearly_kahler

        def refused(*args):
            raise AssertionError("called on the counting route")

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("nkhodge"):
                for name in ("sparse_kernel", "algebra_map_apply"):
                    if hasattr(module, name):
                        monkeypatch.setattr(module, name, refused)
        assert hodge_numbers(model).sum_rule_holds()
        assert run_check(model, "VANISH_COR").status == "pass"
        assert [comp._cache[name]._coords for name in ("adj:mu", "adj:del", "adj:L_mu_omega")] == [None] * 3
        gram = comp.gram()
        assert gram._inv and max(m.bit_count() for m in (*gram._w, *gram._inv)) == 3


class TestScalarRowOracle:
    """Every kernel and rank reads its block as entry rows straight off the
    integer store (``GradedOperator.entry_rows``); the Scalar-row route it
    replaced gives literally the same bases, Betti numbers and pivots."""

    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    def test_kernels_and_ranks_match_the_scalar_row_route(self, name):
        model = ORACLE_MODELS[name]()
        comp = model.orthogonalized()
        for k in range(model.dim + 1):
            assert _literal(harmonic_space(model, k)) == _literal(harmonic_space_by_scalar_rows(model, k)), k
        n = model.dim // 2
        for p in range(n + 1):
            for q in range(n + 1):
                assert _literal(harmonic_pq(model, p, q)) == _literal(harmonic_pq_by_scalar_rows(model, p, q)), (p, q)
        assert betti_numbers(model) == betti_by_full_ranks(model)
        # VANISH_COR's per-type ranks, pivot for pivot
        pqb = pq_basis(comp)
        frame = pqb.frame(_difference_laplacian(comp))
        for p in range(n + 1):
            for q in range(n + 1):
                masks = pqb.monomial_masks(p, q)
                pivots = [masks[j] for j in linalg.pivot_columns(*frame.entry_rows(masks))]
                assert pivots == scalar_pivot_columns(frame, masks), (p, q)


class _TouchedStore(dict):
    """A store that records the columns read through ``get`` and refuses a
    walk over every column."""

    def __init__(self, store, touched):
        super().__init__(store)
        self.touched = touched

    def get(self, key, default=None):
        self.touched.append(key)
        return super().get(key, default)

    def items(self):
        raise AssertionError("a block read walks the whole store")

    __iter__ = keys = values = items


def test_su2_four_elimination_builds_no_scalar_row_and_reads_only_its_blocks(monkeypatch):
    model = _fresh_su2_four()
    comp = model.orthogonalized()
    pq_basis(comp)  # the eta-frame's small Scalar inverse is built before the guard
    reads = []
    entry_rows = GradedOperator.entry_rows

    def guarded(self, masks, skip_rows=()):
        touched = []
        if self._coords is None:
            # held by Koszul coefficients: the columns summed or found summed
            columns = self._columns
            self._columns = _TouchedColumns(columns, touched)
        else:
            store = self._coords
            self._coords = _TouchedStore(store, touched)
        try:
            out = entry_rows(self, masks, skip_rows)
        finally:
            if self._coords is None:
                columns.update(self._columns)
                self._columns = columns
            else:
                self._coords = store
        assert touched == sorted(masks)
        reads.append(len(masks))
        return out

    def refused(rows):
        raise AssertionError("Scalar rows built for elimination")

    monkeypatch.setattr(GradedOperator, "entry_rows", guarded)
    monkeypatch.setattr(linalg, "_entry_rows", refused)
    assert hodge_numbers(model).sum_rule_holds()
    assert run_check(model, "HODGE_ABCD").status == "pass"
    assert run_check(model, "VANISH_COR").status == "pass"
    # 7 Betti ranks (degrees 12 to 6), 49 ranks of S (``h_pq``), 49 kernels
    # of S (HODGE_ABCD, which takes no Delta_d kernel where nullity(S) =
    # b_k, here in every degree), and VANISH_COR's ranks on the 9 types
    # with h^{p,q} != 0 only
    assert len(reads) == 7 + 49 + 49 + 9
    assert reads[-9:] == [len(pq_basis(comp).monomial_masks(p, q)) for p, q in _nonzero_types(hodge_numbers(model))]


def test_su2_four_vanish_cor_after_the_hodge_table_builds_no_store(monkeypatch):
    # the S frame and the h^{p,q} are memoized by the Hodge table; the
    # difference frame is held by its Koszul coefficients, its type read off
    # them, and its blocks summed column by column on the 9 types with
    # h^{p,q} != 0, 1,212 of its 4,096 columns: no store is built
    model = _fresh_su2_four()
    assert hodge_numbers(model).sum_rule_holds()
    built = []
    reconstruct = operators._reconstruct

    def counting(dim, coeffs):
        built.append(dim)
        return reconstruct(dim, coeffs)

    monkeypatch.setattr(operators, "_reconstruct", counting)
    read = []
    entry_rows = GradedOperator.entry_rows

    def recording(self, masks, skip_rows=()):
        read.extend(masks)
        return entry_rows(self, masks, skip_rows)

    monkeypatch.setattr(GradedOperator, "entry_rows", recording)
    assert run_check(model, "VANISH_COR").status == "pass"
    assert built == []
    assert len(read) == 1212


def _nonzero_types(report):
    return [(p, q) for p, row in enumerate(report.h) for q, h in enumerate(row) if h]


class _TouchedColumns(dict):
    """The summed columns of an operator held by Koszul coefficients, which
    records every mask looked up."""

    def __init__(self, columns, touched):
        super().__init__(columns)
        self.touched = touched

    def __contains__(self, key):
        self.touched.append(key)
        return super().__contains__(key)


class TestKunneth:
    """Betti numbers and Hodge tables of products are the convolutions of
    their factors' (su2-four is s3xs3-nk x s3xs3-nk as a Lie algebra)."""

    def test_su2_four_is_the_square_of_s3xs3(self, s3xs3, su2four):
        h, betti = hodge_numbers(s3xs3).h, betti_numbers(s3xs3)
        assert hodge_numbers(su2four).h == kunneth(h, h)
        assert betti_numbers(su2four) == kunneth(betti, betti)

    @pytest.mark.parametrize(
        "first, second",
        [("kodaira-thurston", "kodaira-thurston"), ("kodaira-thurston", "s3xs3-nk"), ("s3xs3-nk", "s3xs3-nk")],
    )
    def test_betti_numbers_of_products(self, first, second):
        x, y = builtin_model(first), builtin_model(second)
        assert betti_numbers(_product(first, second)) == kunneth(betti_numbers(x), betti_numbers(y))
