import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from nkhodge.exterior import Form
from nkhodge.models import (
    BUILTIN_NAMES,
    ConnectionTable,
    LieAlgebraModel,
    ValidationIssue,
    builtin_model,
    model_from_json,
    model_hash,
    model_to_json,
    nearly_kahler_residual,
    product_model,
    su3_extract,
    validate_model,
)
from nkhodge.operators import bracket_sum, derivation_from_one_forms
from nkhodge.scalars import MINUS_ONE, ONE, ZERO, rational
from oracles import (
    connection_by_koszul_formula,
    d_squared_by_composition,
    inner_via_minors,
    jacobi_issues_dense,
    nabla_operator,
    verify_connection_densely,
)
from variants import perturbed_structure, scaled_metric


def covariant_derivative(model, i: int, a: Form) -> Form:
    if not 0 <= i < model.dim:
        raise IndexError(f"frame index {i} out of range")
    return nabla_operator(model, i).apply(a)


class TestValidation:
    def test_torus6_all_pass(self, torus6):
        assert validate_model(torus6).ok

    def test_s3xs3_all_pass(self, s3xs3):
        assert validate_model(s3xs3).ok

    def test_broken_jacobi_detected(self, s3xs3):
        bad = perturbed_structure(s3xs3, 0, 1, 4, ONE)
        report = validate_model(bad)
        assert not report.ok
        assert any(issue.check == "jacobi" for issue in report.issues)
        jac = next(issue for issue in report.issues if issue.check == "jacobi")
        assert len(jac.witness) == 4

    def test_sparse_jacobi_matches_dense_oracle(self, s3xs3):
        def jacobi(model):
            return [issue for issue in validate_model(model).issues if issue.check == "jacobi"]

        for name in BUILTIN_NAMES:
            model = builtin_model(name)
            assert jacobi(model) == jacobi_issues_dense(model) == []
        broken = 0
        for i in range(6):
            for j in range(i + 1, 6):
                for k in range(6):
                    bad = perturbed_structure(s3xs3, i, j, k, rational(1, 2))
                    want = jacobi_issues_dense(bad)
                    assert jacobi(bad) == want
                    broken += bool(want)
        # Jacobi fails exactly where d^2 = 0 does (criterion 10's 84 slots)
        assert broken == 84

    def test_asymmetric_constant_on_torus(self, torus6):
        bad = perturbed_structure(torus6, 0, 1, 0, ONE)
        report = validate_model(bad)
        assert any(issue.check == "unimodular" for issue in report.issues)

    def test_single_constant_perturbations_detected(self, s3xs3):
        # generic slots break d^2 = 0 (= Jacobi); the six cyclic su(2) slots
        # merely rescale the bracket, stay Lie, and are caught by the nearly
        # Kahler residual instead
        scaling_slots = {(0, 1, 2), (0, 2, 1), (1, 2, 0), (3, 4, 5), (3, 5, 4), (4, 5, 3)}
        for (i, j, k) in [(0, 1, 4), (0, 1, 0), (0, 3, 1), (1, 2, 5), (2, 4, 0)]:
            bad = perturbed_structure(s3xs3, i, j, k, rational(1, 2))
            d = bad.d()
            assert not d.compose(d).is_zero()
        for (i, j, k) in scaling_slots:
            bad = perturbed_structure(s3xs3, i, j, k, rational(1, 2))
            d = bad.d()
            assert d.compose(d).is_zero()
            assert not nearly_kahler_residual(bad).nearly_kahler

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_d_squared_by_order_matches_the_composition(self, name):
        # d d = (1/2)[[d, d]] is a derivation, so validation takes it from
        # its columns of degree <= 1 (Koszul); in both presentations it is
        # the composed d d, and zero
        model = builtin_model(name)
        for presentation in (model, model.orthogonalized()):
            d = presentation.d()
            assert bracket_sum([], squares=[d]) == d_squared_by_composition(presentation)
            assert validate_model(presentation).ok

    @pytest.mark.parametrize("name", ["s3xs3-nk", "su2-four"])
    def test_a_flipped_coframe_value_fails_alike_on_both_routes(self, name):
        # d with the sign of one coframe value flipped is still a
        # derivation, and in the orthogonalized coframe of either model no
        # longer squares to zero: validation fails with the witness of the
        # composed d d
        comp = model_from_json(model_to_json(builtin_model(name))).orthogonalized()
        d = comp.d()
        images = [d.apply(Form.basis(comp.dim, 1 << i)) for i in range(comp.dim)]
        for i in (0, comp.dim - 1):
            comp._cache["d"] = derivation_from_one_forms(comp.dim, images[:i] + [-images[i]] + images[i + 1 :])
            want = d_squared_by_composition(comp)
            assert not want.is_zero()
            assert validate_model(comp).issues == [ValidationIssue("d_squared", (want.first_witness(),))]


class TestDifferential:
    def test_torus_d_zero(self, torus6):
        assert torus6.d().is_zero()

    def test_su2_convention(self, s3xs3):
        # [e1,e2] = e3 cyclic gives d e^1 = -e^2 ^ e^3
        d = s3xs3.d()
        img = d.apply(Form.basis(6, 0b000001))
        assert img == Form.basis(6, 0b000110, MINUS_ONE)

    def test_kodaira_d(self, kodaira):
        d = kodaira.d()
        assert d.apply(Form.basis(4, 0b1000)) == Form.basis(4, 0b0011)
        for i in range(3):
            assert d.apply(Form.basis(4, 1 << i)).is_zero()

    def test_d_squared_zero(self, s3xs3, kodaira):
        for m in (s3xs3, kodaira):
            d = m.d()
            assert d.compose(d).is_zero()


class TestConnection:
    def test_torus_flat(self, torus6):
        gamma = torus6.connection().gamma
        assert all(
            gamma[i][j][k].is_zero() for i in range(6) for j in range(6) for k in range(6)
        )

    def test_biinvariant_on_single_su2(self):
        structure = {}
        from nkhodge.models import _su2_structure

        _su2_structure(0, structure)
        # pad with an abelian direction to keep the dimension even
        g = [[ONE if i == j else ZERO for j in range(4)] for i in range(4)]
        jmat = [[ZERO] * 4 for _ in range(4)]
        jmat[0][1] = MINUS_ONE
        jmat[1][0] = ONE
        jmat[2][3] = MINUS_ONE
        jmat[3][2] = ONE
        m = LieAlgebraModel("su2xR", 4, 1, structure, g, jmat)
        gamma = m.connection().gamma
        # nabla_{e1} e2 = (1/2)[e1, e2] = e3/2
        assert gamma[0][1][2] == rational(1, 2)
        assert gamma[0][1][0].is_zero()

    def test_covariant_derivative_invariant_forms_flat(self, torus6):
        f = Form.basis(6, 0b000111)
        for i in range(6):
            assert covariant_derivative(torus6, i, f).is_zero()

    def test_covariant_derivative_index_range(self, torus6):
        with pytest.raises(IndexError):
            covariant_derivative(torus6, 6, Form.basis(6, 0b1))

    def test_leibniz_and_pairing_compatibility(self, s3xs3):
        # nabla_i is a degree-0 derivation and differentiates the pairing to zero
        a = Form.basis(6, 0b000011)
        b = Form.basis(6, 0b000101)
        gram = s3xs3.gram()
        for i in range(6):
            nab = nabla_operator(s3xs3, i)
            assert nab.apply(a.wedge(b)) == nab.apply(a).wedge(b) + a.wedge(nab.apply(b))
            assert (inner_via_minors(gram, nab.apply(a), b) + inner_via_minors(gram, a, nab.apply(b))).is_zero()

    def test_trace_contraction_of_nabla_omega_vanishes(self, s3xs3):
        # sum_{ij} g^{ij} iota(u_i) nabla_j omega = 0
        ginv = s3xs3.gram().g_inv
        acc = Form.zero(6)
        for j in range(6):
            nab = s3xs3.nabla_omega(j)
            vec = [ginv[i][j] for i in range(6)]
            acc = acc + nab.contract_vector(vec)
        assert acc.is_zero()

    def test_d_omega_is_three_nabla_omega(self, s3xs3):
        d_om = s3xs3.d().apply(s3xs3.omega())
        for i in range(6):
            for j in range(i + 1, 6):
                for k in range(j + 1, 6):
                    mask = (1 << i) | (1 << j) | (1 << k)
                    nab = s3xs3.nabla_omega(i)
                    pair_mask = (1 << j) | (1 << k)
                    val = nab.coeffs.get(pair_mask, ZERO)
                    assert d_om.coeffs.get(mask, ZERO) == rational(3) * val


CONNECTION_MODELS = {
    **{name: lambda name=name: builtin_model(name) for name in BUILTIN_NAMES},
    **{
        f"{a} x {b}": lambda a=a, b=b: product_model(builtin_model(a), builtin_model(b))
        for a, b in (("torus6", "s3xs3-nk"), ("kodaira-thurston", "s3xs3-nk"), ("s3xs3-nk", "kodaira-thurston"))
    },
}


def _literal_table(gamma):
    return [[[(v.a, v.b, v.c, v.e, v.q, v.d) for v in row] for row in block] for block in gamma]


def _first_failure(verify) -> str | None:
    try:
        verify()
    except ValueError as exc:
        return str(exc)
    return None


class TestConnectionOracle:
    """``ConnectionTable`` sums the nonzero terms of the Koszul formula and
    of its metric and torsion tests only; the dense sums over every index
    give literally the same table and the same first failing triple."""

    @pytest.mark.parametrize("name", sorted(CONNECTION_MODELS))
    def test_table_is_the_dense_koszul_formula_in_both_presentations(self, name):
        model = CONNECTION_MODELS[name]()
        for presentation in (model, model.orthogonalized()):
            want = connection_by_koszul_formula(presentation)
            assert _literal_table(ConnectionTable(presentation).gamma) == _literal_table(want)

    @pytest.mark.parametrize("name", ["s3xs3-nk", "su2-four"])
    def test_one_entry_changed_fails_at_the_dense_routes_triple(self, name):
        model = builtin_model(name)
        table = model.connection()
        n = model.dim
        triples = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
        nonzero = [(i, j, k) for i, j, k in triples if not table.gamma[i][j][k].is_zero()]
        # every nonzero entry negated on dim 6, a spread of them on dim 12,
        # and a few zero entries made nonzero
        picked = nonzero if n == 6 else nonzero[:: len(nonzero) // 12]
        zeros = [(0, 0, 0), (n - 1, 0, n // 2), (1, n - 1, n - 1)]
        seen = set()
        for i, j, k in picked + zeros:
            old = table.gamma[i][j][k]
            mutated = copy.copy(table)
            mutated.gamma = [[row[:] for row in block] for block in table.gamma]
            mutated.gamma[i][j][k] = -old if not old.is_zero() else ONE
            got = _first_failure(lambda: mutated._verify(model))
            assert got is not None
            assert got == _first_failure(lambda: verify_connection_densely(model, mutated.gamma)), (i, j, k)
            seen.add(got.split(" (")[0])
        assert seen == {"connection not metric", "connection has torsion"}

    @pytest.mark.parametrize("name", ["torus6", "s3xs3-nk"])
    def test_a_perturbed_structure_constant_is_torsion(self, name):
        # the table of the model, verified against the model with one
        # structure constant shifted, not validated: on torus6 every Gamma
        # term of the torsion test is zero, so only c^k_ij can raise it
        model = builtin_model(name)
        table = model.connection()
        for i, j, k in ((0, 1, 2), (0, 1, 4), (2, 5, 0), (3, 4, 5)):
            bad = perturbed_structure(model, i, j, k, rational(1, 2))
            want = f"connection has torsion ({i + 1},{j + 1},{k + 1})"
            assert _first_failure(lambda: verify_connection_densely(bad, table.gamma)) == want
            assert _first_failure(lambda: table._verify(bad)) == want


class TestNearlyKahler:
    def test_flags(self, torus6, s3xs3, kodaira):
        for model, nk, strict, kahler in (
            (torus6, True, False, True),
            (s3xs3, True, True, False),
            (kodaira, False, False, False),
        ):
            rep = nearly_kahler_residual(model)
            assert rep.nearly_kahler is nk
            assert rep.strict is strict
            assert rep.kahler is kahler
            assert rep.nearly_kahler == model.expected["nearly_kahler"]
            assert rep.strict == model.expected["strict"]
            assert rep.kahler == model.expected["kahler"]

    def test_kodaira_witness(self, kodaira):
        rep = nearly_kahler_residual(kodaira)
        assert rep.witness is not None
        assert rep.residual_approx > 0

    def test_ansatz_rigidity(self, s3xs3):
        # perturbing the golden metric or J data destroys the NK property
        tweaked = LieAlgebraModel(
            "tweak",
            6,
            3,
            s3xs3.structure,
            [
                [v + rational(1, 7) if (i, j) in ((0, 3), (3, 0)) else v for j, v in enumerate(row)]
                for i, row in enumerate(s3xs3.metric)
            ],
            s3xs3.J,
        )
        assert not nearly_kahler_residual(tweaked).nearly_kahler

    def test_nijenhuis_nonzero_on_strict(self, s3xs3, torus6):
        assert not s3xs3.nijenhuis_op().is_zero()
        assert torus6.nijenhuis_op().is_zero()


class TestSU3:
    def test_lambda_squared_golden(self, s3xs3):
        su3 = su3_extract(s3xs3)
        assert su3.lambda_sq == rational(8, 9)
        # independent route: lambda^2 = (4/9) |mu omega|^2
        norm = inner_via_minors(s3xs3.gram(), su3.theta_s, su3.theta_s)
        assert su3.lambda_sq == rational(4, 9) * norm

    def test_native_extract_maps_back_and_builds_only_coframe_data(self):
        # computed in the orthogonalized presentation, returned in the native coframe
        from nkhodge.bidegree import differential_split

        fresh = model_from_json(model_to_json(builtin_model("s3xs3-nk")))
        su3 = su3_extract(fresh)
        assert set(fresh._cache) <= {"gram", "d", "ortho"}
        native = model_from_json(model_to_json(fresh))
        assert su3.theta_s == differential_split(native).mu.apply(native.omega())
        assert su3.omega == native.omega()
        assert su3.lambda_sq == rational(8, 9)

    def test_torus_not_strict(self, torus6):
        with pytest.raises(ValueError, match="not strict"):
            su3_extract(torus6)

    def test_lambda_scales_inversely_with_metric(self, s3xs3):
        scaled = scaled_metric(s3xs3, rational(4))
        su3 = su3_extract(scaled)
        assert su3.lambda_sq == rational(8, 9) / rational(4)

    def test_wrong_dimension(self, kodaira):
        with pytest.raises(ValueError, match="six-dimensional"):
            su3_extract(kodaira)


class TestProduct:
    def test_torus_product_abelian(self, torus6):
        p = product_model(torus6, torus6)
        assert p.dim == 12
        assert not p.structure
        assert validate_model(p).ok

    def test_product_omega_is_sum(self, torus6, s3xs3):
        p = product_model(torus6, s3xs3)
        om = p.omega()
        om1 = torus6.omega()
        om2 = s3xs3.omega()
        expect = {m: v for m, v in om1.coeffs.items()}
        for m, v in om2.coeffs.items():
            expect[m << 6] = v
        assert om == Form(12, expect)

    def test_su2four_is_nk_product(self, su2four):
        assert su2four.dim == 12
        assert validate_model(su2four).ok
        rep = nearly_kahler_residual(su2four)
        assert rep.nearly_kahler and rep.strict and not rep.kahler

    def test_expected_flag_logic(self, torus6, s3xs3):
        p = product_model(torus6, s3xs3)
        assert p.expected == {"nearly_kahler": True, "kahler": False, "strict": True}


class TestModelFiles:
    @pytest.mark.parametrize("name", ["torus6", "s3xs3-nk", "kodaira-thurston", "su2-four"])
    def test_roundtrip_byte_identical(self, name):
        m = builtin_model(name)
        text = model_to_json(m)
        again = model_to_json(model_from_json(text))
        assert again == text

    def test_roundtrip_preserves_behaviour(self, s3xs3):
        m2 = model_from_json(model_to_json(s3xs3))
        assert validate_model(m2).ok
        assert su3_extract(m2).lambda_sq == rational(8, 9)
        assert model_hash(m2) == model_hash(s3xs3)

    def test_rejects_unknown_keys(self, torus6):
        import json

        doc = json.loads(model_to_json(torus6))
        doc["extra"] = 1
        with pytest.raises(ValueError, match="unknown model file keys"):
            model_from_json(json.dumps(doc))

    def test_rejects_non_canonical_scalar(self, torus6):
        text = model_to_json(torus6).replace('"1"', '"2/2"', 1)
        with pytest.raises(ValueError, match="non-canonical"):
            model_from_json(text)

    def test_rejects_non_squarefree_extension(self, torus6):
        import json

        doc = json.loads(model_to_json(torus6))
        doc["extension_d"] = 12
        with pytest.raises(ValueError, match="squarefree"):
            model_from_json(json.dumps(doc))

    def test_rejects_bad_structure_indices(self, s3xs3):
        import json

        doc = json.loads(model_to_json(s3xs3))
        doc["structure_constants"][0]["j"] = doc["structure_constants"][0]["i"]
        with pytest.raises(ValueError, match="indices"):
            model_from_json(json.dumps(doc))

    def test_rejects_string_index(self, kodaira):
        doc = json.loads(model_to_json(kodaira))
        doc["structure_constants"][0]["i"] = "1"
        with pytest.raises(ValueError, match="index i must be an integer"):
            model_from_json(json.dumps(doc))

    def test_rejects_non_list_structure_constants(self, kodaira):
        doc = json.loads(model_to_json(kodaira))
        doc["structure_constants"] = 5
        with pytest.raises(ValueError, match="structure_constants must be a list"):
            model_from_json(json.dumps(doc))

    def test_rejects_duplicate_record(self, kodaira):
        # a later zero record used to erase the model's only bracket
        doc = json.loads(model_to_json(kodaira))
        doc["structure_constants"].append(dict(doc["structure_constants"][0], value="0"))
        with pytest.raises(ValueError, match="duplicate structure constant"):
            model_from_json(json.dumps(doc))

    def test_rejects_non_bool_flag(self, kodaira):
        doc = json.loads(model_to_json(kodaira))
        doc["expected"]["kahler"] = "no"
        with pytest.raises(ValueError, match="boolean flags"):
            model_from_json(json.dumps(doc))

    def test_rejects_non_string_scalar(self, kodaira):
        doc = json.loads(model_to_json(kodaira))
        doc["metric"][0][0] = 1
        with pytest.raises(ValueError, match="metric entries must be scalar literal strings"):
            model_from_json(json.dumps(doc))

    def test_rejects_zero_denominator(self, kodaira):
        doc = json.loads(model_to_json(kodaira))
        doc["metric"][0][0] = "1/0"
        with pytest.raises(ValueError, match="zero denominator"):
            model_from_json(json.dumps(doc))

    def test_rejects_bool_dimension(self, kodaira):
        doc = json.loads(model_to_json(kodaira))
        doc["dimension"] = True
        with pytest.raises(ValueError, match="dimension must be an integer"):
            model_from_json(json.dumps(doc))


_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 20),
    st.sampled_from(["", "0", "1", "-1", "1/2", "1/0", "1*w", "I", "x", "1", "4"]),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["i", "j", "k", "value", "name", "x"]), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def mutated_model_documents(draw):
    """A valid model file with a few fields replaced by arbitrary JSON."""
    doc = json.loads(model_to_json(builtin_model("kodaira-thurston")))
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.sampled_from(["top", "record", "row", "expected"]))
        if target == "top":
            doc[draw(st.sampled_from(sorted(doc) + ["extra"]))] = draw(_JSON_VALUES)
        elif target == "record" and isinstance(doc.get("structure_constants"), list):
            doc["structure_constants"].append(
                draw(st.dictionaries(st.sampled_from(["i", "j", "k", "value"]), _JSON_LEAVES))
            )
        elif target == "row" and isinstance(doc.get("metric"), list) and doc["metric"]:
            doc["metric"][0] = draw(_JSON_VALUES)
        elif target == "expected" and isinstance(doc.get("expected"), dict):
            doc["expected"][draw(st.sampled_from(["kahler", "strict", "other"]))] = draw(_JSON_LEAVES)
    return doc


class TestModelFileFuzz:
    @given(st.one_of(_JSON_VALUES, mutated_model_documents()))
    @settings(max_examples=150, deadline=None)
    def test_any_json_loads_or_raises_value_error(self, doc):
        try:
            model = model_from_json(json.dumps(doc))
        except ValueError:
            return
        assert isinstance(model, LieAlgebraModel)


class TestGramPositivity:
    def test_every_basis_form_has_positive_norm(self, s3xs3):
        gram = s3xs3.gram()
        for mask in range(64):
            f = Form.basis(6, mask)
            v = inner_via_minors(gram, f, f)
            assert v.is_real() and v.sign() > 0


class TestOrthogonalPresentation:
    def test_diagonal_metric_and_same_invariants(self, s3xs3):
        ortho = s3xs3.orthogonalized()
        assert ortho is not s3xs3
        assert ortho.metric_is_diagonal()
        assert validate_model(ortho).ok
        rep = nearly_kahler_residual(ortho)
        assert rep.nearly_kahler and rep.strict
        assert su3_extract(ortho).lambda_sq == rational(8, 9)

    def test_idempotent_on_diagonal(self, torus6):
        assert torus6.orthogonalized() is torus6

    def test_metric_scanned_once(self, monkeypatch):
        # the diagonal-or-coupled decision is memoized, so to_native does not
        # rescan the metric for every harmonic form it returns
        from nkhodge.hodge import harmonic_pq

        fresh = model_from_json(model_to_json(builtin_model("torus6")))
        calls = []
        original = LieAlgebraModel.metric_is_diagonal

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(LieAlgebraModel, "metric_is_diagonal", counting)
        total = sum(len(harmonic_pq(fresh, p, q)) for p in range(4) for q in range(4))
        assert total == 64
        assert calls == [fresh]

    def test_memoized_choice_keeps_no_cycle(self):
        # a diagonal model is its own presentation; the memo must not hold
        # it, or every model (and its memoized operators) would wait for the
        # cycle collector
        import weakref

        fresh = model_from_json(model_to_json(builtin_model("torus6")))
        assert fresh.orthogonalized() is fresh
        ref = weakref.ref(fresh)
        del fresh
        assert ref() is None
