"""The integer-coordinate operator store against the dict-of-Scalar reference.

Every operation of ``GradedOperator`` is compared with ``oracles.ScalarOperator``
on random operators in dimension three over Q(sqrt 3)(i) and Q(i), with
d = 1 and d = 3 operators mixed and coefficients above 2**64: the entries,
the column and row orders that elimination sees, nnz, the witness and the
float residual, and the normalization of the store itself.  The Koszul sums
(``reconstruct``, ``derivation_from_one_forms``, the Koszul coefficients
and a derivation applied to forms) are compared in the same way with the
Scalar Koszul route of ``oracles``, degree errors included, and every block
of ``algebra_map_blocks`` with the Scalar expansion ``oracles.wedge_image``;
a spy checks that the coefficient forms are prepared for the Koszul sum
once per reconstruction, however many forms it applies, and per new
coefficient.  An operator held by its Koszul coefficients reads, through
every reader, literally as the same operator with its store built at once
(``oracles.koszul_sum_at_once``), on random coefficients and on every
reconstruction the catalogue makes.
``combination`` is compared with the ScalarOperator chain of its terms and
with the chain of binary sums, whose store it must be literally.
The brackets by order (``bracket_sum``, ``graded_commutator``,
``laplacian``, and ``bracket_columns``, their low columns) are compared
with the composed graded commutator ``oracles.commutator_by_composition``,
on random derivations, multiplication operators and their adjoints, and on
the split of d of every built-in, where [[P, L_beta]] is also L_{P beta};
a false order bound shows, and an operand without a bound is refused.
The adjoint by order (``adjoint_by_order``) is compared with the full
transpose and the Scalar one on the same bounded operators, and with a
bound one too low it differs.
"""

import math
import subprocess
import sys
from pathlib import Path

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from nkhodge import operators as operators_module
from nkhodge.bidegree import DifferentialSplit, named_operator
from nkhodge.checks import CHECKS, _Acc
from nkhodge.exterior import Form, GramData
from nkhodge.models import BUILTIN_NAMES, builtin_model, model_from_json, model_to_json
from nkhodge.operators import (
    MINUS_ONE,
    GradedOperator,
    adjoint,
    adjoint_by_order,
    algebra_map_blocks,
    algebraic_order_at_most,
    bracket_columns,
    bracket_sum,
    combination,
    derivation_from_one_forms,
    from_low_columns,
    graded_commutator,
    laplacian,
    low_columns,
    mult_operator,
    reconstruct,
)
from nkhodge.linalg import transpose
from nkhodge.scalars import ONE, ZERO, Scalar
from oracles import (
    ScalarDerivationAction,
    ScalarOperator,
    commutator_by_composition,
    composed_requirements,
    from_low_columns_at_once,
    koszul_coefficients,
    koszul_sum_at_once,
    reconstruct_at_once,
    scalar_adjoint,
    scalar_derivation,
    scalar_koszul_coefficients,
    scalar_reconstruct,
    wedge_image,
)

DIM = 3
MASKS = range(1 << DIM)
SRC = Path(__file__).resolve().parent.parent / "src"


@st.composite
def one_of(draw, *options):
    """``st.one_of`` over fixed strategies, without the filtered strategy
    that it builds on every draw."""
    return draw(options[draw(st.integers(0, len(options) - 1))])


coordinates = one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**80), 2**80))
denominators = one_of(st.integers(1, 12), st.integers(1, 2**70))


@st.composite
def scalars(draw, d=3, real=False):
    """A scalar of Q(sqrt d)(i), possibly zero; real when asked."""
    a, c = draw(coordinates), 0 if real else draw(coordinates)
    b, e = (0, 0) if d == 1 else (draw(coordinates), 0 if real else draw(coordinates))
    return Scalar(a, b, c, e, draw(denominators), d)


fields = st.tuples(st.sampled_from([1, 3]), st.booleans())  # (d, real)


@st.composite
def operators(draw, degree=None, field=None):
    """An operator of the given degree (any entries when None), over
    Q(sqrt 3)(i) or Q(i) and real on a coin flip unless the field is given,
    with repeated entries so that sums cancel."""
    d, real = draw(fields) if field is None else field
    pool = draw(st.lists(scalars(d, real), min_size=1, max_size=2))
    cols = {}
    for _ in range(draw(st.integers(0, 12))):
        c = draw(st.sampled_from(MASKS))
        rows = [r for r in MASKS if degree is None or r.bit_count() == c.bit_count() + degree]
        if rows:
            v = draw(st.sampled_from(pool))
            cols.setdefault(c, {})[draw(st.sampled_from(rows))] = v if draw(st.booleans()) else -v
    return GradedOperator(DIM, cols, degree)


@st.composite
def graded_pairs(draw):
    return draw(operators(draw(st.integers(-1, 2)))), draw(operators(draw(st.integers(-1, 2))))


@st.composite
def diagonal_metrics(draw):
    """A diagonal metric with entries a + b sqrt 3 > 0 (a > 2|b|)."""
    diag = []
    for _ in range(DIM):
        b = draw(st.integers(-3, 3))
        a = 2 * abs(b) + draw(st.integers(1, 5))
        diag.append(Scalar(a, b, 0, 0, draw(st.integers(1, 6)), 3))
    return GramData([[diag[i] if i == j else ZERO for j in range(DIM)] for i in range(DIM)])


@st.composite
def forms(draw):
    d = draw(st.sampled_from([1, 3]))
    return Form(DIM, {draw(st.sampled_from(MASKS)): draw(scalars(d)) for _ in range(draw(st.integers(0, 5)))})


def assert_same(op: GradedOperator, ref: ScalarOperator):
    assert isinstance(op, GradedOperator)
    assert op.degree == ref.degree
    assert op.cols == ref.cols
    # the column and row orders of the store are those of the Scalar store
    assert list(op.coords) == list(ref.cols)
    assert all(list(op.coords[c]) == list(col) for c, col in ref.cols.items())
    assert op.nnz() == ref.nnz()
    assert op.is_zero() == ref.is_zero()
    assert op.first_witness() == ref.first_witness()
    assert op.max_abs_approx() == ref.max_abs_approx()
    # the store is normalized, so equality of stores is equality of matrices
    entries = [t for col in op.coords.values() for t in col.values()]
    assert op.q > 0 and math.gcd(op.q, *(x for t in entries for x in t)) == 1
    assert all(any(t) for t in entries)
    assert (op.d != 1) == any(t[1] or t[3] for t in entries)
    assert op.real == (not any(t[2] or t[3] for t in entries))
    assert op == GradedOperator(ref.dim, ref.cols, ref.degree)


def with_order_bound(p: GradedOperator, r: int) -> GradedOperator:
    """P declared of order <= r (a copy; the store is shared)."""
    out = p.with_degree(p.degree)
    out.order_bound = r
    return out


EXAMPLES = settings(max_examples=150, deadline=None)


class TestAgainstScalarStore:
    @given(operators())
    @EXAMPLES
    def test_conversion_round_trip(self, p):
        assert_same(p, ScalarOperator.of(p))

    @given(operators(), operators())
    @EXAMPLES
    def test_add_sub_neg(self, p, q):
        rp, rq = ScalarOperator.of(p), ScalarOperator.of(q)
        assert_same(p + q, rp + rq)
        assert_same(p - q, rp - rq)
        assert_same(-p, -rp)
        assert (p + q) - q == p
        assert (p - p).is_zero()

    @given(operators(), operators(), st.one_of(st.integers(2, 12), st.integers(2, 2**70)))
    @EXAMPLES
    def test_sub_is_the_sum_with_the_negation(self, p, q, k):
        # each operand over Q, Q(i) or Q(sqrt 3)(i), on unequal denominators:
        # the signed merge of p - q gives the store of p + (-q), q, d, real
        # flag and column and row orders included
        q = q.scale(Scalar(1, 0, 0, 0, k))
        assume(p.q != q.q)
        assert_literal(p - q, p + (-q))
        assert_literal(q - p, q + (-p))

    @given(operators(), st.sampled_from([1, 3]).flatmap(scalars))
    @EXAMPLES
    def test_scale(self, p, s):
        assert_same(p.scale(s), ScalarOperator.of(p).scale(s))

    @given(operators(), operators())
    @EXAMPLES
    def test_compose(self, p, q):
        assert_same(p.compose(q), ScalarOperator.of(p).compose(ScalarOperator.of(q)))

    @given(fields.flatmap(lambda f: st.tuples(operators(field=f), operators(field=f))))
    @EXAMPLES
    def test_compose_and_add_in_one_field(self, pair):
        # both factors real, or both over Q(i): the fast paths of compose
        p, q = pair
        rp, rq = ScalarOperator.of(p), ScalarOperator.of(q)
        assert_same(p.compose(q), rp.compose(rq))
        assert_same(p.compose(q) + q.compose(p), rp.compose(rq) + rq.compose(rp))

    @given(operators())
    @EXAMPLES
    def test_conjugated(self, p):
        assert_same(p.conjugated(), ScalarOperator.of(p).conjugated())
        assert p.conjugated().conjugated() == p

    @given(st.integers(-1, 2).flatmap(operators), diagonal_metrics())
    @EXAMPLES
    def test_adjoint(self, p, gram):
        assert_same(adjoint(p, gram), scalar_adjoint(ScalarOperator.of(p), gram))

    @given(graded_pairs())
    @EXAMPLES
    def test_graded_commutator(self, pair):
        p, q = pair
        want = commutator_by_composition(ScalarOperator.of(p), ScalarOperator.of(q))
        assert_same(commutator_by_composition(p, q), want)
        # every operator on the forms of dimension DIM has order <= DIM, so
        # with that bound the bracket by order is the same matrix, rebuilt
        # by one reconstruction in its own key order
        got = graded_commutator(*(with_order_bound(x, DIM) for x in pair))
        assert got == GradedOperator(DIM, want.cols, want.degree) and got.degree == want.degree
        assert got.first_witness() == want.first_witness()
        assert got.max_abs_approx() == want.max_abs_approx()

    @given(operators(), forms())
    @EXAMPLES
    def test_apply(self, p, f):
        got, want = p.apply(f), ScalarOperator.of(p).apply(f)
        assert got == want
        assert list(got.coeffs) == list(want.coeffs)
        for mask in MASKS:
            assert p.column_form(mask) == ScalarOperator.of(p).column_form(mask)

    @given(operators(), st.data())
    @EXAMPLES
    def test_entry_rows_are_the_scalar_rows_over_q(self, p, data):
        # any masks in any order, rows left out: the block's rows in order
        # of first appearance over its columns in increasing mask order,
        # column j at masks[j], each entry the store's coordinates over 1
        masks = data.draw(st.lists(st.sampled_from(MASKS), unique=True))
        skip = set(data.draw(st.lists(st.sampled_from(MASKS))))
        rows, d = p.entry_rows(masks, skip)
        index = {m: j for j, m in enumerate(masks)}
        cols = ((index[c], {r: v for r, v in p.column_form(c).coeffs.items() if r not in skip}) for c in sorted(masks))
        got = [[(j, Scalar(a, b, c, e, p.q, d)) for j, (a, b, c, e, one) in row.items() if one == 1] for row in rows]
        assert d == p.d
        assert got == [list(row.items()) for row in transpose(cols)]
        # one shared tuple per distinct entry
        entries = [t for row in rows for t in row.values()]
        assert len({id(t) for t in entries}) == len(set(entries))

    @given(operators(), operators())
    @EXAMPLES
    def test_equality(self, p, q):
        assert (p == q) == (ScalarOperator.of(p) == ScalarOperator.of(q))
        assert p.with_degree(5) == p


@st.composite
def combination_terms(draw):
    """1-5 (coefficient, operator) terms: operators over Q, Q(i), Q(sqrt 3)
    or Q(sqrt 3)(i), each over a denominator of its own, and coefficients
    that include 0 and -1."""
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        p = draw(operators(draw(st.sampled_from([None, 0, 1]))))
        p = p.scale(Scalar(1, 0, 0, 0, draw(st.integers(1, 12))))
        c = draw(st.one_of(st.just(ZERO), st.just(MINUS_ONE), st.sampled_from([1, 3]).flatmap(scalars)))
        terms.append((c, p))
    return terms


class TestCombination:
    @given(combination_terms())
    @EXAMPLES
    def test_one_merge_is_the_chain(self, terms):
        got = combination(terms)
        ref = ScalarOperator.of(terms[0][1]).scale(terms[0][0])
        chain = terms[0][1].scale(terms[0][0])
        for c, p in terms[1:]:
            ref = ref + ScalarOperator.of(p).scale(c)
            chain = chain + p.scale(c)
        assert_same(got, ref)
        assert_literal(got, chain)

    def test_a_column_emptied_and_re_added_comes_back_whole(self):
        one, two, five, seven = (Scalar(k, 0, 0, 0) for k in (1, 2, 5, 7))
        p1 = GradedOperator(DIM, {0b010: {0b001: one, 0b100: two}, 0b001: {0b001: one}})
        p2 = GradedOperator(DIM, {0b010: {0b001: -one, 0b100: -two}})
        p3 = GradedOperator(DIM, {0b010: {0b100: five, 0b001: seven}})
        p4 = GradedOperator(DIM, {0b010: {0b001: one}})
        before = {c: dict(col) for c, col in p3.coords.items()}
        got = combination([(ONE, p1), (ONE, p2), (ONE, p3), (ONE, p4)])
        # term 2 empties column e2 and term 3 brings it back, at the end
        assert list(got.coords) == [0b001, 0b010]
        assert list(got.coords[0b010].items()) == [(0b100, (5, 0, 0, 0)), (0b001, (8, 0, 0, 0))]
        assert_literal(got, p1 + p2 + p3 + p4)
        # term 4 changed a column that term 3 lent, not term 3's store
        assert p3.coords == before
        # a column that one term empties and refills stays where it was
        p5 = GradedOperator(DIM, {0b010: {0b001: -one, 0b100: -two, 0b010: five}})
        got = combination([(ONE, p1), (ONE, p5)])
        assert list(got.coords) == [0b010, 0b001]
        assert got.coords[0b010] == {0b010: (5, 0, 0, 0)}
        assert_literal(got, p1 + p5)

    def test_degree_and_order_bound(self):
        d1 = derivation_from_one_forms(DIM, [Form.basis(DIM, 0b110)] * DIM)
        l0 = mult_operator(Form.basis(DIM, 0b001))
        unbounded = GradedOperator(DIM, {0b001: {0b011: ONE}}, 1)
        assert (d1.degree, d1.order_bound, l0.degree, l0.order_bound) == (1, 1, 1, 0)
        both = combination([(ONE, d1), (MINUS_ONE, l0)])
        assert (both.degree, both.order_bound) == (1, 1)
        assert combination([(ONE, d1), (ONE, unbounded)]).order_bound is None
        # a zero coefficient makes its term the zero operator, bounded by 0
        assert combination([(ONE, l0), (ZERO, unbounded)]).order_bound == 0
        assert combination([(ZERO, d1)]) == GradedOperator.zero(DIM)
        assert combination([(ONE, l0), (ONE, l0.with_degree(None))]).degree is None
        assert combination([(ONE, l0), (ZERO, l0.with_degree(2))]).degree is None


POOLS = {d: st.lists(scalars(d), min_size=1, max_size=2) for d in (1, 3)}  # one or two scalars


@st.composite
def coefficient_forms(draw, masks=MASKS, max_terms=4):
    """A form on the given masks, possibly zero and not homogeneous, with
    entries drawn from a pool of two scalars of Q(sqrt 3)(i) or Q(i) (mixed
    denominators, large coefficients) and their negatives, so that the
    Koszul sums cancel."""
    pool = draw(POOLS[draw(st.sampled_from([1, 3]))])
    terms = [(m, s) for m in masks for v in pool for s in (v, -v)]
    # one draw a term, from strategies built once (a new one is costly to draw from)
    index = st.integers(0, len(terms) - 1)
    return Form(DIM, dict(terms[draw(index)] for _ in range(draw(st.integers(0, max_terms)))))


@st.composite
def koszul_data(draw):
    """(beta, degree): coefficient forms keyed by J and a declared degree.
    Half the draws make every beta_J homogeneous of degree |J| + degree, so
    the sum has that degree; the others mostly violate it (or declare none)."""
    degree = draw(st.sampled_from([None, -1, 0, 1, 2]))
    consistent = degree is not None and draw(st.booleans())
    beta = {}
    for jm in draw(st.lists(st.sampled_from(MASKS), max_size=4, unique=True)):
        masks = [m for m in MASKS if m.bit_count() == jm.bit_count() + degree] if consistent else MASKS
        if masks:
            beta[jm] = draw(coefficient_forms(masks))
    return beta, degree


def assert_literal(op: GradedOperator, ref: GradedOperator):
    """The same normalized store, with the same column and row orders."""
    assert (op.dim, op.degree, op.q, op.d, op.real) == (ref.dim, ref.degree, ref.q, ref.d, ref.real)
    assert op.coords == ref.coords
    assert list(op.coords) == list(ref.coords)
    assert all(list(op.coords[c]) == list(col) for c, col in ref.coords.items())


def assert_same_forms(got: Form, want: Form):
    assert got == want
    assert list(got.coeffs) == list(want.coeffs)


def same_outcome(build, reference):
    """Both raise the same ValueError, or both return a value; returns the
    pair of values (None, None) after a matching error."""
    try:
        want = reference()
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            build()
        assert str(got.value) == str(exc)
        return None, None
    return build(), want


class TestKoszulAgainstScalarRoute:
    @given(koszul_data())
    @EXAMPLES
    def test_reconstruct(self, data):
        beta, degree = data
        got, want = same_outcome(lambda: reconstruct(DIM, beta, degree), lambda: scalar_reconstruct(DIM, beta, degree))
        if want is not None:
            assert_literal(got, want)

    def test_reconstruct_degree_error(self):
        # u^1 as beta_{u^1 u^2}: a term of degree -1 in a sum declared of degree 0
        beta = {0b011: Form.basis(DIM, 0b001)}
        for build in (reconstruct, scalar_reconstruct):
            with pytest.raises(ValueError, match=r"entry \(e1, e1\^e2\) violates degree 0"):
                build(DIM, beta, 0)
        assert_literal(reconstruct(DIM, beta, -1), scalar_reconstruct(DIM, beta, -1))

    @given(st.lists(coefficient_forms(), min_size=DIM, max_size=DIM), st.sampled_from([0, 1, 2]))
    @EXAMPLES
    def test_derivation_from_one_forms(self, images, degree):
        got, want = same_outcome(
            lambda: derivation_from_one_forms(DIM, images, degree), lambda: scalar_derivation(DIM, images, degree)
        )
        if want is not None:
            assert_literal(got, want)

    @given(operators(), st.integers(0, DIM))
    @EXAMPLES
    def test_koszul_coefficients(self, p, r):
        got, want = koszul_coefficients(p, r), scalar_koszul_coefficients(p, r)
        assert list(got) == list(want)
        for jm, form in want.items():
            assert_same_forms(got[jm], form)

    @given(st.lists(coefficient_forms(), min_size=DIM, max_size=DIM), st.lists(forms(), min_size=1, max_size=3))
    @EXAMPLES
    def test_derivation_action(self, images, inputs):
        # the same derivation twice over, so the columns it summed are reused;
        # images of any degree, so the derivation declares none
        action, reference = derivation_from_one_forms(DIM, images, None), ScalarDerivationAction(DIM, images)
        for f in inputs + inputs:
            assert_same_forms(action.apply(f), reference.apply(f))


class TestKoszulPreparedOnce:
    """The coefficient forms are prepared for ``_koszul_column`` once: per
    reconstruction, per derivation held by its coefficients however many
    forms it applies, and per new coefficient in ``koszul_coefficients`` and
    the order test."""

    IMAGES = [
        Form(DIM, {0b011: Scalar(1, 0, 2, 0, 3), 0b110: Scalar(-2, 0, 0, 0)}),
        Form.zero(DIM),
        Form.basis(DIM, 0b101),
    ]

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        original = operators_module._prepare

        def spy(coeffs):
            seen.append(list(coeffs))
            return original(coeffs)

        monkeypatch.setattr(operators_module, "_prepare", spy)
        return seen

    def test_once_per_reconstruct(self, calls):
        derivation_from_one_forms(DIM, self.IMAGES)
        mult_operator(Form.basis(DIM, 0b011))
        reconstruct(DIM, {0b001: Form.basis(DIM, 0b110), 0b011: Form.basis(DIM, 0b100)}, None)
        assert calls == [[0b001, 0b100], [0], [0b001, 0b011]]
        # [[N, Q]] = Q for N the degree-0 derivation with u^i -> u^i and Q of
        # degree 1: one preparation per coefficient that the bracket by order
        # finds, none for its reconstruction
        n = derivation_from_one_forms(DIM, [Form.basis(DIM, 1 << i) for i in range(DIM)], 0)
        q = derivation_from_one_forms(DIM, self.IMAGES)
        calls.clear()
        assert graded_commutator(n, q) == q
        assert calls == [[0b001], [0b100]]

    def test_once_per_derivation_action(self, calls):
        action = derivation_from_one_forms(DIM, self.IMAGES)
        for mask in MASKS:
            action.apply(Form.basis(DIM, mask))
            action.apply(Form.basis(DIM, mask, Scalar(2, 0, 1, 0)))
        assert calls == [[0b001, 0b100]]

    def test_once_per_new_coefficient(self, calls):
        # an operator with an entry in every place: a coefficient on most masks
        rng = random.Random(19)
        p = GradedOperator(
            DIM, {c: {r: Scalar(rng.randint(-3, 3), 0, rng.randint(-3, 3), 0) for r in MASKS} for c in MASKS}
        )
        beta = koszul_coefficients(p, DIM)
        assert len(beta) > DIM
        assert calls == [[jm] for jm in beta]
        calls.clear()
        assert algebraic_order_at_most(p, DIM)
        assert calls == [[jm] for jm in beta]


def _pure_part(v: Scalar, case: str) -> Scalar:
    """v made pure sqrt 3 ("sqrt") or pure imaginary ("imaginary"), nonzero."""
    n = v.a + v.b + v.c + v.e or 1
    if case == "sqrt":
        return Scalar(0, n, 0, 0, v.q, 3)
    return Scalar(0, 0, n, v.b + v.e, v.q, v.d)


@st.composite
def held_data(draw):
    """(beta, degree) as ``koszul_data`` draws them, then on a draw every
    coefficient made pure sqrt 3 or pure imaginary, every form made zero,
    or one entry off a declared degree added where no entry is."""
    beta, degree = draw(koszul_data())
    case = draw(st.sampled_from(["as drawn", "sqrt", "imaginary", "zero", "off"]))
    if case in ("sqrt", "imaginary"):
        beta = {jm: Form(DIM, {m: _pure_part(v, case) for m, v in f.coeffs.items()}) for jm, f in beta.items()}
    elif case == "zero":
        beta = {jm: f - f for jm, f in beta.items()}
    elif case == "off":
        degree = 0 if degree is None else degree
        jm = draw(st.sampled_from(MASKS))
        taken = beta.get(jm, Form.zero(DIM)).coeffs
        bm = draw(st.sampled_from([m for m in MASKS if m.bit_count() != jm.bit_count() + degree and m not in taken]))
        beta[jm] = beta.get(jm, Form.zero(DIM)) + Form.basis(DIM, bm, draw(scalars()) or ONE)
    return beta, degree


@st.composite
def low_and_high(draw):
    """(P, r): P = k L + H / k for a drawn operator with L its columns of
    degree <= r made integral and H its columns above, so that the
    coefficients P has on its low columns share the factor k with P's
    denominator."""
    r, k = draw(st.integers(0, DIM - 1)), draw(st.integers(1, 12))
    cols = draw(operators(field=(3, False))).cols
    low = {
        m: {row: Scalar(v.a, v.b, v.c, v.e, 1, v.d) for row, v in col.items()}
        for m, col in cols.items()
        if m.bit_count() <= r
    }
    high = {m: col for m, col in cols.items() if m.bit_count() > r}
    p = GradedOperator(DIM, low).scale(Scalar(k, 0, 0, 0)) + GradedOperator(DIM, high).scale(Scalar(1, 0, 0, 0, k))
    return p, r


def assert_held_like(held: GradedOperator, ref: GradedOperator, right: GradedOperator, form: Form, ranks, masks):
    """Every reader of an operator held by its Koszul coefficients against
    ``ref``, the same operator with its store built at once, literally and
    key orders included: (q, d, real), the bound, ``is_zero``, the single
    columns on ``masks``, the low columns and their reconstruction for each
    r in ``ranks``, the product with ``right`` as the left factor and
    ``apply`` to ``form``.  None of them builds the store.  ``compose``
    then builds it, and the store is ref's, and so is its conjugate."""
    assert held._coords is None
    assert (held.dim, held.degree, held.q, held.d, held.real, held.order_bound) == (
        ref.dim, ref.degree, ref.q, ref.d, ref.real, ref.order_bound
    )
    assert held.is_zero() == ref.is_zero()
    column = held._lookup()
    for m in masks:
        got, want = column(m) or {}, ref.coords.get(m, {})
        assert got == want and list(got) == list(want)
    for r in ranks:
        assert_literal(low_columns(held, r), low_columns(ref, r))
        # both held by the coefficients read off those columns, which fix the store
        a, b = from_low_columns(held, r), from_low_columns(ref, r)
        fields = ("degree", "q", "d", "real", "order_bound", "_symbol")
        assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]
    # the product kernel reads the left factor's columns singly; ``compose``
    # builds its store first, for it may read every row
    assert_literal(held._times_columns(right, right.coords), ref.compose(right))
    assert_same_forms(held.apply(form), ref.apply(form))
    if not held.real:
        # conjugated on the coefficients, with no store: its columns summed
        # from them, and then its store, are literally the stored conjugate's
        conj, want = held.conjugated(), ref.conjugated()
        assert conj._coords is None and conj.order_bound == held.order_bound
        column = conj._lookup()
        for m in masks:
            assert list((column(m) or {}).items()) == list(want.coords.get(m, {}).items())
        assert_literal(conj, want)
    assert held._coords is None
    assert_literal(held.compose(right), ref.compose(right))
    assert_literal(held, ref)
    assert_literal(held.conjugated(), ref.conjugated())


class TestHeldByCoefficients:
    """A Koszul sum is held by its prepared coefficients, normalized on them;
    each reader that takes some columns sums those only, and the store is
    built on the first read that walks it.  Every reader gives literally
    what the store built at once gives (``oracles.koszul_sum_at_once``)."""

    @given(held_data(), operators(), forms())
    @EXAMPLES
    def test_reconstruct_reads_as_the_store_built_at_once(self, data, right, form):
        beta, degree = data
        held, ref = same_outcome(
            lambda: reconstruct(DIM, beta, degree), lambda: reconstruct_at_once(DIM, beta, degree)
        )
        if ref is not None:
            assert_held_like(held, ref, right, form, range(DIM + 1), MASKS)
            # the Koszul sum is unique: it is zero exactly without coefficients
            assert held.is_zero() == all(f.is_zero() for f in beta.values())

    @given(low_and_high(), operators(), forms())
    @EXAMPLES
    def test_from_low_columns_reads_as_the_store_built_at_once(self, data, right, form):
        p, r = data
        held = from_low_columns(p, r)
        assert_held_like(held, from_low_columns_at_once(p, r), right, form, range(DIM + 1), MASKS)

    def test_a_common_factor_of_the_coefficients_divides_out(self):
        # 3/9 on the constant column and 1/9 above it: the coefficient over
        # q = 9 is 3, so the reconstruction is 1/3 on every column
        p = GradedOperator(DIM, {0b000: {0b000: Scalar(1, 0, 0, 0, 3)}, 0b011: {0b011: Scalar(1, 0, 0, 0, 9)}}, 0)
        held = from_low_columns(p, 0)
        assert (p.q, held.q) == (9, 3)
        assert_held_like(held, from_low_columns_at_once(p, 0), p, Form.basis(DIM, 0b101), range(DIM + 1), MASKS)
        assert held == GradedOperator.identity(DIM).scale(Scalar(1, 0, 0, 0, 3))

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_every_reconstruction_of_the_catalogue(self, name, catalogue_run):
        # the whole catalogue on a fresh model, shared builds included: each
        # Koszul sum it holds, held anew from the same coefficients, reads
        # as the store built at once, on the low columns that the
        # requirements read (on su2-four the single columns of degree <= 3)
        run = catalogue_run(name)
        made = run.koszul_sums
        target = run.model.orthogonalized()
        masks = [m for m in range(1 << target.dim) if target.dim == 6 or m.bit_count() <= 3]
        right, form = low_columns(target.d(), 1), target.omega()
        assert len(made) > 20 and {args[0] for args in made} == {target.dim}
        for args in made:
            held = operators_module._koszul_sum(*args)
            assert_held_like(held, koszul_sum_at_once(*args), right, form, range(3), masks)


class TestAlgebraMap:
    @given(st.lists(coefficient_forms([1 << i for i in range(DIM)]), min_size=DIM, max_size=DIM))
    @EXAMPLES
    def test_blocks_match_wedge_image(self, images):
        # every column against the Scalar expansion u^mask -> images[low] ^ image(rest)
        blocks = list(algebra_map_blocks(DIM, images))
        assert len(blocks) == DIM + 1
        table = {}
        for k, block in enumerate(blocks):
            masks = [m for m in MASKS if m.bit_count() == k]
            assert_literal(block, GradedOperator(DIM, {m: wedge_image(images, m, table).coeffs for m in masks}, 0))
            entries = [t for col in block.coords.values() for t in col.values()]
            assert block.q > 0 and math.gcd(block.q, *(x for t in entries for x in t)) == 1
            assert all(any(t) for t in entries)

    def test_images_must_be_one_forms(self):
        with pytest.raises(ValueError, match="1-form images"):
            next(algebra_map_blocks(DIM, [Form.basis(DIM, 0b11)] * DIM))
        with pytest.raises(ValueError, match="coframe images"):
            next(algebra_map_blocks(DIM, [Form.basis(DIM, 0b1)] * (DIM - 1)))


@st.composite
def derivations(draw, degrees=(0, 1, 2)):
    """The derivation of a degree drawn from ``degrees`` with random coframe
    values over Q(sqrt 3)(i) or Q(i), zero ones included."""
    degree = draw(st.sampled_from(degrees))
    masks = [m for m in MASKS if m.bit_count() == degree + 1]
    return derivation_from_one_forms(DIM, [draw(coefficient_forms(masks)) for _ in range(DIM)], degree)


@st.composite
def homogeneous_forms(draw):
    """(beta, k): a form of degree k, possibly zero."""
    k = draw(st.integers(0, DIM))
    return draw(coefficient_forms([m for m in MASKS if m.bit_count() == k])), k


def assert_same_matrix(op: GradedOperator, ref: GradedOperator):
    """The same normalized store (key orders aside), q, d, real and degree."""
    assert (op.dim, op.degree, op.q, op.d, op.real) == (ref.dim, ref.degree, ref.q, ref.d, ref.real)
    assert op.coords == ref.coords


class TestDerivationBrackets:
    @given(derivations(), derivations(), derivations(), derivations())
    @EXAMPLES
    def test_brackets_are_graded_commutators(self, p, q, r, s):
        assert_same_matrix(graded_commutator(p, q), commutator_by_composition(p, q))
        # a sum of brackets is one reconstruction
        if p.degree + q.degree != r.degree + s.degree:
            with pytest.raises(ValueError, match="one degree"):
                bracket_sum([(p, q), (r, s)])
            return
        want = commutator_by_composition(p, q) + commutator_by_composition(r, s)
        assert_same_matrix(bracket_sum([(p, q), (r, s)]), want)

    @given(derivations(degrees=(1,)), derivations(degrees=(1,)), derivations(degrees=(0, 2)))
    @EXAMPLES
    def test_an_odd_square_is_half_a_bracket(self, p, q, even):
        assert_same_matrix(bracket_sum([], squares=[p]), p.compose(p))
        assert_same_matrix(bracket_sum([(p, q)], squares=[q]), commutator_by_composition(p, q) + q.compose(q))
        with pytest.raises(ValueError, match="even operator"):
            bracket_sum([], squares=[even])

    @given(derivations(), homogeneous_forms())
    @EXAMPLES
    def test_bracket_with_a_multiplication_operator(self, p, beta_k):
        beta, k = beta_k
        l_beta = mult_operator(beta).with_degree(k)
        got = graded_commutator(p, l_beta)
        assert_same_matrix(got, commutator_by_composition(p, l_beta))
        assert_same_matrix(got, mult_operator(p.apply(beta)).with_degree(p.degree + k))

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_split_brackets_match_their_compositions(self, name):
        # every bracket of two components the catalogue builds, on the split
        # of d itself: many are nonzero although the sums vanish
        model = builtin_model(name).orthogonalized()
        mu, de, db, mb = (named_operator(model, n) for n in ("mu", "del", "delbar", "mubar"))
        lm = named_operator(model, "L_mu_omega")
        for p, q in ((de, mu), (db, mu), (de, db), (mu, mb)):
            assert_same_matrix(graded_commutator(p, q), commutator_by_composition(p, q))
        for p in (mu, de):
            assert_same_matrix(bracket_sum([], squares=[p]), p.compose(p))
        assert_same_matrix(graded_commutator(mb, mu), mu.compose(mb) + mb.compose(mu))
        mu_omega = mu.apply(model.omega())
        for p in (mu, de, db, mb):
            # BR67's [[L_mu_omega, P]] = [[P, L_mu_omega]] = L_{P mu omega}, P odd
            got = graded_commutator(p, lm)
            assert_same_matrix(got, commutator_by_composition(lm, p))
            assert_same_matrix(got, mult_operator(p.apply(mu_omega)).with_degree(4))
        # PROP_LAP's [[mu, L_mubar_omega]] = L_{mu(mubar omega)}, mubar omega = conj(mu omega)
        lmb = named_operator(model, "L_mubar_omega")
        got = graded_commutator(mu, lmb)
        assert_same_matrix(got, commutator_by_composition(mu, lmb))
        assert_same_matrix(got, mult_operator(mu.apply(mu_omega.conjugate())).with_degree(4))

    def test_check_requirements_match_their_compositions(self):
        # random mu and del over Q(i), as in the barred-pair test: no identity
        # holds, so every requirement is a nonzero operator
        model = model_from_json(model_to_json(builtin_model("torus6")))
        rng = random.Random(20252)
        two_masks = [m for m in range(1 << 6) if m.bit_count() == 2]

        def random_derivation():
            images = [
                Form(6, {m: Scalar(rng.randint(-3, 3), 0, rng.randint(-3, 3), 0) for m in two_masks})
                for _ in range(6)
            ]
            return derivation_from_one_forms(6, images)

        mu, de = random_derivation(), random_derivation()
        model._cache["split"] = DifferentialSplit(mu, de, de.conjugated(), mu.conjugated())
        recorded = {}

        class Recording(_Acc):
            def _require_zero(self, label, low, r):
                recorded[label] = from_low_columns(low, r)
                super()._require_zero(label, low, r)

        for cid in ("D2_SPLIT", "BR67", "AUX_COM", "PROP_LAP", "L_DELTA"):
            CHECKS[cid].fn(model, Recording())
        want = composed_requirements(model)
        assert len(want) == 14
        for label, op in want.items():
            assert not op.is_zero(), label
            assert_same_matrix(recorded[label], op)


@st.composite
def bounded_operators(draw):
    """A derivation or a multiplication operator L_beta, or the adjoint of
    one over a random diagonal metric, each with the order bound that its
    builder proves: 1 for a derivation, 0 for L_beta, r + |P| for the
    adjoint of P."""
    if draw(st.booleans()):
        op = draw(derivations())
    else:
        beta, k = draw(homogeneous_forms())
        op = mult_operator(beta).with_degree(k)
    if draw(st.booleans()):
        op = adjoint(op, draw(diagonal_metrics()))
    return op


class TestBracketsByOrder:
    """A bracket of bounded operators, built from its columns of degree <= r
    and one reconstruction, is literally the composed commutator; with a
    false bound it is not, and the order test never reads a bound."""

    @given(bounded_operators(), bounded_operators(), bounded_operators())
    @EXAMPLES
    def test_random_brackets_match_the_composed_oracle(self, p, q, r):
        assert None not in (p.order_bound, q.order_bound, r.order_bound)
        assert_same_matrix(graded_commutator(p, q), commutator_by_composition(p, q))
        assert_same_matrix(graded_commutator(p, graded_commutator(q, r)), commutator_by_composition(
            p, commutator_by_composition(q, r)
        ))

    @given(bounded_operators(), diagonal_metrics())
    @EXAMPLES
    def test_random_laplacians_match_the_composed_oracle(self, p, gram):
        p_star = adjoint(p, gram)
        assert_same_matrix(laplacian(p, p_star), commutator_by_composition(p_star, p))

    @given(bounded_operators(), diagonal_metrics())
    @settings(max_examples=60, deadline=None)
    def test_adjoints_by_order_are_the_full_transposes(self, p, gram):
        # P* rebuilt from P's columns of degree <= r is the full transpose and
        # the Scalar one, with the bound r + |P|; declared one order too low,
        # for P of order exactly r, it is not
        got, want = adjoint_by_order(p, gram), adjoint(p, gram)
        assert_same_matrix(got, want)
        assert got.order_bound == want.order_bound
        ref = scalar_adjoint(ScalarOperator.of(p), gram)
        assert got == GradedOperator(DIM, ref.cols, ref.degree)
        if p.order_bound and not algebraic_order_at_most(p, p.order_bound - 1):
            assert adjoint_by_order(with_order_bound(p, p.order_bound - 1), gram) != want

    def test_a_false_bound_shows(self):
        # d* has order 2; declared of order 1, [[d*, d]] by order is rebuilt
        # from its columns of degree <= 1 and misses Delta_d
        model = builtin_model("s3xs3-nk").orthogonalized()
        d, dstar = named_operator(model, "d"), named_operator(model, "adj:d")
        assert (d.order_bound, dstar.order_bound) == (1, 2)
        want = commutator_by_composition(dstar, d)
        assert laplacian(d, dstar) == want
        got = laplacian(d, with_order_bound(dstar, 1))
        assert got.order_bound == 1 and got != want

    def test_the_order_test_reads_no_bound(self):
        model = builtin_model("s3xs3-nk").orthogonalized()
        dstar = named_operator(model, "adj:d")
        for declared in (None, 0, 1, 2, 5):
            op = with_order_bound(dstar, declared)
            assert [algebraic_order_at_most(op, r) for r in range(4)] == [False, False, True, True]

    def test_bracket_columns_are_the_low_columns_of_the_sum(self, monkeypatch):
        # on the split of s3xs3-nk: the low columns of Delta_mu + Delta_del,
        # with no bound, and their reconstruction is the sum itself, which
        # keeps them: read back, they sum no Koszul column
        model = builtin_model("s3xs3-nk").orthogonalized()
        pairs = [tuple(named_operator(model, n) for n in (f"adj:{c}", c)) for c in ("mu", "del")]
        low, r = bracket_columns(pairs)
        full = bracket_sum(pairs)
        summed = []
        column = operators_module._koszul_column
        monkeypatch.setattr(operators_module, "_koszul_column", lambda *args: summed.append(args) or column(*args))
        assert low_columns(full, r) == low
        assert summed == []
        monkeypatch.undo()
        assert (r, low.order_bound, full.order_bound) == (2, None, 2)
        assert low.cols == {m: col for m, col in full.cols.items() if m.bit_count() <= r}
        assert_same_matrix(from_low_columns(low, r), full)
        unbounded = GradedOperator(model.dim, pairs[0][0].cols, pairs[0][0].degree)
        with pytest.raises(ValueError, match="order bounds"):
            bracket_columns([(unbounded, pairs[0][1])])

    def test_an_operator_without_a_bound_is_refused(self, monkeypatch):
        # the bracket by order is the only route: an operand without a bound
        # raises before anything is multiplied
        model = builtin_model("s3xs3-nk").orthogonalized()
        d, dstar = named_operator(model, "d"), named_operator(model, "adj:d")
        unbounded = GradedOperator(model.dim, dstar.cols, dstar.degree)
        assert unbounded.order_bound is None
        calls = []
        original = GradedOperator._times_columns
        monkeypatch.setattr(GradedOperator, "_times_columns", lambda p, *args: calls.append(1) or original(p, *args))
        for build in (
            lambda: laplacian(d, unbounded),
            lambda: graded_commutator(unbounded, d),
            lambda: bracket_sum([(dstar, d), (unbounded, d)]),
            lambda: bracket_sum([], squares=[unbounded]),
        ):
            with pytest.raises(ValueError, match="order bounds"):
                build()
        assert calls == []


class TestExtensions:
    SQRT3 = Scalar(0, 1, 0, 0, 1, 3)
    SQRT5 = Scalar(0, 1, 0, 0, 1, 5)

    def test_different_extensions_raise(self):
        # as Scalar does: sqrt(3) + sqrt(5) raises
        p = GradedOperator(DIM, {1: {3: self.SQRT3}})
        q = GradedOperator(DIM, {3: {1: self.SQRT5}})
        for combine in (
            lambda: self.SQRT3 + self.SQRT5,
            lambda: p + q,
            lambda: p - q,
            lambda: p.compose(q),
            lambda: q.compose(p),
            lambda: p.scale(self.SQRT5),
            lambda: p.apply(Form(DIM, {1: self.SQRT5})),
            lambda: GradedOperator(DIM, {1: {3: self.SQRT3}, 2: {3: self.SQRT5}}),
        ):
            with pytest.raises(ValueError, match="incompatible extensions"):
                combine()

    def test_rational_operators_mix_with_any_extension(self):
        half = Scalar(1, 0, 0, 0, 2)
        counting = GradedOperator(DIM, {m: {m: half} for m in MASKS}, 0)
        for s in (self.SQRT3, self.SQRT5):
            p = GradedOperator(DIM, {1: {1: s}}, 0)
            assert (counting + p).d == s.d
            assert counting.compose(p) == p.scale(half)


def test_import_leaves_numpy_and_scipy_out():
    # the store is pure Python: neither the package nor a whole suite run
    # may pull in numpy or scipy (each costs start-up time and memory)
    code = (
        "import sys, nkhodge\n"
        "from nkhodge.checks import run_suite\n"
        "from nkhodge.models import builtin_model\n"
        "assert run_suite(builtin_model('torus6')).verdict\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
