from hypothesis import given, settings, strategies as st

import pytest

import nkhodge.linalg as linalg
from nkhodge.checks import run_check
from nkhodge.hodge import hodge_laplacian, hodge_numbers
from nkhodge.linalg import add_scaled, inverse, solve, sparse_kernel, sparse_rank, transpose
from nkhodge.models import builtin_model, model_from_json, model_to_json
from nkhodge.scalars import ONE, ZERO, Scalar
from oracles import (
    dense_kernel,
    dense_to_sparse,
    eliminate_by_scan,
    operator_degree_rows,
    scalar_kernel,
    sparse_echelon,
    sparse_echelon_scan,
    spans_equal,
    sqrt_ext,
)

entry = st.integers(min_value=-5, max_value=5)


@st.composite
def matrices(draw):
    nrows = draw(st.integers(min_value=1, max_value=5))
    ncols = draw(st.integers(min_value=1, max_value=5))
    cells = [
        [
            Scalar(draw(entry), draw(entry), draw(entry), 0, draw(st.integers(1, 3)), 3)
            if draw(st.integers(0, 2)) == 0
            else ZERO
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]
    return cells, ncols


def as_rows(cells):
    return [{j: v for j, v in enumerate(row) if not v.is_zero()} for row in cells]


def apply_matrix(cells, vec, ncols):
    out = []
    for row in cells:
        acc = ZERO
        for j in range(ncols):
            x = vec.get(j)
            if x is not None and not row[j].is_zero():
                acc = acc + row[j] * x
        out.append(acc)
    return out


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_kernel_vectors_annihilate(mat):
    cells, ncols = mat
    for vec in scalar_kernel(as_rows(cells), ncols):
        assert all(v.is_zero() for v in apply_matrix(cells, vec, ncols))


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_rank_nullity(mat):
    cells, ncols = mat
    rows = as_rows(cells)
    assert sparse_rank(rows) + len(scalar_kernel(rows, ncols)) == ncols


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_sparse_matches_dense_oracle(mat):
    cells, ncols = mat
    sparse = scalar_kernel(as_rows(cells), ncols)
    dense = dense_to_sparse(dense_kernel(cells, ncols))
    assert len(sparse) == len(dense)
    assert spans_equal(sparse, dense)


def test_known_kernel():
    one = Scalar(1, 0, 0, 0)
    two = Scalar(2, 0, 0, 0)
    cells = [[one, two, ZERO], [ZERO, ZERO, one]]
    ker = scalar_kernel(as_rows(cells), 3)
    assert len(ker) == 1
    v = ker[0]
    # x0 + 2 x1 = 0, x2 = 0
    assert (v.get(0, ZERO) + two * v.get(1, ZERO)).is_zero()
    assert v.get(2, ZERO).is_zero()


def test_span_detects_difference():
    one = Scalar(1, 0, 0, 0)
    a = [{0: one}]
    b = [{1: one}]
    assert not spans_equal(a, b)
    assert spans_equal(a, [{0: Scalar(7, 0, 0, 0)}])


# -- solve and inverse ---------------------------------------------------------
# entries of Q(sqrt 3)(i): a + b sqrt3 + i (c + e sqrt3) over q

def field_entry(draw):
    return Scalar(draw(entry), draw(entry), draw(entry), draw(entry), draw(st.integers(1, 3)), 3)


@st.composite
def square_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    return [
        [field_entry(draw) if draw(st.integers(0, 1)) == 0 else ZERO for _ in range(n)]
        for _ in range(n)
    ]


def mat_mul(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), start=ZERO) for j in range(n)] for i in range(n)]


@given(square_matrices())
@settings(max_examples=80, deadline=None)
def test_inverse_times_matrix_is_identity(cells):
    n = len(cells)
    if sparse_rank(as_rows(cells)) < n:
        with pytest.raises(ValueError):
            inverse(cells)
        return
    identity = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    inv = inverse(cells)
    assert mat_mul(inv, cells) == identity
    assert mat_mul(cells, inv) == identity


def test_singular_inverse_raises():
    two = Scalar(2, 0, 0, 0)
    with pytest.raises(ValueError):
        inverse([[ONE, two], [two, Scalar(4, 0, 0, 0)]])


def test_solve_outside_span_is_none():
    assert solve([{0: ONE}], {1: ONE}) is None
    assert solve([], {0: ONE}) is None


def test_solve_dependent_columns_raise():
    two = Scalar(2, 0, 0, 0)
    for target in ({0: ONE, 1: two}, {2: ONE}, {}):
        with pytest.raises(ValueError, match="dependent"):
            solve([{0: ONE, 1: two}, {0: two, 1: Scalar(4, 0, 0, 0)}], target)


@given(matrices(), st.data())
@settings(max_examples=80, deadline=None)
def test_solve_matches_dense_oracle(mat, data):
    """solve reads the answer off the dense kernel of [columns | -target]."""
    cells, ncols = mat
    target = [field_entry(data.draw) if data.draw(st.integers(0, 1)) else ZERO for _ in cells]
    if data.draw(st.booleans()):
        # a target inside the span
        coeffs = [field_entry(data.draw) for _ in range(ncols)]
        target = [sum((row[j] * coeffs[j] for j in range(ncols)), start=ZERO) for row in cells]
    columns = [{i: row[j] for i, row in enumerate(cells) if not row[j].is_zero()} for j in range(ncols)]
    sparse_target = {i: v for i, v in enumerate(target) if not v.is_zero()}
    if dense_kernel(cells, ncols):
        with pytest.raises(ValueError):
            solve(columns, sparse_target)
        return
    augmented = [row + [-t] for row, t in zip(cells, target)]
    kernel = dense_kernel(augmented, ncols + 1)
    got = solve(columns, sparse_target)
    if not kernel:
        assert got is None
        return
    (vec,) = kernel
    scale = vec[ncols]
    assert got == {j: vec[j] / scale for j in range(ncols) if not vec[j].is_zero()}


# -- sparse-vector primitives ----------------------------------------------------

scalars_q3i = st.builds(
    lambda a, b, c, e, q: Scalar(a, b, c, e, q, 3), entry, entry, entry, entry, st.integers(1, 3)
)
sparse_vectors = st.dictionaries(st.integers(0, 6), scalars_q3i, max_size=6).map(
    lambda v: {k: x for k, x in v.items() if not x.is_zero()}
)


@st.composite
def accumulations(draw):
    """(acc, vec, s) where acc holds -s*vec exactly on some keys of vec."""
    vec = draw(sparse_vectors)
    s = draw(st.none() | scalars_q3i)
    acc = draw(sparse_vectors)
    for k in draw(st.sets(st.sampled_from(sorted(vec)))) if vec else ():
        acc[k] = -(vec[k] if s is None else vec[k] * s)
    return {k: x for k, x in acc.items() if not x.is_zero()}, vec, s


@given(accumulations())
@settings(max_examples=150, deadline=None)
def test_add_scaled_matches_naive_sum(case):
    acc, vec, s = case
    factor = ONE if s is None else s
    want = {}
    for k in set(acc) | set(vec):
        total = acc.get(k, ZERO) + vec.get(k, ZERO) * factor
        if not total.is_zero():
            want[k] = total
    out = dict(acc)
    assert add_scaled(out, vec, s) is out
    assert out == want
    assert all(not x.is_zero() for x in out.values())


def test_add_scaled_drops_exact_cancellation():
    w = Scalar(1, 2, 0, -1, 3, 3)  # (1 + 2 sqrt3 - i sqrt3) / 3
    acc = {0: w * Scalar(0, 0, 1, 0), 1: ONE}
    add_scaled(acc, {0: w}, Scalar(0, 0, -1, 0))
    assert acc == {1: ONE} and 0 not in acc
    add_scaled(acc, {1: Scalar(-1, 0, 0, 0)})
    assert acc == {}


def test_transpose_rows_in_order_of_first_appearance():
    a, b, c, d = (Scalar(k, 1, 0, 0, 1, 3) for k in range(1, 5))
    rows = transpose([(0, {5: a, 2: b}), (1, {2: c, 7: d}), (3, {0: a})])
    # row keys first seen in the order 5, 2, 7, 0
    assert rows == [{0: a}, {0: b, 1: c}, {1: d}, {3: a}]
    assert [list(r) for r in rows] == [[0], [0, 1], [1], [3]]


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_transpose_twice_gives_back_the_matrix(mat):
    cells, ncols = mat
    cols = [{i: row[j] for i, row in enumerate(cells) if not row[j].is_zero()} for j in range(ncols)]
    row_keys = list(dict.fromkeys(r for col in cols for r in col))
    rows = transpose(enumerate(cols))
    assert rows == [as_rows(cells)[r] for r in row_keys]
    # the second transpose labels each row by its position in ``rows``
    col_keys = list(dict.fromkeys(c for row in rows for c in row))
    back = transpose(enumerate(rows))
    assert [{row_keys[p]: v for p, v in col.items()} for col in back] == [cols[c] for c in col_keys]
    assert sorted(col_keys) == [c for c in range(ncols) if cols[c]]


# -- pivot search --------------------------------------------------------------
# the heap of per-row minima must pick every pivot the full scan picks, and the
# hoisted division must give the same normalized scalars, key order included


def literal(pivots):
    return [(list(r.items()), pc) for r, pc in pivots]


@st.composite
def tie_heavy_rows(draw):
    """Sparse rows over Q(sqrt 3)(i) from a few values: equal complexities,
    repeated rows and empty rows are common."""
    pool = draw(st.lists(scalars_q3i.filter(lambda x: not x.is_zero()), min_size=1, max_size=3))
    ncols = draw(st.integers(1, 7))
    value = st.sampled_from(pool).map(lambda x: -x) | st.sampled_from(pool)
    row = st.dictionaries(st.integers(0, ncols - 1), value, max_size=ncols)
    rows = draw(st.lists(row, max_size=7))
    for _ in range(draw(st.integers(0, 3))):
        src = draw(st.sampled_from(rows)) if rows else {}
        rows.insert(draw(st.integers(0, len(rows))), dict(src))
    return rows


@given(tie_heavy_rows())
@settings(max_examples=300, deadline=None)
def test_echelon_matches_full_scan_oracle(rows):
    assert literal(sparse_echelon(rows)) == literal(sparse_echelon_scan(rows))


@pytest.mark.parametrize("name", ["torus6", "s3xs3-nk"])
def test_echelon_matches_full_scan_oracle_on_builtins(name):
    comp = builtin_model(name).orthogonalized()
    for op in (comp.d(), hodge_laplacian(comp)):
        for k in range(comp.dim + 1):
            rows, _ = operator_degree_rows(op, k, comp.dim)
            assert literal(sparse_echelon(rows)) == literal(sparse_echelon_scan(rows))


def test_echelon_scores_each_entry_once_on_a_diagonal(monkeypatch):
    scored = []
    complexity = linalg.complexity

    def counting(t):
        scored.append(t)
        return complexity(t)

    monkeypatch.setattr(linalg, "complexity", counting)
    n = 50
    pivots = sparse_echelon([{i: Scalar(i + 1, 1, 0, 0, 1, 3)} for i in range(n)])
    assert [pc for _, pc in pivots] == list(range(n))
    # a full rescan would score n + (n - 1) + ... + 1 = n(n + 1)/2 entries;
    # each entry is scored as its normalized (a, b, c, e, q) tuple
    assert scored == [(i + 1, 1, 0, 0, 1) for i in range(n)]
    # rows that repeat one entry, on the diagonal and where the steps
    # rebuild rows: each distinct entry is scored once per elimination
    one = Scalar(1, 1, 0, 0, 1, 3)
    for rows in ([{i: one} for i in range(n)], [{0: one, i: one} for i in range(1, n)]):
        scored.clear()
        sparse_echelon(rows)
        assert scored.count((1, 1, 0, 0, 1)) == 1
        assert len(scored) == len(set(scored))
    scored.clear()
    sparse_echelon([{i: one} for i in range(n)])
    sparse_echelon([{i: one} for i in range(n)])
    assert scored == [(1, 1, 0, 0, 1)] * 2


@st.composite
def tie_heavy_entry_rows(draw):
    """Entry rows over Q(sqrt 3)(i) from at most three values, so many
    entries share a complexity, with empty rows put in among them."""
    pool = draw(st.lists(scalars_q3i.filter(lambda x: not x.is_zero()), min_size=1, max_size=3))
    ncols = draw(st.integers(1, 10))
    value = st.sampled_from(pool).map(lambda x: -x) | st.sampled_from(pool)
    rows = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), value, max_size=ncols), max_size=16))
    for _ in range(draw(st.integers(1, 3))):
        rows.insert(draw(st.integers(0, len(rows))), {})
    return linalg._entry_rows(rows)


@given(tie_heavy_entry_rows())
@settings(max_examples=120, deadline=None)
def test_heap_picks_the_pivots_of_the_scan(case):
    rows, d = case
    assert literal(linalg._eliminate(rows, d)) == literal(eliminate_by_scan(rows, d))


def test_heap_picks_the_pivots_of_the_scan_on_a_su2_four_hodge_round(monkeypatch):
    # every block that the Hodge table and VANISH_COR eliminate on su2-four
    model = model_from_json(model_to_json(builtin_model("su2-four")))
    blocks = []
    eliminate = linalg._eliminate

    def recording(rows, d):
        pivots = eliminate(rows, d)
        blocks.append((rows, d, pivots))
        return pivots

    monkeypatch.setattr(linalg, "_eliminate", recording)
    assert hodge_numbers(model).sum_rule_holds()
    assert run_check(model, "VANISH_COR").status == "pass"
    assert len(blocks) >= 7 + 49 + 49  # Betti ranks, kernels of S, VANISH_COR ranks
    for rows, d, pivots in blocks:
        assert literal(pivots) == literal(eliminate_by_scan(rows, d))


# -- integer-tuple elimination against the Scalar oracles --------------------------
# rational rows (the product's fast path), rows over Q(sqrt 3)(i), d = 1 rows
# among d = 3 rows, numerators and denominators up to 2^80, and rank-deficient
# matrices whose extra rows are combinations of the others

small = st.integers(-5, 5)
num = small | st.integers(-(2**80), 2**80)
den = st.integers(1, 3) | st.integers(1, 2**80)
row_fields = {
    "rational": st.builds(lambda a, q: Scalar(a, 0, 0, 0, q), num, den),
    "q3i": st.builds(lambda a, b, c, e, q: Scalar(a, b, c, e, q, 3), num, small, num, small, den),
    "q3": st.builds(lambda a, b, q: Scalar(a, b, 0, 0, q, 3), num, num, den),
    "qi": st.builds(lambda a, c, q: Scalar(a, 0, c, 0, q), num, num, den),
}
field_mixes = {
    "rational": ["rational"],
    "q3": ["q3"],
    "q3i": ["q3i"],
    "mixed": ["rational", "qi", "q3", "q3i"],
}


@st.composite
def field_matrices(draw):
    """(rows, ncols): sparse rows of one field mix, some rows dependent."""
    kinds = field_mixes[draw(st.sampled_from(sorted(field_mixes)))]
    ncols = draw(st.integers(1, 7))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        value = row_fields[draw(st.sampled_from(kinds))].filter(lambda x: not x.is_zero())
        rows.append(draw(st.dictionaries(st.integers(0, ncols - 1), value, max_size=ncols)))
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        coeff = row_fields[draw(st.sampled_from(kinds))]
        combo = add_scaled(add_scaled({}, rows[i], draw(coeff)), rows[j], draw(coeff))
        rows.insert(draw(st.integers(0, len(rows))), combo)
    return rows, ncols


def dense_cells(rows, ncols):
    return [[row.get(j, ZERO) for j in range(ncols)] for row in rows]


def normalized(vec):
    """Every entry is the normalized representative of its value."""
    return all(Scalar(v.a, v.b, v.c, v.e, v.q, v.d) == v for v in vec.values())


@given(field_matrices())
@settings(max_examples=150, deadline=None)
def test_field_echelon_matches_scan_oracle(mat):
    rows, _ = mat
    assert literal(sparse_echelon(rows)) == literal(sparse_echelon_scan(rows))
    assert sparse_rank(rows) == len(sparse_echelon_scan(rows))


@given(field_matrices())
@settings(max_examples=150, deadline=None)
def test_field_kernel_matches_dense_oracle(mat):
    rows, ncols = mat
    cells = dense_cells(rows, ncols)
    kernel = scalar_kernel(rows, ncols)
    dense = dense_to_sparse(dense_kernel(cells, ncols))
    assert len(kernel) == len(dense) and spans_equal(kernel, dense)
    for vec in kernel:
        assert normalized(vec)
        assert all(v.is_zero() for v in apply_matrix(cells, vec, ncols))


@given(field_matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_field_solve_matches_dense_oracle(mat, data):
    rows, ncols = mat
    cells = dense_cells(rows, ncols)
    columns = [{i: row[j] for i, row in enumerate(rows) if j in row} for j in range(ncols)]
    # the combination of the columns with coefficients from the rows' fields
    coeffs = [data.draw(st.sampled_from([ONE, *(v for row in rows for v in row.values())])) for _ in range(ncols)]
    target = {}
    for col, x in zip(columns, coeffs):
        add_scaled(target, col, x)
    if dense_kernel(cells, ncols):
        with pytest.raises(ValueError, match="dependent"):
            solve(columns, target)
        return
    assert solve(columns, target) == {j: x for j, x in enumerate(coeffs)}


@given(field_matrices())
@settings(max_examples=150, deadline=None)
def test_pivot_columns_of_entry_rows_match_the_echelon(mat):
    rows, _ = mat
    d = 3 if any(v.d == 3 for row in rows for v in row.values()) else 1
    entry_rows = [{c: (v.a, v.b, v.c, v.e, v.q) for c, v in row.items()} for row in rows]
    assert linalg.pivot_columns(entry_rows, d) == [pc for _, pc in sparse_echelon(rows)]


@pytest.mark.parametrize("name", ["torus6", "s3xs3-nk", "kodaira-thurston"])
def test_pivot_columns_of_a_store_match_the_scalar_echelon(name):
    # the block's rows read off the integer store, rows left out included,
    # pick the pivots of its Scalar rows (masks increasing, so the column
    # tie-break agrees)
    comp = builtin_model(name).orthogonalized()
    for op in (comp.d(), hodge_laplacian(comp)):
        for k in range(comp.dim + 1):
            masks = [m for m in range(1 << comp.dim) if m.bit_count() == k]
            for skip in (set(), set(masks[::3]) | {m << 1 for m in masks[::3]}):
                cols = ({r: v for r, v in op.column_form(m).coeffs.items() if r not in skip} for m in masks)
                rows = transpose(enumerate(cols))
                pivots = [masks[j] for j in linalg.pivot_columns(*op.entry_rows(masks, skip))]
                assert pivots == [masks[pc] for _, pc in sparse_echelon(rows)]


def test_different_square_roots_raise():
    r3, r5 = sqrt_ext(3), sqrt_ext(5)
    rows = [{0: r3, 1: ONE}, {2: r5}]
    for run in (sparse_echelon, sparse_rank, lambda r: scalar_kernel(r, 3)):
        with pytest.raises(ValueError, match="incompatible extensions"):
            run(rows)
    with pytest.raises(ValueError, match="incompatible extensions"):
        solve([{0: r3}], {1: r5})


def test_scalars_are_built_only_for_the_output(scalars_built):
    comp = builtin_model("s3xs3-nk").orthogonalized()
    lap = hodge_laplacian(comp)
    degree_rows = [operator_degree_rows(lap, k, comp.dim) for k in range(comp.dim + 1)]
    ranks = []
    for rows, masks in degree_rows:
        scalars_built[0] = 0
        ranks.append(sparse_rank(rows))
        assert scalars_built[0] == 0
        # the block read off the integer store builds none either
        assert len(linalg.pivot_columns(*lap.entry_rows(masks))) == ranks[-1]
        assert scalars_built[0] == 0
        kernel = sparse_kernel(*lap.entry_rows(masks), len(masks))
        assert scalars_built[0] == sum(len(vec) for vec in kernel)
    assert sum(ranks) == 2**comp.dim - 4  # every form but the harmonic ones, b = (1, 0, 0, 2, 0, 0, 1)
