from hypothesis import given, settings, strategies as st

import pytest

from nkhodge.linalg import inverse, solve, sparse_kernel, sparse_rank
from nkhodge.scalars import ONE, ZERO, Scalar
from oracles import dense_kernel, dense_to_sparse, spans_equal

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
    for vec in sparse_kernel(as_rows(cells), ncols):
        assert all(v.is_zero() for v in apply_matrix(cells, vec, ncols))


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_rank_nullity(mat):
    cells, ncols = mat
    rows = as_rows(cells)
    assert sparse_rank(rows) + len(sparse_kernel(rows, ncols)) == ncols


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_sparse_matches_dense_oracle(mat):
    cells, ncols = mat
    sparse = sparse_kernel(as_rows(cells), ncols)
    dense = dense_to_sparse(dense_kernel(cells, ncols))
    assert len(sparse) == len(dense)
    assert spans_equal(sparse, dense)


def test_known_kernel():
    one = Scalar(1, 0, 0, 0)
    two = Scalar(2, 0, 0, 0)
    cells = [[one, two, ZERO], [ZERO, ZERO, one]]
    ker = sparse_kernel(as_rows(cells), 3)
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
