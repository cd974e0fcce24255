from hypothesis import given, settings, strategies as st

from nkhodge.linalg import sparse_kernel, sparse_rank, spans_equal
from nkhodge.scalars import ZERO, Scalar
from oracles import dense_kernel, dense_to_sparse

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
