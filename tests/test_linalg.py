from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monomial_hh.errors import ImageNotInKernel
from monomial_hh.fields import QQ, PrimeField, parse_field_spec
from monomial_hh.linalg import (
    SparseMatrix,
    RowBasis,
    kernel_basis,
    quotient_basis,
)

F5 = PrimeField(5)


def rank(field, matrix):
    """An independent, untracked elimination of the columns.

    The package reads ranks off ``kernel_basis`` by rank-nullity; the tests
    below compare that against this second count.
    """
    basis = RowBasis(field)
    for col in matrix.cols:
        basis.insert(col)
    return basis.rank


def image_membership(field, matrix, vec):
    """Coefficients expressing vec over the matrix columns, or None."""
    basis = RowBasis(field, track=True)
    for j, col in enumerate(matrix.cols):
        basis.insert(col, tag=j)
    return basis.express(vec)


def mat(field, rows):
    """Dense row-list of ints -> SparseMatrix over field."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    cols = []
    for j in range(ncols):
        col = {}
        for i in range(nrows):
            v = field.from_int(rows[i][j])
            if not field.is_zero(v):
                col[i] = v
        cols.append(col)
    return SparseMatrix(nrows, ncols, tuple(cols))


def mat_vec(field, m, x):
    out = {}
    for j, c in x.items():
        for i, v in m.cols[j].items():
            cur = field.add(out.get(i, field.zero), field.mul(c, v))
            if field.is_zero(cur):
                out.pop(i, None)
            else:
                out[i] = cur
    return out


def test_field_specs():
    assert parse_field_spec("q") is QQ or parse_field_spec("q") == QQ
    assert parse_field_spec("fp:7").p == 7
    with pytest.raises(ValueError):
        parse_field_spec("fp:6")
    with pytest.raises(ValueError):
        parse_field_spec("r")


def test_rational_normalize_row():
    vec = {0: Fraction(2, 3), 2: Fraction(-4, 6)}
    assert QQ.normalize_row(vec) == {0: Fraction(1), 2: Fraction(-1)}
    vec = {1: Fraction(-3, 4), 5: Fraction(9, 2)}
    # leading (smallest index) entry must come out positive
    assert QQ.normalize_row(vec) == {1: Fraction(1), 5: Fraction(-6)}


def test_prime_field_normalize_row():
    assert F5.normalize_row({2: 3, 4: 1}) == {2: 1, 4: 2}


def test_sparse_matrix_drops_stored_zeros():
    f2 = PrimeField(2)
    m = SparseMatrix(2, 2, ({0: f2.from_int(2), 1: 1}, {0: f2.from_int(4)}))
    assert m.cols == ({1: 1}, {})
    assert kernel_basis(f2, m) == [{1: 1}]


def test_zero_matrix_kernel():
    m = mat(QQ, [[0, 0, 0], [0, 0, 0]])
    assert rank(QQ, m) == 0
    ker = kernel_basis(QQ, m)
    assert ker == [{0: Fraction(1)}, {1: Fraction(1)}, {2: Fraction(1)}]


def test_identity_matrix():
    m = mat(QQ, [[1, 0], [0, 1]])
    assert rank(QQ, m) == 2
    assert kernel_basis(QQ, m) == []


def test_known_kernel():
    # columns: c0 + c1 = c2
    m = mat(QQ, [[1, 0, 1], [0, 1, 1]])
    ker = kernel_basis(QQ, m)
    assert len(ker) == 1
    (k,) = ker
    assert mat_vec(QQ, m, k) == {}


def test_image_membership_positive_and_negative():
    m = mat(QQ, [[1, 2], [0, 0], [1, 0]])
    coeffs = image_membership(QQ, m, {0: Fraction(3), 2: Fraction(1)})
    assert coeffs is not None
    v = {}
    for j, c in coeffs.items():
        for i, val in m.cols[j].items():
            v[i] = v.get(i, Fraction(0)) + c * val
    assert {i: c for i, c in v.items() if c} == {0: Fraction(3), 2: Fraction(1)}
    assert image_membership(QQ, m, {1: Fraction(1)}) is None


def test_quotient_basis_counts():
    ker = [{0: Fraction(1)}, {1: Fraction(1)}, {2: Fraction(1)}]
    img = [{0: Fraction(2)}]
    reps = quotient_basis(QQ, ker, img)
    assert len(reps) == 2
    with pytest.raises(ImageNotInKernel):
        quotient_basis(QQ, [{0: Fraction(1)}], [{1: Fraction(1)}])


def test_rowbasis_reduce_mod_is_canonical():
    rb = RowBasis(QQ)
    rb.insert({0: Fraction(1), 1: Fraction(1)})
    r1 = rb.reduce_mod({0: Fraction(2), 1: Fraction(2)})
    assert r1 == {}
    r2 = rb.reduce_mod({0: Fraction(1)})
    r3 = rb.reduce_mod({1: Fraction(-1)})
    assert r2 == r3  # same coset, same representative


small_entries = st.integers(min_value=-4, max_value=4)


@st.composite
def int_matrix(draw):
    nrows = draw(st.integers(min_value=1, max_value=5))
    ncols = draw(st.integers(min_value=1, max_value=5))
    rows = [[draw(small_entries) for _ in range(ncols)] for _ in range(nrows)]
    return rows


@settings(max_examples=60, deadline=None)
@given(int_matrix(), st.sampled_from(["q", "fp:2", "fp:3", "fp:5"]))
def test_rank_nullity_and_kernel(rows, fieldspec):
    field = parse_field_spec(fieldspec)
    m = mat(field, rows)
    r = rank(field, m)
    ker = kernel_basis(field, m)
    assert r + len(ker) == m.ncols
    for k in ker:
        assert mat_vec(field, m, k) == {}


@settings(max_examples=40, deadline=None)
@given(int_matrix(), st.lists(small_entries, min_size=1, max_size=5))
def test_image_membership_roundtrip(rows, xs):
    field = QQ
    m = mat(field, rows)
    x = {
        j: field.from_int(v)
        for j, v in enumerate(xs[: m.ncols])
        if not field.is_zero(field.from_int(v))
    }
    v = mat_vec(field, m, x)
    coeffs = image_membership(field, m, v)
    assert coeffs is not None
    assert mat_vec(field, m, coeffs) == v


@settings(max_examples=40, deadline=None)
@given(int_matrix())
def test_determinism(rows):
    m1 = mat(QQ, rows)
    m2 = mat(QQ, rows)
    assert kernel_basis(QQ, m1) == kernel_basis(QQ, m2)
    assert rank(QQ, m1) == rank(QQ, m2)


def test_fp_and_q_ranks_agree_on_small_int_matrix():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert rank(QQ, mat(QQ, rows)) == rank(F5, mat(F5, rows))
