from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monomial_hh.errors import ImageNotInKernel
from monomial_hh.fields import QQ, PrimeField, RationalField, parse_field_spec
from monomial_hh import linalg
from monomial_hh.linalg import SparseMatrix, RowBasis, rank

from helpers import scalar, split
from reference_scans import ratio_to_row


def kernel_basis(field, matrix, image=None):
    """``linalg.kernel_basis`` as a list of vectors."""
    return list(linalg.kernel_basis(field, matrix, image))


def quotient_basis(field, kernel_vecs, image):
    """``linalg.quotient_basis`` from and to lists of vectors."""
    return list(linalg.quotient_basis(field, split(kernel_vecs), image))

F5 = PrimeField(5)


def image_membership(field, matrix, vec):
    """Coefficients expressing vec over the matrix columns, or None."""
    basis = RowBasis(field, track=True)
    for j, col in enumerate(matrix.cols):
        basis.insert(col, tag=j)
    return basis.express(vec)


def image_rows(field, vecs):
    """The echelon rows of span(vecs) that ``quotient_basis`` starts from, by a fresh insertion."""
    basis = RowBasis(field)
    for v in vecs:
        basis.insert(v)
    return [row for row, _ in basis.rows.values()]


def mat(rows):
    """Dense row-list of ints -> SparseMatrix over Z, a matrix over every field."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    cols = tuple({i: rows[i][j] for i in range(nrows) if rows[i][j]} for j in range(ncols))
    return SparseMatrix(nrows, ncols, cols)


def mat_vec(field, m, x):
    out = {}
    for j, c in x.items():
        for i, v in m.cols[j].items():
            cur = scalar(field, out.get(i, 0) + c * v)
            if not cur:
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


def _accepted(p):
    try:
        PrimeField(p)
    except ValueError:
        return False
    return True


def test_prime_modulus_matches_trial_division():
    for n in range(20000):
        prime = n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))
        assert _accepted(n) == prime, n


def test_prime_modulus_rejects_strong_pseudoprimes():
    # composites that pass Miller-Rabin on ever longer prefixes of 2, 3, 5, ...
    for n in (3215031751, 2152302898747, 3474749660383, 341550071728321, 3825123056546413051):
        assert not _accepted(n), n
    assert _accepted(2**61 - 1) and _accepted(2**64 - 59)  # the largest prime below 2^64
    for p in (2**64, 10**30 + 57, 10**399 + 7):
        with pytest.raises(ValueError, match="below 2\\^64"):
            PrimeField(p)


def normal_form(field, vec):
    """The scale of a kernel vector, computed without the package.

    Over the rationals: primitive integers with a positive entry at the
    smallest index.  Over a prime field: that entry is 1.
    """
    if isinstance(field, RationalField):
        den = lcm(*(Fraction(v).denominator for v in vec.values()))
        ints = {c: int(v * den) for c, v in vec.items()}
        content = gcd(*ints.values())
        if ints[min(ints)] < 0:
            content = -content
        return {c: Fraction(v, content) for c, v in ints.items()}
    inv = pow(vec[min(vec)], -1, field.p)
    return {c: v * inv % field.p for c, v in vec.items()}


def test_rational_normal_form():
    assert normal_form(QQ, {0: Fraction(2, 3), 2: Fraction(-4, 6)}) == {0: 1, 2: -1}
    # leading (smallest index) entry must come out positive
    assert normal_form(QQ, {1: Fraction(-3, 4), 5: Fraction(9, 2)}) == {1: 1, 5: -6}
    # kernel_basis scales its vectors the same way: sign, then content
    for rows, expected in (
        ([[1, 0, 1]], [{1: 1}, {0: 1, 2: -1}]),
        ([[3, 2]], [{0: 2, 1: -3}]),
        ([[-6, 4]], [{0: 2, 1: 3}]),
    ):
        ker = kernel_basis(QQ, mat(rows))
        assert ker == expected == [normal_form(QQ, v) for v in ker]


def test_prime_field_normal_form():
    assert normal_form(F5, {2: 3, 4: 1}) == {2: 1, 4: 2}
    ker = kernel_basis(F5, mat([[1, 2]]))  # column 1 is 2·column 0
    assert ker == [{0: 1, 1: 2}] == [normal_form(F5, v) for v in ker]


def test_integer_entry_that_vanishes_in_the_field():
    # 2 is zero in GF(2): to_row drops it, so column 0 is the zero column
    f2 = PrimeField(2)
    m = SparseMatrix(1, 2, ({0: 2}, {0: 1}))
    assert kernel_basis(f2, m) == [{0: 1}]
    assert quotient_basis(f2, [{0: 2, 1: 1}], image_rows(f2, [{0: 4}])) == [{1: 1}]


def test_zero_matrix_kernel():
    m = mat([[0, 0, 0], [0, 0, 0]])
    assert rank(QQ, m) == 0
    ker = kernel_basis(QQ, m)
    assert ker == [{0: Fraction(1)}, {1: Fraction(1)}, {2: Fraction(1)}]


def test_identity_matrix():
    m = mat([[1, 0], [0, 1]])
    assert rank(QQ, m) == 2
    assert kernel_basis(QQ, m) == []


def test_known_kernel():
    # columns: c0 + c1 = c2
    m = mat([[1, 0, 1], [0, 1, 1]])
    ker = kernel_basis(QQ, m)
    assert len(ker) == 1
    (k,) = ker
    assert mat_vec(QQ, m, k) == {}


def test_image_membership_positive_and_negative():
    m = mat([[1, 2], [0, 0], [1, 0]])
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
    reps = quotient_basis(QQ, ker, image_rows(QQ, img))
    assert len(reps) == 2
    with pytest.raises(ImageNotInKernel):
        quotient_basis(QQ, [{0: Fraction(1)}], image_rows(QQ, [{1: Fraction(1)}]))


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
    m = mat(rows)
    r = rank(field, m)
    ker = kernel_basis(field, m)
    assert r + len(ker) == m.ncols
    for k in ker:
        assert mat_vec(field, m, k) == {}


def in_field(field, vec):
    """The field-reduced copy of an integer vector: entries reduced, zeros left out."""
    return {i: s for i, v in vec.items() if (s := scalar(field, v))}


@settings(max_examples=60, deadline=None)
@given(st.data(), int_matrix(), st.sampled_from(["q", "fp:2", "fp:3", "fp:5"]))
def test_integer_matrix_matches_its_field_reduced_copy(data, rows, fieldspec):
    # every entry stored, zeros included, and moved by a multiple of p
    field = parse_field_spec(fieldspec)
    p = 0 if field == QQ else field.p

    def lift(values):
        return {i: v + p * data.draw(small_entries) for i, v in enumerate(values)}

    nrows, ncols = len(rows), len(rows[0])
    integer = SparseMatrix(nrows, ncols, tuple(lift([row[j] for row in rows]) for j in range(ncols)))
    reduced = SparseMatrix(nrows, ncols, tuple(in_field(field, col) for col in integer.cols))
    ker = kernel_basis(field, reduced)
    assert kernel_basis(field, integer) == ker

    # the kernel vectors and integer combinations of them, each lifted the same way
    dense_ker = [[k.get(i, 0) for i in range(ncols)] for k in ker]
    image = []
    for _ in range(data.draw(st.integers(0, 3))):
        coeffs = [data.draw(small_entries) for _ in ker]
        image.append(lift([sum(c * k[i] for c, k in zip(coeffs, dense_ker)) for i in range(ncols)]))
    lifted_ker = [lift(k) for k in dense_ker]
    expected = quotient_basis(field, ker, image_rows(field, [in_field(field, v) for v in image]))
    assert quotient_basis(field, lifted_ker, image_rows(field, image)) == expected


@settings(max_examples=40, deadline=None)
@given(int_matrix(), st.lists(small_entries, min_size=1, max_size=5))
def test_image_membership_roundtrip(rows, xs):
    field = QQ
    m = mat(rows)
    x = {j: v for j, v in enumerate(xs[: m.ncols]) if v}
    v = mat_vec(field, m, x)
    coeffs = image_membership(field, m, v)
    assert coeffs is not None
    assert mat_vec(field, m, coeffs) == v


@settings(max_examples=40, deadline=None)
@given(int_matrix())
def test_determinism(rows):
    m1 = mat(rows)
    m2 = mat(rows)
    assert kernel_basis(QQ, m1) == kernel_basis(QQ, m2)
    assert rank(QQ, m1) == rank(QQ, m2)


def sub(field, a, b):
    return scalar(field, a - b)


def div(field, a, b):
    """a / b, by hand: the field objects keep no division of their own."""
    if field == QQ:
        return Fraction(a) / b
    return a * pow(b, -1, field.p) % field.p


def gauss_jordan(field, rows, ncols):
    """Textbook Gauss-Jordan on dense rows: (reduced rows, pivot columns).

    Each reduced row is 1 at its pivot and 0 at every other pivot.
    """
    a = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        top = len(pivots)
        r = next((i for i in range(top, len(a)) if scalar(field, a[i][c])), None)
        if r is None:
            continue
        a[top], a[r] = a[r], a[top]
        inv = div(field, 1, a[top][c])
        a[top] = [scalar(field, inv * v) for v in a[top]]
        for i in range(len(a)):
            if i != top and scalar(field, a[i][c]):
                factor = a[i][c]
                a[i] = [sub(field, v, factor * w) for v, w in zip(a[i], a[top])]
        pivots.append(c)
    return a[: len(pivots)], pivots


def sparse(field, values):
    return {i: v for i, v in enumerate(values) if scalar(field, v)}


def dense(field, vec, n):
    return [vec.get(i, 0) for i in range(n)]


def test_stored_rows_never_change():
    rb = RowBasis(QQ, track=True)
    seen = {}
    for tag, vec in enumerate(({0: 1, 1: 1}, {1: 1}, {1: 2, 2: 1}, {0: 1, 2: 3, 3: 1})):
        rb.insert({i: Fraction(v) for i, v in vec.items()}, tag)
        for pivot, (row, coeffs) in rb.rows.items():
            snapshot = (dict(row), dict(coeffs))
            assert seen.setdefault(pivot, snapshot) == snapshot
    assert rb.rows[0][0] == {0: Fraction(1), 1: Fraction(1)}
    assert rb.rank == len(seen) == 4


@settings(max_examples=60, deadline=None)
@given(int_matrix(), int_matrix(), st.sampled_from(["q", "fp:2", "fp:3"]))
def test_elimination_matches_dense_gauss_jordan(rows, mixing, fieldspec):
    field = parse_field_spec(fieldspec)
    m = mat(rows)
    reduced, pivots = gauss_jordan(field, rows, m.ncols)
    # the kernel vector of free column j is 1 at j and -reduced[i][j] at pivots[i]
    expected = []
    for j in range(m.ncols):
        if j in pivots:
            continue
        vec = [0] * m.ncols
        vec[j] = 1
        for i, p in enumerate(pivots):
            vec[p] = scalar(field, -reduced[i][j])
        expected.append(normal_form(field, sparse(field, vec)))
    ker = kernel_basis(field, m)
    assert ker == expected

    # image: combinations of the kernel vectors, with coefficients from mixing
    ker_dense = [dense(field, v, m.ncols) for v in ker]
    image = []
    for coeffs in mixing:
        vec = [0] * m.ncols
        for c, k in zip(coeffs, ker_dense):
            vec = [scalar(field, v + c * w) for v, w in zip(vec, k)]
        image.append(sparse(field, vec))
    _, image_pivots = gauss_jordan(field, [dense(field, v, m.ncols) for v in image], m.ncols)
    both, both_pivots = gauss_jordan(field, ker_dense, m.ncols)
    completion = {p: sparse(field, r) for r, p in zip(both, both_pivots) if p not in image_pivots}
    reps = quotient_basis(field, ker, image_rows(field, image))
    assert len(reps) == len(completion)
    for rep in reps:
        lead = rep[min(rep)]
        assert {i: div(field, v, lead) for i, v in rep.items()} == completion[min(rep)]


def scalars(fieldspec):
    """Field scalars: small non-integer fractions over Q, anything in range(p)."""
    if fieldspec == "q":
        return st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.integers(min_value=0, max_value=parse_field_spec(fieldspec).p - 1)


SPAN_FIELDS = ["q", "fp:2", "fp:3", "fp:2305843009213693951"]


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(SPAN_FIELDS))
def test_express_matches_dense_solve(data, fieldspec):
    field = parse_field_spec(fieldspec)
    nrows = data.draw(st.integers(min_value=1, max_value=5))
    ncols = data.draw(st.integers(min_value=1, max_value=5))
    entry = scalars(fieldspec)
    cols = [[data.draw(entry) for _ in range(nrows)] for _ in range(ncols)]
    m = SparseMatrix(nrows, ncols, tuple(sparse(field, c) for c in cols))
    if data.draw(st.booleans()):  # a vector in the span, most of the time outside it otherwise
        x = mat_vec(field, m, sparse(field, [data.draw(entry) for _ in range(ncols)]))
    else:
        x = sparse(field, [data.draw(entry) for _ in range(nrows)])
    # solve [M | x] densely: x is in the span iff the last column is no pivot, and
    # the unique solution over the independent (pivot) columns is read off the rows
    augmented = [[cols[j][i] for j in range(ncols)] + [x.get(i, 0)] for i in range(nrows)]
    reduced, pivots = gauss_jordan(field, augmented, ncols + 1)
    if ncols in pivots:
        expected = None
    else:
        expected = {p: row[ncols] for row, p in zip(reduced, pivots) if scalar(field, row[ncols])}
    assert image_membership(field, m, x) == expected


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(SPAN_FIELDS))
def test_reduce_mod_matches_dense_reduction(data, fieldspec):
    field = parse_field_spec(fieldspec)
    n = data.draw(st.integers(min_value=1, max_value=6))
    entry = scalars(fieldspec)
    vecs = [[data.draw(entry) for _ in range(n)] for _ in range(data.draw(st.integers(0, 4)))]
    x = [data.draw(entry) for _ in range(n)]
    rb = RowBasis(field)
    for v in vecs:
        rb.insert(sparse(field, v))
    # the coset member that is zero at every pivot of the span
    reduced, pivots = gauss_jordan(field, vecs, n)
    expected = list(x)
    for row, p in zip(reduced, pivots):
        factor = expected[p]
        expected = [sub(field, v, factor * w) for v, w in zip(expected, row)]
    assert rb.reduce_mod(sparse(field, x)) == sparse(field, expected)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["q", "fp:7"])
def test_fields_reduce_only_whole_vectors(field):
    # a field keeps no per-scalar arithmetic: its public names are the vector
    # reducers and the elimination's row kernels, plus its name and modulus
    public = {name for name in dir(field) if not name.startswith("_")}
    expected = {"name", "normal", "to_row", "pivot_step", "combine", "canonical", "from_row"}
    assert public == expected | ({"p"} if isinstance(field, PrimeField) else set())


def test_normal_puts_a_vector_in_the_field():
    vec = {0: 3, 1: 0, 2: Fraction(-7, 2), 3: -14}
    assert QQ.normal(vec) == {0: 3, 2: Fraction(-7, 2), 3: -14}
    assert PrimeField(7).normal({0: 3, 1: 0, 3: -14, 4: -1, 5: 2**70}) == {0: 3, 4: 6, 5: 2**70 % 7}
    assert vec[1] == 0  # the input is not modified


RATIONAL_ENTRIES = st.one_of(
    st.integers(-(2**70), 2**70),
    st.fractions(max_denominator=60),
    st.booleans(),
    st.sampled_from([0, Fraction(0), False, Fraction(6, 3)]),
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(0, 30), RATIONAL_ENTRIES, max_size=8))
def test_rational_to_row_matches_the_ratio_loop(vec):
    # the int path takes an int as it is; the row, its factor and the type
    # of every entry are what one as_integer_ratio per entry gives
    before = dict(vec)
    row, d = QQ.to_row(vec)
    want_row, want_d = ratio_to_row(vec)
    assert (row, d) == (want_row, want_d)
    assert list(row) == list(want_row)
    assert [type(v) for v in row.values()] == [type(v) for v in want_row.values()] == [int] * len(row)
    assert vec == before and row is not vec


def test_fp_and_q_ranks_agree_on_small_int_matrix():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert rank(QQ, mat(rows)) == rank(F5, mat(rows))
