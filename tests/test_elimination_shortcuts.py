"""The elimination's shortcuts against the all-insert elimination they skip.

``linalg.kernel_basis`` gives a zero column its dependency without an
insert, and ``linalg.quotient_basis`` stores a kernel vector that meets no
pivot as it is and drops the unit coordinates of the kernel span from each
representative's rest before reducing it.  ``reference_scans`` keeps the
elimination that inserts and reduces everything; the two must agree in
value and in order on every degree of the complexes below.
"""

from fractions import Fraction

import pytest

from monomial_hh.algfile import parse_algebra_file
from monomial_hh.ambiguities import AmbiguityTable
from monomial_hh.cochains import differential_matrix
from monomial_hh.errors import ImageNotInKernel
from monomial_hh.fields import QQ, parse_field_spec
from monomial_hh import linalg
from monomial_hh.linalg import RowBasis, SparseMatrix

from helpers import expand, loops_algebra_text, scalar, split
from reference_scans import insert_kernel_basis, insert_quotient_basis
from test_incidence import tables


def kernel_basis(field, matrix, image=None):
    """``linalg.kernel_basis`` as a list of vectors."""
    return expand(linalg.kernel_basis(field, matrix, image))


def quotient_basis(field, kernel_vecs, image):
    """``linalg.quotient_basis`` from and to lists of vectors."""
    return expand(linalg.quotient_basis(field, split(kernel_vecs), image))

DEGREE = 6
LOOPS = ((2, 2, 6), (3, 2, 4), (2, 3, 6))  # rsz(2) D=6, rsz(3) D=4, cub(2) D=6


def loops_tables(spec):
    for k, rel_len, degree in LOOPS:
        alg = parse_algebra_file(loops_algebra_text(k, rel_len).replace("field q", "field " + spec))
        yield AmbiguityTable(alg), degree


def assert_same(got, want):
    """Equal vectors in the same order, each with the same entries in the same order."""
    assert [list(v.items()) for v in got] == [list(v.items()) for v in want]


def assert_matches_reference(field, mats):
    """Kernel, image rows and representatives of each degree, as the complex runs them."""
    image = ref_image = []
    for mat in mats:
        following, ref_following = [], []
        kernel = kernel_basis(field, mat, following)
        ref_kernel = insert_kernel_basis(field, mat, ref_following)
        assert_same(kernel, ref_kernel)
        assert_same(following, ref_following)
        assert_same(quotient_basis(field, kernel, image), insert_quotient_basis(field, ref_kernel, ref_image))
        image, ref_image = following, ref_following


@pytest.mark.parametrize("spec", ["q", "fp:2", "fp:3"])
def test_shortcuts_match_all_insert_elimination(spec):
    field = parse_field_spec(spec)
    for t in tables(spec):
        assert_matches_reference(field, [differential_matrix(t, m) for m in range(DEGREE + 1)])
    for t, degree in loops_tables(spec):
        assert_matches_reference(field, [differential_matrix(t, m) for m in range(degree + 1)])


def test_a_column_zero_only_in_the_field_is_inserted():
    # a column of 2s is nonzero over Z, so it takes the insert and comes out
    # a dependency over GF(2) and an independent column over Q
    mat = SparseMatrix(2, 3, ({}, {0: 2, 1: 2}, {0: 1}))
    for spec in ("q", "fp:2", "fp:3"):
        assert_matches_reference(parse_field_spec(spec), [mat])
    assert kernel_basis(parse_field_spec("fp:2"), mat) == [{0: 1}, {1: 1}]
    assert kernel_basis(QQ, mat) == [{0: 1}]


def test_a_fraction_unit_kernel_vector_is_stored_canonical():
    kernel = [{0: Fraction(3)}, {1: Fraction(1, 2), 2: Fraction(-3, 4)}]
    assert_same(quotient_basis(QQ, kernel, []), insert_quotient_basis(QQ, kernel, []))
    assert quotient_basis(QQ, kernel, []) == [{0: 1}, {1: 2, 2: -3}]


@pytest.mark.parametrize("spec", ["q", "fp:3"])
def test_a_unit_vector_on_an_image_pivot_is_reduced(spec):
    # e_0 meets the image pivot 0 and lands on pivot 1; e_1 is then dependent
    field = parse_field_spec(spec)
    image = [{0: 1, 1: scalar(field, -1)}]
    kernel = [{0: 1}, {1: 1}, {2: 1}]
    assert quotient_basis(field, kernel, image) == insert_quotient_basis(field, kernel, image) == [{1: 1}, {2: 1}]


@pytest.mark.parametrize("spec", ["q", "fp:3"])
def test_a_rest_keeps_its_non_unit_index(spec):
    # e_2 is a unit kernel vector, index 1 is not: the first representative's
    # rest drops 2 and still reduces 1 against the row with pivot 1
    field = parse_field_spec(spec)
    kernel = [{0: 1, 1: 1, 2: 1}, {2: 1}, {1: 1, 3: 1}]
    reps = quotient_basis(field, kernel, [])
    assert_same(reps, insert_quotient_basis(field, kernel, []))
    assert reps[0] == {0: 1, 3: scalar(field, -1)}


@pytest.mark.parametrize("spec", ["q", "fp:3"])
def test_image_outside_the_kernel_when_every_vector_is_untouched(spec, monkeypatch):
    # no kernel vector meets the image pivot 0, so none is inserted, and the
    # rank check still sees the image row outside their span
    field = parse_field_spec(spec)
    kernel = [{1: 1}, {2: 1, 3: 1}]
    with pytest.raises(ImageNotInKernel):
        insert_quotient_basis(field, kernel, [{0: 1}])

    def no_insert(self, vec, tag=None):
        raise AssertionError("inserted %r" % vec)

    monkeypatch.setattr(RowBasis, "insert", no_insert)
    with pytest.raises(ImageNotInKernel):
        quotient_basis(field, kernel, [{0: 1}])
