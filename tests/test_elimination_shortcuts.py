"""The elimination's shortcuts against the all-insert elimination they skip.

``linalg.kernel_basis`` gives a zero column its dependency without an
insert and tracks coefficients only from the first dependent column, and
``linalg.quotient_basis`` stores a kernel vector that meets no pivot as it
is, starts a unit on a pivot from minus the rest of that pivot's row, and
drops the unit coordinates of the kernel span from each representative's
rest before reducing it.  ``reference_scans`` keeps the elimination that
inserts and reduces everything; the two must agree in value and in order
on every degree of the complexes below.  The work that the shortcuts skip
is pinned too: the quotient's reduction steps and the degrees that build a
tracked basis.
"""

from fractions import Fraction

import pytest

from monomial_hh.ambiguities import AmbiguityTable
from monomial_hh import cochains
from monomial_hh.cochains import differential_matrix
from monomial_hh.errors import ImageNotInKernel
from monomial_hh.fields import QQ, parse_field_spec
from monomial_hh import linalg
from monomial_hh.linalg import RowBasis, SparseMatrix

from helpers import OVERLAPPING, expand, named_algebra, scalar, split
from reference_scans import insert_kernel_basis, insert_quotient_basis
from test_incidence import tables


def kernel_basis(field, matrix, image=None):
    """``linalg.kernel_basis`` as a list of vectors."""
    return expand(linalg.kernel_basis(field, matrix, image))


def quotient_basis(field, kernel_vecs, image):
    """``linalg.quotient_basis`` from and to lists of vectors."""
    return expand(linalg.quotient_basis(field, split(kernel_vecs), image))

DEGREE = 6
# the loop families and their top degrees; on the overlapping families,
# unlike the others, the quotient reduces rests
LOOP_DEGREES = {"rsz2": 6, "rsz3": 4, "cub2": 6}
OVERLAPPING_DEGREES = dict.fromkeys(OVERLAPPING, DEGREE)


def family_tables(spec, degrees=LOOP_DEGREES):
    for name, degree in degrees.items():
        yield AmbiguityTable(named_algebra(name, spec)), degree


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
    for t, degree in (*family_tables(spec), *family_tables(spec, OVERLAPPING_DEGREES)):
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


def recorded_inserts(field, mat, monkeypatch):
    """The kernel pass's ``RowBasis.insert`` calls on mat, as (tracked, tag)."""
    calls = []
    insert = RowBasis.insert

    def recording(self, vec, tag=None):
        calls.append((self.track, tag))
        return insert(self, vec, tag)

    monkeypatch.setattr(RowBasis, "insert", recording)
    kernel_basis(field, mat)
    monkeypatch.setattr(RowBasis, "insert", insert)
    return calls


@pytest.mark.parametrize("spec", ["q", "fp:2", "fp:3"])
def test_tracking_starts_at_the_first_dependent_column(spec, monkeypatch):
    # column 4 = column 0 + column 1 is the first dependent column in every
    # field, after an empty one; column 6 depends on the full rank 4, and
    # column 7 is dependent too (zero over GF(3))
    field = parse_field_spec(spec)
    cols = ({0: 1, 1: 1}, {1: 1, 2: 1}, {}, {2: 1, 3: 1}, {0: 1, 1: 2, 2: 1}, {3: 1}, {0: 1, 3: -1}, {1: 3})
    mat = SparseMatrix(4, 8, cols)
    assert_matches_reference(field, [mat])
    kernel = kernel_basis(field, mat)
    assert len(kernel) == 4 and kernel[1] == {0: 1, 1: 1, 4: scalar(field, -1)}
    # four untracked inserts up to column 4; then the nonempty columns
    # before it again, with their tags, and every later one, tracked
    assert recorded_inserts(field, mat, monkeypatch) == [(False, None)] * 4 + [(True, j) for j in (0, 1, 3, 4, 5, 6, 7)]


@pytest.mark.parametrize("spec, first", [("q", 3), ("fp:2", 2), ("fp:3", 3)])
def test_a_column_zero_only_in_the_field_starts_tracking(spec, first, monkeypatch):
    # column 2 is a column of even entries: independent over Q and GF(3),
    # zero over GF(2), where it is the first dependent column; column 3 is
    # column 0 + column 1, dependent in every field
    field = parse_field_spec(spec)
    mat = SparseMatrix(3, 4, ({0: 1}, {1: 1, 2: 1}, {0: 2, 2: 4}, {0: 1, 1: 1, 2: 1}))
    assert_matches_reference(field, [mat])
    assert recorded_inserts(field, mat, monkeypatch) == [(False, None)] * (first + 1) + [(True, j) for j in range(4)]


def tracked_degrees(t, top, monkeypatch):
    """The degrees whose kernel pass builds a tracked ``RowBasis``, one entry per build."""
    degrees, passes = [], []
    kernel_pass = linalg.kernel_basis

    class Recording(RowBasis):
        def __init__(self, field, track=False, seed=()):
            if track:
                degrees.append(len(passes) - 1)
            super().__init__(field, track, seed)

    def per_degree(*args):
        passes.append(None)
        return kernel_pass(*args)

    monkeypatch.setattr(linalg, "RowBasis", Recording)
    monkeypatch.setattr(cochains, "kernel_basis", per_degree)
    cochains.hochschild_cohomology(t, top)
    return degrees


@pytest.mark.parametrize("name, top", [("rsz2", 8), ("rsz3", 5), ("cub2", 4)], ids=["2-2-8", "3-2-5", "2-3-4"])
def test_no_loop_family_tracks_a_kernel(name, top, monkeypatch):
    # rsz(2), rsz(3) and cub(2): no nonempty column of any δ^m is dependent
    assert tracked_degrees(AmbiguityTable(named_algebra(name)), top, monkeypatch) == []


def test_the_cone_tracks_where_a_column_is_dependent(monkeypatch):
    assert tracked_degrees(AmbiguityTable(named_algebra("cone")), 6, monkeypatch) == [0, 2, 6]


@pytest.mark.parametrize(
    "k, spec, top, want",
    [
        (3, "q", 5, [0, 0, 0, 10, 46, 154]),
        (3, "fp:2", 5, [0, 0, 0, 10, 46, 154]),
        (2, "q", 8, [0, 0, 0, 3, 11, 27, 61, 127, 263]),
    ],
)
def test_quotient_elimination_steps_on_rsz(k, spec, top, want, monkeypatch):
    # reduction steps (pivot_step calls) of quotient_basis per degree; a
    # unit on a pivot starts from its first step's result, so it takes one
    # step less than e_x would
    t = AmbiguityTable(named_algebra("rsz%d" % k, spec))
    field = t.algebra.field
    steps, inside = [], []
    pivot_step, quotient = field.pivot_step, cochains.quotient_basis

    def counting_pivot_step(vc, rp):
        if inside:
            steps[-1] += 1
        return pivot_step(vc, rp)

    def per_degree(*args):
        steps.append(0)
        inside.append(None)
        try:
            return quotient(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(field, "pivot_step", counting_pivot_step)
    monkeypatch.setattr(cochains, "quotient_basis", per_degree)
    cochains.hochschild_cohomology(t, top)
    assert steps == want
