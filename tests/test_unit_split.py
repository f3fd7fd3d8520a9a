"""A space's unit part against the vectors it stands for, and the class
read against a tracked solve.

``hochschild_cohomology`` holds each unit kernel vector and representative
e_j as the index j alone, an ``int`` among the dicts of the other vectors.
``reference_scans`` builds every vector of every degree by inserting
everything; the spaces must give the same vectors in the same order, and
``cup_products`` must give the same products from the indices as from the
vectors they stand for.  ``class_vector`` reads a class at the
representatives' pivots, which is exact because each representative is zero
at every other pivot; the tests below pin that invariant, check every read
against ``RowBasis.express`` over a tracked basis of the coboundaries and
the representatives, and check that a read eliminates nothing.
"""

from fractions import Fraction

import pytest

from monomial_hh import checks, cup
from monomial_hh.ambiguities import AmbiguityTable
from monomial_hh.cochains import _offsets, class_vector, cochain_differential, differential_matrix, hochschild_cohomology
from monomial_hh.cup import cup_products
from monomial_hh.errors import NotACocycle
from monomial_hh.fields import parse_field_spec
from monomial_hh.linalg import RowBasis
from monomial_hh.quivers import build_algebra
from monomial_hh.randomgen import RandomAlgebraConfig, random_algebra

from conftest import make_cone
from helpers import expand
from reference_scans import insert_kernel_basis, insert_quotient_basis
from test_elimination_shortcuts import assert_same, loops_tables
from test_incidence import tables

DEGREE = 6
CUP_DEGREE = 4
SPECS = ["q", "fp:2", "fp:3"]


def every_table(spec):
    for t in tables(spec):
        yield t, DEGREE
    yield from loops_tables(spec)


def is_unit(v):
    return len(v) == 1 and next(iter(v.values())) == 1


@pytest.mark.parametrize("spec", SPECS)
def test_spaces_match_a_reference_that_builds_every_vector(spec):
    field = parse_field_spec(spec)
    for t, top in every_table(spec):
        image = []
        for m, space in enumerate(hochschild_cohomology(t, top)):
            following = []
            kernel = insert_kernel_basis(field, differential_matrix(t, m), following)
            assert_same(expand(space.cocycles), kernel)
            assert_same(space.coboundaries, image)
            assert_same(expand(space.representatives), insert_quotient_basis(field, kernel, image))
            assert len(space.cocycles) == len(kernel)
            # every unit vector is held as its index, and the kernel's in order
            units = [x for x in space.cocycles if type(x) is int]
            assert units == sorted(units)
            for items in (space.cocycles, space.representatives):
                assert not any(is_unit(x) for x in items if type(x) is not int)
            image = following


@pytest.mark.parametrize("spec", SPECS)
def test_cup_products_read_units_as_their_vectors(spec):
    # each space's tuples against the same vectors as dicts, in either operand
    # position; degree 0 included, where a unit may be the falsy index 0
    zeros = 0
    for t in tables(spec):
        spaces = hochschild_cohomology(t, CUP_DEGREE)
        for i in range(CUP_DEGREE + 1):
            for j in range(CUP_DEGREE + 1 - i):
                for fs, gs in (
                    (spaces[i].cocycles, spaces[j].cocycles),
                    (spaces[i].representatives, spaces[j].cocycles),
                    (spaces[i].cocycles, spaces[j].representatives),
                ):
                    want = cup_products(t, i, j, expand(fs), expand(gs))
                    assert cup_products(t, i, j, fs, gs) == want
                    assert cup_products(t, i, j, fs, expand(gs)) == want
                    assert cup_products(t, i, j, expand(fs), gs) == want
                    # a dict is never equal to 0, so this finds the unit e_0
                    zeros += bool(want) and (0 in fs or 0 in gs)
    assert zeros > 0


def solver(space, field):
    """A tracked basis of the coboundary rows and the representatives, the
    reference solve that every class read must equal."""
    basis = RowBasis(field, track=True, seed=space.coboundaries)
    for i, v in enumerate(expand(space.representatives)):
        assert basis.insert(v, i)[0]
    return basis


def counting(monkeypatch, method):
    """The list of the vectors each later call of the RowBasis method is given."""
    calls = []
    original = getattr(RowBasis, method)

    def counted(self, vec, *args, **kwargs):
        calls.append(vec)
        return original(self, vec, *args, **kwargs)

    monkeypatch.setattr(RowBasis, method, counted)
    return calls


def coboundary_part(field, space, vec, cls):
    """vec − Σ cls[a]·r_a over the representatives r_a: the coboundary part of a cocycle vec."""
    reps = expand(space.representatives)
    rest = dict(vec)
    for a, c in cls.items():
        for i, v in reps[a].items():
            rest[i] = rest.get(i, 0) - c * v
    return field.normal(rest)


@pytest.mark.parametrize("spec", SPECS)
def test_representatives_are_reduced_at_every_pivot(spec):
    # the invariant the class read relies on: each representative is zero at
    # every other representative's pivot and at every coboundary pivot, and
    # those pivots are all distinct
    multi = 0
    for t, top in every_table(spec):
        for space in hochschild_cohomology(t, top):
            reps = expand(space.representatives)
            pivots = [min(v) for v in reps]
            image = {min(v) for v in space.coboundaries}
            assert len(set(pivots)) == len(pivots)
            assert len(image) == len(space.coboundaries)
            assert image.isdisjoint(pivots)
            for p, v in zip(pivots, reps):
                assert image.isdisjoint(v) and set(pivots).intersection(v) == {p}
                multi += len(v) > 1
    assert multi > 0


@pytest.mark.parametrize("spec", SPECS)
def test_class_read_off_matches_the_solve(spec, monkeypatch):
    # every nonzero product of every cup table bidegree; the read never calls
    # express, and reduces modulo the coboundaries exactly when the product
    # has a coboundary part
    solves = counting(monkeypatch, "express")
    reductions = counting(monkeypatch, "reduce_mod")
    read = 0
    for t, top in every_table(spec):
        field = t.algebra.field
        top = min(top, CUP_DEGREE)
        spaces = hochschild_cohomology(t, top)
        for i in range(top + 1):
            for j in range(top + 1 - i):
                target = spaces[i + j]
                basis = solver(target, field)
                for product in cup_products(t, i, j, spaces[i].representatives, spaces[j].representatives).values():
                    want = basis.express(product)
                    del solves[:], reductions[:]
                    assert class_vector(target, t, product) == want
                    assert solves == []
                    on_representatives = not coboundary_part(field, target, product, want)
                    assert len(reductions) == (not on_representatives), product
                    read += on_representatives
    assert read > 0


def test_scaled_representatives_read_off_over_q(monkeypatch):
    # the cone's HH^4 holds the rational representative 2 [...]: a multiple
    # c·e_p of it is c/2 of its class, read off with no solve
    t = AmbiguityTable(make_cone())
    space = hochschild_cohomology(t, 4)[4]
    scaled = [(a, v) for a, v in enumerate(expand(space.representatives)) if len(v) == 1 and not is_unit(v)]
    assert [list(v.values()) for _, v in scaled] == [[2]]
    basis = solver(space, t.algebra.field)
    solves = counting(monkeypatch, "express")
    for a, v in scaled:
        ((p, s),) = v.items()
        for c in (1, 2, 3, Fraction(1, 3)):
            assert class_vector(space, t, {p: c}) == basis.express({p: c}) == {a: Fraction(c) / s}
            assert solves == [{p: c}]  # the reference's call only
            del solves[:]


@pytest.mark.parametrize("spec", SPECS)
def test_other_vectors_reach_the_solve(spec, monkeypatch):
    # a vector with an entry at an image pivot, or off every pivot, leaves a
    # remainder at the pivots and is read again modulo the coboundaries; a
    # read that took it at once would give no NotACocycle for a non-cocycle
    cone = make_cone()
    t = AmbiguityTable(build_algebra(cone.quiver, cone.relations, parse_field_spec(spec)))
    spaces = hochschild_cohomology(t, 5)
    reductions = counting(monkeypatch, "reduce_mod")
    checked = 0
    for m, space in enumerate(spaces):
        units = [x for x in space.representatives if type(x) is int]
        off = next((q for q in range(_offsets(t, m)[1]) if cochain_differential(t, m, {q: 1})), None)
        if not units or not space.coboundaries or off is None:
            continue
        p = units[0]
        boundary = space.coboundaries[0]  # its pivot is an image pivot
        vec = dict(boundary)
        vec[p] = vec.get(p, 0) + 1
        vec = t.algebra.field.normal(vec)
        got = class_vector(space, t, vec)
        assert len(reductions) == 1 and got == class_vector(space, t, {p: 1}) == {space.representatives.index(p): 1}
        del reductions[:]
        with pytest.raises(NotACocycle):
            class_vector(space, t, {p: 1, off: 1})
        assert len(reductions) == 1
        del reductions[:]
        checked += 1
    assert checked >= 2


def watch_class_reads(monkeypatch):
    """{"reads": class reads through ``cup``, "inserts": ``RowBasis.insert`` calls
    made inside them, "reductions": ``reduce_mod`` calls made inside them}."""
    inserts = counting(monkeypatch, "insert")
    reductions = counting(monkeypatch, "reduce_mod")
    seen = {"reads": 0, "inserts": 0, "reductions": 0}

    def watched(space, table, vec):
        before = len(inserts), len(reductions)
        try:
            return class_vector(space, table, vec)
        finally:
            seen["reads"] += 1
            seen["inserts"] += len(inserts) - before[0]
            seen["reductions"] += len(reductions) - before[1]

    monkeypatch.setattr(cup, "class_vector", watched)
    return seen


@pytest.mark.parametrize("spec", SPECS)
def test_class_reads_eliminate_nothing_in_cup_tables(spec, monkeypatch):
    seen = watch_class_reads(monkeypatch)
    for t, top in every_table(spec):
        top = min(top, CUP_DEGREE)
        spaces = hochschild_cohomology(t, top)
        for i in range(top + 1):
            for j in range(top + 1 - i):
                cup.cup_table(t, spaces, i, j)
    assert seen["inserts"] == 0, seen
    assert seen["reads"] > 0, seen


@pytest.mark.parametrize("spec", SPECS)
def test_class_reads_eliminate_nothing_in_a_triangular_battery(spec, monkeypatch):
    # the triangular rows read products of kernel vectors, which carry
    # coboundary parts: those reads reduce, and still insert nothing.  On
    # this algebra one of them lands in a space with representatives, where
    # a solve over them would insert them
    algebra = random_algebra(RandomAlgebraConfig(triangular=True, field=parse_field_spec(spec)), 1004)
    seen = watch_class_reads(monkeypatch)
    reports = checks.run_checks(algebra, DEGREE, checks.GENERAL_ROWS + checks.TRIANGULAR_ROWS)
    assert all(r.ok for r in reports), [r for r in reports if not r.ok]
    assert seen["inserts"] == 0, seen
    assert seen["reads"] > 0 and seen["reductions"] > 0, seen
