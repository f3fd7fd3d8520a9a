"""A space's unit part against the vectors it stands for, and the class
read-off against the solve it skips.

``hochschild_cohomology`` holds each unit kernel vector and representative
e_j as the index j alone, an ``int`` among the dicts of the other vectors.
``reference_scans`` builds every vector of every degree by inserting
everything; the spaces must give the same vectors in the same order, and
``cup_products`` must give the same products from the indices as from the
vectors they stand for.  ``class_vector`` reads a vector whose
entries all sit at pivots of one-entry representatives straight off; the
read-off must equal ``RowBasis.express``, and every other vector must still
reach the solve.
"""

from fractions import Fraction

import pytest

from monomial_hh.ambiguities import AmbiguityTable
from monomial_hh.cochains import class_vector, cochain_differential, differential_matrix, hochschild_cohomology
from monomial_hh.cup import cup_products
from monomial_hh.errors import NotACocycle
from monomial_hh.fields import parse_field_spec
from monomial_hh.linalg import RowBasis
from monomial_hh.quivers import build_algebra

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
    """The tracked basis that ``class_vector`` solves with, built here."""
    basis = RowBasis(field, track=True, seed=space.coboundaries)
    for i, v in enumerate(expand(space.representatives)):
        assert basis.insert(v, i)[0]
    return basis


def one_entry_pivots(space):
    return {p for v in expand(space.representatives) if len(v) == 1 for p in v}


def counting_solves(monkeypatch):
    calls = []
    express = RowBasis.express

    def counting(self, vec):
        calls.append(vec)
        return express(self, vec)

    monkeypatch.setattr(RowBasis, "express", counting)
    return calls


@pytest.mark.parametrize("spec", SPECS)
def test_class_read_off_matches_the_solve(spec, monkeypatch):
    # every nonzero product of every cup table bidegree
    solves = counting_solves(monkeypatch)
    read = 0
    for t, top in every_table(spec):
        field = t.algebra.field
        top = min(top, CUP_DEGREE)
        spaces = hochschild_cohomology(t, top)
        for i in range(top + 1):
            for j in range(top + 1 - i):
                target = spaces[i + j]
                basis, pivots = solver(target, field), one_entry_pivots(target)
                for product in cup_products(t, i, j, spaces[i].representatives, spaces[j].representatives).values():
                    want = basis.express(product)
                    del solves[:]
                    assert class_vector(target, t, product) == want
                    on_pivots = pivots.issuperset(product)
                    assert len(solves) == (not on_pivots), product
                    read += on_pivots
    assert read > 0


def test_scaled_representatives_read_off_over_q(monkeypatch):
    # the cone's HH^4 holds the rational representative 2 [...]: a multiple
    # c·e_p of it is c/2 of its class, read off with no solve
    t = AmbiguityTable(make_cone())
    space = hochschild_cohomology(t, 4)[4]
    scaled = [(a, v) for a, v in enumerate(expand(space.representatives)) if len(v) == 1 and not is_unit(v)]
    assert [list(v.values()) for _, v in scaled] == [[2]]
    basis = solver(space, t.algebra.field)
    solves = counting_solves(monkeypatch)
    for a, v in scaled:
        ((p, s),) = v.items()
        for c in (1, 2, 3, Fraction(1, 3)):
            assert class_vector(space, t, {p: c}) == basis.express({p: c}) == {a: Fraction(c) / s}
            assert solves == [{p: c}]  # the reference's call only
            del solves[:]


@pytest.mark.parametrize("spec", SPECS)
def test_other_vectors_reach_the_solve(spec, monkeypatch):
    # a vector with an entry at an image pivot, or off every pivot, is solved;
    # a read-off that took it would give no NotACocycle for a non-cocycle
    cone = make_cone()
    t = AmbiguityTable(build_algebra(cone.quiver, cone.relations, parse_field_spec(spec)))
    spaces = hochschild_cohomology(t, 5)
    solves = counting_solves(monkeypatch)
    checked = 0
    for m, space in enumerate(spaces):
        pivots = one_entry_pivots(space)
        off = next((q for q in range(len(space.pairs)) if cochain_differential(t, m, {q: 1})), None)
        if not pivots or not space.coboundaries or off is None:
            continue
        p = next(min(v) for v in expand(space.representatives) if len(v) == 1)
        boundary = space.coboundaries[0]  # its pivot is an image pivot
        vec = dict(boundary)
        vec[p] = vec.get(p, 0) + 1
        vec = t.algebra.field.normal(vec)
        assert not pivots.issuperset(vec)
        got = class_vector(space, t, vec)
        assert len(solves) == 1 and got == class_vector(space, t, {p: 1})
        del solves[:]
        with pytest.raises(NotACocycle):
            class_vector(space, t, {p: 1, off: 1})
        assert len(solves) == 1
        del solves[:]
        checked += 1
    assert checked >= 2
