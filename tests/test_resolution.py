import pytest

from monomial_hh.ambiguities import AmbiguityTable
from monomial_hh.errors import WrongDegree
from monomial_hh.resolution import (
    augmentation,
    bimodule_element,
    check_augmented,
    check_d_squared,
    check_homotopy,
    check_minimal,
    differential,
    homotopy_sigma,
    iota,
)

from helpers import by_path, generator, index_of, path, triple, vertex, written


def negative(table, x):
    return bimodule_element(table, x.degree, {key: -c for key, c in x.terms.items()})


def test_differential_of_relation_is_arrow_sum(cone):
    t = AmbiguityTable(cone)
    q = cone.quiver
    bz = written(q, "beta zeta")
    d = differential(t, generator(t, by_path(t, 1, bz)))
    expected = bimodule_element(t, 0)
    expected.add(triple(t, vertex(q, "2"), by_path(t, 0, path(q, "zeta")), path(q, "beta")), 1)
    expected.add(triple(t, path(q, "zeta"), by_path(t, 0, path(q, "beta")), vertex(q, "3")), 1)
    assert d == expected


def test_differential_even_two_terms(cone):
    t = AmbiguityTable(cone)
    q = cone.quiver
    zaza = written(q, "zeta alpha zeta alpha")
    d = differential(t, generator(t, by_path(t, 2, zaza)))
    aza = by_path(t, 1, written(q, "alpha zeta alpha"))
    zaz = by_path(t, 1, written(q, "zeta alpha zeta"))
    expected = bimodule_element(t, 1)
    expected.add(triple(t, vertex(q, "1"), aza, path(q, "zeta")), 1)
    expected.add(triple(t, path(q, "alpha"), zaz, vertex(q, "1")), -1)
    assert d == expected


def test_augmentation_and_iota(cone):
    t = AmbiguityTable(cone)
    q = cone.quiver
    alpha = path(q, "alpha")
    x = bimodule_element(t, -1)
    x.add(triple(t, vertex(q, "1"), by_path(t, -1, vertex(q, "1")), alpha), 2)
    assert augmentation(t, x) == {index_of(t, alpha): 2}
    back = iota(t, augmentation(t, x))
    assert back.terms == {triple(t, alpha, by_path(t, -1, vertex(q, "2")), vertex(q, "2")): 2}

    # a composite running through a relation multiplies to zero
    z = bimodule_element(t, -1)
    z.add(triple(t, path(q, "zeta"), by_path(t, -1, vertex(q, "1")), path(q, "beta")), 1)
    assert augmentation(t, z) == {}

    with pytest.raises(WrongDegree):
        augmentation(t, generator(t, by_path(t, 0, alpha)))
    with pytest.raises(WrongDegree):
        differential(t, x)


def test_sigma_finds_relation_once(cone):
    t = AmbiguityTable(cone)
    q = cone.quiver
    x = bimodule_element(t, 0)
    x.add(triple(t, vertex(q, "2"), by_path(t, 0, path(q, "zeta")), path(q, "beta")), 1)
    s = homotopy_sigma(t, x)
    assert s == generator(t, by_path(t, 1, written(q, "beta zeta")))


def test_sigma_on_trivial_word_is_zero(cone):
    t = AmbiguityTable(cone)
    q = cone.quiver
    x = bimodule_element(t, -1)
    e = vertex(q, "1")
    x.add(triple(t, e, by_path(t, -1, e), e), 1)
    assert homotopy_sigma(t, x).is_zero()


def test_d_squared_and_friends(cone, square, triangular_a6, truncated_cycle):
    for alg in (cone, square, triangular_a6, truncated_cycle):
        t = AmbiguityTable(alg)
        check_d_squared(t, 5)
        check_augmented(t)
        check_minimal(t, 5)


def test_homotopy_identity(cone, square, triangular_a6, truncated_cycle):
    for alg in (cone, square, triangular_a6, truncated_cycle):
        check_homotopy(AmbiguityTable(alg), 4)


def test_homotopy_plus_sign_fails(cone):
    # the identity holds with id - iota.eps; the variant with a plus does not
    t = AmbiguityTable(cone)
    q = cone.quiver
    x = bimodule_element(t, -1)
    x.add(triple(t, vertex(q, "1"), by_path(t, -1, vertex(q, "1")), path(q, "alpha")), 1)
    lhs_plus = differential(t, homotopy_sigma(t, x)) + negative(t, iota(t, augmentation(t, x)))
    assert lhs_plus != x


def test_element_arithmetic(cone):
    t = AmbiguityTable(cone)
    g = generator(t, by_path(t, 0, path(cone.quiver, "alpha")))
    z = g + negative(t, g)
    assert z.is_zero()
    assert (g + z) == g
    with pytest.raises(TypeError):
        hash(g)
    # a key enters only at its own degree
    with pytest.raises(AssertionError):
        bimodule_element(t, 1, g.terms)
    # and only where its basis indices compose with the ambiguity
    q = cone.quiver
    alpha = by_path(t, 0, path(q, "alpha"))
    with pytest.raises(AssertionError):
        bimodule_element(t, 0, {(index_of(t, path(q, "beta")), alpha, index_of(t, vertex(q, "2"))): 1})
    with pytest.raises(AssertionError):
        bimodule_element(t, 0, {(index_of(t, vertex(q, "1")), alpha, index_of(t, vertex(q, "1"))): 1})
