import pytest

from monomial_hh.ambiguities import AmbiguityTable
from monomial_hh.diagonal import (
    check_chain_map,
    check_counit,
    check_decomposition_lemmas,
    counit,
    diagonal,
    tensor_element,
)

from helpers import basis_paths, by_path, generator, index_of, is_quadratic, path, quintuple, vertex, written
from reference_scans import is_trivial, path_d_terms, reduce_concat, to_paths


def check_quadratic(table, max_degree):
    """Quadratic algebras: one decomposition per bidegree, all outer slots trivial."""
    assert is_quadratic(table.algebra)
    for n in range(0, max_degree + 1):
        for amb in table.degree(n):
            seen = {}
            basis = basis_paths(table.algebra)
            for (pre, q1, mid, q2, post), c in diagonal(table, amb).terms.items():
                assert is_trivial(basis[pre]) and is_trivial(basis[mid]) and is_trivial(basis[post])
                bideg = (q2.degree + 1, q1.degree + 1)
                assert bideg not in seen
                seen[bideg] = c
                assert c == 1


def test_diagonal_of_vertex(cone):
    t = AmbiguityTable(cone)
    e = vertex(cone.quiver, "1")
    amb = by_path(t, -1, e)
    d = diagonal(t, amb)
    assert d.terms == {quintuple(t, e, amb, e, amb, e): 1}
    assert counit(t, d) == {index_of(t, e): 1}


def test_diagonal_of_arrow(cone):
    t = AmbiguityTable(cone)
    q = cone.quiver
    alpha = path(q, "alpha")
    amb = by_path(t, 0, alpha)
    e1 = vertex(q, "1")
    e2 = vertex(q, "2")
    ev1 = by_path(t, -1, e1)
    ev2 = by_path(t, -1, e2)
    d = diagonal(t, amb)
    assert d.terms == {
        quintuple(t, e1, ev1, e1, amb, e2): 1,
        quintuple(t, e1, amb, e2, ev2, e2): 1,
    }


def test_diagonal_of_quadratic_relation(cone):
    t = AmbiguityTable(cone)
    q = cone.quiver
    bz = written(q, "beta zeta")
    amb = by_path(t, 1, bz)
    e1, e2, e3 = (vertex(q, v) for v in "123")
    d = diagonal(t, amb)
    assert d.terms == {
        quintuple(t, e2, by_path(t, -1, e2), e2, amb, e3): 1,
        quintuple(t, e2, by_path(t, 0, path(q, "zeta")), e1, by_path(t, 0, path(q, "beta")), e3): 1,
        quintuple(t, e2, amb, e3, by_path(t, -1, e3), e3): 1,
    }


def test_diagonal_of_cubic_relation(cone):
    t = AmbiguityTable(cone)
    q = cone.quiver
    aza = written(q, "alpha zeta alpha")
    amb = by_path(t, 1, aza)
    d = diagonal(t, amb)
    assert len(d.terms) == 5
    e1 = vertex(q, "1")
    alpha = path(q, "alpha")
    zeta = path(q, "zeta")
    # the middle slot can be a nontrivial basis path
    key = quintuple(t, e1, by_path(t, 0, alpha), zeta, by_path(t, 0, alpha), vertex(q, "2"))
    assert d.terms[key] == 1
    # and so can pre
    key2 = quintuple(t, alpha, by_path(t, 0, zeta), e1, by_path(t, 0, alpha), vertex(q, "2"))
    assert d.terms[key2] == 1


def test_chain_map(cone, square, triangular_a6, truncated_cycle):
    for alg in (cone, square, triangular_a6, truncated_cycle):
        check_chain_map(AmbiguityTable(alg), 4)


def test_counit(cone, square, triangular_a6, truncated_cycle):
    for alg in (cone, square, triangular_a6, truncated_cycle):
        check_counit(AmbiguityTable(alg), 4)


def test_decomposition_lemmas(cone, square):
    for alg in (cone, square):
        check_decomposition_lemmas(AmbiguityTable(alg), 4)


def test_quadratic_specialization(triangular_a6, truncated_cycle):
    for alg in (triangular_a6, truncated_cycle):
        assert is_quadratic(alg)
        check_quadratic(AmbiguityTable(alg), 5)


def test_wrong_koszul_sign_fails(cone):
    # flipping the sign on the id (x) d branch breaks the chain identity
    from monomial_hh import diagonal as dmod
    from monomial_hh.resolution import differential

    t = AmbiguityTable(cone)
    amb = next(iter(t.degree(2)))
    lhs = dmod.diagonal_of_element(t, differential(t, generator(t, amb)))
    rhs = dmod.tensor_differential(t, dmod.diagonal(t, amb))
    assert lhs == rhs
    flipped = tensor_element(t, rhs.degree)
    # rebuild rhs with the opposite Koszul convention by hand, on paths
    alg = t.algebra
    for (pre, f, m, s, post), c in to_paths(t, dmod.diagonal(t, amb)).terms.items():
        if s.degree >= 0:
            for dpre, r, dpost, sign in path_d_terms(t, s):
                new_mid = reduce_concat(alg, m, dpre)
                new_post = reduce_concat(alg, dpost, post)
                if new_mid is None or new_post is None:
                    continue
                flipped.add(quintuple(t, pre, f, new_mid, r, new_post), sign * c)
        if f.degree >= 0:
            koszul = 1 if (s.degree + 1) % 2 else -1
            for dpre, r, dpost, sign in path_d_terms(t, f):
                new_pre = reduce_concat(alg, pre, dpre)
                new_mid = reduce_concat(alg, dpost, m)
                if new_pre is None or new_mid is None:
                    continue
                flipped.add(quintuple(t, new_pre, r, new_mid, s, post), koszul * sign * c)
    assert flipped != lhs


def test_quintuple_keys_must_compose(cone):
    t = AmbiguityTable(cone)
    q = cone.quiver
    e1, e2 = vertex(q, "1"), vertex(q, "2")
    ev1, alpha = by_path(t, -1, e1), by_path(t, 0, path(q, "alpha"))
    tensor_element(t, 0, {quintuple(t, e1, ev1, e1, alpha, e2): 1})
    for bad in ((e2, ev1, e1, alpha, e2), (e1, ev1, e2, alpha, e2), (e1, ev1, e1, alpha, e1)):
        with pytest.raises(AssertionError):
            tensor_element(t, 0, {tuple(index_of(t, x) if x in basis_paths(cone) else x for x in bad): 1})
