import pathlib

import pytest

import reference_scans
from monomial_hh import quivers, randomgen
from monomial_hh.algfile import parse_algebra_file
from monomial_hh.errors import (
    DuplicateArrowId,
    InfiniteDimensional,
    NonComposableRelation,
)
from monomial_hh.fields import QQ, PrimeField
from monomial_hh.quivers import (
    MonomialAlgebra,
    Quiver,
    _has_cycle,
    _minimize,
    build_algebra,
    is_triangular,
    path_from_word,
)

from conftest import make_cone, make_square
from helpers import basis_paths, is_quadratic, path, vertex, word_path, written
from reference_scans import (
    bfs_read_automaton,
    concat,
    divisor_occurrences,
    is_basis,
    is_trivial,
    nontrivial_basis,
    reduce_concat,
    scan_basis,
    scan_is_finite,
    segment,
    vertex_at,
)


def test_word_conversion_reverses_traversal():
    q = make_cone().quiver
    word = path_from_word(q, "beta zeta")
    assert [q.arrow_names[a] for a in word] == ["zeta", "beta"]
    source = q.vertex_index["2"]  # zeta leaves vertex 2
    # the test helper's Path renders through the quiver
    p = written(q, "beta zeta")
    assert (p.arrows, p.source) == (word, source)
    assert p.word() == q.word(word, source) == "betazeta"
    assert p.display() == q.display(word, source) == "zeta*beta"


def test_trivial_path_basics():
    q = make_cone().quiver
    e = vertex(q, "2")
    assert is_trivial(e) and len(e) == 0
    assert e.source == e.target == q.vertex_index["2"]
    assert e.display() == e.word() == "e(2)"
    assert q.word((), e.source) == q.display((), e.source) == "e(2)"


def test_cone_dimension_and_basis(cone):
    assert cone.dim == 10
    expected = {"alpha", "beta", "gamma", "zeta", "alpha zeta", "zeta alpha", "gamma beta"}
    got = {p.word() for p in nontrivial_basis(cone)}
    assert got == {w.replace(" ", "") for w in expected}


def test_square_dimension(square):
    # 4 trivial + 4 arrows + 4 length-2 + 2 length-3
    assert square.dim == 14


def test_truncated_cycle_dimension(truncated_cycle):
    assert truncated_cycle.dim == 6
    assert is_quadratic(truncated_cycle)


def test_point_and_a2(point, a2):
    assert point.dim == 1
    assert a2.dim == 3


def test_basis_division_closed(cone):
    for p in basis_paths(cone):
        for i in range(len(p) + 1):
            for j in range(i, len(p) + 1):
                assert is_basis(cone, segment(p, i, j))


def test_relations_minimal(cone, square):
    for alg in (cone, square):
        for r in (word_path(alg.quiver, w) for w in alg.relations):
            assert not is_basis(alg, r)
            # every proper divisor is relation-free
            for i in range(len(r) + 1):
                for j in range(i, len(r) + 1):
                    if j - i < len(r):
                        assert is_basis(alg, segment(r, i, j))


def test_relation_minimization_drops_redundant():
    base = make_cone()
    q = base.quiver
    words = ["beta zeta", "zeta gamma", "alpha zeta alpha", "zeta alpha zeta"]
    rels = [path_from_word(q, w) for w in words]
    # contains "beta zeta" as a factor, so it is redundant
    rels.append(path_from_word(q, "beta zeta alpha zeta"))
    alg = build_algebra(q, rels)
    assert alg.relations == base.relations


def test_divisor_occurrences_identity(cone):
    p = written(cone.quiver, "alpha zeta")
    # one occurrence, at 0 with nothing left over on either side
    assert divisor_occurrences(p, p) == [0]


def test_divisor_occurrences_two_positions(square):
    q = square.quiver
    host = written(q, "alpha delta gamma beta alpha")
    alpha = path(q, "alpha")
    occs = divisor_occurrences(alpha, host)
    assert occs == [0, 4]
    for k in occs:
        assert concat(segment(host, 0, k), alpha, segment(host, k + 1, len(host))) == host


def test_divisor_occurrences_trivial_divisor(square):
    q = square.quiver
    host = written(q, "gamma beta alpha")  # 1 -> 4
    e1 = vertex(q, "1")
    assert divisor_occurrences(e1, host) == [0]
    e2 = vertex(q, "2")
    assert divisor_occurrences(e2, host) == [1]


def test_divisor_occurrences_absent(cone):
    q = cone.quiver
    assert divisor_occurrences(path(q, "beta"), path(q, "alpha")) == []


def test_is_triangular(cone, square, triangular_a6):
    assert not is_triangular(cone)
    assert not is_triangular(square)
    assert is_triangular(triangular_a6)


def test_triangular_basis_has_distinct_vertices(triangular_a6):
    for p in basis_paths(triangular_a6):
        verts = [vertex_at(p, k) for k in range(len(p) + 1)]
        assert len(set(verts)) == len(verts)


def test_loop_without_relations_is_infinite():
    q = Quiver(["1"], [("x", "1", "1")])
    with pytest.raises(InfiniteDimensional):
        build_algebra(q, [])


def test_cycle_with_relations_can_be_finite():
    q = Quiver(["1"], [("x", "1", "1")])
    alg = build_algebra(q, [q.path(["x", "x", "x"])])
    assert alg.dim == 3  # e, x, x^2


def test_two_cycle_without_relations_is_infinite():
    q = Quiver(["1", "2"], [("u", "1", "2"), ("v", "2", "1")])
    with pytest.raises(InfiniteDimensional):
        build_algebra(q, [])


def test_automaton_falls_back_to_shorter_prefix():
    # after y·x no relation starts with y x, so the state falls back to x
    q = Quiver(["1"], [("x", "1", "1"), ("y", "1", "1")])
    alg = build_algebra(q, [q.path(w) for w in ("x x", "y y", "x y x")])
    assert [p.display() for p in nontrivial_basis(alg)] == ["x", "y", "x*y", "y*x", "y*x*y"]
    assert alg.dim == 6
    with pytest.raises(InfiniteDimensional):
        build_algebra(q, [q.path(w) for w in ("x x", "y y")])


def test_cycle_search_stops_at_first_back_edge():
    # a 2-cycle from root 0; a 100-node acyclic tail from the later root 2
    graph = {0: [1], 1: [0], **{v: [v + 1] for v in range(2, 102)}, 102: []}
    asked = []

    def successors(v):
        asked.append(v)
        return graph[v]

    assert _has_cycle([0, 2], successors)
    assert asked == [0, 1] and len(asked) < len(graph)
    # without the back edge every node is reached and asked once
    graph[1] = [2, 3]
    asked.clear()
    assert not _has_cycle([0, 2, 50], successors)
    assert sorted(asked) == sorted(graph)


def test_infinite_automaton_is_refused_before_it_is_built(monkeypatch):
    # the loop x at vertex 1 is reached first; the chain past it carries
    # relation prefixes that the whole automaton would hold as states
    q = Quiver("12345", [("x", "1", "1"), ("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4"), ("d", "4", "5")])
    relations = [q.path(w) for w in ("a b c", "b c d", "x a b")]
    expanded, built = [], []

    def counting(roots, successors):
        return _has_cycle(roots, lambda i: expanded.append(i) or successors(i))

    def sizing(roots, successors):
        built.extend(roots)
        return _has_cycle(roots, successors)

    monkeypatch.setattr(quivers, "_has_cycle", counting)
    monkeypatch.setattr(reference_scans, "_has_cycle", sizing)
    with pytest.raises(InfiniteDimensional):
        build_algebra(q, relations)
    with pytest.raises(InfiniteDimensional):
        bfs_read_automaton(q, tuple(_minimize(relations)))
    assert len(set(expanded)) == len(expanded) < len(built)


def _assert_matches_scans(quiver, relations, field=QQ):
    """The automaton's verdict and basis against the word scans and the breadth-first reader."""
    rel_arrows = tuple(_minimize(relations))
    finite = scan_is_finite(quiver, rel_arrows)
    try:
        bfs = tuple(bfs_read_automaton(quiver, rel_arrows))
    except InfiniteDimensional:
        bfs = None
    try:
        alg = MonomialAlgebra(quiver, relations, field)
    except InfiniteDimensional:
        assert not finite and bfs is None
        return False
    assert finite
    assert basis_paths(alg) == tuple(scan_basis(quiver, rel_arrows)) == bfs
    return True


def test_automaton_matches_scans_on_random_candidates(monkeypatch):
    # every candidate random_algebra draws, the rejected ones included
    candidates = []

    def collect(quiver, relations, field=QQ):
        candidates.append((quiver, relations, field))
        return build_algebra(quiver, relations, field)

    monkeypatch.setattr(randomgen, "build_algebra", collect)
    for field in (QQ, PrimeField(2)):
        for triangular in (False, True):
            config = randomgen.RandomAlgebraConfig(triangular=triangular, field=field)
            for seed in range(1000, 1060):
                randomgen.random_algebra(config, seed)
    accepted = [_assert_matches_scans(*c) for c in candidates]
    assert sum(accepted) == 240 < len(accepted)


def test_automaton_matches_scans_on_fixtures():
    fixtures = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    for path in sorted(fixtures.glob("*.alg")):
        alg = parse_algebra_file(path.read_text())
        assert _assert_matches_scans(alg.quiver, alg.relations)


def test_duplicate_arrow_id():
    with pytest.raises(DuplicateArrowId):
        Quiver(["1"], [("x", "1", "1"), ("x", "1", "1")])


def test_non_composable_relation():
    q = make_cone().quiver
    with pytest.raises(NonComposableRelation):
        q.path(["alpha", "alpha"])
    with pytest.raises(NonComposableRelation):
        q.path(["alpha", "nope"])


@pytest.mark.parametrize(
    "bad, message",
    [
        ((0, 99), "unknown arrow 99"),
        ((0, 0), "arrows 'alpha' and 'alpha' do not compose"),
        ((2, 3, 99), "unknown arrow 99"),
    ],
    ids=["unknown-arrow", "not-composable", "divisible"],
)
def test_constructor_checks_every_relation_word(cone, bad, message):
    # (2, 3, 99) contains the relation (2, 3), so minimization would drop it
    assert (2, 3) in cone.relations
    with pytest.raises(NonComposableRelation) as exc:
        build_algebra(cone.quiver, list(cone.relations) + [bad])
    assert str(exc.value) == message


def test_relation_too_short_rejected():
    q = make_cone().quiver
    with pytest.raises(ValueError):
        build_algebra(q, [q.path("alpha")])


def test_reduce_concat(cone, square, triangular_a6, truncated_cycle, a2, point):
    fixtures = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    algebras = [cone, square, triangular_a6, truncated_cycle, a2, point]
    algebras += [parse_algebra_file(path.read_text()) for path in sorted(fixtures.glob("*.alg"))]
    for alg in algebras:
        assert alg.word_index == {p.arrows: i for i, p in enumerate(basis_paths(alg)) if p.arrows}
    q = cone.quiver
    alpha = path(q, "alpha")
    zeta = path(q, "zeta")
    e1, e2, e3 = (vertex(q, v) for v in "123")
    assert reduce_concat(cone, alpha, zeta) == concat(alpha, zeta)
    assert reduce_concat(cone, alpha, e2, zeta) == concat(alpha, zeta)
    assert reduce_concat(cone, alpha, zeta, alpha) is None  # relation
    assert reduce_concat(cone, e1, alpha, zeta, alpha, e2) is None
    # an empty word needs its vertex
    assert reduce_concat(cone, e3) == e3
    assert reduce_concat(cone, e3, e3, e3) == e3
    for paths in ((alpha, alpha), (alpha, e1, zeta), (e1, e2), (e2, alpha), (zeta, e3)):
        with pytest.raises(NonComposableRelation):
            reduce_concat(cone, *paths)


def test_path_ordering_deterministic(cone):
    ks = [p.sort_key() for p in basis_paths(cone)]
    assert ks == sorted(ks)
