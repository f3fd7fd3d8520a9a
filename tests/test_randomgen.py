import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monomial_hh import randomgen
from monomial_hh.ambiguities import AmbiguityTable
from monomial_hh.errors import InfiniteDimensional
from monomial_hh.fields import parse_field_spec
from monomial_hh.quivers import Quiver, build_algebra, is_triangular
from monomial_hh.randomgen import RandomAlgebraConfig, random_algebra, shrink_algebra


def _signature(alg):
    q = alg.quiver
    return (
        q.vertex_names,
        q.arrow_names,
        q.arrow_source,
        q.arrow_target,
        alg.relations,
    )


def test_deterministic():
    cfg = RandomAlgebraConfig()
    for seed in range(10):
        a = random_algebra(cfg, seed)
        b = random_algebra(cfg, seed)
        assert _signature(a) == _signature(b)


def test_bounds_and_finiteness():
    cfg = RandomAlgebraConfig()
    for seed in range(60):
        alg = random_algebra(cfg, seed)
        q = alg.quiver
        assert 1 <= q.n_vertices <= randomgen.MAX_VERTICES
        assert q.n_arrows <= randomgen.MAX_ARROWS
        assert len(alg.relations) <= randomgen.MAX_RELATIONS
        assert all(randomgen.MIN_RELATION_LENGTH <= len(r) <= randomgen.MAX_RELATION_LENGTH for r in alg.relations)
        assert alg.dim >= 1  # finite by construction, counts at least the vertices


def test_triangular_mode():
    cfg = RandomAlgebraConfig(triangular=True)
    for seed in range(60):
        alg = random_algebra(cfg, seed)
        assert is_triangular(alg)


def test_not_all_degenerate():
    cfg = RandomAlgebraConfig()
    algs = [random_algebra(cfg, seed) for seed in range(40)]
    assert any(alg.relations for alg in algs)
    assert any(alg.quiver.n_arrows >= 3 for alg in algs)
    assert len({_signature(a) for a in algs}) > 20


def test_shrink_keeps_failure(cone):
    # pretend "has a cubic relation" is the failing property
    pred = lambda alg: max((len(r) for r in alg.relations), default=0) >= 3
    small = shrink_algebra(cone, pred)
    assert pred(small)
    assert len(small.relations) == 1
    assert small.quiver.n_arrows == 2
    assert small.quiver.n_arrows < cone.quiver.n_arrows


def test_shrink_noop_when_minimal(a2):
    pred = lambda alg: alg.quiver.n_arrows >= 1
    small = shrink_algebra(a2, pred)
    assert small.quiver.n_arrows == 1
    assert not small.relations


# SHA-256 over the benchmark's random pool, seeds 1000-1059 in each config:
# per algebra, its arrows' end vertices, its relation words and its
# (word, source) basis list, in basis order.  The field draws nothing, so
# the q and fp:2 pools agree.
POOL_GOLDEN = {
    ("q", False): "773e62da77bc4aa4cefd72b6a68d24fd6418c74ccfdc7d334a442d0fb96001d1",
    ("q", True): "a7a56bffca4f3ffeac90ec7e8ea64324177e8d0bbd15a57c9de5947b6fa620cf",
    ("fp:2", False): "773e62da77bc4aa4cefd72b6a68d24fd6418c74ccfdc7d334a442d0fb96001d1",
    ("fp:2", True): "a7a56bffca4f3ffeac90ec7e8ea64324177e8d0bbd15a57c9de5947b6fa620cf",
}


@pytest.mark.parametrize("spec, triangular", sorted(POOL_GOLDEN))
def test_pool_digest(spec, triangular):
    # the RNG stream, the relations drawn and the basis order are unchanged
    config = RandomAlgebraConfig(triangular=triangular, field=parse_field_spec(spec))
    digest = hashlib.sha256()
    for seed in range(1000, 1060):
        alg = random_algebra(config, seed)
        q = alg.quiver
        digest.update(repr((q.arrow_source, q.arrow_target, alg.relations, list(zip(alg.words, alg.source)))).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == POOL_GOLDEN[spec, triangular]


# SHA-256 over shrunk pool algebras under two planted predicates: per
# algebra, its arrow names with their end vertices and its relation words.
# It pins which candidate the greedy shrinker takes and how a dropped
# arrow renumbers the relations.
SHRINK_PREDICATES = {
    "dim>=5": lambda alg: alg.dim >= 5,
    "gamma2": lambda alg: bool(AmbiguityTable(alg).degree(2)),
}
SHRINK_SEEDS = {False: (1002, 1003, 1004, 1006, 1008, 1009), True: (1004, 1007, 1009, 1012, 1016, 1017)}
SHRINK_GOLDEN = "0cc96145be7d4fef6cb78a1cdf90d3711cc6b82e7b4a8843fd63da8837c77ccf"


def test_shrink_digest():
    digest = hashlib.sha256()
    for triangular, seeds in sorted(SHRINK_SEEDS.items()):
        config = RandomAlgebraConfig(triangular=triangular)
        for name, pred in sorted(SHRINK_PREDICATES.items()):
            for seed in seeds:
                small = shrink_algebra(random_algebra(config, seed), pred)
                q = small.quiver
                ends = [q.vertex_names[v] for v in q.arrow_source], [q.vertex_names[v] for v in q.arrow_target]
                digest.update(repr((list(zip(q.arrow_names, *ends)), small.relations)).encode())
                digest.update(b"\n")
    assert digest.hexdigest() == SHRINK_GOLDEN


def _automaton_refuses(n_vertices, arrows, relations):
    vertices = [str(v) for v in range(n_vertices)]
    quiver = Quiver(vertices, [(name, vertices[s], vertices[t]) for name, s, t in arrows])
    try:
        build_algebra(quiver, relations)
    except InfiniteDimensional:
        return True
    return False


@st.composite
def small_draws(draw):
    """1-4 vertices, up to 6 arrows (loops and parallel arrows allowed) and
    up to 5 composable relation words of length 2-4."""
    nv = draw(st.integers(1, 4))
    ends = draw(st.lists(st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1)), max_size=6))
    arrows = [("a%d" % (i + 1), s, t) for i, (s, t) in enumerate(ends)]
    relations = []
    for _ in range(draw(st.integers(0, 5)) if arrows else 0):
        word = [draw(st.integers(0, len(arrows) - 1))]
        for _ in range(draw(st.integers(1, 3))):
            step = [a for a, (_, s, _) in enumerate(arrows) if s == arrows[word[-1]][2]]
            if not step:
                break
            word.append(draw(st.sampled_from(step)))
        if len(word) >= 2:
            relations.append(tuple(word))
    return nv, arrows, relations


@settings(max_examples=300, deadline=None)
@given(small_draws())
def test_free_cycle_refuses_only_infinite_algebras(case):
    # the rule is a sufficient condition: wherever it refuses, so does the automaton
    if randomgen._free_cycle(*case):
        assert _automaton_refuses(*case)


def _pool(monkeypatch):
    """Draw the benchmark's 240-trial pool; the draws that reached the rule,
    as (n_vertices, arrows, relations, refused), and the calls counted."""
    counts = {"draws": 0, "build_algebra": 0, "Quiver": 0}
    draws = []

    def counted(name, real):
        def call(*args):
            counts[name] += 1
            return real(*args)

        return call

    def recorded(*case):
        refused = free_cycle(*case)
        draws.append((*case, refused))
        return refused

    free_cycle = randomgen._free_cycle
    monkeypatch.setattr(randomgen, "_try_sample", counted("draws", randomgen._try_sample))
    monkeypatch.setattr(randomgen, "build_algebra", counted("build_algebra", randomgen.build_algebra))
    monkeypatch.setattr(randomgen, "Quiver", counted("Quiver", randomgen.Quiver))
    monkeypatch.setattr(randomgen, "_free_cycle", recorded)
    for spec, triangular in sorted(POOL_GOLDEN):
        config = RandomAlgebraConfig(triangular=triangular, field=parse_field_spec(spec))
        for seed in range(1000, 1060):
            random_algebra(config, seed)
    return draws, counts


def test_free_cycle_replays_the_pool(monkeypatch):
    # every pool draw goes through the rule and the automaton: the rule
    # refuses 626 of the 664 infinite ones, and no finite one
    draws, _ = _pool(monkeypatch)
    assert len(draws) == 904
    verdicts = [(refused, _automaton_refuses(nv, arrows, relations)) for nv, arrows, relations, refused in draws]
    assert (True, False) not in verdicts
    assert sorted(set(verdicts)) == [(False, False), (False, True), (True, True)]
    assert sum(refused for refused, _ in verdicts) == 626
    assert sum(infinite for _, infinite in verdicts) == 664


def test_pool_builds_only_unrefused_draws(monkeypatch):
    # the pool still takes 904 draws, and builds a quiver and an automaton
    # only for the 278 that the rule lets through
    _, counts = _pool(monkeypatch)
    assert counts == {"draws": 904, "build_algebra": 278, "Quiver": 278}
