import hashlib

import pytest

from monomial_hh import randomgen
from monomial_hh.ambiguities import AmbiguityTable
from monomial_hh.fields import parse_field_spec
from monomial_hh.quivers import is_triangular
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
