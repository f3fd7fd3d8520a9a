from monomial_hh import randomgen
from monomial_hh.quivers import is_triangular
from monomial_hh.randomgen import RandomAlgebraConfig, random_algebra, shrink_algebra


def _signature(alg):
    q = alg.quiver
    return (
        q.vertex_names,
        q.arrow_names,
        q.arrow_source,
        q.arrow_target,
        tuple(r.arrows for r in alg.relations),
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
