import pytest

from monomial_hh.algfile import parse_algebra_file
from monomial_hh.ambiguities import AmbiguityTable
from monomial_hh.bar_oracle import (
    bar_differential_matrix,
    bar_hh_dimensions,
    bar_pairs,
    bar_tuples,
)
from monomial_hh.cochains import hochschild_cohomology
from monomial_hh.errors import BudgetExceeded
from monomial_hh.linalg import RowBasis

from helpers import loops_algebra_text


def check_bar_delta_squared(algebra, max_degree):
    """delta o delta = 0 as matrices, degree by degree."""
    field = algebra.field
    pairs = [bar_pairs(algebra, n) for n in range(max_degree + 2)]
    mats = [
        bar_differential_matrix(algebra, pairs[n], pairs[n + 1])
        for n in range(max_degree + 1)
    ]
    for n in range(max_degree):
        lo, hi = mats[n], mats[n + 1]
        for j in range(lo.ncols):
            acc = {}
            for r, c in lo.cols[j].items():
                for i, c2 in hi.cols[r].items():
                    cur = field.add(acc.get(i, field.zero), field.mul(c2, c))
                    if field.is_zero(cur):
                        acc.pop(i, None)
                    else:
                        acc[i] = cur
            assert not acc, "delta^2 != 0 at degree %d column %d" % (n, j)


def test_point_dims(point):
    assert bar_hh_dimensions(point, 5) == [1, 0, 0, 0, 0, 0]


def test_a2_dims(a2):
    assert bar_hh_dimensions(a2, 4) == [1, 0, 0, 0, 0]


def test_cone_dims(cone):
    assert bar_hh_dimensions(cone, 4) == [3, 3, 2, 2, 3]


def test_degree0_pairs_are_loops(cone):
    pairs = bar_pairs(cone, 0)
    assert len(pairs) == 5
    assert all(t == () and b.source == b.target for t, b in pairs)


def test_tuples_compose(cone):
    for t in bar_tuples(cone, 3):
        assert all(t[i].source == t[i + 1].target for i in range(len(t) - 1))


def test_delta_squared(cone, square, triangular_a6, truncated_cycle):
    for alg in (cone, square, triangular_a6, truncated_cycle):
        check_bar_delta_squared(alg, 4)


def test_routes_agree(cone, square, triangular_a6, truncated_cycle, a2):
    for alg in (cone, square, triangular_a6, truncated_cycle, a2):
        t = AmbiguityTable(alg)
        spaces = hochschild_cohomology(t, 4)
        resolution_dims = [spaces[n].dimension for n in range(5)]
        assert bar_hh_dimensions(alg, 4) == resolution_dims


@pytest.mark.parametrize("spec", ["q", "fp:7"])
def test_cub2_dims(spec):
    # the oracle-elim algebra: pins the values, not only the pass/fail of verify --oracle
    alg = parse_algebra_file(loops_algebra_text(2, 3).replace("field q", "field " + spec))
    assert alg.field.name == spec
    dims = bar_hh_dimensions(alg, 3)
    assert dims == [5, 10, 30, 72]
    assert dims == [sp.dimension for sp in hochschild_cohomology(AmbiguityTable(alg), 3)]


def test_each_bar_column_inserted_once(cone, monkeypatch):
    # the rank of each bar matrix comes from its kernel pass, not a second elimination
    ncols = sum(len(bar_pairs(cone, n)) for n in range(4))
    calls = []
    real = RowBasis.insert

    def counting(self, vec, tag=None):
        calls.append(tag)
        return real(self, vec, tag)

    monkeypatch.setattr(RowBasis, "insert", counting)
    assert bar_hh_dimensions(cone, 3) == [3, 3, 2, 2]
    assert len(calls) == ncols


def test_budget(cone):
    with pytest.raises(BudgetExceeded) as exc:
        bar_hh_dimensions(cone, 4, budget=30)
    assert exc.value.degree_reached >= -1
    assert exc.value.degree_reached < 4
