"""The adjacency indexes of Quiver and MonomialAlgebra, and what reads them, against the scans they replaced."""

import re

import pytest

from monomial_hh import cochains
from monomial_hh.ambiguities import AmbiguityTable
from monomial_hh.bar_oracle import bar_pairs
from monomial_hh.cochains import check_differential_routes_agree, differential_via_resolution
from monomial_hh.resolution import right_spanning_set

from helpers import amb_path, bar_pair_list, basis_paths, named_algebra, pair_key, pair_list, path_pairs
from reference_scans import (
    scan_bar_pairs,
    scan_out_arrows,
    scan_pair_basis,
    scan_parallel,
    scan_right_spanning_set,
    to_paths,
)
from test_incidence import DEGREE, tables

BAR_DEGREE = 2


@pytest.mark.parametrize("spec", ["q", "fp:2"])
def test_out_arrows_and_parallel_match_scan(spec):
    for t in tables(spec):
        alg = t.algebra
        out_arrows = alg.quiver.out_arrows
        # tuple equality also pins the types: a list never equals a tuple
        assert out_arrows == scan_out_arrows(alg.quiver)
        assert all(type(a) is int for arrows in out_arrows for a in arrows)
        assert alg.parallel == scan_parallel(alg)


@pytest.mark.parametrize("spec", ["q", "fp:2"])
def test_pair_lists_are_sorted_scans(spec):
    for t in tables(spec):
        for m in range(0, DEGREE + 1):
            assert path_pairs(t, m) == sorted(scan_pair_basis(t, m), key=pair_key)
        for n in range(0, BAR_DEGREE + 1):
            want = sorted(
                scan_bar_pairs(t.algebra, n), key=lambda tb: (tuple(p.sort_key() for p in tb[0]), tb[1].sort_key())
            )
            basis = basis_paths(t.algebra)
            pairs = bar_pair_list(bar_pairs(t.algebra, n))
            assert [(tuple(basis[i] for i in tb), basis[b]) for tb, b in pairs] == want


@pytest.mark.parametrize("spec", ["q", "fp:2"])
def test_right_spanning_set_matches_scan(spec):
    for t in tables(spec):
        for n in range(-1, DEGREE + 1):
            # list equality: the same generators in the same order
            assert [to_paths(t, x) for x in right_spanning_set(t, n)] == scan_right_spanning_set(t, n)


@pytest.mark.parametrize("spec", ["q", "fp:2"])
def test_routes_check_takes_each_resolution_differential_once(spec):
    # the route reads resolution.boundary, which builds each generator's
    # differential once per table: a second check builds none
    for t in tables(spec):
        built = t.memo("resolution.boundary")
        check_differential_routes_agree(t, DEGREE)
        first = dict(built)
        assert len(first) == sum(len(t.degree(m)) for m in range(DEGREE + 1))
        check_differential_routes_agree(t, DEGREE)
        assert built.keys() == first.keys()
        assert all(built[amb] is d for amb, d in first.items())


@pytest.mark.parametrize("spec", ["q", "fp:2"])
def test_routes_check_names_a_flipped_sign(spec, monkeypatch):
    t = AmbiguityTable(named_algebra("cone", spec))
    j = next(j for j, col in enumerate(differential_via_resolution(t, 2).cols) if col)
    amb, b = pair_list(t, 2)[j]
    columns = cochains._columns

    def flipped(table, m):
        cols = columns(table, m)
        if m == 2:
            col = cols[j]
            i = next(iter(col))
            col[i] = -col[i]
        return cols

    monkeypatch.setattr(cochains, "_columns", flipped)
    # integer columns, so the flip shows over GF(2) too
    with pytest.raises(AssertionError, match=re.escape("[%s || %s]" % (amb_path(t, amb).word(), basis_paths(t.algebra)[b].word()))):
        check_differential_routes_agree(t, 2)
