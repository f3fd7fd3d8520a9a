"""The incidence index of AmbiguityTable, and what reads it, against the brute-force scans it replaced."""

import pytest

from monomial_hh.ambiguities import AmbiguityTable
from monomial_hh.cochains import (
    _pair_differential_terms,
    _pair_key,
    differential_matrix,
    new_cochain,
    pair_basis,
    pair_cochain,
)
from monomial_hh.cup import cup_cochain, cup_products
from monomial_hh.fields import parse_field_spec
from monomial_hh.quivers import Quiver, build_algebra, concat
from monomial_hh.randomgen import RandomAlgebraConfig, random_algebra

from conftest import make_cone, make_square, make_triangular_a6, make_truncated_cycle_3_2
from reference_scans import (
    scan_cofaces,
    scan_cup_cochain,
    scan_occurrences,
    scan_pair_basis,
    scan_pair_differential_terms,
    scan_sub,
    scan_truncation,
)

DEGREE = 6
CUP_DEGREE = 4  # cup products of total degree up to this
SEEDS = range(1000, 1020)


def make_rsz2():
    """One vertex, loops x1 and x2, all four length-2 relations: |Γ_n| = 2^(n+1)."""
    q = Quiver(["1"], [("x1", "1", "1"), ("x2", "1", "1")])
    return build_algebra(q, [q.path([a, b]) for a in ("x1", "x2") for b in ("x1", "x2")])


def tables(spec):
    """The four fixtures, rsz(2), and seeded random algebras, general and triangular."""
    field = parse_field_spec(spec)
    for make in (make_cone, make_square, make_triangular_a6, make_truncated_cycle_3_2, make_rsz2):
        alg = make()
        yield AmbiguityTable(build_algebra(alg.quiver, alg.relations, field))
    for triangular in (False, True):
        cfg = RandomAlgebraConfig(triangular=triangular, field=field)
        for seed in SEEDS:
            yield AmbiguityTable(random_algebra(cfg, seed))


@pytest.mark.parametrize("spec", ["q", "fp:2"])
def test_occurrences_match_scan(spec):
    # ambiguity paths, and the unreduced words amb*post that homotopy_sigma scans
    for t in tables(spec):
        alg = t.algebra
        for n in range(-1, DEGREE):
            for amb in t.degree(n):
                words = [amb.path] + [concat(amb.path, post) for post in alg.basis if post.source == amb.path.target]
                for m in range(-1, n + 2):
                    for word in words:
                        assert t.occurrences(m, word) == scan_occurrences(t, m, word)


def test_truncation_links_match_scan():
    for t in tables("q"):
        for n in range(-1, DEGREE + 1):
            for amb in t.degree(n):
                assert t.by_path(n, amb.path) is amb
                for m in range(-1, n + 1):
                    assert t.amb_prefix(amb, m) is scan_truncation(t, amb, m, initial=True)
                    assert t.amb_suffix(amb, m) is scan_truncation(t, amb, m, initial=False)
                for pieces in (amb.left_pieces, amb.right_pieces):
                    assert len(pieces) == n + 1 and all(p.arrows for p in pieces)
                    assert sum((p.arrows for p in pieces), ()) == amb.path.arrows


def test_ambiguities_compare_by_identity():
    # each table builds its own members: equal paths, distinct ambiguities
    alg = make_cone()
    first, second = AmbiguityTable(alg), AmbiguityTable(alg)
    for n in range(-1, DEGREE + 1):
        assert [a.path for a in first.degree(n)] == [b.path for b in second.degree(n)]
        for a, b in zip(first.degree(n), second.degree(n)):
            assert a is not b and a != b
            assert second.by_path(n, a.path) is b


@pytest.mark.parametrize("spec", ["q", "fp:2"])
def test_cofaces_and_sub_match_scan(spec):
    for t in tables(spec):
        for n in range(0, DEGREE + 1):
            assert t.cofaces(n) == scan_cofaces(t, n)
            for amb in t.degree(n):
                assert t.sub(amb) == scan_sub(t, amb)


@pytest.mark.parametrize("spec", ["q", "fp:2"])
def test_pair_differential_matches_scan(spec):
    for t in tables(spec):
        for m in range(0, DEGREE + 1):
            for amb, b in pair_basis(t, m):
                got = _pair_differential_terms(t, amb, b)
                assert list(got.items()) == list(scan_pair_differential_terms(t, amb, b).items())


@pytest.mark.parametrize("spec", ["q", "fp:2"])
def test_differential_matrix_matches_scan(spec):
    # column j of δ^m is the scanned differential of the j-th pair, its
    # terms in the same order, each at the index of its pair of degree m+1
    for t in tables(spec):
        cols = sorted(scan_pair_basis(t, 0), key=_pair_key)
        for m in range(0, DEGREE + 1):
            rows = sorted(scan_pair_basis(t, m + 1), key=_pair_key)
            index = {pair: i for i, pair in enumerate(rows)}
            mat = differential_matrix(t, m)
            assert (mat.nrows, mat.ncols) == (len(rows), len(cols))
            for (amb, b), col in zip(cols, mat.cols):
                want = [(index[key], n) for key, n in scan_pair_differential_terms(t, amb, b).items()]
                assert list(col.items()) == want
            cols = rows


@pytest.mark.parametrize("spec", ["q", "fp:2", "fp:3"])
def test_cup_matches_scan(spec):
    # every basis pair times every basis pair, then one sum of all pairs
    # with distinct weights per side, where terms meet and may cancel;
    # cup_products over the same lists keeps exactly the nonzero products
    for t in tables(spec):
        degrees = range(CUP_DEGREE + 1)
        pairs = [[pair_cochain(t, amb, b) for amb, b in pair_basis(t, d)] for d in degrees]
        sums = [new_cochain(t, d, {key: i + 1 for i, key in enumerate(pair_basis(t, d))}) for d in degrees]
        for m in degrees:
            for n in range(0, CUP_DEGREE + 1 - m):
                fs, gs = pairs[m] + [sums[m]], pairs[n] + [sums[n]]
                products = cup_products(t, fs, gs)
                for a, f in enumerate(fs):
                    for b, g in enumerate(gs):
                        want = scan_cup_cochain(t, f, g)
                        assert cup_cochain(t, f, g) == want
                        assert ((a, b) in products) == (not want.is_zero())
                        if (a, b) in products:
                            assert products[a, b] == want
