"""The incidence index of AmbiguityTable, and what reads it, against the brute-force scans it replaced."""

import pytest

from monomial_hh.algfile import parse_algebra_file
from monomial_hh.ambiguities import AmbiguityTable
from monomial_hh.checks import GENERAL_ROWS, run_checks
from monomial_hh.cochains import (
    _offsets,
    cochain_differential,
    differential_matrix,
    differential_via_resolution,
    hochschild_cohomology,
)
from monomial_hh.cup import cup_products
from monomial_hh.diagonal import _divisors
from monomial_hh.fields import parse_field_spec
from monomial_hh.quivers import Quiver, build_algebra
from monomial_hh.randomgen import RandomAlgebraConfig, random_algebra

from conftest import make_cone, make_square, make_triangular_a6, make_truncated_cycle_3_2
from helpers import amb_path, basis_paths, by_path, keyed, loops_algebra_text, pair_key, path, path_pairs, scalar, vector
from reference_scans import (
    amb_prefix,
    amb_suffix,
    concat,
    scan_cup_cochain,
    scan_occurrences,
    scan_pair_basis,
    scan_pair_differential_terms,
    scan_sub,
    scan_truncation,
    segment,
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
        basis = basis_paths(t.algebra)
        for n in range(-1, DEGREE):
            for amb in t.degree(n):
                p = amb_path(t, amb)
                words = [p] + [concat(p, post) for post in basis if post.source == amb.target]
                for m in range(-1, n + 2):
                    for word in words:
                        assert t.occurrences(m, word.arrows, word.source) == scan_occurrences(t, m, word)


def test_truncation_links_match_scan():
    for t in tables("q"):
        q = t.algebra.quiver
        basis = basis_paths(t.algebra)
        for n in range(-1, DEGREE + 1):
            for amb in t.degree(n):
                if n == -1:
                    assert (amb.arrows, amb.target) == ((), amb.source) and t.degree(-1)[amb.source] is amb
                else:
                    scanned = path(q, [q.arrow_names[a] for a in amb.arrows])  # raises unless the word composes
                    assert (amb.arrows, amb.source, amb.target) == (scanned.arrows, scanned.source, scanned.target)
                p = amb_path(t, amb)
                assert by_path(t, n, p) is amb
                for m in range(-1, n + 1):
                    assert amb_prefix(amb, m) is scan_truncation(t, amb, m, initial=True)
                    assert amb_suffix(amb, m) is scan_truncation(t, amb, m, initial=False)
                    # split walks the links itself: the same truncations, and b between them
                    pre, b, suf = t.split(amb, m, n - 1 - m)
                    assert pre is scan_truncation(t, amb, m, initial=True)
                    assert suf is scan_truncation(t, amb, n - 1 - m, initial=False)
                    assert basis[b] == segment(p, len(pre.arrows), len(p) - len(suf.arrows))
                for pieces in (amb.left_pieces, amb.right_pieces):
                    assert len(pieces) == n + 1 and all(pieces)
                    assert sum(pieces, ()) == amb.arrows


def test_ambiguities_compare_by_identity():
    # each table builds its own members: equal words and ends, distinct ambiguities
    alg = make_cone()
    first, second = AmbiguityTable(alg), AmbiguityTable(alg)
    for n in range(-1, DEGREE + 1):
        assert [amb_path(first, a) for a in first.degree(n)] == [amb_path(second, b) for b in second.degree(n)]
        for a, b in zip(first.degree(n), second.degree(n)):
            assert a is not b and a != b
            assert by_path(second, n, amb_path(first, a)) is b


@pytest.mark.parametrize("spec", ["q", "fp:2"])
def test_sub_matches_scan(spec):
    for t in tables(spec):
        for n in range(0, DEGREE + 1):
            for amb in t.degree(n):
                assert t.sub(amb) == scan_sub(t, amb)


@pytest.mark.parametrize("spec", ["q", "fp:2"])
def test_divisors_match_occurrences(spec):
    # Δ scans degrees −1…n−2 and reads degree n−1 off sub: the same lists
    for t in tables(spec):
        for n in range(-1, DEGREE + 1):
            for amb in t.degree(n):
                want = [t.occurrences(d, amb.arrows, amb.source) for d in range(-1, n + 1)]
                assert _divisors(t, amb) == want


@pytest.mark.parametrize("k, rel_len, top", [(2, 2, 8), (3, 2, 7), (2, 3, 8)])  # rsz(2), rsz(3), cub(2)
def test_sub_matches_occurrences_on_loops(k, rel_len, top):
    t = AmbiguityTable(parse_algebra_file(loops_algebra_text(k, rel_len)))
    for n in range(0, top + 1):
        for amb in t.degree(n):
            assert t.sub(amb) == t.occurrences(n - 1, amb.arrows, amb.source)


def test_hh_scans_no_word_on_loops(monkeypatch):
    # every face of δ is read off the links: no occurrences scan is left
    # (the word scans of each odd q took 340 and 819 of them)
    calls = []
    occurrences = AmbiguityTable.occurrences

    def counting(self, m, arrows, source):
        calls.append((m, arrows, source))
        return occurrences(self, m, arrows, source)

    monkeypatch.setattr(AmbiguityTable, "occurrences", counting)
    for k, top in ((2, 8), (3, 5)):  # rsz(2) D=8, rsz(3) D=5
        hochschild_cohomology(AmbiguityTable(parse_algebra_file(loops_algebra_text(k, 2))), top)
    assert calls == []


def test_sub_middle_band_has_teeth(monkeypatch):
    # a sub that keeps only the two links fails d^2, the homotopy and Δ's
    # chain-map identity wherever an odd q has a face between them
    honest = AmbiguityTable.sub

    def links_only(self, amb):
        hits = honest(self, amb)
        return [hits[0], hits[-1]]

    monkeypatch.setattr(AmbiguityTable, "sub", links_only)
    for alg in (parse_algebra_file(loops_algebra_text(2, 3)), make_cone(), make_square()):
        failed = {r.name for r in run_checks(alg, 4, GENERAL_ROWS) if not r.ok}
        assert {"d-squared", "homotopy", "diagonal-chain-map"} <= failed, failed


@pytest.mark.parametrize("spec", ["q", "fp:2"])
def test_pair_differential_matches_scan(spec):
    # the column of each single pair is its scanned integer differential,
    # terms in the same order, and δ of the pair in the field is that
    # column reduced into the field
    for t in tables(spec):
        field = t.algebra.field
        for m in range(0, DEGREE + 1):
            index = {pair: i for i, pair in enumerate(path_pairs(t, m + 1))}
            cols = differential_matrix(t, m).cols
            for j, (amb, b) in enumerate(path_pairs(t, m)):
                want = [(index[key], n) for key, n in scan_pair_differential_terms(t, amb, b).items()]
                assert list(cols[j].items()) == want
                reduced = [(i, c) for i, n in want if (c := scalar(field, n))]
                assert list(cochain_differential(t, m, {j: 1}).items()) == reduced


@pytest.mark.parametrize("spec", ["q", "fp:2", "fp:3"])
def test_vector_differential_matches_matrix(spec):
    # δ of a sum of all pairs with distinct weights, where terms meet and may
    # cancel, is the same sum of the matrix columns; the resolution route
    # gives the same matrix
    for t in tables(spec):
        field = t.algebra.field
        for m in range(0, DEGREE + 1):
            mat = differential_matrix(t, m)
            weights = {j: c for j in range(mat.ncols) if (c := scalar(field, j + 1))}
            want = {}
            for j, c in weights.items():
                for i, n in mat.cols[j].items():
                    want[i] = want.get(i, 0) + c * n
            assert cochain_differential(t, m, weights) == {i: s for i, c in want.items() if (s := scalar(field, c))}
            assert differential_via_resolution(t, m) == mat


@pytest.mark.parametrize("spec", ["q", "fp:2"])
def test_differential_matrix_matches_scan(spec):
    # column j of δ^m is the scanned differential of the j-th pair, its
    # terms in the same order, each at the index of its pair of degree m+1
    for t in tables(spec):
        cols = sorted(scan_pair_basis(t, 0), key=pair_key)
        for m in range(0, DEGREE + 1):
            rows = sorted(scan_pair_basis(t, m + 1), key=pair_key)
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
    # cup_products over the same lists keeps exactly the nonzero products,
    # and so does each one-pair call
    for t in tables(spec):
        field = t.algebra.field
        degrees = range(CUP_DEGREE + 1)
        lists = []
        for d in degrees:
            n_pairs = _offsets(t, d)[1]
            weights = {i: c for i in range(n_pairs) if (c := scalar(field, i + 1))}
            lists.append([{i: 1} for i in range(n_pairs)] + [weights])
        for m in degrees:
            for n in range(0, CUP_DEGREE + 1 - m):
                fs, gs = lists[m], lists[n]
                products = cup_products(t, m, n, fs, gs)
                for a, f in enumerate(fs):
                    for b, g in enumerate(gs):
                        want = vector(t, m + n, scan_cup_cochain(t, m, n, keyed(t, m, f), keyed(t, n, g)))
                        assert cup_products(t, m, n, [f], [g]).get((0, 0), {}) == want
                        assert products.get((a, b), {}) == want
                        assert ((a, b) in products) == bool(want)
