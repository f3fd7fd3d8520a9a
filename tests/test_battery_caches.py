"""The per-table memos that the check battery shares, against fresh builds.

Every memo in ``ambiguities.MEMOS`` has a builder, and each is checked
warm against cold after a full battery.  The other tests pin how the
battery fills the memos it shares: δ^m once per degree, each
ambiguity's divisor occurrences, the splits of each word amb·post and
each generator's differential ``resolution.boundary``.  The columns of
δ are shared with every matrix and kernel pass, so a caller that mutated
one would corrupt every later reader; and a memo is worth keeping only
if it is filled once and holds what a fresh build gives.
"""

import inspect

import pytest

from monomial_hh import checks, cli, cochains, resolution
from monomial_hh.ambiguities import MEMOS, AmbiguityTable
from monomial_hh.cochains import hochschild_cohomology
from monomial_hh.diagonal import _decompositions
from monomial_hh.quivers import is_triangular
from monomial_hh.resolution import differential, homotopy_sigma, right_spanning_set

from helpers import LOOP_FAMILIES, basis_paths, named_algebra, named_text
from reference_scans import path_decompositions, path_homotopy_sigma, to_paths
from test_incidence import tables

DEGREE = 6


def record_tables(monkeypatch):
    """The list that every table ``run_checks`` makes from now on is appended to."""
    made = []

    def recording(algebra):
        made.append(AmbiguityTable(algebra))
        return made[-1]

    monkeypatch.setattr(checks, "AmbiguityTable", recording)
    return made


def battery_tables(spec, monkeypatch):
    """The table each full battery ran on, for the incidence set and the loop families."""
    made = record_tables(monkeypatch)
    algebras = [t.algebra for t in tables(spec)]
    algebras += [named_algebra(name, spec) for name in LOOP_FAMILIES]
    for alg in algebras:
        rows = checks.GENERAL_ROWS + checks.TRIANGULAR_ROWS if is_triangular(alg) else checks.GENERAL_ROWS
        reports = checks.run_checks(alg, DEGREE, rows)
        assert all(r.ok for r in reports), [r for r in reports if not r.ok]
        yield made[-1]


@pytest.fixture(scope="module", params=["q", "fp:2", "fp:3"])
def battery(request):
    with pytest.MonkeyPatch.context() as monkeypatch:
        return list(battery_tables(request.param, monkeypatch))


@pytest.mark.parametrize("name", sorted(MEMOS))
def test_warm_memo_equals_cold(name, battery):
    # every value the battery left in the memo is what a cold build of its key gives
    build = MEMOS[name]
    pair_keyed = len(inspect.signature(build).parameters) == 3
    checked = 0
    for t in battery:
        memo = t.memo(name)
        warm = dict(memo)
        memo.clear()
        for key, value in warm.items():
            assert (build(t, *key) if pair_keyed else build(t, key)) == value, (name, key)
        assert memo.keys() == warm.keys()  # each build is stored
        memo.update(warm)
        checked += len(warm)
    assert checked


def test_cohomology_alone_caches_no_columns():
    # hh keeps one matrix at a time: assembly reads the δ store but never fills it
    for alg in (named_algebra("cone"), named_algebra("rsz2")):
        t = AmbiguityTable(alg)
        hochschild_cohomology(t, DEGREE)
        assert t.memo("cochains._delta") == {}


def test_battery_builds_each_ambiguity_columns_once(monkeypatch):
    # partial-squared, the first row to read δ, stores δ^m for m = 0..DEGREE
    # and applies δ^(DEGREE+1); every later row reads the store, so the
    # battery builds each degree's columns once
    built = []
    columns = cochains._columns

    def counting(table, m):
        built.append(m)
        return columns(table, m)

    monkeypatch.setattr(cochains, "_columns", counting)
    made = record_tables(monkeypatch)
    assert all(r.ok for r in checks.run_checks(named_algebra("cone"), DEGREE))
    assert built == list(range(DEGREE + 2))
    assert set(made[0].memo("cochains._delta")) == set(built)


def test_cup_builds_each_delta_once(monkeypatch, tmp_path):
    # the kernel pass certifies the representatives with the δ^m it built,
    # so a cup table applies no δ to its factors and builds none again
    built = []
    columns = cochains._columns

    def counting(table, m):
        built.append(m)
        return columns(table, m)

    monkeypatch.setattr(cochains, "_columns", counting)
    for name, top in (("rsz3", 3), ("rsz2", 5)):
        path = tmp_path / (name + ".alg")
        path.write_text(named_text(name))
        del built[:]
        assert cli.main(["cup", str(path), "--max-total-degree", str(top), "--json"]) == 0
        assert built == list(range(top + 1))


def test_battery_takes_each_generator_differential_once(monkeypatch):
    # d(1 ⊗ amb ⊗ 1) is read off resolution.boundary by every row that needs
    # it, and the memo's length is its number of builds: one per ambiguity
    # of Γ_0…Γ_DEGREE, the generators that the rows differentiate
    made = record_tables(monkeypatch)
    for alg in (named_algebra("cone"), named_algebra("rsz2")):
        assert all(r.ok for r in checks.run_checks(alg, DEGREE))
        t = made[-1]
        built = t.memo("resolution.boundary")
        assert len(built) == sum(len(t.degree(n)) for n in range(DEGREE + 1))
        assert set(built) == {amb for n in range(DEGREE + 1) for amb in t.degree(n)}


def test_homotopy_check_reads_generator_differentials_off_boundary(monkeypatch):
    # σ of a spanning element is often exactly 1 ⊗ q ⊗ 1, and so is the
    # element itself: d of either is read off resolution.boundary
    outside = []  # generator-shaped inputs of d, which boundary answers instead
    differential_ = resolution.differential

    def counting(table, x):
        if len(x.terms) == 1:
            ((pre, q, post), c), = x.terms.items()
            if c == 1 and (pre, post) == (q.source, q.target):
                outside.append(q)
        return differential_(table, x)

    monkeypatch.setattr(resolution, "differential", counting)
    for alg in (named_algebra("cone"), named_algebra("rsz2")):
        resolution.check_homotopy(AmbiguityTable(alg), DEGREE)
    assert outside == []  # 546 of them before σ(x) read boundary too


def test_warm_homotopy_equals_cold_and_reference(monkeypatch):
    scans = []
    occurrences = AmbiguityTable.occurrences

    def counting(self, m, arrows, source):
        scans.append((m, arrows, source))
        return occurrences(self, m, arrows, source)

    monkeypatch.setattr(AmbiguityTable, "occurrences", counting)
    for spec in ("q", "fp:2"):
        for t in tables(spec):
            for n in range(-1, DEGREE):
                for x in right_spanning_set(t, n):
                    for y in (x, differential(t, x)) if n >= 0 else (x,):
                        t.memo("resolution._splits").clear()
                        cold = homotopy_sigma(t, y)
                        scans.clear()
                        assert homotopy_sigma(t, y) == cold
                        assert scans == []
                        assert to_paths(t, cold) == path_homotopy_sigma(t, to_paths(t, y))


def test_warm_decompositions_equal_cold_and_reference(monkeypatch):
    scans = []
    occurrences = AmbiguityTable.occurrences

    def counting(self, m, arrows, source):
        scans.append((m, arrows, source))
        return occurrences(self, m, arrows, source)

    monkeypatch.setattr(AmbiguityTable, "occurrences", counting)
    for spec in ("q", "fp:2"):
        for t in tables(spec):
            basis = basis_paths(t.algebra)
            for n in range(-1, DEGREE):
                for amb in t.degree(n):
                    for i in range(-1, n + 1):
                        for j in range(-1, n + 1):
                            t.memo("diagonal._divisors").clear()
                            cold = _decompositions(t, amb, i, j)
                            scans.clear()
                            assert _decompositions(t, amb, i, j) == cold
                            assert scans == []
                            want = path_decompositions(t, amb, i, j)
                            assert [(basis[a], q1, basis[b], q2, basis[c]) for a, q1, b, q2, c in cold] == want
