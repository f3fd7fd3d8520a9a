"""Acceptance suite.

One test per advertised guarantee, each printing a single [PASS]/[FAIL]
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them
stream).  Everything here is exact arithmetic; the only tolerances are
wall-clock budgets on the two expensive criteria.
"""

import contextlib
import time

import pytest

from monomial_hh.ambiguities import AmbiguityTable
from monomial_hh.cochains import (
    class_vector,
    cochain_differential,
    hochschild_cohomology,
)
from monomial_hh.cup import cup_products
from monomial_hh.randomgen import RandomAlgebraConfig
from monomial_hh.checks import run_random_suite
from monomial_hh.cli import _pieces

from helpers import Path, amb_path, basis_paths, by_path, difference, is_cocycle, path, vector, word_path, written
from reference_scans import amb_suffix

GENERAL_SEED = 7
TRIANGULAR_SEED = 7
TRIALS = 25


@contextlib.contextmanager
def criterion(n, desc):
    try:
        yield
    except BaseException:
        print("\n[FAIL] criterion-%d: %s" % (n, desc))
        raise
    print("\n[PASS] criterion-%d: %s" % (n, desc))


@pytest.fixture(scope="module")
def triangular_suite():
    config = RandomAlgebraConfig(triangular=True)
    started = time.monotonic()
    out = run_random_suite(config, TRIALS, TRIANGULAR_SEED, degree=6)
    out["elapsed"] = time.monotonic() - started
    return out


def test_criterion_1_cone_dimension_row(cone):
    with criterion(1, "cone HH^0..HH^8 dims = 3 3 2 2 3 3 2 2 3, exact, under 60 s"):
        started = time.monotonic()
        table = AmbiguityTable(cone)
        spaces = hochschild_cohomology(table, 8)
        elapsed = time.monotonic() - started
        dims = [spaces[n].dimension for n in range(9)]
        assert dims == [3, 3, 2, 2, 3, 3, 2, 2, 3]
        assert elapsed < 60, "took %.1f s" % elapsed


def test_criterion_2_cone_cup_products(cone):
    with criterion(2, "cone class products: f.w, g.w, w.w land on the stated classes"):
        t = AmbiguityTable(cone)
        q = cone.quiver
        spaces = hochschild_cohomology(t, 4)

        def word(w):
            return written(q, w)

        def cup(m, n, f, g):
            return cup_products(t, m, n, [f], [g]).get((0, 0), {})

        w = vector(
            t,
            2,
            {
                (by_path(t, 1, word("alpha zeta alpha")), path(q, "alpha")): 1,
                (by_path(t, 1, word("zeta alpha zeta")), path(q, "zeta")): 1,
            },
        )
        f = vector(t, 1, {(by_path(t, 0, path(q, "alpha")), path(q, "alpha")): 1})
        g = vector(t, 1, {(by_path(t, 0, path(q, "zeta")), path(q, "zeta")): 1})
        for c, d in ((w, 2), (f, 1), (g, 1)):
            assert is_cocycle(t, d, c)

        az2 = vector(t, 3, {(by_path(t, 2, word("alpha zeta alpha zeta")), word("alpha zeta")): 1})
        za2 = vector(t, 3, {(by_path(t, 2, word("zeta alpha zeta alpha")), word("zeta alpha")): 1})
        ww_target = vector(
            t,
            4,
            {
                (by_path(t, 3, word("alpha zeta alpha zeta alpha zeta")), word("alpha zeta")): 1,
                (by_path(t, 3, word("zeta alpha zeta alpha zeta alpha")), word("zeta alpha")): 1,
            },
        )

        for lhs, rhs, d in ((cup(1, 2, f, w), az2, 3), (cup(1, 2, g, w), za2, 3), (cup(2, 2, w, w), ww_target, 4)):
            assert is_cocycle(t, d, rhs)
            assert class_vector(spaces[d], t, difference(cone.field, lhs, rhs)) == {}
            assert class_vector(spaces[d], t, lhs) != {}


def test_criterion_3_one_order_is_a_coboundary(triangular_a6):
    with criterion(3, "a6: y.x = d(||a4a3a2|| g a3 b) exactly, nonzero, zero class; x.y = 0"):
        t = AmbiguityTable(triangular_a6)
        q = triangular_a6.quiver

        def word(w):
            return written(q, w)

        x = vector(
            t,
            2,
            {
                (by_path(t, 1, word("a4 a3")), word("g a3")): 1,
                (by_path(t, 1, word("a5 a4")), word("a5 g")): 1,
            },
        )
        y = vector(
            t,
            2,
            {
                (by_path(t, 1, word("a2 a1")), word("b a1")): 1,
                (by_path(t, 1, word("a3 a2")), word("a3 b")): 1,
            },
        )
        assert is_cocycle(t, 2, x) and is_cocycle(t, 2, y)

        products = cup_products(t, 2, 2, [x, y], [x, y])
        yx = products[1, 0]
        witness = vector(t, 3, {(by_path(t, 2, word("a4 a3 a2")), word("g a3 b")): 1})
        assert yx == cochain_differential(t, 3, witness)
        assert yx
        assert (0, 1) not in products
        spaces = hochschild_cohomology(t, 4)
        assert class_vector(spaces[4], t, yx) == {}


def test_criterion_4_ambiguity_fixtures(square, cone, triangular_a6, truncated_cycle, a2, point):
    with criterion(4, "low-degree ambiguity identities everywhere; square decompositions exact"):
        for alg in (square, cone, triangular_a6, truncated_cycle, a2, point):
            t = AmbiguityTable(alg)
            q = alg.quiver
            assert {amb_path(t, a) for a in t.degree(-1)} == {Path(q, v, ()) for v in range(q.n_vertices)}
            assert {amb_path(t, a) for a in t.degree(0)} == {path(q, n) for n in q.arrow_names}
            assert {amb_path(t, a) for a in t.degree(1)} == {word_path(q, r) for r in alg.relations}

        t = AmbiguityTable(square)
        q = square.quiver
        adgba = by_path(t, 2, written(q, "alpha delta gamma beta alpha"))
        assert adgba is not None
        assert _pieces(q, adgba.left_pieces) == "alpha|deltagamma|betaalpha"

        p = by_path(t, 3, written(q, "gamma beta alpha delta gamma beta alpha"))
        assert p is not None
        assert _pieces(q, p.left_pieces) == "gamma|betaalpha|deltagamma|betaalpha"
        assert _pieces(q, p.right_pieces) == "gammabeta|alphadelta|gammabeta|alpha"
        assert amb_path(t, amb_suffix(p, 1)).word() == "gammabetaalpha"
        _, b, _ = t.split(p, 1, 1)
        b = basis_paths(square)[b]
        assert b.word() == "delta"
        assert len(b) == 1


def test_criterion_5_truncated_cycle_counts(truncated_cycle):
    with criterion(5, "truncated 3-cycle: |ambiguities| = 3 in degrees 1..6"):
        t = AmbiguityTable(truncated_cycle)
        for ell in (1, 2, 3):
            assert len(t.degree(2 * ell - 1)) == 3
            assert len(t.degree(2 * ell)) == 3


def test_criterion_6_general_random_suite():
    with criterion(6, "25 random algebras, full identity battery through degree 6, under 10 min"):
        config = RandomAlgebraConfig()
        started = time.monotonic()
        out = run_random_suite(config, TRIALS, GENERAL_SEED, degree=6)
        elapsed = time.monotonic() - started
        bad = [row["seed"] for row in out["trials"] if not row["ok"]]
        assert out["ok"], "failing seeds: %r" % bad
        assert len(out["trials"]) == TRIALS
        required = {
            "d-squared",
            "homotopy",
            "diagonal-chain-map",
            "counit",
            "partial-squared",
            "cup-closure",
            "graded-commutativity",
            "oracle-dims",
        }
        for row in out["trials"]:
            names = {c["name"] for c in row["checks"]}
            assert required <= names, names
        assert elapsed < 600, "took %.1f s" % elapsed


def test_criterion_7_triangular_vanishing(triangular_suite):
    with criterion(7, "25 random triangular algebras: positive-degree class products all zero"):
        assert len(triangular_suite["trials"]) == TRIALS
        for row in triangular_suite["trials"]:
            checks = {c["name"]: c for c in row["checks"]}
            assert "triangular-vanishing" in checks, row["seed"]
            assert checks["triangular-vanishing"]["ok"], (
                row["seed"],
                checks["triangular-vanishing"]["detail"],
            )
        assert triangular_suite["ok"]
        assert triangular_suite["elapsed"] < 600


def test_criterion_8_one_sided_cochain_vanishing(triangular_suite):
    with criterion(8, "triangular suite: per component pair, one product order is the zero cochain"):
        for row in triangular_suite["trials"]:
            checks = {c["name"]: c for c in row["checks"]}
            assert "one-sided-vanishing" in checks, row["seed"]
            assert checks["one-sided-vanishing"]["ok"], (
                row["seed"],
                checks["one-sided-vanishing"]["detail"],
            )
