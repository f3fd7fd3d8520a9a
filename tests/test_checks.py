import json
import pathlib

import pytest

from monomial_hh import bar_oracle, checks, cli, cochains, cup, diagonal, resolution
from monomial_hh.algfile import parse_algebra_file
from monomial_hh.ambiguities import AmbiguityTable
from monomial_hh.checks import (
    GENERAL_ROWS,
    ORACLE_DIM_CAP,
    TRIANGULAR_ROWS,
    _run,
    algebra_summary,
    run_checks,
    run_random_suite,
)
from monomial_hh.cochains import display_vector
from monomial_hh.errors import ImageNotInKernel
from monomial_hh.randomgen import RandomAlgebraConfig, random_algebra

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
CONE = str(FIXTURES / "example_cone.alg")
A6 = str(FIXTURES / "triangular_a6.alg")

BATTERY = [
    "d-squared",
    "augmented",
    "minimal",
    "homotopy",
    "diagonal-chain-map",
    "counit",
    "decompositions",
    "partial-squared",
    "differential-routes",
    "cup-closure",
    "graded-commutativity",
    "oracle-dims",
]


def test_cone_battery(cone):
    reports = run_checks(cone, degree=5)
    assert [r.name for r in reports] == BATTERY
    assert all(r.ok for r in reports)


def test_triangular_battery(triangular_a6):
    reports = run_checks(triangular_a6, degree=5, rows=GENERAL_ROWS + TRIANGULAR_ROWS)
    assert [r.name for r in reports] == BATTERY + [
        "triangular-vanishing",
        "one-sided-vanishing",
    ]
    assert all(r.ok for r in reports)


def test_failures_are_reported_not_raised(cone):
    # asking for the triangular theorems on a cyclic quiver must not crash
    reports = run_checks(cone, degree=3, rows=GENERAL_ROWS + TRIANGULAR_ROWS)
    by_name = {r.name: r for r in reports}
    assert not by_name["triangular-vanishing"].ok
    assert "acyclic" in by_name["triangular-vanishing"].detail


def test_unexpected_exception_is_a_failing_row():
    def thunk():
        raise ValueError("base is not invertible")

    report = _run("crashes", thunk)
    assert (report.name, report.ok) == ("crashes", False)
    assert report.detail == "ValueError: base is not invertible"


def test_oracle_skip_message():
    cfg = RandomAlgebraConfig()
    alg = None
    for seed in range(80):
        cand = random_algebra(cfg, seed)
        if cand.dim > ORACLE_DIM_CAP:
            alg = cand
            break
    assert alg is not None
    reports = run_checks(alg, degree=3)
    oracle = [r for r in reports if r.name == "oracle-dims"][0]
    assert oracle.ok and oracle.detail.startswith("skipped")


def test_summary_shape(cone):
    s = algebra_summary(cone)
    assert s["dim"] == 10
    assert s["triangular"] is False
    assert len(s["arrows"]) == 4
    assert set(s["relations"]) == {
        "betazeta",
        "zetagamma",
        "alphazetaalpha",
        "zetaalphazeta",
    }


def test_random_suite_rows():
    out = run_random_suite(RandomAlgebraConfig(), trials=4, base_seed=100, degree=4)
    assert out["ok"] is True
    assert [row["seed"] for row in out["trials"]] == [100, 101, 102, 103]
    for row in out["trials"]:
        assert row["ok"] and row["algebra"]["dim"] >= 1
        assert all(c["ok"] for c in row["checks"])


def test_cohomology_failure_is_a_failing_row(monkeypatch, cone, capsys):
    # a fault inside hochschild_cohomology ends the battery with a named
    # failing row, which the random suite records and shrinks and every
    # verify mode reports with exit 1, not as an input error
    def broken(table, max_degree):
        raise ImageNotInKernel("image vector outside the kernel span")

    monkeypatch.setattr(cochains, "hochschild_cohomology", broken)
    failing = {"name": "cohomology", "ok": False, "detail": "image vector outside the kernel span"}
    reports = run_checks(cone, degree=3, rows=GENERAL_ROWS + TRIANGULAR_ROWS)
    assert [r.name for r in reports] == BATTERY[:9] + ["cohomology"]
    assert all(r.ok for r in reports[:-1]) and reports[-1].as_dict() == failing

    out = run_random_suite(RandomAlgebraConfig(), trials=2, base_seed=100, degree=2)
    assert out["ok"] is False and [row["seed"] for row in out["trials"]] == [100, 101]
    for row in out["trials"]:
        assert not row["ok"] and row["checks"][-1] == failing and "shrunk" in row

    for flag in ("--all", "--oracle", "--graded-commutativity"):
        assert cli.main(["verify", CONE, flag, "--json"]) == 1, flag
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False and doc["checks"][-1] == failing, flag


def test_triangular_vanishing_fault_is_a_failing_row(monkeypatch, capsys):
    # a product that is no cocycle, planted in bidegree (1, 1), reaches the
    # row's own class_vector read, whose NotACocycle fails the row
    products = cup.cup_products

    def planted(table, m, n, fs, gs):
        out = products(table, m, n, fs, gs)
        if (m, n) == (1, 1):
            out[0, 0] = {0: 1}
        return out

    monkeypatch.setattr(cup, "cup_products", planted)
    assert cli.main(["verify", A6, "--triangular-vanishing", "--json"]) == 1
    out, err = capsys.readouterr()
    alg = parse_algebra_file(pathlib.Path(A6).read_text())
    detail = "not killed by the differential: " + display_vector(AmbiguityTable(alg), 2, [{0: 1}], {})[0]
    assert json.loads(out)["checks"] == [{"name": "triangular-vanishing", "ok": False, "detail": detail}]
    assert err == ""


# the one library function each row of the triangular battery calls
ROW_FUNCTIONS = {
    "d-squared": (resolution, "check_d_squared"),
    "augmented": (resolution, "check_augmented"),
    "minimal": (resolution, "check_minimal"),
    "homotopy": (resolution, "check_homotopy"),
    "diagonal-chain-map": (diagonal, "check_chain_map"),
    "counit": (diagonal, "check_counit"),
    "decompositions": (diagonal, "check_decomposition_lemmas"),
    "partial-squared": (cochains, "check_partial_squared"),
    "differential-routes": (cochains, "check_differential_routes_agree"),
    "cup-closure": (cup, "check_cup_closure"),
    "graded-commutativity": (cup, "verify_graded_commutativity"),
    "oracle-dims": (bar_oracle, "bar_hh_dimensions"),
    "triangular-vanishing": (cup, "verify_triangular_vanishing"),
    "one-sided-vanishing": (cup, "check_one_sided_vanishing"),
}


@pytest.mark.parametrize("row", list(ROW_FUNCTIONS))
def test_each_row_runs_its_own_check(monkeypatch, triangular_a6, row):
    # a row bound to the wrong check passes every digest, since a verify
    # document holds only names and ok flags; break one function, see one row fail
    def broken(*args):
        raise AssertionError("broken " + row)

    module, name = ROW_FUNCTIONS[row]
    monkeypatch.setattr(module, name, broken)
    monkeypatch.setattr(checks, "ORACLE_DIM_CAP", triangular_a6.dim)  # let the oracle run
    reports = run_checks(triangular_a6, 3, GENERAL_ROWS + TRIANGULAR_ROWS)
    assert [r.name for r in reports] == list(ROW_FUNCTIONS)
    assert [r.name for r in reports if not r.ok] == [row]
    assert [r.detail for r in reports if not r.ok] == ["broken " + row]


def _flip_one_even_face(monkeypatch):
    """Patch boundary, wherever it is read, so that the first face of the
    first 2-ambiguity has the wrong sign."""
    original = resolution.boundary

    def flipped(table, amb):
        faces = original(table, amb)
        if amb is not table.degree(2)[0]:
            return faces
        (key, sign), *rest = faces.terms.items()
        return resolution.bimodule_element(table, faces.degree, dict([(key, -sign)] + rest))

    for module in (resolution, diagonal, cochains):
        monkeypatch.setattr(module, "boundary", flipped)


def test_a_planted_face_sign_fails_its_rows(monkeypatch, cone):
    # a fault inside the differential, not a swapped-out check: every row
    # that reads the faces sees it, however they are cached
    _flip_one_even_face(monkeypatch)
    reports = run_checks(cone, 4, checks.RESOLUTION_ROWS + checks.DIAGONAL_ROWS)
    assert [r.name for r in reports if not r.ok] == ["d-squared", "homotopy", "diagonal-chain-map"]


def test_homotopy_failure_names_its_generator(monkeypatch, cone):
    _flip_one_even_face(monkeypatch)
    (report,) = run_checks(cone, 4, ("homotopy",))
    assert report.detail == "homotopy identity fails at [e(3) || zetagamma || beta]"


def test_chain_map_failure_names_its_ambiguity(monkeypatch, cone):
    # the failing ambiguity is rendered in traversal order, arrows joined by *
    _flip_one_even_face(monkeypatch)
    reports = run_checks(cone, 4, ("d-squared", "diagonal-chain-map"))
    assert [r.detail for r in reports] == [
        "d^2 != 0 at gamma*zeta*beta",
        "diagonal chain-map identity fails at gamma*zeta*beta",
    ]
