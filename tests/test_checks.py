import json
import pathlib

from monomial_hh import cli, cochains
from monomial_hh.checks import (
    ORACLE_DIM_CAP,
    _run,
    algebra_summary,
    run_checks,
    run_random_suite,
)
from monomial_hh.errors import ImageNotInKernel
from monomial_hh.randomgen import RandomAlgebraConfig, random_algebra

CONE = str(pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "example_cone.alg")

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
    reports = run_checks(triangular_a6, degree=5, triangular_theorems=True)
    assert [r.name for r in reports] == BATTERY + [
        "triangular-vanishing",
        "one-sided-vanishing",
    ]
    assert all(r.ok for r in reports)


def test_failures_are_reported_not_raised(cone):
    # asking for the triangular theorems on a cyclic quiver must not crash
    reports = run_checks(cone, degree=3, triangular_theorems=True)
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
    # failing row, which the random suite records and shrinks and verify
    # reports with exit 1, not as an input error
    def broken(table, max_degree):
        raise ImageNotInKernel("image vector outside the kernel span")

    monkeypatch.setattr(cochains, "hochschild_cohomology", broken)
    failing = {"name": "cohomology", "ok": False, "detail": "image vector outside the kernel span"}
    reports = run_checks(cone, degree=3, triangular_theorems=True)
    assert [r.name for r in reports] == BATTERY[:9] + ["cohomology"]
    assert all(r.ok for r in reports[:-1]) and reports[-1].as_dict() == failing

    out = run_random_suite(RandomAlgebraConfig(), trials=2, base_seed=100, degree=2)
    assert out["ok"] is False and [row["seed"] for row in out["trials"]] == [100, 101]
    for row in out["trials"]:
        assert not row["ok"] and row["checks"][-1] == failing and "shrunk" in row

    assert cli.main(["verify", CONE, "--all", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False and doc["checks"][-1] == failing
