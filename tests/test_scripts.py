"""The scripts under scripts/ run as subprocesses against this package."""

import hashlib
import importlib.util
import pathlib
import re
import shutil

import pytest

from test_cli import run_python

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def test_cone_tables():
    out = run_python(str(SCRIPTS / "cone_tables.py"))
    assert out.returncode == 0, out.stderr
    assert "dims: 3 3 2 2 3 3 2 2 3" in out.stdout.splitlines()
    # the whole picture: dims, every representative, the three products and their classes
    digest = hashlib.sha256(out.stdout.encode("utf-8")).hexdigest()
    assert digest == "f5b9883e270b4e3050946df7a041abc88734bb6872bc82269f489c4be4489f7f"


def test_random_survey():
    out = run_python(str(SCRIPTS / "random_survey.py"), "--trials", "2", "--degree", "3")
    assert out.returncode == 0, out.stderr
    assert "suite: 2 trials, 0 failures" in out.stdout


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_random_survey_needs_a_trial(trials):
    out = run_python(str(SCRIPTS / "random_survey.py"), "--trials", trials)
    assert out.returncode == 2
    assert out.stdout == "" and "--trials must be at least 1" in out.stderr


def test_deep_hh_quick():
    out = run_python(str(SCRIPTS / "deep_hh.py"), "--quick")
    assert out.returncode == 0, out.stdout + out.stderr
    (line,) = out.stdout.splitlines()
    assert line.startswith("rsz(2) D=8: ") and line.endswith(" ok")
    assert "exit 0, sha256 d07b949128a6524a60ece5f39f2baa305753f598b4c054b6f660b80cfb40363c" in line


def test_deep_hh_runs_and_median():
    out = run_python(str(SCRIPTS / "deep_hh.py"), "--quick", "--runs", "2")
    assert out.returncode == 0, out.stdout + out.stderr
    *runs, median = out.stdout.splitlines()
    assert len(runs) == 2
    assert all(line.startswith("rsz(2) D=8: ") and line.endswith(" ok") for line in runs)
    assert median.startswith("rsz(2) D=8: median of 2: ") and median.endswith(" MB")


def test_deep_hh_unknown_label():
    out = run_python(str(SCRIPTS / "deep_hh.py"), "--only", "rsz(2) D=99")
    assert out.returncode == 2
    assert out.stdout == "" and "unknown --only label" in out.stderr


def test_bench_pairs_dry_run(tmp_path):
    # alternated pairs with one seed per pair, the parent first in odd pairs;
    # a checkout with bytecode under src/ is refused before anything runs
    sides = {}
    for side in ("parent", "change"):
        sides[side] = tmp_path / side
        (sides[side] / "src" / "monomial_hh").mkdir(parents=True)
        (sides[side] / "perfbench").mkdir()
        (sides[side] / "perfbench" / "run.py").write_text("")
    argv = [str(SCRIPTS / "bench_pairs.py"), "--parent", str(sides["parent"]), "--change", str(sides["change"]),
            "--workload", "oracle-elim", "--pairs", "3", "--seconds", "20", "--dry-run"]
    out = run_python(*argv)
    assert out.returncode == 0, out.stderr
    bench = "python3 perfbench/run.py --workload oracle-elim --seed %d --seconds 20 --trace 0"
    want = [
        "pair 1 parent: cd %s && %s" % (sides["parent"], bench % 1),
        "pair 1 change: cd %s && %s" % (sides["change"], bench % 1),
        "pair 2 change: cd %s && %s" % (sides["change"], bench % 2),
        "pair 2 parent: cd %s && %s" % (sides["parent"], bench % 2),
        "pair 3 parent: cd %s && %s" % (sides["parent"], bench % 3),
        "pair 3 change: cd %s && %s" % (sides["change"], bench % 3),
    ]
    assert out.stdout.splitlines() == want
    (sides["parent"] / "src" / "monomial_hh" / "__pycache__").mkdir()
    out = run_python(*argv)
    assert out.returncode == 2 and out.stdout == ""
    assert "__pycache__" in out.stderr


def test_cold_start_quick(tmp_path):
    # one run a side, the parent first; both sides from source, same hh output
    sides = {}
    for side in ("parent", "change"):
        sides[side] = tmp_path / side
        shutil.copytree(SCRIPTS.parent / "src", sides[side] / "src", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [str(SCRIPTS / "cold_start.py"), "--parent", str(sides["parent"]), "--change", str(sides["change"]),
            "--runs", "1"]
    out = run_python(*argv)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["run 1 parent", "run 1 change"]
    assert all(re.fullmatch(r"run 1 \w+: import \d+ us, hh \d+\.\d{4} s", line) for line in lines[:2]), lines
    assert [line.split()[:2] for line in lines[2:]] == [
        ["metric", "side"], ["import_us", "parent"], ["import_us", "change"], ["hh_s", "parent"], ["hh_s", "change"]]
    (sides["change"] / "src" / "monomial_hh" / "__pycache__").mkdir()
    out = run_python(*argv)
    assert out.returncode == 2 and out.stdout == ""
    assert "__pycache__" in out.stderr
    out = run_python(*argv[:-1], "0")
    assert out.returncode == 2 and "--runs must be at least 1" in out.stderr


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "won, parent, change, spread, lower, bound, want",
    [
        (10, 0.165, 0.131, 0.0055, True, 0.25, "gain"),  # 10 of 10, gap 0.034 > IQR
        (9, 0.165, 0.131, 0.0055, True, 0.25, "gain"),  # 9 of 10 is enough
        (8, 0.165, 0.131, 0.0055, True, 0.25, "same"),  # 8 of 10 is not
        (10, 0.165, 0.160, 0.0055, True, 0.25, "same"),  # gap 0.005 inside the IQR
        (10, 0.990, 0.999, 0.0005, False, 0.001, "gain"),  # higher is better
        (0, 1.0, 1.3, 0.01, True, 0.2, "worse"),  # +30 % against a 20 % bound
        (0, 1.0, 1.19, 0.01, True, 0.2, "same"),  # +19 % is inside it
        (3, 1.0, 0.998, 0.0, False, 0.001, "worse"),  # −0.2 % of a higher-is-better ratio
        (5, 1.0, 1.0, 0.3, True, 0.2, "unresolved"),  # parent IQR 30 % against 20 %
        (0, 1.0, 1.3, 0.3, True, 0.2, "worse"),  # worse is told before unresolved
        (10, 1.0, 0.5, 0.3, True, 0.2, "gain"),  # and a gain beyond the IQR before both
        (1, 2.0, 2.0, 0.0, True, 0.05, "same"),
    ],
)
def test_bench_pairs_verdict(won, parent, change, spread, lower, bound, want):
    assert _bench_pairs().verdict(won, 10, parent, change, spread, lower, bound) == want


def test_bench_pairs_verdict_needs_ten_pairs():
    verdict = _bench_pairs().verdict
    assert verdict(3, 3, 0.165, 0.131, 0.0055, True, 0.25) == "same"
    assert verdict(18, 20, 0.165, 0.131, 0.0055, True, 0.25) == "gain"
    assert verdict(17, 20, 0.165, 0.131, 0.0055, True, 0.25) == "same"
