"""The scripts under scripts/ run as subprocesses against this package."""

import hashlib
import pathlib

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


def test_deep_hh_quick():
    out = run_python(str(SCRIPTS / "deep_hh.py"), "--quick")
    assert out.returncode == 0, out.stdout + out.stderr
    (line,) = out.stdout.splitlines()
    assert line.startswith("rsz(2) D=8: ") and line.endswith(" ok")
    assert "exit 0, sha256 d07b949128a6524a60ece5f39f2baa305753f598b4c054b6f660b80cfb40363c" in line
