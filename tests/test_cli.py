"""End-to-end runs of the installed command line, JSON parsed from stdout."""

import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monomial_hh import __version__, checks, cli
from monomial_hh.algfile import parse_algebra_file
from monomial_hh.checks import CheckReport, run_random_suite
from monomial_hh.cli import _report_command
from monomial_hh.errors import BudgetExceeded
from monomial_hh.fields import parse_field_spec
from monomial_hh.randomgen import RandomAlgebraConfig

from helpers import named_text, plant_representative

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
CONE = str(FIXTURES / "example_cone.alg")
A6 = str(FIXTURES / "triangular_a6.alg")


# the subprocess imports the same package as this test, however it was found
PACKAGE_ROOT = str(pathlib.Path(cli.__file__).resolve().parents[1])


def run_python(*argv):
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def run_cli(*argv):
    return run_python("-m", "monomial_hh", *argv)


def run_json(*argv):
    out = run_cli(*argv, "--json")
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["schema"] == "monomial-hh/1"
    return doc


def test_hh_cone_dim_row():
    out = run_cli("hh", CONE, "--max-degree", "8")
    assert out.returncode == 0
    assert "dims 3 3 2 2 3 3 2 2 3" in out.stdout
    doc = run_json("hh", CONE, "--max-degree", "8")
    assert doc["dims"] == [3, 3, 2, 2, 3, 3, 2, 2, 3]
    assert doc["field"] == "q"
    assert len(doc["spaces"]) == 9


def test_hh_field_override():
    doc = run_json("hh", CONE, "--max-degree", "2", "--field", "fp:3")
    assert doc["field"] == "fp:3"
    assert doc["dims"] == [3, 3, 2]


def test_basis_json():
    doc = run_json("basis", CONE)
    assert doc["dim"] == 10
    assert len(doc["basis"]) == 10
    words = [row["word"] for row in doc["basis"]]
    assert "zetaalpha" in words and "gammabeta" in words
    lengths = [row["length"] for row in doc["basis"]]
    assert lengths == sorted(lengths)


def test_ambiguities_degrees():
    doc = run_json("ambiguities", CONE, "--degree", "1")
    assert doc["count"] == 4
    assert sorted(r["word"] for r in doc["ambiguities"]) == sorted(
        ["betazeta", "zetagamma", "alphazetaalpha", "zetaalphazeta"]
    )
    doc = run_json("ambiguities", CONE, "--degree", "-1")
    assert [r["word"] for r in doc["ambiguities"]] == ["e(1)", "e(2)", "e(3)"]


def test_check_commands_pass():
    for cmd in (
        ["resolution-check", CONE, "--max-degree", "4"],
        ["diagonal-check", CONE, "--max-degree", "4"],
        ["verify", A6, "--all", "--max-degree", "5"],
        ["verify", CONE, "--oracle", "--max-degree", "4"],
        ["verify", CONE, "--graded-commutativity", "--max-degree", "3"],
    ):
        doc = run_json(*cmd)
        assert doc["ok"] is True
        assert all(c["ok"] for c in doc["checks"])


# SHA-256 of the JSON each check subcommand printed when its rows were
# listed by hand, before the battery became one table
CHECK_JSON = {
    ("resolution-check", CONE): "e4d76e02f6a5106b01a67196ea6820c1c7a90b8fd754ef6b6ffe752059e6653f",
    ("verify", CONE, "--oracle"): "6aacd76568b4370974e2bd7b713ed2f0908851805858f62bd48e97fc4669338e",
    ("verify", CONE, "--graded-commutativity"): "0b2a2576e079f612da14f89f7d966596b235139e65b818cd79f1a0ea6f494c54",
    ("verify", A6, "--triangular-vanishing"): "52717062bf6f4753f63db380c5a329888a4948885f9df99ff3d73a1fe736f024",
}


def test_check_command_rows():
    for argv, digest in CHECK_JSON.items():
        out = run_cli(*argv, "--json")
        assert out.returncode == 0, out.stderr
        assert hashlib.sha256(out.stdout.encode("utf-8")).hexdigest() == digest, argv
    names = [c["name"] for c in run_json("diagonal-check", CONE)["checks"]]
    assert names == ["diagonal-chain-map", "counit", "decompositions"]
    # rows come in battery order, whatever the order of the flags
    doc = run_json("verify", A6, "--triangular-vanishing", "--graded-commutativity", "--oracle", "--max-degree", "3")
    assert [c["name"] for c in doc["checks"]] == ["graded-commutativity", "oracle-dims", "triangular-vanishing"]
    # an explicit --oracle runs above the dimension cap (a6 has dim 23): no skip note
    assert all(c["ok"] and c["detail"] == "" for c in doc["checks"])


def test_oracle_over_gf2_cubic(tmp_path):
    # k[x]/(x^3) over GF(2): the bar differential has coefficients 2 = 0
    alg = tmp_path / "cubic_gf2.alg"
    alg.write_text("field fp:2\nvertices 1\narrow a1: 1 -> 1\nrelation a1 a1 a1\n")
    out = run_cli("verify", str(alg), "--oracle", "--max-degree", "4")
    assert out.returncode == 0, out.stdout + out.stderr


def test_oracle_budget_is_a_degree_not_a_failure(monkeypatch, capsys, tmp_path):
    # dim 10, under the dimension cap, but bar degree 5 has 9^5 tuples of 10
    # values: a whole battery checks through degree 3 and says so, without
    # building a bar degree past the budget
    from monomial_hh import bar_oracle

    built = []
    real_pairs = bar_oracle.bar_pairs

    def counting(algebra, n, *budget):
        built.append(n)
        return real_pairs(algebra, n, *budget)

    monkeypatch.setattr(bar_oracle, "bar_pairs", counting)
    for spec in ("q", "fp:2"):
        alg = tmp_path / ("finding1_%s.alg" % spec.replace(":", ""))
        alg.write_text("field %s\nvertices 1\narrow x: 1 -> 1\narrow y: 1 -> 1\n"
                       "relation x x\nrelation y x y\nrelation y y y\n" % spec)
        built.clear()
        assert cli.main(["verify", str(alg), "--all", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        row = {"name": "oracle-dims", "ok": True,
               "detail": "checked through degree 3: bar degree 5 has 590490 pairs > 150000"}
        assert row in doc["checks"]
        assert built == [0, 1, 2, 3, 4]


def test_explicit_oracle_over_budget_exits_2(monkeypatch, tmp_path):
    # the algebra above: an explicit --oracle at the default degree asks for
    # degree 4, which needs bar degree 5; that is refused as bad input
    # before any row runs, and exits 2 with one error line
    alg = tmp_path / "finding1.alg"
    alg.write_text("field q\nvertices 1\narrow x: 1 -> 1\narrow y: 1 -> 1\n"
                   "relation x x\nrelation y x y\nrelation y y y\n")
    out = run_cli("verify", str(alg), "--oracle")
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == ("error: BudgetExceeded: oracle degree 4 does not fit the pair budget "
                          "(bar degree 5 has 590490 pairs > 150000); the deepest that fits is 3\n")
    # the degree that fits runs as asked
    assert run_json("verify", str(alg), "--oracle", "--max-degree", "3")["ok"] is True

    def unreachable(*args):
        raise AssertionError("a row ran")

    monkeypatch.setattr(checks.bar_oracle, "bar_pairs", unreachable)
    monkeypatch.setattr(checks.cup, "verify_graded_commutativity", unreachable)
    with pytest.raises(BudgetExceeded, match="the deepest that fits is 3"):
        checks.run_checks(parse_algebra_file(alg.read_text()), 5, ("graded-commutativity", "oracle-dims"))


def test_cup_blocks():
    doc = run_json("cup", CONE, "--max-total-degree", "3")
    blocks = {(b["i"], b["j"]): b["table"] for b in doc["blocks"]}
    # unit row: the third HH^0 representative is the identity on HH^1
    assert blocks[(0, 1)][2] == [{"0": "1"}, {"1": "1"}, {"2": "1"}]
    # degree (1,2) carries the nonzero products this algebra is known for
    assert any(cls for row in blocks[(1, 2)] for cls in row)


def test_random_suite_cli():
    out = run_cli("random", "--triangular", "--trials", "6", "--seed", "7", "--json")
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["ok"] is True
    assert doc["field"] == "q"
    assert len(doc["trials"]) == 6
    assert [t["seed"] for t in doc["trials"]] == [7, 8, 9, 10, 11, 12]


def test_random_suite_field(monkeypatch, capsys):
    out = run_cli("random", "--field", "fp:2", "--trials", "3", "--seed", "1000", "--max-degree", "4", "--json")
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    config = RandomAlgebraConfig(field=parse_field_spec("fp:2"))
    expected = run_random_suite(config, 3, 1000, degree=4)
    assert doc["field"] == "fp:2"
    assert doc["trials"] == json.loads(json.dumps(expected["trials"]))
    # the document names the field of its own config; the suite must get it too
    seen = []
    monkeypatch.setattr(cli, "run_random_suite", lambda config, *args, **kw: seen.append(config) or expected)
    assert cli.main(["random", "--field", "fp:2", "--trials", "3", "--json"]) == 0
    assert [c.field.name for c in seen] == ["fp:2"]


# every code point, lone surrogates included, and the characters JSON escapes
CHARS = st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from('"\\\x00\x1f\x7f\n\t\u2028\ud800\udfff\U0001f600'),
)
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    st.text(CHARS),
)
JSON_LIKE = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.dictionaries(st.text(CHARS), inner),
        st.dictionaries(st.integers(), inner),
    ),
    max_leaves=40,
)


@settings(max_examples=100, deadline=None)
@given(JSON_LIKE)
def test_json_writer_is_the_stdlib_rendering(value):
    expected = json.dumps(value, indent=2, sort_keys=True)
    assert cli._json_text(value) == expected
    out = io.StringIO()
    cli._write_json(out.write, value, "\n", 2)  # the top two levels item by item, as _emit_json writes
    assert out.getvalue() == expected


FIXTURE_COMMANDS = (
    ["basis"],
    ["ambiguities", "--degree", "2"],
    ["resolution-check", "--max-degree", "3"],
    ["diagonal-check", "--max-degree", "3"],
    ["hh", "--max-degree", "6"],
    ["cup", "--max-total-degree", "4"],
    ["verify", "--all", "--max-degree", "3"],
)


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.alg")))
def test_every_json_payload_prints_the_stdlib_rendering(fixture, monkeypatch, capsys):
    payloads = []
    emit = cli._emit_json
    monkeypatch.setattr(cli, "_emit_json", lambda payload: payloads.append(payload) or emit(payload))
    runs = [[argv[0], str(FIXTURES / fixture), *argv[1:]] for argv in FIXTURE_COMMANDS]
    runs.append(["random", "--triangular", "--trials", "2", "--seed", "1000", "--max-degree", "3"])
    for argv in runs:
        assert cli.main([*argv, "--json"]) == 0, argv
    assert len(payloads) == len(runs)
    assert capsys.readouterr().out == "".join(json.dumps(p, indent=2, sort_keys=True) + "\n" for p in payloads)


def test_random_text_prints_the_shrunk_counterexample(monkeypatch, capsys):
    def planted(table, spaces, n):
        assert table.algebra.dim < 3, "planted"

    monkeypatch.setitem(checks.BATTERY, "augmented", planted)
    expected = run_random_suite(RandomAlgebraConfig(), 2, 7, degree=2)
    shrunk = [row for row in expected["trials"] if "shrunk" in row]
    assert shrunk, "the planted row fails and each failure is shrunk"
    assert cli.main(["random", "--trials", "2", "--seed", "7", "--max-degree", "2"]) == 1
    out = capsys.readouterr().out
    blocks = "".join(
        "shrunk counterexample for trial %d:\n%s\n"
        % (row["trial"], json.dumps(row["shrunk"], indent=2, sort_keys=True))
        for row in shrunk
    )
    assert out.endswith(blocks)


def test_byte_identical_reruns():
    for argv in (
        ["hh", CONE, "--max-degree", "4", "--json"],
        ["cup", CONE, "--max-total-degree", "2"],
        ["random", "--trials", "4", "--seed", "3", "--json"],
    ):
        a = run_cli(*argv)
        b = run_cli(*argv)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout


def test_parser_kept_across_calls(monkeypatch, capsys):
    # one process, one parser: a bad argument or --version in between leaves
    # later calls printing the same bytes as the first
    monkeypatch.setattr(cli, "_parser", None)
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    hh = ["hh", CONE, "--max-degree", "4", "--json"]
    assert cli.main(hh) == 0
    first = capsys.readouterr().out
    assert cli.main(["cup", CONE, "--max-total-degree", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == "cup"
    with pytest.raises(SystemExit) as exc:
        cli.main(["hh", CONE, "--max-degree", "-1"])
    assert exc.value.code == 2
    assert "expected an integer >= 0" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__
    assert cli.main(hh) == 0
    assert capsys.readouterr().out == first
    assert built == [1]


def test_write_is_canonical(tmp_path):
    first = run_cli("write", A6)
    assert first.returncode == 0
    tmp = tmp_path / "canon_a6.alg"
    tmp.write_text(first.stdout)
    second = run_cli("write", str(tmp))
    assert second.stdout == first.stdout


def test_input_errors_exit_2(tmp_path):
    bad = tmp_path / "cli_bad.alg"
    bad.write_text("vertices 1 2\narrow a: 1 -> 2\nrelation a nope\n")
    out = run_cli("basis", str(bad))
    assert out.returncode == 2
    assert "line 3, col 12" in out.stderr

    bad.write_text("vertices 1 2\narrow a: 1 -> 2\nvertices a\n")
    out = run_cli("basis", str(bad))
    assert out.returncode == 2
    assert out.stderr == "input error: line 3, col 10: duplicate id 'a'\n"

    out = run_cli("basis", str(tmp_path / "does_not_exist.alg"))
    assert out.returncode == 2

    out = run_cli("hh", CONE, "--max-degree", "1", "--field", "fp:nope")
    assert out.returncode == 2

    out = run_cli("random", "--trials", "1", "--field", "fp:4")
    assert out.returncode == 2

    # an empty --field is a field spec like any other, refused alike by both
    # commands, not read as "no override"
    for argv in (["hh", str(FIXTURES / "square.alg"), "--max-degree", "2"], ["random", "--trials", "1"]):
        out = run_cli(*argv, "--field", "")
        assert out.returncode == 2, argv
        assert out.stderr == "error: BadInput: unknown field spec '' (expected 'q' or 'fp:<prime>')\n", argv

    # a modulus at or above 2^64 is refused at once, by --field and by the file's field line
    for modulus in (10**30 + 57, 10**399 + 7):
        out = run_cli("hh", CONE, "--max-degree", "1", "--field", "fp:%d" % modulus)
        assert out.returncode == 2
        assert "below 2^64" in out.stderr
    bad.write_text("field fp:%d\nvertices 1\n" % (10**30 + 57))
    out = run_cli("basis", str(bad))
    assert out.returncode == 2
    assert "line 1, col 7" in out.stderr

    out = run_cli("verify", CONE)  # no check selected
    assert out.returncode == 2

    out = run_cli("verify", CONE, "--triangular-vanishing", "--max-degree", "2")
    assert out.returncode == 2  # cone has a cycle, the flag does not apply

    # negative bounds and trial counts are bad input, not a crash or a no-op
    for argv in (
        ["hh", CONE, "--max-degree", "-1"],
        ["cup", CONE, "--max-total-degree", "-1"],
        ["verify", A6, "--all", "--max-degree", "-1"],
        ["random", "--trials", "1", "--max-degree", "-1"],
        ["resolution-check", CONE, "--max-degree", "-1"],
        ["diagonal-check", CONE, "--max-degree", "-1"],
        ["random", "--trials", "-3"],
    ):
        out = run_cli(*argv)
        assert out.returncode == 2, argv
        assert "expected an integer >= 0, got '-" in out.stderr


def test_failing_check_exits_1():
    args = types.SimpleNamespace(json=True)
    reports = [CheckReport("good", True, ""), CheckReport("bad", False, "boom")]
    assert _report_command(args, reports, "verify") == 1
    assert _report_command(args, reports[:1], "verify") == 0


def test_internal_error_exits_3(monkeypatch, capsys):
    def broken(table, max_degree):
        raise AssertionError("table corrupt")

    monkeypatch.setattr(cli, "hochschild_cohomology", broken)
    assert cli.main(["hh", CONE, "--max-degree", "1"]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: AssertionError: table corrupt\n"
    assert "Traceback" not in err


def test_planted_representative_fails_hh_and_verify(monkeypatch, capsys, tmp_path):
    # hochschild_cohomology certifies what it returns: a non-cocycle planted
    # among the representatives is an error of hh, one stderr line and exit
    # 2, and ends verify --all with a failing cohomology row naming it
    for spec in ("q", "fp:2"):
        cone = tmp_path / ("cone_%s.alg" % spec.replace(":", ""))
        cone.write_text(named_text("cone", spec))
        with monkeypatch.context() as patch:
            plant_representative(patch, 2, {0: 1})
            assert cli.main(["hh", str(cone), "--max-degree", "3", "--json"]) == 2
            out, err = capsys.readouterr()
            prefix = "error: NotACocycle: "
            assert out == "" and err.count("\n") == 1 and "Traceback" not in err
            assert err.startswith(prefix + "HH^2 representative is not a cocycle: "), err
            assert cli.main(["verify", str(cone), "--all", "--json"]) == 1
            doc = json.loads(capsys.readouterr().out)
            failing = {"name": "cohomology", "ok": False, "detail": err[len(prefix) : -1]}
            assert doc["ok"] is False and doc["checks"][-1] == failing


def test_nonzero_triangular_class_fails_verify(monkeypatch, capsys):
    # triangular-vanishing reads the classes of the products of kernel
    # vectors, some of them nonzero as cochains on triangular_a6: a class
    # read that reports a nonzero class fails the row
    from monomial_hh import cup

    solves = []

    def nonzero(space, table, vec):
        solves.append(space.degree)
        return {0: 1}

    monkeypatch.setattr(cup, "class_vector", nonzero)
    assert cli.main(["verify", A6, "--triangular-vanishing", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    [row] = doc["checks"]
    assert row["name"] == "triangular-vanishing" and row["ok"] is False
    assert len(solves) == 9


def test_closed_stdout_exits_141_quietly(tmp_path):
    rsz2 = tmp_path / "rsz2.alg"
    rsz2.write_text(named_text("rsz2"))
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONUNBUFFERED", None)  # stdout buffered, as by default

    # like `hh ... --json | head -1`: the reader leaves long before the
    # output, about 540 kB, has been written
    argv = [sys.executable, "-m", "monomial_hh", "hh", str(rsz2), "--max-degree", "12", "--json"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait() == 141

    # the reader is gone before the run starts, so the whole output is still
    # buffered when writing fails, and the exit must not flush it again
    read_end, write_end = os.pipe()
    os.close(read_end)
    argv = [sys.executable, "-m", "monomial_hh", "hh", CONE, "--max-degree", "1", "--json"]
    proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")
