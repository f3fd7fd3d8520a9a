"""Byte-identical CLI output: SHA-256 digests of the JSON on every fixture.

The digests pin the regression contract of every refactor: ``hh``,
``cup`` and ``verify --all`` on every fixture, and the seeded ``random``
suite, must print exactly these bytes.  A change
that is meant to alter the output has to re-record them, on purpose.
"""

import contextlib
import hashlib
import io
import pathlib

import pytest

from monomial_hh import cli

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

COMMANDS = {
    "hh": ["hh", "--json", "--max-degree", "6"],
    "cup": ["cup", "--json", "--max-total-degree", "4"],
    "verify": ["verify", "--all", "--json", "--max-degree", "4"],
}

GOLDEN = {
    ("example_cone.alg", "hh"): "8400b57e833feb7dac22f958677e36d87066a27a4d0d1b56a138ad0639bf9e1e",
    ("example_cone.alg", "cup"): "ff668034e083504e24538357ee1247ffcf27f8183e7c791e0ccfcca284cd5cc8",
    ("example_cone.alg", "verify"): "028864728b74bb6500d4039f6ec7cbe730ecd3c0658c8e3d2dcd5586f6c2ff44",
    ("square.alg", "hh"): "09edaa5ab225834e6f2c4c4a9e2bb57b19ad14de1c31b1795bd14c40622a5fd0",
    ("square.alg", "cup"): "9f619f17bc1bf51617afeb47cef092ff48e0c3d4cc8d752de9ba5ead0b701e7f",
    ("square.alg", "verify"): "b8df9012b934e5960c7d7b48c2af06f16ef212e35d5127fe85507c972d1c2d4f",
    ("triangular_a6.alg", "hh"): "95c3340a93591e9c64b8f6fdaae44995c06217b8279ed952a60ae8c4e3f47680",
    ("triangular_a6.alg", "cup"): "baf299a98835b73bfa1652644b80c94ef5e874e3225755b2de2c6e1875626d0a",
    ("triangular_a6.alg", "verify"): "60f81c3be8dca5767b1ebab16f67528ff4a0bf4e7b918fd7b75d6618b0c07448",
    ("truncated_cycle_3_2.alg", "hh"): "861a13b97483c1e06fb0f4343876f6b16b601690316181e6f6af33351468ab43",
    ("truncated_cycle_3_2.alg", "cup"): "7ad9f1dccce95654e1e7bd3c0b6905f6b594e60cd0df50a0bc85f181d9d96fd4",
    ("truncated_cycle_3_2.alg", "verify"): "028864728b74bb6500d4039f6ec7cbe730ecd3c0658c8e3d2dcd5586f6c2ff44",
}


# the rows do not name the field, so both fields print the same bytes
RANDOM_GOLDEN = {
    ("general", "q"): "987b1f2e98e79bc1a899c77c718eac5303815547be8bd945f1b1160bc620e401",
    ("general", "fp:2"): "987b1f2e98e79bc1a899c77c718eac5303815547be8bd945f1b1160bc620e401",
    ("triangular", "q"): "fe354a4fe611d5032b52e4f5225fcf781255aea98448bc2313fa5ab744a772d5",
    ("triangular", "fp:2"): "fe354a4fe611d5032b52e4f5225fcf781255aea98448bc2313fa5ab744a772d5",
}


@pytest.mark.parametrize("fixture, command", sorted(GOLDEN))
def test_cli_json_digest(fixture, command):
    argv = COMMANDS[command]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([argv[0], str(FIXTURES / fixture), *argv[1:]])
    assert code == 0
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == GOLDEN[fixture, command]


@pytest.mark.parametrize("kind, field", sorted(RANDOM_GOLDEN))
def test_random_suite_digest(kind, field):
    # the suite runs every cup check: closure, commutativity, vanishing, one-sided
    argv = ["random", "--json", "--trials", "6", "--seed", "1000", "--max-degree", "5", "--field", field]
    if kind == "triangular":
        argv.append("--triangular")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == RANDOM_GOLDEN[kind, field]
