"""Workload definitions and input generators for the benchmark.

A workload is a list of ops.  An op is either a CLI invocation, driven
in-process through ``monomial_hh.cli.main``, or one random-suite trial,
driven through ``monomial_hh.checks.run_random_suite`` (the CLI ``random``
command has no ``--field``).  Each op has a stable key; its output digest is
recorded under that key in ``reference.json``.

This module does not import the package at module level: the worker times
the package import as part of set-up.
"""

import itertools
import os
import random

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
INPUT_DIR = os.path.join(BENCH_DIR, "inputs")
FIXTURE_DIR = os.path.join(ROOT, "fixtures")
FIXTURES = (
    "example_cone.alg",
    "square.alg",
    "triangular_a6.alg",
    "truncated_cycle_3_2.alg",
)

# The random-suite pool: seeds 1000-1059 in each of the four configs.  The
# pool is fixed so that every trial's row has a recorded digest and so that
# p50/p90 and the failed share are measured on the same trials for every
# benchmark seed; the benchmark seed orders the trials.
TRIAL_SEEDS = range(1000, 1060)
TRIAL_CONFIGS = (("q", False), ("q", True), ("fp:2", False), ("fp:2", True))
TRIAL_DEGREE = 6
# A fixture op takes milliseconds; it runs this many times per pass so that
# its median latency rests on as many samples as the larger ops' do.
FIXTURE_REPEATS = 5

WORKLOADS = ("hh-exp", "cup-tables", "oracle-elim", "verify-random")
SIZES = ("full", "tiny")


def loops_algebra_text(k, rel_len, field):
    """.alg text of one vertex with loops x1..xk and every length-rel_len word as a relation.

    ``rsz(k)`` is rel_len 2, where |Γ_n| = k^(n+1); ``cub(k)`` is rel_len 3.
    The text comes from ``write_algebra_file``, so it is canonical.
    """
    from monomial_hh.algfile import write_algebra_file
    from monomial_hh.fields import parse_field_spec
    from monomial_hh.quivers import Quiver, build_algebra

    names = ["x%d" % i for i in range(1, k + 1)]
    quiver = Quiver(["1"], [(n, "1", "1") for n in names])
    relations = [quiver.path(list(w)) for w in itertools.product(names, repeat=rel_len)]
    return write_algebra_file(build_algebra(quiver, relations, parse_field_spec(field)))


# name -> (k, relation length, field)
FAMILIES = {
    "rsz2": (2, 2, "q"),
    "rsz3": (3, 2, "q"),
    "cub2-q": (2, 3, "q"),
    "cub2-fp7": (2, 3, "fp:7"),
}


def input_path(family):
    return os.path.join(INPUT_DIR, family + ".alg")


def write_inputs():
    """Write every generated family as .alg into the benchmark's input directory."""
    os.makedirs(INPUT_DIR, exist_ok=True)
    for family, (k, rel_len, field) in FAMILIES.items():
        text = loops_algebra_text(k, rel_len, field)
        path = input_path(family)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)


def _cli(key, argv, files):
    return {"key": key, "kind": "cli", "argv": argv, "files": files}


def _hh(family_or_fixture, path, degree):
    return _cli(
        "hh %s D=%d" % (family_or_fixture, degree),
        ["hh", path, "--max-degree", str(degree), "--json"],
        [path],
    )


def ops_for(workload, size):
    """The ops of one pass of a workload, in canonical order."""
    tiny = size == "tiny"
    if workload == "hh-exp":
        ops = [
            _hh("rsz2", input_path("rsz2"), 4 if tiny else 8),
            _hh("rsz3", input_path("rsz3"), 3 if tiny else 5),
        ]
        for name in FIXTURES:
            ops += [_hh(name, os.path.join(FIXTURE_DIR, name), 6 if tiny else 24)] * FIXTURE_REPEATS
        return ops
    if workload == "cup-tables":
        return [
            _cli(
                "cup %s T=%d" % (fam, top),
                ["cup", input_path(fam), "--max-total-degree", str(top), "--json"],
                [input_path(fam)],
            )
            for fam, top in (("rsz3", 2 if tiny else 3), ("rsz2", 3 if tiny else 5))
        ]
    if workload == "oracle-elim":
        deg = 2 if tiny else 3
        return [
            _cli(
                "verify-oracle %s D=%d" % (fam, deg),
                ["verify", input_path(fam), "--oracle", "--max-degree", str(deg), "--json"],
                [input_path(fam)],
            )
            for fam in ("cub2-q", "cub2-fp7")
        ]
    if workload == "verify-random":
        seeds = TRIAL_SEEDS[:2] if tiny else TRIAL_SEEDS
        degree = 4 if tiny else TRIAL_DEGREE
        return [
            {
                "key": "trial %s %s seed=%d deg=%d"
                % (field, "triangular" if tri else "general", s, degree),
                "kind": "trial",
                "field": field,
                "triangular": tri,
                "seed": s,
                "degree": degree,
            }
            for field, tri in TRIAL_CONFIGS
            for s in seeds
        ]
    raise ValueError("unknown workload %r" % workload)


def pass_order(ops, seed):
    """The benchmark seed fixes the order in which a pass runs its ops."""
    order = list(ops)
    random.Random(seed).shuffle(order)
    return order
