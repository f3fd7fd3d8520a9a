"""Orchestration for the verification suites.

Each named check wraps one of the module-level ``check_*`` / ``verify_*``
functions, converts any failure, expected or not, into a report row
instead of a crash, and the suite runners stitch those rows into
JSON-friendly dicts.  This is what both the CLI ``verify``/``random``
subcommands and the acceptance tests drive.
"""

from dataclasses import dataclass

from . import bar_oracle, cochains, cup, diagonal, resolution
from .ambiguities import AmbiguityTable
from .errors import MonomialHHError
from .quivers import is_triangular
from .randomgen import random_algebra, shrink_algebra

ORACLE_DIM_CAP = 12
ORACLE_DEGREE = 4


@dataclass
class CheckReport:
    name: str
    ok: bool
    detail: str = ""

    def as_dict(self):
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


def _run(name, thunk):
    try:
        thunk()
    except (AssertionError, MonomialHHError) as exc:
        return CheckReport(name, False, str(exc) or exc.__class__.__name__)
    except Exception as exc:  # a check that crashes is a failed check, not a failed battery
        return CheckReport(name, False, "%s: %s" % (exc.__class__.__name__, exc))
    return CheckReport(name, True)


def _expect_empty(failures):
    assert failures == [], "%d failing products: %r" % (len(failures), failures[:3])


def oracle_report(algebra, spaces, degree):
    """The oracle-dims row: bar-complex dimensions against ``spaces``.

    The oracle runs through degree min(degree, ORACLE_DEGREE); whether to
    run it at all is the caller's choice.
    """
    top = min(degree, ORACLE_DEGREE)

    def oracle():
        want = [spaces[n].dimension for n in range(top + 1)]
        got = bar_oracle.bar_hh_dimensions(algebra, top)
        assert got == want, "oracle dims %r != %r" % (got, want)

    return _run("oracle-dims", oracle)


def run_checks(algebra, degree=6, triangular_theorems=False):
    """The full per-algebra battery; returns a list of CheckReport rows.

    ``degree`` bounds everything: resolution/diagonal identities run through
    homological degree ``degree``, cup checks through total degree ``degree``.
    The oracle comparison is skipped (reported ok with a note) for algebras
    above the dimension cap.
    """
    table = AmbiguityTable(algebra)
    reports = [
        _run("d-squared", lambda: resolution.check_d_squared(table, degree)),
        _run("augmented", lambda: resolution.check_augmented(table)),
        _run("minimal", lambda: resolution.check_minimal(table, degree)),
        _run("homotopy", lambda: resolution.check_homotopy(table, degree - 1)),
        _run("diagonal-chain-map", lambda: diagonal.check_chain_map(table, degree)),
        _run("counit", lambda: diagonal.check_counit(table, degree)),
        _run("decompositions", lambda: diagonal.check_decomposition_lemmas(table, degree)),
        _run("partial-squared", lambda: cochains.check_partial_squared(table, degree)),
        _run("differential-routes", lambda: cochains.check_differential_routes_agree(table, degree)),
    ]
    spaces = []
    cohomology = _run("cohomology", lambda: spaces.extend(cochains.hochschild_cohomology(table, degree)))
    if not cohomology.ok:  # every row below reads the spaces; this one shows only on failure
        return reports + [cohomology]
    reports.append(_run("cup-closure", lambda: cup.check_cup_closure(table, spaces, degree)))
    reports.append(
        _run(
            "graded-commutativity",
            lambda: _expect_empty(cup.verify_graded_commutativity(table, spaces, degree)),
        )
    )
    if algebra.dim <= ORACLE_DIM_CAP:
        reports.append(oracle_report(algebra, spaces, degree))
    else:
        reports.append(CheckReport("oracle-dims", True, "skipped: dim %d > %d" % (algebra.dim, ORACLE_DIM_CAP)))
    if triangular_theorems:
        reports.append(
            _run(
                "triangular-vanishing",
                lambda: _expect_empty(cup.verify_triangular_vanishing(table, spaces, degree)),
            )
        )
        reports.append(
            _run(
                "one-sided-vanishing",
                lambda: _expect_empty(cup.check_one_sided_vanishing(table, spaces, degree)),
            )
        )
    return reports


def algebra_summary(algebra):
    q = algebra.quiver
    return {
        "vertices": list(q.vertex_names),
        "arrows": [
            {
                "name": q.arrow_names[i],
                "source": q.vertex_names[q.arrow_source[i]],
                "target": q.vertex_names[q.arrow_target[i]],
            }
            for i in range(q.n_arrows)
        ],
        "relations": [r.word() for r in algebra.relations],
        "dim": algebra.dim,
        "triangular": is_triangular(algebra),
    }


def run_random_suite(config, trials, base_seed, degree=6):
    """Seeded trials; each runs the full battery, failures get shrunk."""
    rows = []
    all_ok = True
    for i in range(trials):
        seed = base_seed + i
        algebra = random_algebra(config, seed)
        reports = run_checks(
            algebra, degree=degree, triangular_theorems=config.triangular
        )
        ok = all(r.ok for r in reports)
        row = {
            "trial": i,
            "seed": seed,
            "algebra": algebra_summary(algebra),
            "checks": [r.as_dict() for r in reports],
            "ok": ok,
        }
        if not ok:
            all_ok = False

            def still_failing(candidate):
                cand_reports = run_checks(
                    candidate, degree=degree, triangular_theorems=config.triangular
                )
                return not all(r.ok for r in cand_reports)

            try:
                small = shrink_algebra(algebra, still_failing)
                row["shrunk"] = algebra_summary(small)
            except (AssertionError, MonomialHHError) as exc:
                row["shrunk_error"] = str(exc)
        rows.append(row)
    return {"trials": rows, "ok": all_ok}
