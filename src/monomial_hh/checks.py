"""Orchestration for the verification suites.

``BATTERY`` binds each row name to its check, one of the module-level
``check_*`` / ``verify_*`` functions.  ``run_checks`` runs a selection of
rows, converting any failure, expected or not, into a report row instead
of a crash (a ``CheckReport``, a ``__slots__`` object whose ``detail`` the
``oracle-dims`` row fills in after the check), and the suite runner
stitches those rows into JSON-friendly dicts.  Every CLI check subcommand (``resolution-check``,
``diagonal-check``, ``verify``, ``random``) and the acceptance tests drive it.
"""

from . import bar_oracle, cochains, cup, diagonal, resolution
from .ambiguities import AmbiguityTable
from .errors import BudgetExceeded, MonomialHHError
from .quivers import is_triangular
from .randomgen import random_algebra, shrink_algebra

ORACLE_DIM_CAP = 12
ORACLE_DEGREE = 4


class CheckReport:
    """One row of a battery: its name, whether it passed, and a detail
    (the failure, or a note on what was skipped); ``detail`` may be set
    after the row has run."""

    __slots__ = ("name", "ok", "detail")

    def __init__(self, name, ok, detail=""):
        self.name = name
        self.ok = ok
        self.detail = detail

    def __repr__(self):
        return "CheckReport(name=%r, ok=%r, detail=%r)" % (self.name, self.ok, self.detail)

    def as_dict(self):
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


def _run(name, check, *args):
    try:
        check(*args)
    except (AssertionError, MonomialHHError) as exc:
        return CheckReport(name, False, str(exc) or exc.__class__.__name__)
    except Exception as exc:  # a check that crashes is a failed check, not a failed battery
        return CheckReport(name, False, "%s: %s" % (exc.__class__.__name__, exc))
    return CheckReport(name, True)


def _expect_empty(failures):
    assert failures == [], "%d failing products: %r" % (len(failures), failures[:3])


def _oracle_dims(table, spaces, degree):
    # the bar-complex oracle runs through degree min(degree, ORACLE_DEGREE)
    top = min(degree, ORACLE_DEGREE)
    want = [spaces[n].dimension for n in range(top + 1)]
    got = bar_oracle.bar_hh_dimensions(table.algebra, top)
    assert got == want, "oracle dims %r != %r" % (got, want)


def _oracle_within_budget(check, table, spaces, degree):
    """The ``oracle-dims`` row of a whole battery: skipped above the dimension
    cap, else checked through the deepest degree that the pair budget reaches."""
    algebra = table.algebra
    if algebra.dim > ORACLE_DIM_CAP:
        return CheckReport("oracle-dims", True, "skipped: dim %d > %d" % (algebra.dim, ORACLE_DIM_CAP))
    top, note = bar_oracle.degree_within_budget(algebra, min(degree, ORACLE_DEGREE))
    if top < 0:
        return CheckReport("oracle-dims", True, "skipped: " + note)
    report = _run("oracle-dims", check, table, spaces, top)
    if report.ok and note:
        report.detail = "checked through degree %d: %s" % (top, note)
    return report


def _oracle_fits(algebra, degree):
    """Raise BudgetExceeded, before any row runs, when the ``oracle-dims``
    row selected on its own would pass the pair budget: a degree the
    caller asked for and cannot have is bad input, not a failed check."""
    asked = min(degree, ORACLE_DEGREE)
    top, note = bar_oracle.degree_within_budget(algebra, asked)
    if top < asked:
        deepest = "the deepest that fits is %d" % top if top >= 0 else "no degree fits"
        raise BudgetExceeded(top, "oracle degree %d does not fit the pair budget (%s); %s" % (asked, note, deepest))


# Every row of the battery, in report order, with its check
# (table, spaces, degree) -> None.  ``cohomology`` fills in the spaces that
# every row after it reads.  The checks look their functions up when they
# run, so a patched or traced module function is the one called.
BATTERY = {
    "d-squared": lambda table, spaces, n: resolution.check_d_squared(table, n),
    "augmented": lambda table, spaces, n: resolution.check_augmented(table),
    "minimal": lambda table, spaces, n: resolution.check_minimal(table, n),
    "homotopy": lambda table, spaces, n: resolution.check_homotopy(table, n - 1),
    "diagonal-chain-map": lambda table, spaces, n: diagonal.check_chain_map(table, n),
    "counit": lambda table, spaces, n: diagonal.check_counit(table, n),
    "decompositions": lambda table, spaces, n: diagonal.check_decomposition_lemmas(table, n),
    "partial-squared": lambda table, spaces, n: cochains.check_partial_squared(table, n),
    "differential-routes": lambda table, spaces, n: cochains.check_differential_routes_agree(table, n),
    "cohomology": lambda table, spaces, n: spaces.extend(cochains.hochschild_cohomology(table, n)),
    "cup-closure": lambda table, spaces, n: cup.check_cup_closure(table, spaces, n),
    "graded-commutativity": lambda table, spaces, n: _expect_empty(cup.verify_graded_commutativity(table, spaces, n)),
    "oracle-dims": _oracle_dims,
    "triangular-vanishing": lambda table, spaces, n: _expect_empty(cup.verify_triangular_vanishing(table, spaces, n)),
    "one-sided-vanishing": lambda table, spaces, n: _expect_empty(cup.check_one_sided_vanishing(table, spaces, n)),
}
_READ_SPACES = tuple(BATTERY)[tuple(BATTERY).index("cohomology") + 1 :]
RESOLUTION_ROWS = ("d-squared", "augmented", "minimal", "homotopy")
DIAGONAL_ROWS = ("diagonal-chain-map", "counit", "decompositions")
TRIANGULAR_ROWS = ("triangular-vanishing", "one-sided-vanishing")
# the battery of any algebra; a triangular one adds TRIANGULAR_ROWS
GENERAL_ROWS = tuple(name for name in BATTERY if name != "cohomology" and name not in TRIANGULAR_ROWS)


def run_checks(algebra, degree=6, rows=GENERAL_ROWS):
    """The named rows of the battery, in battery order; a list of CheckReport.

    ``degree`` bounds everything: resolution/diagonal identities run through
    homological degree ``degree``, cup checks through total degree ``degree``.
    The spaces are computed once, and only when a selected row reads them;
    the ``cohomology`` row shows only on failure, and then ends the list.
    A whole battery (``rows`` covers GENERAL_ROWS) skips the oracle above
    the dimension cap, reported ok with a note, and below it runs the oracle
    only as deep as its pair budget reaches, naming the degree when that
    is short of the one asked; a smaller selection runs it as asked, and
    raises BudgetExceeded before any row runs when that does not fit.
    """
    whole = set(GENERAL_ROWS) <= set(rows)
    if "oracle-dims" in rows and not whole:
        _oracle_fits(algebra, degree)
    table = AmbiguityTable(algebra)
    spaces = []
    reports = []
    for name, check in BATTERY.items():
        if name == "cohomology":
            if any(later in rows for later in _READ_SPACES):
                report = _run(name, check, table, spaces, degree)
                if not report.ok:
                    return reports + [report]
        elif name == "oracle-dims" and whole:
            reports.append(_oracle_within_budget(check, table, spaces, degree))
        elif name in rows:
            reports.append(_run(name, check, table, spaces, degree))
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
        "relations": [q.word(r, q.arrow_source[r[0]]) for r in algebra.relations],
        "dim": algebra.dim,
        "triangular": is_triangular(algebra),
    }


def run_random_suite(config, trials, base_seed, degree=6):
    """Seeded trials; each runs the full battery, failures get shrunk."""
    # the triangular rows follow the config, not the drawn quiver
    battery = GENERAL_ROWS + TRIANGULAR_ROWS if config.triangular else GENERAL_ROWS
    rows = []
    all_ok = True
    for i in range(trials):
        seed = base_seed + i
        algebra = random_algebra(config, seed)
        reports = run_checks(algebra, degree, battery)
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
                cand_reports = run_checks(candidate, degree, battery)
                return not all(r.ok for r in cand_reports)

            try:
                small = shrink_algebra(algebra, still_failing)
                row["shrunk"] = algebra_summary(small)
            except (AssertionError, MonomialHHError) as exc:
                row["shrunk_error"] = str(exc)
        rows.append(row)
    return {"trials": rows, "ok": all_ok}
