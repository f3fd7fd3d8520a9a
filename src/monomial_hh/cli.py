"""Command line front end.

Every subcommand that reads an algebra takes the .alg file as its first
positional argument.  Output is an aligned text table by default and JSON
with ``--json``, the bytes ``json.dumps(doc, indent=2, sort_keys=True)``
gives; both are byte-deterministic for a fixed input (and seed).
Exit codes: 0 success, 1 a verification failed, 2 bad input, 3 an internal
error (a bug, reported as one line on stderr), 141 stdout closed by its
reader (as after ``| head``; nothing on stderr).
"""

import argparse
import json
import os
import sys

from . import __version__
from .algfile import parse_algebra_file, write_algebra_file
from .ambiguities import AmbiguityTable
from .checks import DIAGONAL_ROWS, GENERAL_ROWS, RESOLUTION_ROWS, TRIANGULAR_ROWS, run_checks, run_random_suite
from .cochains import _offsets, display_vector, hochschild_cohomology
from .cup import cup_table
from .errors import BadInput, MonomialHHError, NotTriangular, ParseError
from .fields import parse_field_spec
from .quivers import build_algebra, is_triangular
from .randomgen import RandomAlgebraConfig

SCHEMA = "monomial-hh/1"


def _bound(text):
    """argparse type of degree bounds and trial counts: an int >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError("expected an integer >= 0, got %r" % text)
    return int(text)


_encode_str = json.encoder.encode_basestring_ascii  # the C encoder json.dumps uses for ensure_ascii


def _json_text(value, indent="\n"):
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, its
    lines after the first indented by ``indent[1:]``.

    With any ``indent`` the stdlib encodes in pure Python and keeps one
    string per token; this writer lays out dicts with str keys, lists,
    tuples, strs, ints and the three literals itself, joining each container
    once, and hands any other subtree (floats, non-str keys, subclasses) to
    ``json.dumps``, re-indented to its depth.
    """
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return int.__repr__(value)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = indent + "  "
        items = [_encode_str(v) if type(v) is str else _json_text(v, inner) for v in value]
        return f"[{inner}{(',' + inner).join(items)}{indent}]"
    if kind is dict:
        if not value:
            return "{}"
        if all(type(k) is str for k in value):
            inner = indent + "  "
            items = [
                f"{_encode_str(k)}: {_encode_str(v) if type(v) is str else _json_text(v, inner)}"
                for k, v in sorted(value.items())
            ]
            return f"{{{inner}{(',' + inner).join(items)}{indent}}}"
    elif value is None:
        return "null"
    elif value is True:
        return "true"
    elif value is False:
        return "false"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", indent)


def _write_json(write, value, indent, levels):
    """Write ``_json_text(value, indent)``, a container in the top ``levels``
    item by item and every deeper one joined once."""
    kind = type(value)
    if levels and value and (kind is list or kind is tuple or kind is dict and all(type(k) is str for k in value)):
        inner = indent + "  "
        if kind is dict:
            head, tail, items = "{", "}", [(f"{_encode_str(k)}: ", v) for k, v in sorted(value.items())]
        else:
            head, tail, items = "[", "]", [("", v) for v in value]
        for prefix, item in items:
            write(f"{head}{inner}{prefix}")
            _write_json(write, item, inner, levels - 1)
            head = ","
        write(indent + tail)
    else:
        write(_json_text(value, indent))


def _emit_json(payload):
    """Print ``json.dumps(payload, indent=2, sort_keys=True)``.

    The document and its values are written item by item: a document joined
    whole is held twice, as its items and as one string, and on a 0.5 MB
    ``hh`` document that raised the peak RSS by 0.5 MB.
    """
    _write_json(sys.stdout.write, payload, "\n", 2)
    sys.stdout.write("\n")


def _table(headers, rows):
    widths = [len(h) for h in headers]
    srows = [[str(c) for c in row] for row in rows]
    for row in srows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join("%%-%ds" % w for w in widths)
    print(fmt % tuple(headers))
    print(fmt % tuple("-" * w for w in widths))
    for row in srows:
        print(fmt % tuple(row))


def _field(spec):
    try:
        return parse_field_spec(spec)
    except ValueError as exc:
        raise BadInput(str(exc)) from None


def _load(path, field_spec=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise BadInput("cannot read %s: %s" % (path, exc)) from None
    algebra = parse_algebra_file(text)
    if field_spec is not None:
        algebra = build_algebra(algebra.quiver, algebra.relations, _field(field_spec))
    return algebra


def cmd_basis(args):
    algebra = _load(args.file)
    q = algebra.quiver
    rows = [
        {"word": q.word(w, s), "source": q.vertex_names[s], "target": q.vertex_names[t], "length": len(w)}
        for w, s, t in zip(algebra.words, algebra.source, algebra.target)
    ]
    if args.json:
        _emit_json({"schema": SCHEMA, "command": "basis", "dim": algebra.dim, "basis": rows})
    else:
        print("dim %d" % algebra.dim)
        _table(
            ["word", "source", "target", "length"],
            [[r["word"], r["source"], r["target"], r["length"]] for r in rows],
        )
    return 0


def _pieces(quiver, pieces):
    """Nonempty pieces in written order, joined by ``|``, e.g. ``alpha|deltagamma|betaalpha``."""
    return "|".join(quiver.word(p, quiver.arrow_source[p[0]]) for p in reversed(pieces))


def cmd_ambiguities(args):
    algebra = _load(args.file)
    table = AmbiguityTable(algebra)
    ambs = table.degree(args.degree)
    q = algebra.quiver
    rows = [
        {"word": q.word(a.arrows, a.source), "left": _pieces(q, a.left_pieces), "right": _pieces(q, a.right_pieces)}
        for a in ambs
    ]
    if args.json:
        _emit_json(
            {
                "schema": SCHEMA,
                "command": "ambiguities",
                "degree": args.degree,
                "count": len(rows),
                "ambiguities": rows,
            }
        )
    else:
        print("degree %d: %d ambiguities" % (args.degree, len(rows)))
        _table(["word", "left", "right"], [[r["word"], r["left"], r["right"]] for r in rows])
    return 0


def _report_command(args, reports, command):
    ok = all(r.ok for r in reports)
    if args.json:
        _emit_json(
            {
                "schema": SCHEMA,
                "command": command,
                "ok": ok,
                "checks": [r.as_dict() for r in reports],
            }
        )
    else:
        _table(
            ["check", "ok", "detail"],
            [[r.name, "yes" if r.ok else "NO", r.detail] for r in reports],
        )
    return 0 if ok else 1


def cmd_resolution_check(args):
    reports = run_checks(_load(args.file), args.max_degree, RESOLUTION_ROWS)
    return _report_command(args, reports, "resolution-check")


def cmd_diagonal_check(args):
    reports = run_checks(_load(args.file), args.max_degree, DIAGONAL_ROWS)
    return _report_command(args, reports, "diagonal-check")


def cmd_hh(args):
    algebra = _load(args.file, args.field)
    table = AmbiguityTable(algebra)
    spaces = hochschild_cohomology(table, args.max_degree)
    rows = []
    words = {}
    for n in range(args.max_degree + 1):
        sp = spaces[n]
        reps = [display_vector(table, n, rep, words) for rep in sp.representatives]
        rows.append(
            {
                "degree": n,
                "dim": sp.dimension,
                "cochain_pairs": _offsets(table, n)[1],
                "representatives": reps,
            }
        )
    if args.json:
        _emit_json(
            {
                "schema": SCHEMA,
                "command": "hh",
                "field": algebra.field.name,
                "dims": [r["dim"] for r in rows],
                "spaces": rows,
            }
        )
    else:
        print("field %s" % algebra.field.name)
        print("dims %s" % " ".join(str(r["dim"]) for r in rows))
        _table(
            ["degree", "dim", "pairs"],
            [[r["degree"], r["dim"], r["cochain_pairs"]] for r in rows],
        )
    return 0


def _scalar_map(cls):
    return {str(k): str(v) for k, v in cls.items()}


def cmd_cup(args):
    algebra = _load(args.file)
    table = AmbiguityTable(algebra)
    top = args.max_total_degree
    spaces = hochschild_cohomology(table, top)
    blocks = []
    for i in range(top + 1):
        for j in range(top + 1 - i):
            if spaces[i].dimension == 0 or spaces[j].dimension == 0:
                continue
            mat = cup_table(table, spaces, i, j)
            blocks.append(
                {
                    "i": i,
                    "j": j,
                    "table": [[_scalar_map(cls) for cls in row] for row in mat],
                }
            )
    if args.json:
        _emit_json({"schema": SCHEMA, "command": "cup", "blocks": blocks})
    else:
        for blk in blocks:
            print("HH^%d x HH^%d -> HH^%d" % (blk["i"], blk["j"], blk["i"] + blk["j"]))
            rows = []
            for a, row in enumerate(blk["table"]):
                for b, cls in enumerate(row):
                    val = (
                        " + ".join("%s z%s" % (c, k) for k, c in sorted(cls.items()))
                        if cls
                        else "0"
                    )
                    rows.append(["x%d . y%d" % (a, b), val])
            _table(["product", "class"], rows)
    return 0


def cmd_verify(args):
    algebra = _load(args.file)
    if args.all:
        rows = GENERAL_ROWS + TRIANGULAR_ROWS if is_triangular(algebra) else GENERAL_ROWS
    elif not args.rows:
        print("nothing selected; pass --all or a specific check", file=sys.stderr)
        return 2
    elif "triangular-vanishing" in args.rows and not is_triangular(algebra):
        # an input mistake, not a failed verification
        raise NotTriangular("vanishing theorem needs an acyclic quiver")
    else:
        rows = args.rows  # unlike the whole battery, an explicit --oracle runs above ORACLE_DIM_CAP
    return _report_command(args, run_checks(algebra, args.max_degree, rows), "verify")


def cmd_random(args):
    config = RandomAlgebraConfig(triangular=args.triangular, field=_field(args.field))
    out = run_random_suite(config, args.trials, args.seed, degree=args.max_degree)
    if args.json:
        _emit_json(
            {
                "schema": SCHEMA,
                "command": "random",
                "field": config.field.name,
                "ok": out["ok"],
                "seed": args.seed,
                "trials": out["trials"],
            }
        )
    else:
        rows = []
        for row in out["trials"]:
            bad = [c["name"] for c in row["checks"] if not c["ok"]]
            rows.append(
                [
                    row["trial"],
                    row["seed"],
                    row["algebra"]["dim"],
                    len(row["algebra"]["relations"]),
                    "ok" if row["ok"] else "FAIL: " + ",".join(bad),
                ]
            )
        _table(["trial", "seed", "dim", "relations", "result"], rows)
        for row in out["trials"]:
            if not row["ok"] and "shrunk" in row:
                print("shrunk counterexample for trial %d:" % row["trial"])
                _emit_json(row["shrunk"])
    return 0 if out["ok"] else 1


def cmd_write(args):
    algebra = _load(args.file)
    sys.stdout.write(write_algebra_file(algebra))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="monomial-hh",
        description="Hochschild cohomology of finite-dimensional monomial path algebras.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="list the relation-free paths")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("ambiguities", help="list the degree-n ambiguities")
    p.add_argument("file")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("resolution-check", help="d^2, augmentation, homotopy")
    p.add_argument("file")
    p.add_argument("--max-degree", type=_bound, default=5)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("diagonal-check", help="chain map, counit, decompositions")
    p.add_argument("file")
    p.add_argument("--max-degree", type=_bound, default=5)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("hh", help="Hochschild cohomology dimensions and representatives")
    p.add_argument("file")
    p.add_argument("--max-degree", type=_bound, required=True)
    p.add_argument("--field", help="override the file's field: q or fp:<prime>")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("cup", help="class-level cup product tables")
    p.add_argument("file")
    p.add_argument("--max-total-degree", type=_bound, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="run verification suites on one algebra")
    p.add_argument("file")
    p.add_argument("--all", action="store_true")
    # each flag selects its battery row; --all ignores them
    p.add_argument("--triangular-vanishing", dest="rows", action="append_const", const="triangular-vanishing")
    p.add_argument("--graded-commutativity", dest="rows", action="append_const", const="graded-commutativity")
    p.add_argument("--oracle", dest="rows", action="append_const", const="oracle-dims")
    p.add_argument("--max-degree", type=_bound, default=5)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("random", help="seeded random suite with shrinking")
    p.add_argument("--triangular", action="store_true")
    p.add_argument("--field", default="q", help="field of the random algebras: q or fp:<prime>")
    p.add_argument("--trials", type=_bound, default=25)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--max-degree", type=_bound, default=4)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("write", help="parse a file and print its canonical form")
    p.add_argument("file")

    return parser


_parser = None  # built by the first call of main and kept: it costs more than a small command


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    # looked up when it runs, so a patched or traced command is the one called
    run = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        code = run(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the interpreter's exit
        return code
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes nowhere, so the
        # interpreter's flush at exit cannot raise again; 128 + SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ParseError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except MonomialHHError as exc:
        print("error: %s: %s" % (exc.__class__.__name__, exc), file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not bad input: keep it apart from exits 1 and 2
        print("internal error: %s: %s" % (exc.__class__.__name__, exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
