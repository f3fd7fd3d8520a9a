"""Layer spans and counters, installed from outside the package at run time.

Each module of ``monomial_hh`` is a layer, except ``quivers`` and ``fields``,
whose hot leaf helpers are left unwrapped: their time counts as self time of
the layer that calls them.  ``instrument`` wraps every public function of a
layer module, every private one that another module re-binds with
``from .x import y`` (for example ``resolution._d_terms``), and the listed
class methods, and it replaces each re-bound name too.

A span opens only where control crosses from one layer into another; a call
inside the same layer only updates the counters.  Spans are kept in flat
arrays (name, start, end, parent, op) and written out when the run ends.
A layer's self time is the sum over its spans of duration minus the
durations of their child spans.
"""

import gzip
import importlib
import inspect
from array import array
from time import perf_counter

LAYERS = (
    "ambiguities",
    "cochains",
    "linalg",
    "cup",
    "diagonal",
    "resolution",
    "bar_oracle",
    "checks",
    "randomgen",
    "cli",
    "algfile",
)

# Hot per-lookup accessors (called once per (pair, ambiguity) candidate) stay
# unwrapped; Γ_n generation is wrapped at ``_extend``, where it happens.
METHODS = {
    "ambiguities": {"AmbiguityTable": ("__init__", "_extend", "sub", "split")},
    "cochains": {"CohomologySpace": ("rep_cochains",)},
    "linalg": {"RowBasis": ("insert", "contains", "express", "reduce_mod")},
}

COUNTERS = (
    "ambiguities.gamma_total",
    "cochains.pairs_total",
    "cochains.nnz_total",
    "cochains.hh_dim_total",
    "linalg.inserts",
    "linalg.pivots",
    "linalg.rank_total",
    "cup.products",
    "cup.nonzero_products",
    "diagonal.calls",
    "diagonal.distinct_ambs",
    "bar_oracle.pairs_total",
)


class Tracer:
    """Span store plus per-op exact counts; one per worker process."""

    def __init__(self):
        self.names = []  # span name id -> "layer:qualname"
        self.layer_of = []  # span name id -> layer index
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.stack = [(-1, -1)]  # (span id, layer index) of the open spans
        self.op = -1
        self.totals = dict.fromkeys(COUNTERS, 0)
        self.detail = {}  # exact per-degree counts of the current op
        self._diag_seen = {}  # table -> ambiguities whose diagonal was taken

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op_id):
        self.op = op_id
        self.detail = {}
        self._diag_seen = {}

    def end_op(self):
        """Close the current op; returns its exact counts."""
        self.totals["diagonal.distinct_ambs"] += sum(len(s) for s in self._diag_seen.values())
        self._diag_seen = {}
        detail, self.detail = self.detail, {}
        return detail

    def _bump_detail(self, key, degree, amount):
        row = self.detail.setdefault(key, {})
        row[str(degree)] = row.get(str(degree), 0) + amount

    # -- wrapping -----------------------------------------------------------

    def wrap(self, layer, qualname, fn, hook=None):
        name_id = len(self.names)
        self.names.append("%s:%s" % (layer, qualname))
        layer_id = LAYERS.index(layer)
        self.layer_of.append(layer_id)
        stack = self.stack
        s_name, s_parent, s_op = self.s_name, self.s_parent, self.s_op
        s_start, s_end = self.s_start, self.s_end
        tracer = self

        def wrapper(*args, **kwargs):
            if stack[-1][1] == layer_id:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, result)
                return result
            sid = len(s_name)
            s_name.append(name_id)
            s_parent.append(stack[-1][0])
            s_op.append(tracer.op)
            s_end.append(0.0)
            stack.append((sid, layer_id))
            s_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                s_end[sid] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def self_times(self):
        """(calls, self seconds) per layer, and the summed root-span time per op."""
        n = len(self.s_name)
        child = [0.0] * n
        root_by_op = {}
        for sid in range(n):
            dur = self.s_end[sid] - self.s_start[sid]
            parent = self.s_parent[sid]
            if parent >= 0:
                child[parent] += dur
            else:
                op = self.s_op[sid]
                root_by_op[op] = root_by_op.get(op, 0.0) + dur
        calls = [0] * len(LAYERS)
        self_s = [0.0] * len(LAYERS)
        for sid in range(n):
            layer = self.layer_of[self.s_name[sid]]
            calls[layer] += 1
            self_s[layer] += self.s_end[sid] - self.s_start[sid] - child[sid]
        return calls, self_s, root_by_op

    def write_spans(self, path):
        """One span per line: id, parent, op, name, start, end (perf_counter seconds)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\top\tname\tstart\tend\n")
            for sid in range(len(self.s_name)):
                fh.write(
                    "%d\t%d\t%d\t%s\t%.9f\t%.9f\n"
                    % (
                        sid,
                        self.s_parent[sid],
                        self.s_op[sid],
                        self.names[self.s_name[sid]],
                        self.s_start[sid],
                        self.s_end[sid],
                    )
                )


# -- counting hooks: run on every wrapped call, boundary or not ---------------


def _on_table_init(tr, args, _result):
    table = args[0]
    for n, ambs in enumerate(table._degrees):
        tr.totals["ambiguities.gamma_total"] += len(ambs)
        tr._bump_detail("gamma", n - 1, len(ambs))


def _on_extend(tr, args, _result):
    table = args[0]
    n = len(table._degrees) - 2
    size = len(table._degrees[-1])
    tr.totals["ambiguities.gamma_total"] += size
    tr._bump_detail("gamma", n, size)


def _on_differential_matrix(tr, args, mat):
    m = args[1]
    nnz = sum(len(col) for col in mat.cols)
    tr.totals["cochains.pairs_total"] += mat.ncols
    tr.totals["cochains.nnz_total"] += nnz
    tr._bump_detail("pairs", m, mat.ncols)
    tr._bump_detail("nnz", m, nnz)


def _on_hochschild_cohomology(tr, _args, spaces):
    for sp in spaces:
        tr.totals["cochains.hh_dim_total"] += sp.dimension
        tr._bump_detail("dims", sp.degree, sp.dimension)


def _on_insert(tr, _args, result):
    tr.totals["linalg.inserts"] += 1
    if result[0]:
        tr.totals["linalg.pivots"] += 1


def _on_kernel_basis(tr, args, kernel):
    rank = args[1].ncols - len(kernel)
    tr.totals["linalg.rank_total"] += rank
    tr.detail.setdefault("ranks", []).append(rank)


def _on_rank(tr, _args, rank):
    tr.totals["linalg.rank_total"] += rank
    tr.detail.setdefault("ranks", []).append(rank)


def _on_cup_cochain(tr, _args, result):
    tr.totals["cup.products"] += 1
    tr.detail["cup_products"] = tr.detail.get("cup_products", 0) + 1
    if not result.is_zero():
        tr.totals["cup.nonzero_products"] += 1


def _on_diagonal(tr, args, _result):
    table, amb = args[0], args[1]
    tr.totals["diagonal.calls"] += 1
    tr._diag_seen.setdefault(table, set()).add(amb)


def _on_bar_pairs(tr, args, pairs):
    tr.totals["bar_oracle.pairs_total"] += len(pairs)
    tr._bump_detail("bar_pairs", args[1], len(pairs))


HOOKS = {
    ("ambiguities", "AmbiguityTable.__init__"): _on_table_init,
    ("ambiguities", "AmbiguityTable._extend"): _on_extend,
    ("cochains", "differential_matrix"): _on_differential_matrix,
    ("cochains", "hochschild_cohomology"): _on_hochschild_cohomology,
    ("linalg", "RowBasis.insert"): _on_insert,
    ("linalg", "kernel_basis"): _on_kernel_basis,
    ("linalg", "rank"): _on_rank,
    ("cup", "cup_cochain"): _on_cup_cochain,
    ("diagonal", "diagonal"): _on_diagonal,
    ("bar_oracle", "bar_pairs"): _on_bar_pairs,
}


def instrument(tracer):
    """Wrappers for every layer boundary of the imported package.

    Returns the patches as (owner, attribute, original, wrapper); ``apply``
    switches them on and off, so one op can run untraced and then traced.
    """
    modules = {layer: importlib.import_module("monomial_hh." + layer) for layer in LAYERS}
    package = [importlib.import_module("monomial_hh." + m) for m in ("quivers", "fields")]
    every = list(modules.values()) + package

    def rebound_elsewhere(fn, home):
        return any(m is not home and any(v is fn for v in vars(m).values()) for m in every)

    wrapper_of = {}  # id(original function) -> (original, wrapper)
    patches = []
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if name.startswith("_") and not rebound_elsewhere(obj, mod):
                continue
            wrapper_of[id(obj)] = (obj, tracer.wrap(layer, name, obj, HOOKS.get((layer, name))))
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                qual = "%s.%s" % (cls_name, meth)
                original = vars(cls)[meth]
                patches.append((cls, meth, original, tracer.wrap(layer, qual, original, HOOKS.get((layer, qual)))))
    for mod in every:  # the defining module and every module that re-binds the name
        for name, obj in list(vars(mod).items()):
            hit = wrapper_of.get(id(obj))
            if hit is not None and hit[0] is obj:
                patches.append((mod, name, obj, hit[1]))
    return patches


def apply(patches, traced):
    for owner, name, original, wrapper in patches:
        setattr(owner, name, wrapper if traced else original)
