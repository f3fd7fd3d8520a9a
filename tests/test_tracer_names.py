"""The package names that the benchmark's tracer looks up must still exist.

``perfbench/tracer.py`` wraps listed class methods by name and reads the
degree of some calls from their second positional argument, so a rename
in the package would break a traced benchmark run rather than a test.
"""

import importlib.util
import pathlib

from monomial_hh import bar_oracle, cochains, cup, linalg
from monomial_hh.ambiguities import AmbiguityTable
from monomial_hh.linalg import RowBasis

from conftest import make_cone

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_finds_every_name():
    tracer = load_tracer()
    patches = tracer.instrument(tracer.Tracer())  # reads every name, patches nothing yet
    wrapped = {(owner.__name__, name) for owner, name, _, _ in patches}
    for layer, classes in tracer.METHODS.items():
        for cls_name, methods in classes.items():
            assert {(cls_name, m) for m in methods} <= wrapped, layer


def test_degree_is_the_second_argument():
    # the differential-matrix and bar-pair hooks read the degree from args[1]
    tracer = load_tracer()
    tr = tracer.Tracer()
    patches = tracer.instrument(tr)
    alg = make_cone()
    t = AmbiguityTable(alg)
    tracer.apply(patches, True)
    try:
        tr.begin_op(0)
        mat = cochains.differential_matrix(t, 2)
        pairs = bar_oracle.bar_pairs(alg, 1)
        detail = tr.end_op()
    finally:
        tracer.apply(patches, False)
    assert detail["pairs"] == {"2": mat.ncols}
    assert detail["bar_pairs"] == {"1": len(pairs)}


def test_cup_table_enters_the_diagonal_layer():
    # the cup constants are read off Δ, so instrument must re-bind cup.diagonal
    tracer = load_tracer()
    tr = tracer.Tracer()
    patches = tracer.instrument(tr)
    t = AmbiguityTable(make_cone())
    spaces = cochains.hochschild_cohomology(t, 3)
    tracer.apply(patches, True)
    try:
        tr.begin_op(0)
        cup.cup_table(t, spaces, 1, 2)
        tr.end_op()
    finally:
        tracer.apply(patches, False)
    calls, _, _ = tr.self_times()
    assert calls[tracer.LAYERS.index("diagonal")] > 0
    assert tr.totals["diagonal.calls"] > 0


def test_gamma_counts_read_the_degrees():
    # _on_table_init and _on_extend count Γ_n off AmbiguityTable._degrees
    tracer = load_tracer()
    tr = tracer.Tracer()
    patches = tracer.instrument(tr)
    tracer.apply(patches, True)
    try:
        tr.begin_op(0)
        t = AmbiguityTable(make_cone())
        t.degree(5)
        detail = tr.end_op()
    finally:
        tracer.apply(patches, False)
    assert detail["gamma"] == {str(n): len(t.degree(n)) for n in range(-1, 6)}


def test_cohomology_counts_every_degree():
    # hochschild_cohomology must reach the counters through differential_matrix
    # and kernel_basis, and enter linalg once per degree for each of the
    # kernel and the quotient, not once per vector
    tracer = load_tracer()
    tr = tracer.Tracer()
    patches = tracer.instrument(tr)
    t = AmbiguityTable(make_cone())
    top = 6
    tracer.apply(patches, True)
    try:
        tr.begin_op(0)
        spaces = cochains.hochschild_cohomology(t, top)
        detail = tr.end_op()
    finally:
        tracer.apply(patches, False)
    mats = [cochains.differential_matrix(t, m) for m in range(top + 1)]
    degrees = [str(m) for m in range(top + 1)]
    assert detail["pairs"] == {d: mat.ncols for d, mat in zip(degrees, mats)}
    assert detail["nnz"] == {d: sum(map(len, mat.cols)) for d, mat in zip(degrees, mats)}
    assert detail["ranks"] == [mat.ncols - len(sp.cocycles) for mat, sp in zip(mats, spaces)]
    assert detail["dims"] == {d: sp.dimension for d, sp in zip(degrees, spaces)}
    calls, _, _ = tr.self_times()
    assert calls[tracer.LAYERS.index("linalg")] == 2 * (top + 1)
    # the kernel pass inserts the nonzero columns, and its pivots are the
    # ranks; at a degree's first dependent nonzero column it starts a
    # tracked basis, inserting again the nonzero columns before it (each a
    # pivot) and then that column.  The quotient reduces the kernel vectors
    # that meet a pivot with no RowBasis.insert, so it adds to neither count
    inserts, prefix = 0, 0
    for mat in mats:
        nonzero = [col for col in mat.cols if col]
        inserts += len(nonzero)
        basis = RowBasis(t.algebra.field)
        first = next((k for k, col in enumerate(nonzero) if not basis.insert(col)[0]), None)
        if first is not None:
            inserts += first + 1
            prefix += first
    assert tr.totals["linalg.inserts"] == inserts == 18
    assert tr.totals["linalg.pivots"] == sum(detail["ranks"]) + prefix == 12


def test_bar_oracle_counts_every_degree():
    # bar_hh_dimensions calls bar_pairs once per degree and reads each rank
    # through linalg.rank, one linalg span per degree; rank runs its own
    # count-only loop, so no oracle column is a RowBasis insert
    tracer = load_tracer()
    tr = tracer.Tracer()
    patches = tracer.instrument(tr)
    alg = make_cone()
    top = 3
    tracer.apply(patches, True)
    try:
        tr.begin_op(0)
        dims = bar_oracle.bar_hh_dimensions(alg, top)
        detail = tr.end_op()
    finally:
        tracer.apply(patches, False)
    pairs = [bar_oracle.bar_pairs(alg, n) for n in range(top + 2)]
    mats = [bar_oracle.bar_differential_matrix(alg, pairs[n], pairs[n + 1]) for n in range(top + 1)]
    ranks = [linalg.rank(alg.field, mat) for mat in mats]
    assert detail["bar_pairs"] == {str(n): len(p) for n, p in enumerate(pairs)}
    assert detail["ranks"] == ranks
    assert dims == [len(pairs[n]) - ranks[n] - (ranks[n - 1] if n else 0) for n in range(top + 1)]
    calls, _, _ = tr.self_times()
    assert calls[tracer.LAYERS.index("linalg")] == top + 1
    assert tr.totals["linalg.inserts"] == tr.totals["linalg.pivots"] == 0
    assert tr.totals["linalg.rank_total"] == sum(ranks)
