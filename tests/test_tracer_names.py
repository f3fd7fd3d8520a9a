"""The package names that the benchmark's tracer looks up must still exist.

``perfbench/tracer.py`` wraps listed class methods by name and reads the
degree of some calls from their second positional argument, so a rename
in the package would break a traced benchmark run rather than a test.
"""

import importlib.util
import pathlib

from monomial_hh import bar_oracle, cochains
from monomial_hh.ambiguities import AmbiguityTable

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
