"""The resolution and the diagonal on basis indices, against the Path-keyed reference route.

Every element is mapped through ``helpers.basis_paths`` and compared term
for term with the same arithmetic on Path keys in ``reference_scans``.  The
ast guards at the end keep paths out of the library: it holds arrow words
and basis indices only.  One more keeps JSON writing in ``cli``, and one
checks each memo name a module reads against ``MEMOS``.
"""

import ast
import importlib
import pathlib

import pytest

from monomial_hh import checks
from monomial_hh.ambiguities import MEMOS, AmbiguityTable
from monomial_hh.cochains import hochschild_cohomology
from monomial_hh.diagonal import _decompositions, diagonal, tensor_differential
from monomial_hh.resolution import boundary, differential, homotopy_sigma, right_spanning_set

from conftest import make_cone
from helpers import Path, basis_paths, generator
from reference_scans import (
    path_d_terms,
    path_decompositions,
    path_diagonal,
    path_differential,
    path_generator,
    path_homotopy_sigma,
    path_tensor_differential,
    reduce_concat,
    scan_parallel,
    to_paths,
)
from test_battery_caches import record_tables
from test_incidence import tables

DEGREE = 5
SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "monomial_hh"


@pytest.mark.parametrize("spec", ["q", "fp:2", "fp:3"])
def test_resolution_matches_path_reference(spec):
    for t in tables(spec):
        basis = basis_paths(t.algebra)
        for n in range(0, DEGREE + 1):
            for amb in t.degree(n):
                faces = [(basis[pre], q, basis[post], sign) for (pre, q, post), sign in boundary(t, amb).terms.items()]
                assert faces == path_d_terms(t, amb)
                assert to_paths(t, differential(t, generator(t, amb))) == path_differential(t, path_generator(t, amb))
        for n in range(-1, DEGREE + 1):
            for x in right_spanning_set(t, n):
                sx = homotopy_sigma(t, x)
                assert to_paths(t, sx) == path_homotopy_sigma(t, to_paths(t, x))
                assert to_paths(t, differential(t, sx)) == path_differential(t, to_paths(t, sx))
                if n >= 0:
                    # d(x) has nontrivial outer slots, which sigma must multiply through
                    dx = differential(t, x)
                    assert to_paths(t, dx) == path_differential(t, to_paths(t, x))
                    assert to_paths(t, homotopy_sigma(t, dx)) == path_homotopy_sigma(t, to_paths(t, dx))


@pytest.mark.parametrize("spec", ["q", "fp:2", "fp:3"])
def test_diagonal_matches_path_reference(spec):
    for t in tables(spec):
        basis = basis_paths(t.algebra)
        for n in range(-1, DEGREE + 1):
            for amb in t.degree(n):
                for i in range(-1, n + 1):
                    for j in range(-1, n + 1):
                        got = [
                            (basis[pre], q1, basis[mid], q2, basis[post])
                            for pre, q1, mid, q2, post in _decompositions(t, amb, i, j)
                        ]
                        assert got == path_decompositions(t, amb, i, j)
                delta = diagonal(t, amb)
                reference = path_diagonal(t, amb)
                assert to_paths(t, delta) == reference
                if n >= 0:
                    assert to_paths(t, tensor_differential(t, delta)) == path_tensor_differential(t, reference)


def test_basis_index_matches_paths():
    for spec in ("q", "fp:2"):
        for t in tables(spec):
            alg = t.algebra
            basis = basis_paths(alg)
            assert [basis[v] for v in range(alg.quiver.n_vertices)] == [
                Path(alg.quiver, v, ()) for v in range(alg.quiver.n_vertices)
            ]
            assert [(p.arrows, p.source, p.target) for p in basis] == list(zip(alg.words, alg.source, alg.target))
            assert [basis[i] for i in range(alg.dim) if alg.find(alg.words[i], alg.source[i]) != i] == []
            assert alg.parallel == scan_parallel(alg)
            assert [alg.parallel[(alg.source[i], alg.target[i])].index(i) for i in range(alg.dim)] == list(alg.position)
            assert [[basis[i] for i in leaving] for leaving in alg.leaving] == [
                [b for b in basis if b.source == v] for v in range(alg.quiver.n_vertices)
            ]
            for i, x in enumerate(basis):
                for j, y in enumerate(basis):
                    if x.target != y.source:
                        with pytest.raises(KeyError):
                            alg.mul(i, j)
                    else:
                        product = alg.mul(i, j)
                        assert (None if product is None else basis[product]) == reduce_concat(alg, x, y)


def _calls(module):
    """Names of the functions and methods a module's source calls."""
    tree = ast.parse((SRC / (module + ".py")).read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            out.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None))
    return out


MODULES = sorted(p.stem for p in SRC.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_no_path_arithmetic(module):
    # words and products come from the algebra's basis index and Γ_n's own
    # arrow words, not from paths built or cut per term
    forbidden = {"reduce_concat", "segment", "concat", "vertex_at", "Path", "path_from_arrows", "trivial_path_at"}
    assert not forbidden & _calls(module)


@pytest.mark.parametrize("module", MODULES)
def test_no_path_class(module):
    # a path in the library is its arrow word and end vertices; the Path
    # class lives in the tests, as the key type of the reference route
    tree = ast.parse((SRC / (module + ".py")).read_text())
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and node.name == "Path"] == []


def test_json_is_written_by_cli_alone():
    # one writer: only cli imports json, and its one json.dumps call is the
    # writer's fallback for the values it does not lay out itself
    importers = []
    for module in MODULES:
        for node in ast.walk(ast.parse((SRC / (module + ".py")).read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "json" for name in names):
                importers.append(module)
    assert importers == ["cli"]
    tree = ast.parse((SRC / "cli.py").read_text())
    dumps = [
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("dump", "dumps")
    ]
    assert dumps == ["_json_text"]


def test_memo_names_have_builders():
    # a misspelt name would silently read an empty memo and rebuild on every
    # call, so each memo a module reads inline is named by a literal that
    # is a builder's key in MEMOS
    for module in MODULES:
        if module not in ("__init__", "__main__"):
            importlib.import_module("monomial_hh." + module)  # each builder enters MEMOS on import
    names = []
    for module in MODULES:
        for node in ast.walk(ast.parse((SRC / (module + ".py")).read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "memo":
                [arg] = node.args
                assert isinstance(arg, ast.Constant) and isinstance(arg.value, str), (module, node.lineno)
                names.append(arg.value)
    assert names
    assert set(names) <= set(MEMOS)


# calls whose result is an algebra
ALGEBRA_MAKERS = {
    "build_algebra",
    "MonomialAlgebra",
    "parse_algebra_file",
    "random_algebra",
    "shrink_algebra",
    "_load",
}


def _private_algebra_attributes(module):
    """(line, attribute) of each private attribute a module's source reads or writes on an algebra.

    An algebra is a name called ``algebra`` or ``alg``, a name bound by a
    call in ``ALGEBRA_MAKERS`` or by another algebra name, or an attribute
    called ``algebra``.
    """
    tree = ast.parse((SRC / (module + ".py")).read_text())
    names = {"algebra", "alg"}
    assigns = [node for node in ast.walk(tree) if isinstance(node, ast.Assign)]
    grown = True
    while grown:
        grown = False
        for node in assigns:
            value = node.value
            if isinstance(value, ast.Call):
                func = value.func
                bound = (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) in ALGEBRA_MAKERS
            else:
                bound = getattr(value, "id", None) in names
            new = {t.id for t in node.targets if isinstance(t, ast.Name)} - names if bound else set()
            if new:
                names |= new
                grown = True
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            owner = node.value
            if getattr(owner, "id", None) in names or getattr(owner, "attr", None) == "algebra":
                out.append((node.lineno, node.attr))
    return out


@pytest.mark.parametrize("module", [m for m in MODULES if m != "quivers"])
def test_no_private_algebra_attributes(module):
    # every layer reads the algebra's public words, relations and index
    assert _private_algebra_attributes(module) == []


def test_algebra_holds_words_only():
    cone = make_cone()
    assert all(r.ok for r in checks.run_checks(cone, 4))
    assert set(vars(cone)) == {
        "quiver",
        "field",
        "relations",
        "dim",
        "words",
        "source",
        "target",
        "word_index",
        "leaving",
        "parallel",
        "position",
        "_rows",
    }
    assert all(type(r) is tuple for r in cone.relations)


def _private_table_attributes(module):
    """(line, attribute) of each private attribute a module's source reads or writes on a table.

    A table is a name bound by ``AmbiguityTable(...)``, a ``table``
    parameter or variable, or an attribute called ``table``.
    """
    tree = ast.parse((SRC / (module + ".py")).read_text())
    names = {"table"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if getattr(node.value.func, "id", None) == "AmbiguityTable":
                names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            owner = node.value
            if getattr(owner, "id", None) in names or getattr(owner, "attr", None) == "table":
                out.append((node.lineno, node.attr))
    return out


@pytest.mark.parametrize("module", [m for m in MODULES if m != "ambiguities"])
def test_no_private_table_attributes(module):
    # each layer keeps its per-table state in a memo of the table's registry,
    # declared where it is built, not in a slot of its own on the table
    assert _private_table_attributes(module) == []


def test_table_holds_gamma_and_the_memo_registry(monkeypatch):
    made = record_tables(monkeypatch)
    assert all(r.ok for r in checks.run_checks(make_cone(), 4))
    assert set(vars(made[0])) == {"algebra", "_degrees", "_words", "_memos"}


def test_faces_are_cached_per_ambiguity(cone, monkeypatch):
    t = AmbiguityTable(cone)
    first = {amb: boundary(t, amb) for n in range(5) for amb in t.degree(n)}
    calls = []
    sub = AmbiguityTable.sub

    def counting(self, amb):
        calls.append(amb)
        return sub(self, amb)

    monkeypatch.setattr(AmbiguityTable, "sub", counting)
    assert all(boundary(t, amb) is faces for amb, faces in first.items())
    assert calls == []



def test_product_rows_are_filled_on_first_use():
    # the direct cochain route never multiplies, so hh fills no row; a
    # product fills the row of its left factor and no other
    cone = make_cone()
    t = AmbiguityTable(cone)
    hochschild_cohomology(t, 3)
    assert cone._rows == [None] * cone.dim
    i = cone.word_index[cone.quiver.path("alpha")]
    cone.mul(i, cone.target[i])
    assert [k for k, row in enumerate(cone._rows) if row is not None] == [i]
