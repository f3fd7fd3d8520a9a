"""What the package imports, and the plain classes that keep that small.

Every command imports the whole package first, and for the fixtures that
import is most of the run.  ``dataclasses`` alone pulls in ``inspect`` and,
through it, ``ast``, ``dis`` and ``tokenize``, so the package defines its
few value classes by hand.  The guards below fail if either module comes
back, and the rest pins what each hand-written class keeps.
"""

import ast
import pathlib
import subprocess
import sys

import pytest

from monomial_hh import cup
from monomial_hh.ambiguities import AmbiguityTable
from monomial_hh.checks import CheckReport
from monomial_hh.cochains import class_vector, coboundary_basis, hochschild_cohomology
from monomial_hh.fields import QQ
from monomial_hh.linalg import SparseMatrix
from monomial_hh.randomgen import RandomAlgebraConfig

from helpers import named_algebra

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "monomial_hh"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))
HEAVY = ("dataclasses", "inspect")


@pytest.mark.parametrize("module", MODULES)
def test_no_heavy_imports(module):
    imported = []
    for node in ast.walk(ast.parse((PACKAGE / (module + ".py")).read_text())):
        if isinstance(node, ast.Import):
            imported += [(a.name, node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append((node.module, node.lineno))
    assert [(name, line) for name, line in imported if name.split(".")[0] in HEAVY] == []


def test_import_leaves_heavy_modules_out():
    # -S: no site hooks, which could import either module on their own; -B: no bytecode written
    code = (
        "import sys; sys.path.insert(0, %r)\n"
        "import monomial_hh.cli, monomial_hh.checks\n"
        "print(sorted(m for m in %r if m in sys.modules))" % (str(PACKAGE.parent), HEAVY)
    )
    out = subprocess.run([sys.executable, "-S", "-B", "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_sparse_matrix_is_a_checked_value():
    m = SparseMatrix(2, 2, ({0: 1}, {1: -1}))
    assert m == SparseMatrix(2, 2, ({0: 1}, {1: -1}))
    assert m != SparseMatrix(2, 2, ({0: 1}, {1: 1}))
    with pytest.raises(AttributeError):
        m.cols = ()
    with pytest.raises(AttributeError):
        m.extra = 1
    with pytest.raises(AssertionError, match=r"^column 1 has row 2, not in range\(nrows=2\)$"):
        SparseMatrix(2, 3, ({0: 1}, {1: 1, 2: 1}, {}))
    with pytest.raises(AssertionError, match=r"^column 0 has row -1, not in range\(nrows=2\)$"):
        SparseMatrix(2, 1, ({-1: 1},))
    with pytest.raises(AssertionError, match=r"^ncols 3, but 2 columns$"):
        SparseMatrix(2, 3, ({}, {}))


def test_random_config_is_a_value():
    default = RandomAlgebraConfig()
    assert default == RandomAlgebraConfig(triangular=False, field=QQ)
    assert hash(default) == hash(RandomAlgebraConfig(triangular=False, field=QQ))
    assert default != RandomAlgebraConfig(triangular=True)
    assert (default.triangular, default.field) == (False, QQ)
    with pytest.raises(AttributeError):
        default.triangular = True


def test_spaces_share_no_cache():
    # each space makes its own reader on its first class read, and the
    # cocycle products live in the table's memo, keyed by the two spaces
    table = AmbiguityTable(named_algebra("cone"))
    spaces = hochschild_cohomology(table, 3)
    again = hochschild_cohomology(table, 3)
    # a space holds its tuples and one reader, and no second copy of either
    assert type(spaces[0]).__slots__ == ("degree", "cocycles", "coboundaries", "representatives", "_reader")
    for space in spaces:
        assert space._reader is None
        for rep in space.representatives:
            vec = {rep: 1} if type(rep) is int else rep
            class_vector(space, table, vec)
        coboundary_basis(space, table.algebra.field)
    cup._cocycle_products(table, spaces[1], spaces[1])
    assert list(table.memo("cup._cocycle_products")) == [(spaces[1], spaces[1])]
    parts = [s._reader[0] for s in spaces] + [s._reader[1] for s in spaces]
    assert len({id(part) for part in parts}) == len(parts)
    assert all(s._reader is None for s in again)


def test_check_report_keeps_its_dict():
    report = CheckReport("oracle-dims", True)
    assert report.as_dict() == {"name": "oracle-dims", "ok": True, "detail": ""}
    report.detail = "checked through degree 3: budget"
    assert report.as_dict() == {"name": "oracle-dims", "ok": True, "detail": "checked through degree 3: budget"}
    assert CheckReport("bad", False, "boom").as_dict() == {"name": "bad", "ok": False, "detail": "boom"}
    assert repr(CheckReport("bad", False, "boom")) == "CheckReport(name='bad', ok=False, detail='boom')"
