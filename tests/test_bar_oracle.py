import ast
import pathlib
import random

import pytest

from monomial_hh import bar_oracle, cochains
from monomial_hh.ambiguities import AmbiguityTable
from monomial_hh.bar_oracle import (
    bar_differential_matrix,
    bar_hh_dimensions,
    bar_pairs,
    bar_sizes,
    degree_within_budget,
)
from monomial_hh.cochains import hochschild_cohomology
from monomial_hh.errors import BudgetExceeded
from monomial_hh.fields import parse_field_spec
from monomial_hh.linalg import RowBasis, SparseMatrix, kernel_basis, rank
from monomial_hh.randomgen import RandomAlgebraConfig, random_algebra

from helpers import FIXTURE_ALGEBRAS, bar_pair_list, basis_paths, named_algebra
from reference_scans import scan_bar_differential_matrix, scan_bar_pairs
from test_incidence import tables
from test_index_keys import _calls


def bar_matrices(algebra, top):
    """The bar differentials of degrees 0..top, as ``bar_hh_dimensions`` builds them."""
    pairs = [bar_pairs(algebra, n) for n in range(top + 2)]
    return [bar_differential_matrix(algebra, pairs[n], pairs[n + 1]) for n in range(top + 1)]


def check_bar_delta_squared(algebra, max_degree):
    """delta o delta = 0 as integer matrices, over Z and so over every field."""
    mats = bar_matrices(algebra, max_degree)
    for n in range(max_degree):
        lo, hi = mats[n], mats[n + 1]
        for j in range(lo.ncols):
            acc = {}
            for r, c in lo.cols[j].items():
                for i, c2 in hi.cols[r].items():
                    acc[i] = acc.get(i, 0) + c2 * c
            assert not any(acc.values()), "delta^2 != 0 at degree %d column %d" % (n, j)


def test_point_dims(point):
    assert bar_hh_dimensions(point, 5) == [1, 0, 0, 0, 0, 0]


def test_a2_dims(a2):
    assert bar_hh_dimensions(a2, 4) == [1, 0, 0, 0, 0]


def test_cone_dims(cone):
    assert bar_hh_dimensions(cone, 4) == [3, 3, 2, 2, 3]


def as_paths(algebra, bar_basis):
    """A degree's bar pairs as (tuple of basis paths, basis path), in row order."""
    basis = basis_paths(algebra)
    return [(tuple(basis[i] for i in t), basis[b]) for t, b in bar_pair_list(bar_basis)]


def test_degree0_pairs_are_loops(cone):
    pairs = as_paths(cone, bar_pairs(cone, 0))
    assert len(pairs) == 5
    assert all(t == () and b.source == b.target for t, b in pairs)


def test_tuples_compose(cone):
    for t, _ in as_paths(cone, bar_pairs(cone, 3)):
        assert len(t) == 3
        assert all(t[i].source == t[i + 1].target for i in range(len(t) - 1))


def test_delta_squared():
    # rank's clearing rests on it: im δ^{n−1} lies in the kernel of δ^n
    for alg, top in rank_inputs():
        check_bar_delta_squared(alg, top)


def test_routes_agree():
    by_field = {}
    for spec in ("q", "fp:2", "fp:3"):
        for name in (*FIXTURE_ALGEBRAS, "a2"):
            alg = named_algebra(name, spec)
            spaces = hochschild_cohomology(AmbiguityTable(alg), 4)
            dims = bar_hh_dimensions(alg, 4)
            assert dims == [spaces[n].dimension for n in range(5)], spec
            if name == "truncated_cycle":
                by_field[spec] = dims
    # the characteristic shows: the fields are really compared apart
    assert by_field == {"q": [1, 1, 0, 0, 0], "fp:2": [1, 1, 0, 1, 1], "fp:3": [1, 1, 0, 0, 0]}


def check_matrices_match_reference(algebra):
    basis_pairs = [bar_pairs(algebra, n) for n in range(5)]
    path_pairs = [scan_bar_pairs(algebra, n) for n in range(5)]
    assert [as_paths(algebra, p) for p in basis_pairs] == path_pairs
    for n in range(4):
        got = bar_differential_matrix(algebra, basis_pairs[n], basis_pairs[n + 1])
        want = scan_bar_differential_matrix(algebra, path_pairs[n], path_pairs[n + 1])
        assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
        for j, (col, ref) in enumerate(zip(got.cols, want.cols)):
            assert col == ref, "degree %d column %d" % (n, j)


@pytest.mark.parametrize("spec", ["q", "fp:2"])
def test_matrices_match_reference(spec):
    # index-form assembly against the Path-keyed reference, column for column
    for t in tables(spec):
        check_matrices_match_reference(t.algebra)


@pytest.mark.parametrize("spec", ["q", "fp:7"])
def test_cub2_matrices_match_reference(spec):
    check_matrices_match_reference(named_algebra("cub2", spec))


def test_oracle_imports_no_gamma_layer():
    # the oracle is an independent route: it must not read Γ or what is built on it
    tree = ast.parse(pathlib.Path(bar_oracle.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update("%s.%s" % (node.module or "", alias.name) for alias in node.names)
    forbidden = {"ambiguities", "cochains", "resolution", "diagonal", "cup"}
    hit = {name for name in names if forbidden & set(name.split("."))}
    assert not hit, hit
    assert "linalg" in names  # the walk sees the package's relative imports


def test_oracle_multiplies_by_its_own_words():
    # the oracle shares the basis numbering with the other routes, but no
    # product: it concatenates words itself and never asks the algebra's
    # product table or a path product
    calls = _calls("bar_oracle")
    assert not {"mul", "segment", "concat", "reduce_concat"} & calls
    assert "rank" in calls  # the walk sees the calls


@pytest.mark.parametrize("spec", ["q", "fp:7"])
def test_cub2_dims(spec):
    # the oracle-elim algebra: pins the values, not only the pass/fail of verify --oracle
    alg = named_algebra("cub2", spec)
    assert alg.field.name == spec
    dims = bar_hh_dimensions(alg, 4)
    assert dims == [5, 10, 30, 72, 240]
    assert dims == [sp.dimension for sp in hochschild_cohomology(AmbiguityTable(alg), 4)]


def rank_inputs():
    """(algebra, top degree): the fixtures, cub(2), and seeded algebras of dim <= 12."""
    for spec in ("q", "fp:2", "fp:3"):
        for name in FIXTURE_ALGEBRAS:
            yield named_algebra(name, spec), 4
    for spec in ("q", "fp:7"):
        yield named_algebra("cub2", spec), 3
    for spec in ("q", "fp:2"):
        for triangular in (False, True):
            cfg = RandomAlgebraConfig(triangular=triangular, field=parse_field_spec(spec))
            for seed in range(1000, 1020):
                alg = random_algebra(cfg, seed)
                if alg.dim <= 12:
                    yield alg, 4


def test_rank_does_not_depend_on_the_column_order():
    # rank inserts the columns in an order of its own; the forward tracked
    # elimination and a shuffle of the columns must give the same number
    rng = random.Random(21)
    for alg, top in rank_inputs():
        field = alg.field
        for n, mat in enumerate(bar_matrices(alg, top)):
            r = rank(field, mat)
            assert r == mat.ncols - len(kernel_basis(field, mat)), (field.name, n)
            cols = list(mat.cols)
            rng.shuffle(cols)
            assert rank(field, SparseMatrix(mat.nrows, mat.ncols, tuple(cols))) == r, (field.name, n)


def test_rank_clears_the_previous_pivots():
    # the columns at the pivots of im δ^{n−1} add nothing to im δ^n, since
    # δ^n δ^{n−1} = 0: skipping them leaves the rank, and the pivots rank
    # hands back are those of the whole column span.  cub(2) over GF(2)
    # adds integer entries ±2, which vanish there: a row stored unread is
    # then the field-reduced column, and the count must not see the 2s.
    vanished = 0
    for alg, top in [*rank_inputs(), (named_algebra("cub2", "fp:2"), 3)]:
        field = alg.field
        cleared = set()
        for n, mat in enumerate(bar_matrices(alg, top)):
            if field.name == "fp:2":
                vanished += sum(1 for col in mat.cols for v in col.values() if v % 2 == 0)
            full = RowBasis(field)
            for col in mat.cols:
                full.insert(col)
            pivots = set()
            r = rank(field, mat, cleared, pivots)
            assert r == mat.ncols - len(kernel_basis(field, mat)), (field.name, n)
            assert pivots == set(full.rows), (field.name, n)
            cleared = pivots
    assert vanished > 0


@pytest.mark.parametrize("spec", ["q", "fp:7"])
def test_rank_elimination_steps_on_cub2(spec, monkeypatch):
    # the work of leading-entry reduction and clearing, pinned per degree:
    # reduction steps, columns entered, which are the columns less the
    # previous rank, so entered − rank is dim HH^n, and rows made
    # canonical, which are the stored rows some reduction reads
    alg = named_algebra("cub2", spec)
    field = alg.field
    steps, entered, made_canonical = [], [], []
    combine, to_row, canonical, real_rank = field.combine, field.to_row, field.canonical, bar_oracle.rank

    def counting_combine(target, a, b, source):
        steps[-1] += 1
        combine(target, a, b, source)

    def counting_to_row(vec):
        entered[-1] += 1
        return to_row(vec)

    def counting_canonical(vec, coeffs, pivot):
        made_canonical[-1] += 1
        return canonical(vec, coeffs, pivot)

    def per_degree(*args):
        steps.append(0)
        entered.append(0)
        made_canonical.append(0)
        return real_rank(*args)

    monkeypatch.setattr(field, "combine", counting_combine)
    monkeypatch.setattr(field, "to_row", counting_to_row)
    monkeypatch.setattr(field, "canonical", counting_canonical)
    monkeypatch.setattr(bar_oracle, "rank", per_degree)
    assert bar_hh_dimensions(alg, 3) == [5, 10, 30, 72]
    assert steps == [0, 17, 75, 523]
    assert entered == [7, 40, 222, 1320]
    # of the (2, 30, 192, 1248) rows stored, only those read are made canonical
    assert made_canonical == [0, 15, 65, 492]


@pytest.mark.parametrize("name, want", [("mixA", (3597, 7485)), ("mixB", (3676, 7032))], ids=["mixA", "mixB"])
def test_kernel_pass_work_on_overlapping_families(name, want, monkeypatch):
    # the work of the kernel passes of hh to degree 8 over Q, pinned:
    # reduction steps (combine calls, on rows and on tracked coefficients)
    # and canonical calls, one for each row a reduction reads for the first
    # time, each row handed on as a seed that is not canonical yet, and
    # each dependency
    t = AmbiguityTable(named_algebra(name))
    field = t.algebra.field
    counts, inside = [0, 0], []
    combine, canonical, kernel_pass = field.combine, field.canonical, cochains.kernel_basis

    def counting_combine(target, a, b, source):
        counts[0] += bool(inside)
        combine(target, a, b, source)

    def counting_canonical(vec, coeffs, pivot):
        counts[1] += bool(inside)
        return canonical(vec, coeffs, pivot)

    def per_pass(*args):
        inside.append(None)
        try:
            return kernel_pass(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(field, "combine", counting_combine)
    monkeypatch.setattr(field, "canonical", counting_canonical)
    monkeypatch.setattr(cochains, "kernel_basis", per_pass)
    hochschild_cohomology(t, 8)
    assert tuple(counts) == want


def path_counts(algebra):
    """N[s][t]: the number of nontrivial basis paths from vertex s to vertex t."""
    n = algebra.quiver.n_vertices
    counts = [[0] * n for _ in range(n)]
    for b in range(n, algebra.dim):  # vertex v is index v
        counts[algebra.source[b]][algebra.target[b]] += 1
    return counts


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def size_inputs():
    """The four fixtures, cub(2), and the 240 algebras of the random-suite pool."""
    for name in FIXTURE_ALGEBRAS:
        yield named_algebra(name)
    yield named_algebra("cub2")
    for spec in ("q", "fp:2"):
        for triangular in (False, True):
            cfg = RandomAlgebraConfig(triangular=triangular, field=parse_field_spec(spec))
            for seed in range(1000, 1060):
                yield random_algebra(cfg, seed)


def test_bar_sizes_follow_path_counts():
    # a composable n-tuple is a chain of n nontrivial basis paths, so degree
    # n has Σ(N^n)[s][t] tuples from s to t, each with |parallel(s, t)|
    # values; degree 0 holds the one empty tuple with every loop.  Under a
    # small budget, bar_pairs refuses exactly the degrees that pass it.
    small = 500
    cases = refused = 0
    for alg in size_inputs():
        counts = path_counts(alg)
        ends = [(s, t) for s in range(len(counts)) for t in range(len(counts))]
        power = [[int(s == t) for t in range(len(counts))] for s in range(len(counts))]
        most_tuples = 0
        predicted = []
        for n in range(6):
            if n:
                power = mat_mul(power, counts)
            tuples = sum(power[s][t] for s, t in ends) if n else 1
            pairs = sum(power[s][t] * len(alg.parallel[s, t]) for s, t in ends)
            most_tuples = max(most_tuples, tuples)
            basis = bar_pairs(alg, n)
            assert (len(basis.tuples), len(basis)) == (tuples, pairs), (alg.relations, n)
            predicted.append((tuples, pairs))
            cases += 1
            if most_tuples > small or pairs > small:
                with pytest.raises(BudgetExceeded):
                    bar_pairs(alg, n, small)
                refused += 1
            else:
                assert len(bar_pairs(alg, n, small)) == pairs
        # the oracle's own count, which chooses its degree in a battery
        assert bar_sizes(alg, 5) == predicted, alg.relations
    assert cases == 245 * 6
    assert 0 < refused < cases // 2


def test_degree_within_budget_is_the_deepest_that_fits():
    # the degree chosen in advance is the last that bar_hh_dimensions
    # reaches under the budget, and the note names the first bar degree
    # past it.  Where a degree has more tuples than pairs (tuples whose
    # ends have no parallel path), a budget between the two is refused on
    # the tuples alone.
    short, over = 0, {"pairs": 0, "tuples": 0}
    for alg in size_inputs():
        budgets = {500} | {pairs for tuples, pairs in bar_sizes(alg, 5) if tuples > pairs}
        for budget in sorted(budgets):
            top, note = degree_within_budget(alg, 4, budget)
            if top >= 0:
                bar_hh_dimensions(alg, top, budget)
            if top == 4:
                assert note == ""
                continue
            short += 1
            words = note.split()
            assert words[:2] == ["bar", "degree"] and words[-2:] == [">", str(budget)], note
            # degree top + 1 needs bar degree top + 2; the first to fail may be lower when top is -1
            assert int(words[2]) == top + 2 or (top == -1 and int(words[2]) <= 1), note
            over[words[-3]] += 1
            with pytest.raises(BudgetExceeded) as exc:
                bar_hh_dimensions(alg, top + 1, budget)
            assert exc.value.degree_reached == top
    assert 0 < short and all(over.values()), over


def test_each_bar_column_inserted_once(cone, monkeypatch):
    # each bar matrix is eliminated once, for its rank: every column off the
    # previous degree's pivots is one untracked RowBasis insert, and no
    # column at one is inserted
    mats, entered = [], []
    real_matrix, insert = bar_oracle.bar_differential_matrix, RowBasis.insert

    def keeping(*args):
        mats.append(real_matrix(*args))
        return mats[-1]

    def counting(self, vec, tag=None):
        assert not self.track and tag is None
        entered.append(id(vec))
        return insert(self, vec, tag)

    monkeypatch.setattr(bar_oracle, "bar_differential_matrix", keeping)
    monkeypatch.setattr(RowBasis, "insert", counting)
    assert bar_hh_dimensions(cone, 3) == [3, 3, 2, 2]
    monkeypatch.undo()
    want, cleared = [], set()
    for mat in mats:
        want.extend(id(col) for j, col in enumerate(mat.cols) if j not in cleared)
        full = RowBasis(cone.field)
        for col in mat.cols:
            full.insert(col)
        cleared = set(full.rows)
    assert sorted(entered) == sorted(want)
    assert len(want) < sum(mat.ncols for mat in mats)  # some columns were cleared


def test_budget(cone):
    with pytest.raises(BudgetExceeded) as exc:
        bar_hh_dimensions(cone, 4, budget=30)
    assert exc.value.degree_reached == 1
