import ast
import pathlib

import pytest

from monomial_hh import cochains
from monomial_hh.algfile import parse_algebra_file
from monomial_hh.ambiguities import AmbiguityTable
from monomial_hh.bar_oracle import bar_differential_matrix, bar_pairs
from monomial_hh.checks import run_checks
from monomial_hh.cochains import (
    check_differential_routes_agree,
    check_partial_squared,
    class_vector,
    cochain_differential,
    differential_matrix,
    display_vector,
    hochschild_cohomology,
)
from monomial_hh.errors import NotACocycle, NotTriangular
from monomial_hh.fields import parse_field_spec
from monomial_hh.linalg import quotient_basis
from monomial_hh.quivers import build_algebra, is_triangular

from conftest import make_cone
from helpers import (
    amb_path,
    by_path,
    expand,
    is_cocycle,
    loops_algebra_text,
    pair_list,
    path,
    path_pairs,
    unit_cochain,
    vector,
    written,
)
from reference_scans import amb_prefix, amb_suffix, divisor_occurrences, lookup_columns
from test_battery_caches import LOOPS
from test_incidence import DEGREE, tables
from test_linalg import image_rows


def check_triangular_structure(table, max_degree):
    """Odd outputs: unique positions; even outputs: no self-overlapping ends."""
    if not is_triangular(table.algebra):
        raise NotTriangular("structure lemmas need an acyclic quiver")
    for m in range(1, max_degree + 1):
        if m % 2 == 1:
            for q in table.degree(m):
                for p_amb in table.degree(m - 1):
                    assert len(divisor_occurrences(amb_path(table, p_amb), amb_path(table, q))) <= 1
        else:
            for q in table.degree(m):
                assert amb_path(table, amb_prefix(q, m - 1)) != amb_path(table, amb_suffix(q, m - 1))


def test_pair_basis_degree0(cone):
    t = AmbiguityTable(cone)
    pairs = path_pairs(t, 0)
    # vertices paired with parallel loops: e1 with e1 and zeta*alpha,
    # e2 with e2 and alpha*zeta, e3 with itself
    assert len(pairs) == 5
    assert all(amb.degree == -1 for amb, _ in pairs)
    words = sorted((amb_path(t, amb).display(), b.word() or b.display()) for amb, b in pairs)
    assert ("e(1)", "zetaalpha") in [(a, b) for a, b in words]


@pytest.mark.parametrize("spec", ["q", "fp:2"])
def test_display_finds_each_pair_from_the_offsets(spec):
    # display_vector finds the pair of an index by bisection over the
    # offsets; every index of every degree against the pair placed there,
    # an ambiguity with no parallel path (an empty block) included
    empty = 0
    for t in tables(spec):
        alg = t.algebra
        word = alg.quiver.word
        for m in range(DEGREE + 1):
            pairs = pair_list(t, m)
            texts = ["[%s || %s]" % (word(amb.arrows, amb.source), word(alg.words[b], alg.source[b])) for amb, b in pairs]
            # a whole degree in one call, each unit as its index and as a dict
            units = display_vector(t, m, range(len(pairs)), {})
            assert units == display_vector(t, m, [{i: 1} for i in range(len(pairs))], {})
            assert units == ["1 " + text for text in texts]
            if len(pairs) > 1:
                vec = {len(pairs) - 1: 3, 0: 2}  # printed in pair order
                assert display_vector(t, m, [vec], {}) == ["2 %s + 3 %s" % (texts[0], texts[-1])]
            empty += sum(not alg.parallel[(amb.source, amb.target)] for amb in t.degree(m - 1))
        assert display_vector(t, 0, [{}], {}) == ["0"]
        assert display_vector(t, 0, [], {}) == []
    assert empty > 0


def test_cone_dims(cone):
    t = AmbiguityTable(cone)
    spaces = hochschild_cohomology(t, 8)
    assert [s.dimension for s in spaces] == [3, 3, 2, 2, 3, 3, 2, 2, 3]


def test_unit_is_nonzero_class(cone):
    t = AmbiguityTable(cone)
    spaces = hochschild_cohomology(t, 0)
    u = unit_cochain(t)
    assert is_cocycle(t, 0, u)
    cls = class_vector(spaces[0], t, u)
    assert cls != {}


def test_a2_dims(a2):
    t = AmbiguityTable(a2)
    spaces = hochschild_cohomology(t, 4)
    assert [s.dimension for s in spaces] == [1, 0, 0, 0, 0]


def test_partial_squared_and_routes(cone, square, triangular_a6, truncated_cycle):
    for alg in (cone, square, triangular_a6, truncated_cycle):
        t = AmbiguityTable(alg)
        check_partial_squared(t, 4)
        check_differential_routes_agree(t, 4)


@pytest.mark.parametrize("spec", ["q", "fp:2", "loops"])
def test_face_class_columns_equal_lookups(spec):
    # key order included: the matrices, and so the eliminations, see the same columns
    if spec == "loops":
        made = [AmbiguityTable(parse_algebra_file(loops_algebra_text(k, n))) for k, n in LOOPS]
    else:
        made = tables(spec)
    for t in made:
        for m in range(0, DEGREE + 1):
            got = cochains._columns(t, m)
            want = lookup_columns(t, m)
            assert [list(col.items()) for col in got] == [list(col.items()) for col in want]


@pytest.mark.parametrize("spec", ["q", "fp:2"])
def test_routes_check_fails_on_a_planted_face_class(spec, monkeypatch):
    # the route through the resolution reads no face class, so a wrong hit,
    # planted through the builder before any δ is built, shows in a full
    # battery although partial-squared has stored δ by then; the first class
    # with hits is a vertex class, which δ^0 reads
    build = cochains._face_class
    planted = []

    def planting(table, key):
        hits = build(table, key)
        if hits and not planted:
            (place, position), rest = hits[0], hits[1:]
            hits = table.memo("cochains._face_class")[key] = ((place, position + 1),) + rest
            planted.append(key)
        return hits

    monkeypatch.setattr(cochains, "_face_class", planting)
    cone = make_cone()
    reports = {r.name: r for r in run_checks(build_algebra(cone.quiver, cone.relations, parse_field_spec(spec)), DEGREE)}
    assert planted
    routes = reports["differential-routes"]
    assert not routes.ok
    assert routes.detail == "differential routes disagree at 1 [e(1) || e(1)]"


def test_final_example_differential(triangular_a6):
    t = AmbiguityTable(triangular_a6)
    q = triangular_a6.quiver
    p = by_path(t, 2, written(q, "a4 a3 a2"))
    b = written(q, "g a3 b")
    x = vector(t, 3, {(p, b): 1})
    dx = cochain_differential(t, 3, x)
    expected = vector(
        t,
        4,
        {
            (by_path(t, 3, written(q, "a4 a3 a2 a1")), written(q, "g a3 b a1")): 1,
            (by_path(t, 3, written(q, "a5 a4 a3 a2")), written(q, "a5 g a3 b")): 1,
        },
    )
    assert dx == expected
    assert dx


def test_unsupported_pair_differential_is_zero(triangular_a6):
    # the top ambiguity divides nothing higher
    t = AmbiguityTable(triangular_a6)
    q = triangular_a6.quiver
    top = by_path(t, 4, written(q, "a5 a4 a3 a2 a1"))
    x = vector(t, 5, {(top, written(q, "a5 g a3 b a1")): 1})
    assert cochain_differential(t, 5, x) == {}


def test_matrix_orientation(cone):
    t = AmbiguityTable(cone)
    m = differential_matrix(t, 0)
    assert m.ncols == len(path_pairs(t, 0))
    assert m.nrows == len(path_pairs(t, 1))


def test_class_vector_rejects_non_cocycle(triangular_a6):
    t = AmbiguityTable(triangular_a6)
    q = triangular_a6.quiver
    spaces = hochschild_cohomology(t, 1)
    # swapping a2 for its parallel arrow b is not a cocycle: the relations
    # a3*a2 and a2*a1 deform to basis paths
    x = vector(t, 1, {(by_path(t, 0, path(q, "a2")), path(q, "b")): 1})
    assert not is_cocycle(t, 1, x)
    with pytest.raises(NotACocycle):
        class_vector(spaces[1], t, x)


def test_class_vector_runs_no_differential(triangular_a6, cone, monkeypatch):
    t = AmbiguityTable(triangular_a6)
    q = triangular_a6.quiver
    spaces = hochschild_cohomology(t, 1)
    x = vector(t, 1, {(by_path(t, 0, path(q, "a2")), path(q, "b")): 1})
    assert not is_cocycle(t, 1, x)
    tc = AmbiguityTable(cone)
    cone_spaces = hochschild_cohomology(tc, 3)
    calls = []
    real = cochains.cochain_differential

    def counting(table, m, y):
        calls.append(y)
        return real(table, m, y)

    monkeypatch.setattr(cochains, "cochain_differential", counting)
    with pytest.raises(NotACocycle, match="not killed by the differential"):
        class_vector(spaces[1], t, x)
    for sp in cone_spaces:
        for j, rep in enumerate(expand(sp.representatives)):
            assert class_vector(sp, tc, rep) == {j: 1}
    assert calls == []


def test_triangular_structure(triangular_a6, cone):
    check_triangular_structure(AmbiguityTable(triangular_a6), 4)
    with pytest.raises(NotTriangular):
        check_triangular_structure(AmbiguityTable(cone), 2)


def test_cohomology_deterministic(cone):
    t1 = AmbiguityTable(cone)
    t2 = AmbiguityTable(cone)
    s1 = hochschild_cohomology(t1, 3)
    s2 = hochschild_cohomology(t2, 3)
    for a, b in zip(s1, s2):
        assert a.representatives == b.representatives
        assert a.cocycles == b.cocycles


@pytest.mark.parametrize("spec", ["q", "fp:2", "fp:7"])
def test_seeded_quotient_matches_scratch(spec):
    # the image rows that the kernel pass of δ^{m-1} hands on are the rows a
    # fresh elimination of its columns stores, so the quotient they seed
    # gives the representatives that quotient_basis gives from scratch
    for t in tables(spec):
        field = t.algebra.field
        spaces = hochschild_cohomology(t, 5)
        for m in range(1, 6):
            rows = image_rows(field, differential_matrix(t, m - 1).cols)
            assert spaces[m].coboundaries == rows
            assert quotient_basis(field, spaces[m].cocycles, rows) == spaces[m].representatives


def test_assembly_is_field_free():
    # the cone's differentials have entries 2 on both routes, which vanish
    # over GF(2): the assembled matrices are over Z, the same for every field
    text = (pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "example_cone.alg").read_text()
    matrices = {}
    for spec in ("q", "fp:2", "fp:3"):
        alg = parse_algebra_file(text.replace("field q", "field " + spec))
        assert alg.field.name == spec
        table = AmbiguityTable(alg)
        pairs = [bar_pairs(alg, n) for n in range(4)]
        matrices[spec] = (
            [differential_matrix(table, m).cols for m in range(6)],
            [bar_differential_matrix(alg, pairs[n], pairs[n + 1]).cols for n in range(3)],
        )
    assert matrices["q"] == matrices["fp:2"] == matrices["fp:3"]
    for route in matrices["q"]:
        assert 2 in {v for cols in route for col in cols for v in col.values()}


def test_only_resolution_and_diagonal_import_combination():
    # cochains are pair-index vectors, so Combination is the integer element
    # type of the resolution and the diagonal alone
    package = pathlib.Path(cochains.__file__).resolve().parent
    importers = set()
    for path in sorted(package.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                names.add(node.module or "")
                names.update("%s.%s" % (node.module or "", alias.name) for alias in node.names)
        if any("combination" in name.split(".") for name in names):
            importers.add(path.stem)
    # equality, not a subset: the walk must see the two imports that are allowed
    assert importers == {"resolution", "diagonal"}
