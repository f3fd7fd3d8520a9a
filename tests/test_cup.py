import pytest

from monomial_hh import cochains, cup
from monomial_hh import diagonal as diagonal_module
from monomial_hh.algfile import parse_algebra_file
from monomial_hh.ambiguities import AmbiguityTable
from monomial_hh.cochains import (
    _offsets,
    class_vector,
    cochain_differential,
    differential_matrix,
    display_vector,
    hochschild_cohomology,
)
from monomial_hh.cup import (
    check_cup_closure,
    check_one_sided_vanishing,
    cup_products,
    cup_table,
    verify_graded_commutativity,
    verify_triangular_vanishing,
)
from monomial_hh.diagonal import check_chain_map, diagonal
from monomial_hh.errors import NotACocycle, NotTriangular
from monomial_hh.fields import parse_field_spec
from monomial_hh.linalg import RowBasis, SparseMatrix, kernel_basis
from monomial_hh.quivers import build_algebra
from monomial_hh.randomgen import RandomAlgebraConfig, random_algebra

from conftest import make_cone
from helpers import (
    amb_path,
    by_path,
    expand,
    is_cocycle,
    is_quadratic,
    loops_algebra_text,
    path,
    path_pairs,
    plant_representative,
    scalar,
    unit_cochain,
    vector,
    written,
)
from reference_scans import concat, dense_cup_table, reduce_concat, segment, term_constants, to_paths
from test_elimination_shortcuts import loops_tables
from test_incidence import CUP_DEGREE, tables


def product(table, m, n, f, g):
    """f cup g for one cochain of degree m and one of degree n."""
    return cup_products(table, m, n, [f], [g]).get((0, 0), {})


def delta_route_cup(table, m, n, f, g):
    """mu (f (x) g) Delta term by term, f of degree m and g of degree n;
    lands where the product g cup f does.

    Both read the same diagonal, so this pins the operand order and the
    contraction of the structure constants; the product's reference that
    does not use Delta is ``reference_scans.scan_cup_cochain``.
    """
    field = table.algebra.field
    f_pairs, g_pairs = path_pairs(table, m), path_pairs(table, n)
    index = {pair: k for k, pair in enumerate(path_pairs(table, m + n))}
    out = {}
    for q in table.degree(m + n - 1):
        for (pre, q1, mid, q2, post), coeff in to_paths(table, diagonal(table, q)).terms.items():
            if q1.degree != n - 1 or q2.degree != m - 1:
                continue
            for jg, cg in g.items():
                pg, bg = g_pairs[jg]
                if pg != q1:
                    continue
                for jf, cf in f.items():
                    pf, bf = f_pairs[jf]
                    if pf != q2:
                        continue
                    value = reduce_concat(table.algebra, pre, bg, mid, bf, post)
                    if value is None:
                        continue
                    k = index[(q, value)]
                    out[k] = out.get(k, 0) + cf * cg * coeff
    return {k: s for k, c in out.items() if (s := scalar(field, c))}


def record_delta_route_signs(table, max_total_degree):
    """Observed sign relating the two product routes, per bidegree.

    Returns {(m, n): sign} over basis pairs with a nonzero product; the
    relation g cup f == sign * delta_route_cup(f, g) must hold uniformly
    or an assertion trips.
    """
    field = table.algebra.field
    signs = {}
    for m in range(0, max_total_degree + 1):
        for n in range(0, max_total_degree + 1 - m):
            for i in range(_offsets(table, m)[1]):
                f = {i: 1}
                for j in range(_offsets(table, n)[1]):
                    g = {j: 1}
                    direct = product(table, n, m, g, f)
                    routed = delta_route_cup(table, m, n, f, g)
                    if not direct and not routed:
                        continue
                    if direct == routed:
                        sign = 1
                    else:
                        assert direct == {k: scalar(field, -c) for k, c in routed.items()}
                        sign = -1
                    prev = signs.setdefault((m, n), sign)
                    assert prev == sign, "route sign flips within bidegree (%d, %d)" % (m, n)
    return signs


def _overlap_components(table, m, x):
    supp = list(x)
    cols = differential_matrix(table, m).cols
    footprints = [set(cols[j]) for j in supp]
    parent = list(range(len(supp)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(supp)):
        for j in range(i + 1, len(supp)):
            if footprints[i] & footprints[j]:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(len(supp)):
        groups.setdefault(find(i), []).append(i)
    comps = []
    for members in groups.values():
        comps.append({supp[i]: x[supp[i]] for i in members})
    comps.sort(key=min)  # pair order is index order
    return comps


def irreducible_components(table, m, x):
    """Split a degree-m cocycle along connected components of the overlap graph."""
    if not is_cocycle(table, m, x):
        raise NotACocycle("can only split cocycles")
    comps = _overlap_components(table, m, x)
    for c in comps:
        assert is_cocycle(table, m, c)
    return comps


def _support_kernel(table, m, supp):
    """Reduced-echelon kernel of δ^m restricted to span(supp), supp pair indices."""
    field = table.algebra.field
    delta = differential_matrix(table, m).cols
    cols = []
    rows = {}
    for j in supp:
        col = {}
        for key, n in delta[j].items():
            row = rows.setdefault(key, len(rows))
            col[row] = n
        cols.append(col)
    mat = SparseMatrix(len(rows), len(cols), tuple(cols))
    return expand(kernel_basis(field, mat))


def refine_to_irreducible(table, m, x):
    """Overlap components refined until the sub-support kernel is a line."""
    out = []
    for comp in irreducible_components(table, m, x):
        supp = sorted(comp)
        ker = _support_kernel(table, m, supp)
        if len(ker) == 1:
            out.append(comp)
            continue
        # express comp over the reduced kernel basis; every basis vector
        # misses the other pivots, so supports strictly shrink
        field = table.algebra.field
        solver = RowBasis(field, track=True)
        for i, v in enumerate(ker):
            added, _ = solver.insert(v, i)
            assert added
        sol = solver.express({i: comp[j] for i, j in enumerate(supp)})
        assert sol is not None
        for i, c in sol.items():
            piece = {}
            for idx, s in ker[i].items():
                v = scalar(field, c * s)
                if v:
                    piece[supp[idx]] = v
            assert len(piece) < len(comp)
            out.extend(refine_to_irreducible(table, m, piece))
    return out


def is_irreducible(table, m, x):
    """No nonzero cocycle lives on a proper sub-support of the degree-m cocycle x."""
    if not is_cocycle(table, m, x):
        raise NotACocycle("irreducibility is for cocycles")
    ker = _support_kernel(table, m, sorted(x))
    assert len(ker) >= 1
    return len(ker) == 1


def common_factor(table, m, x):
    """Shared inner paths (p~, b~) with p_i = a_i p~ c_i and b_i = a_i b~ c_i.

    Returns a (p_tilde, b_tilde) pair of nontrivial paths or None.  The
    outer stretches may differ per term but must agree between p_i and b_i.
    """
    pairs = path_pairs(table, m)
    terms = [pairs[i] for i in sorted(x)]
    if not terms:
        return None

    def splits(pair):
        p = amb_path(table, pair[0])
        b = pair[1]
        both = []
        for i in range(0, min(len(p), len(b)) + 1):
            if p.arrows[:i] != b.arrows[:i]:
                break
            for j in range(0, min(len(p), len(b)) - i + 1):
                if p.arrows[len(p) - j :] != b.arrows[len(b) - j :]:
                    break
                mid_p = segment(p, i, len(p) - j)
                mid_b = segment(b, i, len(b) - j)
                if len(mid_p) >= 1 and len(mid_b) >= 1:
                    both.append((mid_p, mid_b))
        return set(both)

    candidates = splits(terms[0])
    for pair in terms[1:]:
        candidates &= splits(pair)
        if not candidates:
            return None
    return sorted(candidates, key=lambda pb: (pb[0].sort_key(), pb[1].sort_key()))[0]


def check_quadratic_cup(table, max_total_degree):
    """Quadratic algebras: basis cups concatenate or vanish."""
    alg = table.algebra
    assert is_quadratic(alg)
    for m in range(1, max_total_degree):
        for n in range(1, max_total_degree + 1 - m):
            index = {pair: k for k, pair in enumerate(path_pairs(table, m + n))}
            for i, (ambf, bf) in enumerate(path_pairs(table, m)):
                for j, (ambg, bg) in enumerate(path_pairs(table, n)):
                    got = product(table, m, n, {i: 1}, {j: 1})
                    expected = {}
                    if ambf.target == ambg.source:
                        pq = concat(amb_path(table, ambf), amb_path(table, ambg))
                        q = by_path(table, m + n - 1, pq)
                        if q is not None and bf.target == bg.source:
                            value = reduce_concat(alg, bf, bg)
                            if value is not None:
                                expected[index[(q, value)]] = 1
                    assert got == expected, "quadratic cup shape fails at %r, %r" % ((ambf, bf), (ambg, bg))


def _a6_xy(alg):
    t = AmbiguityTable(alg)
    q = alg.quiver
    x = vector(
        t,
        2,
        {
            (by_path(t, 1, written(q, "a4 a3")), written(q, "g a3")): 1,
            (by_path(t, 1, written(q, "a5 a4")), written(q, "a5 g")): 1,
        },
    )
    y = vector(
        t,
        2,
        {
            (by_path(t, 1, written(q, "a2 a1")), written(q, "b a1")): 1,
            (by_path(t, 1, written(q, "a3 a2")), written(q, "a3 b")): 1,
        },
    )
    return t, x, y


def _cone_w(cone):
    t = AmbiguityTable(cone)
    q = cone.quiver
    w = vector(
        t,
        2,
        {
            (by_path(t, 1, written(q, "alpha zeta alpha")), path(q, "alpha")): 1,
            (by_path(t, 1, written(q, "zeta alpha zeta")), path(q, "zeta")): 1,
        },
    )
    return t, w


def test_final_example_one_order_vanishes(triangular_a6):
    t, x, y = _a6_xy(triangular_a6)
    assert is_cocycle(t, 2, x) and is_cocycle(t, 2, y)
    q = triangular_a6.quiver
    yx = product(t, 2, 2, y, x)
    # y cup x is exactly the differential of the parallel pair from the text
    witness = vector(
        t, 3, {(by_path(t, 2, written(q, "a4 a3 a2")), written(q, "g a3 b")): 1}
    )
    assert yx == cochain_differential(t, 3, witness)
    assert yx
    assert product(t, 2, 2, x, y) == {}
    # class level: the nonzero order is a coboundary, so both classes vanish
    spaces = hochschild_cohomology(t, 4)
    assert class_vector(spaces[4], t, yx) == {}


def test_cone_degree1_times_w(cone):
    t, w = _cone_w(cone)
    q = cone.quiver
    assert is_cocycle(t, 2, w)
    f = vector(t, 1, {(by_path(t, 0, path(q, "alpha")), path(q, "alpha")): 1})
    assert is_cocycle(t, 1, f)
    fw = product(t, 1, 2, f, w)
    expected = vector(
        t, 3, {(by_path(t, 2, written(q, "zeta alpha zeta alpha")), written(q, "zeta alpha")): 1}
    )
    assert fw == expected
    # as classes this equals the (alpha zeta)^2 representative
    spaces = hochschild_cohomology(t, 3)
    target = vector(
        t, 3, {(by_path(t, 2, written(q, "alpha zeta alpha zeta")), written(q, "alpha zeta")): 1}
    )
    assert is_cocycle(t, 3, target)
    assert class_vector(spaces[3], t, fw) == class_vector(spaces[3], t, target)
    assert class_vector(spaces[3], t, fw) != {}


def test_cone_w_squared_exact(cone):
    t, w = _cone_w(cone)
    q = cone.quiver
    ww = product(t, 2, 2, w, w)
    expected = vector(
        t,
        4,
        {
            (by_path(t, 3, written(q, "alpha zeta alpha zeta alpha zeta")), written(q, "alpha zeta")): 1,
            (by_path(t, 3, written(q, "zeta alpha zeta alpha zeta alpha")), written(q, "zeta alpha")): 1,
        },
    )
    assert ww == expected
    spaces = hochschild_cohomology(t, 4)
    assert class_vector(spaces[4], t, ww) != {}


def test_unit_is_identity(cone, triangular_a6):
    def product_class(t, spaces, m, n, f, g):
        return class_vector(spaces[m + n], t, product(t, m, n, f, g))

    for alg in (cone, triangular_a6):
        t = AmbiguityTable(alg)
        spaces = hochschild_cohomology(t, 4)
        u = unit_cochain(t)
        assert is_cocycle(t, 0, u)
        for n in range(0, 5):
            for j, rep in enumerate(expand(spaces[n].representatives)):
                assert product_class(t, spaces, 0, n, u, rep) == {j: 1}
                assert product_class(t, spaces, n, 0, rep, u) == {j: 1}


def test_cup_table_degree0(cone):
    # x_2 is the unit class of HH^0, which multiplies HH^1 as the identity;
    # x_0 and x_1 kill it, so only row 2 has nonzero classes
    t = AmbiguityTable(cone)
    spaces = hochschild_cohomology(t, 2)
    assert spaces[0].dimension == spaces[1].dimension == 3
    assert list(cup_table(t, spaces, 0, 1).items()) == [((2, b), {b: 1}) for b in range(3)]


@pytest.mark.parametrize("spec", ["q", "fp:2", "fp:3"])
def test_cup_table_is_the_nonzero_cells_of_the_dense_table(spec):
    # cup_table keeps only the nonzero classes, keyed (a, b) in range and in
    # (a, b) order; a product of class 0, a coboundary, is left out
    nonzero = coboundaries = 0
    for t in [*tables(spec), *(t for t, _ in loops_tables(spec))]:
        spaces = hochschild_cohomology(t, CUP_DEGREE)
        for i in range(CUP_DEGREE + 1):
            for j in range(CUP_DEGREE + 1 - i):
                got = cup_table(t, spaces, i, j)
                dense = dense_cup_table(t, spaces, i, j)
                assert got == {(a, b): cls for a, row in enumerate(dense) for b, cls in enumerate(row) if cls}, (i, j)
                assert all(got.values())
                assert list(got) == sorted(got)
                assert all(0 <= a < spaces[i].dimension and 0 <= b < spaces[j].dimension for a, b in got)
                nonzero += len(got)
                products = cup_products(t, i, j, spaces[i].representatives, spaces[j].representatives)
                coboundaries += len(products.keys() - got.keys())
    assert nonzero > 0 and coboundaries > 0, (nonzero, coboundaries)


def summing(monkeypatch):
    """The Σ c·col sums that ``cochains`` makes from now on, each as its (c, col) terms."""
    sums = []
    sum_columns = cochains._sum_columns

    def recording(field, terms):
        sums.append(list(terms))
        return sum_columns(field, sums[-1])

    monkeypatch.setattr(cochains, "_sum_columns", recording)
    return sums


def certified(spaces):
    """The number of representatives that ``hochschild_cohomology`` sums δ over:
    those other than unit vectors, in each degree where a column on the
    cocycles' support is nonzero in the field, which is where a kernel vector
    has more than one entry; a unit e_p is certified by p's place alone."""
    return sum(
        sum(type(x) is not int for x in sp.representatives)
        for sp in spaces
        if any(type(x) is not int for x in sp.cocycles)
    )


def test_cup_table_checks_each_factor_once(cone, monkeypatch):
    # hochschild_cohomology certifies each factor once, by one sum over the
    # columns its kernel pass kept; cup_table applies no δ to a factor, and
    # the products are checked by class_vector's read
    t = AmbiguityTable(cone)
    sums = summing(monkeypatch)
    spaces = hochschild_cohomology(t, 4)
    assert len(sums) == certified(spaces) == 2
    del sums[:]
    entries = cup_table(t, spaces, 1, 2)
    assert spaces[1].dimension == 3 and spaces[2].dimension == 2
    assert entries == {(2, 1): {1: 1}}  # the one nonzero class of the 3 x 2 table
    assert sums == [] and t.memo("cochains._delta") == {}


def test_representatives_are_certified_once(cone, monkeypatch):
    # the certificate runs in the pass that computes the spaces; a second
    # table over the same spaces, or another verifier, checks no factor again
    t = AmbiguityTable(cone)
    sums = summing(monkeypatch)
    spaces = hochschild_cohomology(t, 4)
    assert len(sums) == certified(spaces)
    del sums[:]
    first = cup_table(t, spaces, 1, 2)
    assert cup_table(t, spaces, 1, 2) == first
    assert verify_graded_commutativity(t, spaces, 4) == []
    assert sums == []
    assert all(sp.rep_cochains(t, "unread") is sp.representatives for sp in spaces)


def test_a_failing_representative_raises_on_every_call(monkeypatch):
    # a non-cocycle planted among the representatives raises NotACocycle,
    # naming it, on every call of hochschild_cohomology, over q and GF(2):
    # on the cocycles' support in degree 2, where δ keeps nonempty columns,
    # and off it in degree 3, where it keeps none, so an index off the
    # support must be refused, not read as zero
    for spec in ("q", "fp:2"):
        cone = make_cone()
        cone = build_algebra(cone.quiver, cone.relations, parse_field_spec(spec))
        t = AmbiguityTable(cone)
        spaces = hochschild_cohomology(t, 4)
        support = [{j for v in expand(sp.cocycles) for j in v} for sp in spaces]
        assert 0 in support[2] and not is_cocycle(t, 2, {0: 1})
        assert 1 not in support[3] and not any(differential_matrix(t, 3).cols[j] for j in support[3])
        for degree, bad in ((2, {0: 1}), (3, {1: 1})):
            [text] = display_vector(t, degree, [bad], {})
            with monkeypatch.context() as patch:
                plant_representative(patch, degree, bad)
                for _ in range(2):
                    with pytest.raises(NotACocycle) as exc:
                        hochschild_cohomology(t, 4)
                    assert str(exc.value) == "HH^%d representative is not a cocycle: %s" % (degree, text)


def test_triangular_vanishing_checks_each_factor_once(triangular_a6, monkeypatch):
    # the factors were certified when the spaces were computed; the verifier
    # applies no δ and builds none
    t = AmbiguityTable(triangular_a6)
    sums = summing(monkeypatch)
    spaces = hochschild_cohomology(t, 6)
    assert len(sums) == certified(spaces) > 0
    del sums[:]
    assert verify_triangular_vanishing(t, spaces, 6) == []
    assert sums == [] and t.memo("cochains._delta") == {}


def test_constants_built_once(cone, monkeypatch):
    t = AmbiguityTable(cone)
    spaces = hochschild_cohomology(t, 4)
    first = cup_table(t, spaces, 1, 2)
    calls = []
    occurrences = AmbiguityTable.occurrences

    def counting(self, m, arrows, source):
        calls.append((m, arrows, source))
        return occurrences(self, m, arrows, source)

    monkeypatch.setattr(AmbiguityTable, "occurrences", counting)
    assert cup_table(t, spaces, 1, 2) == first
    assert calls == []


def test_constants_read_off_the_cached_diagonals(cone, monkeypatch):
    # once Δ of every q in Γ_{m+n-1} is cached, no incidence lookup is left to do
    t = AmbiguityTable(cone)
    for total in range(-1, 4):
        for q in t.degree(total):
            diagonal(t, q)
    calls = []
    occurrences = AmbiguityTable.occurrences

    def counting(self, m, arrows, source):
        calls.append((m, arrows, source))
        return occurrences(self, m, arrows, source)

    monkeypatch.setattr(AmbiguityTable, "occurrences", counting)
    constants = [cup._constants(t, m, n) for m in range(5) for n in range(5 - m)]
    assert calls == []
    assert any(constants)


def test_cup_product_reads_the_diagonal(cone, monkeypatch):
    # one planted bug in the split enumeration breaks Δ's chain-map identity
    # and the cup product alike, so the product carries Δ's certificate; on
    # the cone it changes the products of basis pairs in bidegrees (1, 3) and
    # (3, 1), not the class-level tables
    def products():
        t = AmbiguityTable(cone)
        units = [[{i: 1} for i in range(_offsets(t, d)[1])] for d in range(5)]
        return [product(t, m, n, f, g) for m in range(5) for n in range(5 - m) for f in units[m] for g in units[n]]

    before = products()
    decompositions = diagonal_module._decompositions

    def adjacent_only(table, amb, i, j):
        return [key for key in decompositions(table, amb, i, j) if not table.algebra.words[key[2]]]

    monkeypatch.setattr(diagonal_module, "_decompositions", adjacent_only)
    with pytest.raises(AssertionError, match="chain-map"):
        check_chain_map(AmbiguityTable(cone), 4)
    assert products() != before


def in_order(constants):
    """The constants with the order of every key and list made visible."""
    return [(i, list(row.items())) for i, row in constants.items()]


@pytest.mark.parametrize("spec", ["q", "fp:2", "fp:3", "cub2"])
def test_gap_class_constants_equal_term_constants(spec):
    # key and list order included: cup_products accumulates in that order
    if spec == "cub2":
        made, top = [AmbiguityTable(parse_algebra_file(loops_algebra_text(2, 3)))], 5
    else:
        made, top = tables(spec), CUP_DEGREE
    for t in made:
        for m in range(top + 1):
            for n in range(top + 1 - m):
                assert in_order(cup._constants(t, m, n)) == in_order(term_constants(t, m, n)), (m, n)


@pytest.mark.parametrize(
    "make, top, lookups",
    [
        # the per-term loop made 6,420, 4,402 and 431 lookups
        (lambda: parse_algebra_file(loops_algebra_text(2, 2)), 5, 420),
        (lambda: parse_algebra_file(loops_algebra_text(3, 2)), 3, 310),
        (make_cone, 4, 431),  # every term of the cone is its own gap class
    ],
    ids=["rsz2", "rsz3", "cone"],
)
def test_constants_product_lookups(make, top, lookups, monkeypatch):
    # the work of the gap classes, pinned: algebra.mul calls with Δ prebuilt
    alg = make()
    t = AmbiguityTable(alg)
    for d in range(-1, top):
        for q in t.degree(d):
            diagonal(t, q)
    calls = []
    mul = alg.mul

    def counting(i, j):
        calls.append((i, j))
        return mul(i, j)

    monkeypatch.setattr(alg, "mul", counting)
    for m in range(top + 1):
        for n in range(top + 1 - m):
            cup._constants(t, m, n)
    assert len(calls) == lookups


def test_cup_tables_of_a_truncated_polynomial_over_gf2():
    # seed 1027 is k[x]/(x^4) over GF(2), HH^n of dimension 4 in every
    # degree: every table multiplies like k[x]/(x^4), except that odd times
    # odd is 0; a plant that skips the Δ terms whose pre and post are both
    # nontrivial changes the odd-by-odd tables, and no golden digest sees it
    alg = random_algebra(RandomAlgebraConfig(triangular=False, field=parse_field_spec("fp:2")), 1027)
    assert (alg.dim, alg.quiver.n_vertices, len(alg.relations)) == (4, 1, 1)
    t = AmbiguityTable(alg)
    spaces = hochschild_cohomology(t, 6)
    assert [s.dimension for s in spaces] == [4] * 7
    for i in range(7):
        for j in range(7 - i):
            odd_by_odd = i % 2 and j % 2
            want = [((a, b), {a + b: 1}) for a in range(4) for b in range(4) if a + b < 4 and not odd_by_odd]
            assert list(cup_table(t, spaces, i, j).items()) == want, (i, j)


def test_delta_route_signs_all_plus_one(cone, triangular_a6, truncated_cycle):
    for alg in (cone, triangular_a6, truncated_cycle):
        t = AmbiguityTable(alg)
        signs = record_delta_route_signs(t, 3)
        assert signs, "expected some nonzero products"
        assert set(signs.values()) == {1}


def test_graded_commutativity(cone, triangular_a6):
    for alg in (cone, triangular_a6):
        t = AmbiguityTable(alg)
        spaces = hochschild_cohomology(t, 5)
        assert verify_graded_commutativity(t, spaces, 5) == []


def test_triangular_vanishing(triangular_a6, truncated_cycle, cone):
    t = AmbiguityTable(triangular_a6)
    spaces = hochschild_cohomology(t, 6)
    assert verify_triangular_vanishing(t, spaces, 6) == []
    with pytest.raises(NotTriangular):
        verify_triangular_vanishing(AmbiguityTable(cone), hochschild_cohomology(AmbiguityTable(cone), 2), 2)


def test_cone_has_nonzero_positive_products(cone):
    # contrast with the triangular theorem: the cone's positive classes multiply
    t, w = _cone_w(cone)
    spaces = hochschild_cohomology(t, 4)
    assert class_vector(spaces[4], t, product(t, 2, 2, w, w)) != {}


def test_quadratic_cup_shape(triangular_a6, truncated_cycle):
    for alg in (triangular_a6, truncated_cycle):
        check_quadratic_cup(AmbiguityTable(alg), 4)


def test_cup_closure(cone, triangular_a6):
    for alg in (cone, triangular_a6):
        t = AmbiguityTable(alg)
        spaces = hochschild_cohomology(t, 4)
        check_cup_closure(t, spaces, 4)


def test_irreducible_components(triangular_a6):
    t, x, y = _a6_xy(triangular_a6)
    assert irreducible_components(t, 2, x) == [x]
    assert is_irreducible(t, 2, x)
    assert not set(x) & set(y)
    both = irreducible_components(t, 2, {**x, **y})
    assert len(both) == 2
    assert x in both and y in both
    single = vector(
        t,
        3,
        {
            (
                by_path(t, 2, written(triangular_a6.quiver, "a4 a3 a2")),
                written(triangular_a6.quiver, "g a3 b"),
            ): 1
        },
    )
    # not a cocycle: refuse to split
    with pytest.raises(NotACocycle):
        irreducible_components(t, 3, single)


def test_common_factor(triangular_a6):
    t, x, y = _a6_xy(triangular_a6)
    q = triangular_a6.quiver
    got = common_factor(t, 2, x)
    assert got == (path(q, "a4"), path(q, "g"))
    assert common_factor(t, 2, y) == (path(q, "a2"), path(q, "b"))


def test_one_sided_vanishing_suite_check(triangular_a6, truncated_cycle):
    t = AmbiguityTable(triangular_a6)
    spaces = hochschild_cohomology(t, 5)
    assert check_one_sided_vanishing(t, spaces, 5) == []


def test_one_sided_vanishing_batches_each_bidegree(triangular_a6, monkeypatch):
    # one cup_products call per ordered bidegree, no product taken pair by pair
    t = AmbiguityTable(triangular_a6)
    spaces = hochschild_cohomology(t, 5)
    pieces = [(m, v) for m in range(1, 5) for v in expand(spaces[m].cocycles)]
    ordered = [(m, f, n, g) for m, f in pieces for n, g in pieces if m + n <= 5]
    nonzero = sum(bool(product(t, m, n, f, g)) for m, f, n, g in ordered)
    batched = []

    def counting_batched(table, m, n, fs, gs):
        batched.append((m, n))
        return cup_products(table, m, n, fs, gs)

    monkeypatch.setattr(cup, "cup_products", counting_batched)
    assert check_one_sided_vanishing(t, spaces, 5) == []
    assert (len(ordered), nonzero) == (183, 9)
    assert sorted(batched) == [(m, n) for m in range(1, 5) for n in range(1, 6 - m)]


def test_refine_matches_components_here(triangular_a6):
    t, x, y = _a6_xy(triangular_a6)
    assert not set(x) & set(y)
    pieces = refine_to_irreducible(t, 2, {**x, **y})
    assert len(pieces) == 2
    for p in pieces:
        assert is_irreducible(t, 2, p)


@pytest.mark.parametrize("fieldspec", ["q", "fp:2"])
def test_kernel_vectors_are_irreducible(fieldspec, cone, square, triangular_a6, truncated_cycle):
    # check_one_sided_vanishing takes the kernel vectors as its pieces
    # without refining them; the refinement must leave each one whole
    field = parse_field_spec(fieldspec)
    algebras = [build_algebra(a.quiver, a.relations, field) for a in (cone, square, triangular_a6, truncated_cycle)]
    for triangular in (False, True):
        config = RandomAlgebraConfig(triangular=triangular, field=field)
        algebras.extend(random_algebra(config, seed) for seed in range(1000, 1020))
    for alg in algebras:
        t = AmbiguityTable(alg)
        spaces = hochschild_cohomology(t, 5)
        for m in range(1, 6):
            for v in expand(spaces[m].cocycles):
                assert refine_to_irreducible(t, m, v) == [v]
