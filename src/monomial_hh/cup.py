"""Cup products on cochains and cohomology classes, plus the verifiers.

Convention: in (f cup g)(q), f's pair occupies the traversal-initial
stretch of q and g's the traversal-final one, with the three gaps filled
by basis paths.  The worked products of the source material pin this
orientation down.  It makes f cup g = mu (g (x) f) Delta, with Delta the
diagonal of ``diagonal.py``, whose written-left tensor factor is the
traversal-later slot.

Cochains are the pair-index vectors of ``cochains``, a unit e_i given as
its index i where a space holds it so.  The cup product is
bilinear, so ``cup_products`` contracts whole lists of them against
structure constants on basis pairs.  For a bidegree (m, n) they map the
index of f's pair (pf, bf), then that of g's pair (pg, bg), to the
indices of the output pairs (q, value) of their product,
{f's index: {g's index: [output index, ...]}}: q runs over Γ_{m+n−1},
each term (pre, pf, mid, pg, post) of q's cached diagonal with pf of
degree m−1 places the two factors, and value is the reduced product
pre·bf·mid·bg·post, read from the algebra's product table (the
diagonal's pre, mid and post are basis indices).  So the split
enumeration lives only in the diagonal, and the product inherits its
chain-map and counit certificate.  Only keys are stored, never scalars,
so one table serves every field.  ``_constants`` builds it in one pass
over Γ_{m+n−1}, once per AmbiguityTable.

The products of a term depend only on its gap class (pre, mid, post),
so the pass finds the nonzero ones once per class and each term adds its
offsets to them: it costs the distinct classes plus the entries it
writes, not one product per term and parallel pair (bf, bg).  The class
table lives for one bidegree's pass only.

One ``cup_products`` call per bidegree serves every pair of two lists and
returns only the nonzero products.  On triangular algebras nearly every
positive-degree product vanishes (the source paper's vanishing theorem).
An absent product is zero, a cocycle of class 0, and ``hochschild_cohomology``
certified the factors, so the verifiers below spend their differentials
and class reads only on the few products that remain.  ``cup_table`` keeps
the class table sparse too: it returns only the nonzero classes, and only
``cli.cmd_cup`` lays out the dense table, where it writes the document.
"""

from .ambiguities import memoized
from .cochains import _offsets, class_vector, coboundary_basis, cochain_differential
from .diagonal import diagonal
from .errors import NotTriangular
from .quivers import is_triangular


@memoized
def _constants(table, m, n):
    """Structure constants of degree-m cup degree-n cochains (module docstring).

    The pair of index i cup the pair of index j is the sum, with
    coefficient 1 each, of the pairs whose indices are in constants[i][j].
    The products of a Δ term depend only on its gap class (pre, mid,
    post): the ends of pf are target[pre] and source[mid], those of pg
    target[mid] and source[post] (``diagonal._check_quintuple``), so the
    class fixes both ``parallel`` tuples.  Each class's hits are found once
    per call, by ``_gap_class``, and a term adds its offsets to them; the
    pass costs the distinct classes plus the entries it writes, and it is
    computed once per table.
    """
    f_offsets, g_offsets, q_offsets = (_offsets(table, d)[0] for d in (m, n, m + n))
    classes = {}  # (pre, mid, post) -> hits, see _gap_class
    constants = {}
    for q in table.degree(m + n - 1):
        row = q_offsets[q]
        for (pre, pf, mid, pg, post), c in diagonal(table, q).terms.items():
            if pf.degree != m - 1:
                continue
            assert c == 1, "the diagonal adds each positioned split once"
            key = (pre, mid, post)
            hits = classes.get(key)
            if hits is None:
                hits = classes[key] = _gap_class(table.algebra, pre, mid, post)
            f_offset, g_offset = f_offsets[pf], g_offsets[pg]
            for place_f, by_place_g in hits:
                by_g = constants.setdefault(f_offset + place_f, {})
                for place_g, k in by_place_g:
                    by_g.setdefault(g_offset + place_g, []).append(row + k)
    return constants


def _gap_class(algebra, pre, mid, post):
    """((place of bf, ((place of bg, position of pre·bf·mid·bg·post), ...)), ...)
    over the nonzero products only, bf and bg in ``parallel`` order."""
    mul, parallel, position = algebra.mul, algebra.parallel, algebra.position
    target, source = algebra.target, algebra.source
    bgs = parallel[(target[mid], source[post])]
    hits = []
    for place_f, bf in enumerate(parallel[(target[pre], source[mid])]):
        left = mul(pre, bf)
        if left is not None:
            left = mul(left, mid)
        if left is None:
            continue
        by_place_g = []
        for place_g, bg in enumerate(bgs):
            value = mul(left, bg)
            if value is not None:
                value = mul(value, post)
            if value is not None:
                by_place_g.append((place_g, position[value]))
        if by_place_g:
            hits.append((place_f, tuple(by_place_g)))
    return tuple(hits)


def cup_products(table, m, n, fs, gs):
    """{(a, b): fs[a] cup gs[b]} for the nonzero products only, keys in (a, b) order.

    fs are cochains of degree m and gs of degree n, each a sequence of
    vectors in which a unit e_i may be its index i, as a space holds them.
    One pass contracts the lists against the structure constants of their
    bidegree: gs is indexed by pair, and each term of fs[a] walks its row of
    the constants, accumulating into fs[a]'s products with every gs[b] that
    has a term there.  A unit e_i, held as i, has the one term (i, 1).  The
    sums run on plain numbers; the field's ``normal`` puts each product in
    the field and drops the ones that cancel to zero.
    """
    if not fs:
        return {}
    by_pair = {}  # pair index of gs -> [(b, coefficient in gs[b])]
    for b, g in enumerate(gs):
        for j, c in _terms(g):
            by_pair.setdefault(j, []).append((b, c))
    if not by_pair:
        return {}
    normal = table.algebra.field.normal
    constants = _constants(table, m, n)
    out = {}
    for a, f in enumerate(fs):
        acc = {}  # b -> {output index: coefficient} of fs[a] cup gs[b]
        for i, cf in _terms(f):
            row = constants.get(i)
            if row is None:
                continue
            for j, outputs in row.items():
                hits = by_pair.get(j)
                if hits is None:
                    continue
                for b, cg in hits:
                    c = cf * cg
                    terms = acc.get(b)
                    if terms is None:
                        terms = acc[b] = {}
                    for k in outputs:
                        terms[k] = terms.get(k, 0) + c
        for b in sorted(acc):
            terms = normal(acc[b])
            if terms:
                out[a, b] = terms
    return out


def _terms(vec):
    """The (index, scalar) terms of a vector or of a unit held as its index."""
    return ((vec, 1),) if type(vec) is int else vec.items()


def cup_table(table, spaces, i, j):
    """{(a, b): class of x_a cup y_b} over the nonzero classes of HH^i x HH^j -> HH^(i+j),
    keys in (a, b) order: one class read per nonzero cochain product, which checks
    that it is a cocycle, and a product of class 0 (a coboundary) is left out."""
    products = cup_products(table, i, j, spaces[i].representatives, spaces[j].representatives)
    target = spaces[i + j]
    return {key: cls for key, product in products.items() if (cls := class_vector(target, table, product))}


def verify_graded_commutativity(table, spaces, max_total_degree):
    """Failures of x cup y = (-1)^(mn) y cup x modulo coboundaries."""
    normal = table.algebra.field.normal
    reps = [spaces[d].representatives for d in range(max_total_degree + 1)]
    failures = []
    for m in range(0, max_total_degree + 1):
        for n in range(m, max_total_degree + 1 - m):
            sign = -1 if (m * n) % 2 else 1
            xy = cup_products(table, m, n, reps[m], reps[n])
            yx = xy if m == n else cup_products(table, n, m, reps[n], reps[m])
            # a zero commutator, x cup y and y cup x both zero included, has class 0
            for a, b in sorted(set(xy) | {(a, b) for b, a in yx}):
                commutator = dict(xy.get((a, b), {}))
                for k, c in yx.get((b, a), {}).items():
                    commutator[k] = commutator.get(k, 0) - sign * c
                commutator = normal(commutator)
                if not commutator:
                    continue
                cls = class_vector(spaces[m + n], table, commutator)
                if cls:
                    failures.append({"degrees": [m, n], "classes": [a, b], "commutator_class": sorted(cls)})
    return failures


def verify_triangular_vanishing(table, spaces, max_total_degree):
    """Nonzero positive-degree class products on a triangular algebra (expect none).

    The factors are the kernel vectors of ``spaces``, not the
    representatives: the kernel vectors span the cocycles, the
    representatives among them, so by bilinearity every class product
    vanishes exactly when every product of kernel vectors has class 0, and
    they meet far more products that are nonzero as cochains.  A failure
    names its factors by kernel-vector index, under ``cocycles``.
    """
    if not is_triangular(table.algebra):
        raise NotTriangular("vanishing theorem needs an acyclic quiver")
    failures = []
    for m in range(1, max_total_degree):
        for n in range(1, max_total_degree + 1 - m):
            # an absent product is zero, of class 0; the others are read in (a, b) order
            for (a, b), product in _cocycle_products(table, spaces[m], spaces[n]).items():
                cls = class_vector(spaces[m + n], table, product)
                if cls:
                    failures.append({"degrees": [m, n], "cocycles": [a, b], "product_class": sorted(cls)})
    return failures


@memoized
def _cocycle_products(table, f_space, g_space):
    """f_space.cocycles cup g_space.cocycles, contracted once per pair of
    spaces (which compare by identity): the closure row and the triangular
    rows of a battery read them all.  Computed once per table."""
    return cup_products(table, f_space.degree, g_space.degree, f_space.cocycles, g_space.cocycles)


def check_cup_closure(table, spaces, max_total_degree):
    """Cocycle x cocycle is a cocycle; either order with a coboundary is a coboundary.

    The coboundary test is membership in the basis that the target space's
    class reads share (``cochains.coboundary_basis``); membership never changes it."""
    field = table.algebra.field
    for m in range(0, max_total_degree + 1):
        z = spaces[m].cocycles
        if not z:
            continue
        for n in range(0, max_total_degree + 1 - m):
            if not spaces[n].cocycles and not spaces[n].coboundaries:
                continue  # every product below is empty
            zz = _cocycle_products(table, spaces[m], spaces[n])
            zb = cup_products(table, m, n, z, spaces[n].coboundaries)
            bz = cup_products(table, n, m, spaces[n].coboundaries, z)
            # zero products pass; the others are checked by cocycle f:
            # f cup g for each cocycle g, then f cup g and g cup f for each
            # coboundary g, so the first failure raised is a fixed one
            order = [(a, 0, c, 0) for a, c in zz] + [(a, 1, c, 0) for a, c in zb] + [(a, 1, c, 1) for c, a in bz]
            for a, with_coboundary, c, swapped in sorted(order):
                if not with_coboundary:
                    assert not cochain_differential(table, m + n, zz[a, c])
                else:
                    prod = bz[c, a] if swapped else zb[a, c]
                    coboundaries = coboundary_basis(spaces[m + n], field)
                    assert coboundaries.contains(prod), "cup with a coboundary is not a coboundary"
    return True


def check_one_sided_vanishing(table, spaces, max_total_degree):
    """Triangular: for irreducible pieces, at least one product order is zero.

    Zero here means zero as a cochain, not merely as a class.  The pieces
    are the kernel vectors of ``spaces``, which are already irreducible:
    each is one column's dependency on independent columns before it, so
    every cocycle on its support is a multiple of it, and no nonzero
    cocycle lives on a proper sub-support.
    """
    if not is_triangular(table.algebra):
        raise NotTriangular("one-sided vanishing needs an acyclic quiver")
    degrees = range(1, max_total_degree)
    bidegrees = [(m, n) for m in degrees for n in degrees if m + n <= max_total_degree]
    products = {(m, n): _cocycle_products(table, spaces[m], spaces[n]) for m, n in bidegrees}
    # (f, g) in the order of the pieces, f by degree then index, g likewise
    both = sorted((m, a, n, b) for (m, n), prods in products.items() for a, b in prods if (b, a) in products[n, m])
    pieces = {d: [{x: 1} if type(x) is int else x for x in spaces[d].cocycles] for m, _, n, _ in both for d in (m, n)}
    return [(pieces[m][a], pieces[n][b]) for m, a, n, b in both]
