"""Cup products on cochains and cohomology classes, plus the verifiers.

Convention: in (f cup g)(q), f's pair occupies the traversal-initial
stretch of q and g's the traversal-final one, with the three gaps filled
by basis paths.  The worked products of the source material pin this
orientation down.  It makes f cup g = mu (g (x) f) Delta, with Delta the
diagonal of ``diagonal.py``, whose written-left tensor factor is the
traversal-later slot.

The cup product is bilinear, so ``cup_cochain`` contracts its operands
against structure constants on basis pairs.  For a bidegree (m, n) they
map f's pair (pf, bf), then g's pair (pg, bg), to the list of output pairs
(q, value) of their product, {(pf, bf): {(pg, bg): [(q, value), ...]}}:
q runs over Γ_{m+n−1}, each term (pre, pf, mid, pg, post) of q's cached
diagonal with pf of degree m−1 places the two factors, and value is the
reduced product pre·bf·mid·bg·post.  So the split enumeration lives only
in the diagonal, and the product inherits its chain-map and counit
certificate.  Only keys are stored, never scalars, so one table serves
every field.  ``_constants`` builds it in one pass over Γ_{m+n−1}, on
first use, and caches it on the AmbiguityTable.
"""

from .cochains import class_vector, cochain_differential, is_cocycle, new_cochain, vector_to_cochain
from .diagonal import diagonal
from .errors import NotACocycle, NotTriangular
from .quivers import is_triangular


def _constants(table, m, n):
    """Structure constants of degree-m cup degree-n cochains (module docstring).

    (pf, bf) cup (pg, bg) is the sum, with coefficient 1 each, of the
    pairs (q, value) in constants[(pf, bf)][(pg, bg)].
    """
    constants = table._cup.get((m, n))
    if constants is not None:
        return constants
    alg = table.algebra
    parallel = alg.parallel
    constants = {}
    for q in table.degree(m + n - 1):
        for (pre, pf, mid, pg, post), c in diagonal(table, q).terms.items():
            if pf.degree != m - 1:
                continue
            assert c == 1, "the diagonal adds each positioned split once"
            for bf in parallel[(pf.path.source, pf.path.target)]:
                for bg in parallel[(pg.path.source, pg.path.target)]:
                    value = alg.reduce_concat(pre, bf, mid, bg, post)
                    if value is None:
                        continue
                    row = constants.setdefault((pf, bf), {})
                    row.setdefault((pg, bg), []).append((q, value))
    table._cup[(m, n)] = constants
    return constants


def cup_cochain(table, f, g):
    """f cup g, contracted against the structure constants of its bidegree."""
    field = table.algebra.field
    out = new_cochain(table, f.degree + g.degree)
    if f.is_zero() or g.is_zero():
        return out
    constants = _constants(table, f.degree, g.degree)
    for pair_f, cf in f.terms.items():
        row = constants.get(pair_f)
        if row is None:
            continue
        for pair_g, cg in g.terms.items():
            outputs = row.get(pair_g)
            if outputs is None:
                continue
            c = field.mul(cf, cg)
            for key in outputs:
                out.add(key, c)
    return out


def _factors(table, space, what):
    """The space's representative cochains, each checked once to be a cocycle."""
    reps = space.rep_cochains(table)
    for x in reps:
        if not is_cocycle(table, x):
            raise NotACocycle(what)
    return reps


def _class_products(table, target, reps_i, reps_j):
    """entry[a][b] = class of reps_i[a] cup reps_j[b]; the solve checks each product."""
    return [[class_vector(target, table, cup_cochain(table, f, g)) for g in reps_j] for f in reps_i]


def cup_table(table, spaces, i, j):
    """Matrix of class products HH^i x HH^j -> HH^(i+j), entry[a][b]."""
    reps_i = _factors(table, spaces[i], "left cup factor")
    reps_j = _factors(table, spaces[j], "right cup factor")
    return _class_products(table, spaces[i + j], reps_i, reps_j)


def verify_graded_commutativity(table, spaces, max_total_degree):
    """Failures of x cup y = (-1)^(mn) y cup x modulo coboundaries."""
    field = table.algebra.field
    reps = [spaces[d].rep_cochains(table) for d in range(max_total_degree + 1)]
    failures = []
    for m in range(0, max_total_degree + 1):
        for n in range(m, max_total_degree + 1 - m):
            sign = -1 if (m * n) % 2 else 1
            for a, x in enumerate(reps[m]):
                for b, y in enumerate(reps[n]):
                    lhs = cup_cochain(table, x, y)
                    rhs = cup_cochain(table, y, x).scale(field.from_int(sign))
                    cls = class_vector(spaces[m + n], table, lhs - rhs)
                    if cls:
                        failures.append({"degrees": [m, n], "classes": [a, b], "commutator_class": sorted(cls)})
    return failures


def verify_triangular_vanishing(table, spaces, max_total_degree):
    """Nonzero positive-degree class products on a triangular algebra (expect none)."""
    if not is_triangular(table.algebra):
        raise NotTriangular("vanishing theorem needs an acyclic quiver")
    reps = {d: _factors(table, spaces[d], "cup factor") for d in range(1, max_total_degree)}
    failures = []
    for m in range(1, max_total_degree):
        for n in range(1, max_total_degree + 1 - m):
            for a, row in enumerate(_class_products(table, spaces[m + n], reps[m], reps[n])):
                for b, cls in enumerate(row):
                    if cls:
                        failures.append({"degrees": [m, n], "classes": [a, b], "product_class": sorted(cls)})
    return failures


def check_cup_closure(table, spaces, max_total_degree):
    """Cocycle x cocycle is a cocycle; either order with a coboundary is one."""
    degrees = range(0, max_total_degree + 1)
    z = [[vector_to_cochain(table, d, spaces[d].pairs, v) for v in spaces[d].cocycles] for d in degrees]
    b = [[vector_to_cochain(table, d, spaces[d].pairs, v) for v in spaces[d].coboundaries] for d in degrees]
    for m in degrees:
        for n in range(0, max_total_degree + 1 - m):
            total = m + n
            for f in z[m]:
                for g in z[n]:
                    assert cochain_differential(table, cup_cochain(table, f, g)).is_zero()
                for g in b[n]:
                    for prod in (cup_cochain(table, f, g), cup_cochain(table, g, f)):
                        cls = class_vector(spaces[total], table, prod)
                        assert cls == {}, "cup with a coboundary is not a coboundary"
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
    pieces = []
    for m in range(1, max_total_degree):
        pieces.extend(vector_to_cochain(table, m, spaces[m].pairs, v) for v in spaces[m].cocycles)
    failures = []
    for f in pieces:
        for g in pieces:
            if f.degree + g.degree > max_total_degree:
                continue
            if not (cup_cochain(table, f, g).is_zero() or cup_cochain(table, g, f).is_zero()):
                failures.append((f, g))
    return failures
