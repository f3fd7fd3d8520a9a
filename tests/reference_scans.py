"""Brute-force scans that the incidence index of ``AmbiguityTable`` replaced.

Each one tests every ambiguity of a whole degree against a word, so its
cost grows with |Γ_m|.  They stay here as the reference that
``occurrences``, ``cofaces``, ``sub``, the truncation links and the pair
differential are compared against, and ``scan_cup_cochain`` is the product
that the cup structure constants replaced; unlike the product, it does not
read the diagonal.  The adjacency scans at the end, over every arrow or
every basis path, are the reference for ``Quiver.out_arrows``,
``MonomialAlgebra.parallel``, the pair lists that read them and
``resolution.right_spanning_set``.  ``scan_bar_pairs`` and
``scan_bar_differential_matrix`` work on ``Path``-keyed bar pairs and scan
the basis at each column's anchors: they are the reference for the bar
oracle's index-form pairs and assembly.  ``scan_is_finite`` and ``scan_basis``,
which test every relation after every arrow step, are the reference for the
relation automaton that ``MonomialAlgebra`` reads both answers off.
"""

from monomial_hh.linalg import SparseMatrix
from monomial_hh.quivers import DivisorOccurrence, Path, _has_cycle
from monomial_hh.resolution import bimodule_element


def divisor_occurrences(q, p):
    """All positioned occurrences of q in p, by increasing prefix length."""
    out = []
    lq = len(q.arrows)
    if lq == 0:
        for k in range(len(p.arrows) + 1):
            if p.vertex_at(k) == q.source:
                out.append(
                    DivisorOccurrence(p.segment(0, k), q, p.segment(k, len(p.arrows)), k)
                )
        return out
    for k in range(len(p.arrows) - lq + 1):
        if p.arrows[k : k + lq] == q.arrows:
            out.append(
                DivisorOccurrence(
                    p.segment(0, k), p.segment(k, k + lq), p.segment(k + lq, len(p.arrows)), k
                )
            )
    return out


def scan_occurrences(table, m, word):
    """(m-ambiguity, position) for every occurrence in word, by position."""
    hits = [(a, occ.position) for a in table.degree(m) for occ in divisor_occurrences(a.path, word)]
    hits.sort(key=lambda t: t[1])
    return hits


def scan_sub(table, amb):
    """Positioned (n−1)-ambiguity divisors, by increasing prefix length."""
    hits = []
    for lower in table.degree(amb.degree - 1):
        for occ in divisor_occurrences(lower.path, amb.path):
            hits.append((lower, occ))
    hits.sort(key=lambda t: t[1].position)
    return hits


def scan_cofaces(table, n):
    """{p: [(q, position, sign)]}: every p of Γ_{n-1} tested against every q of Γ_n."""
    out = {}
    for p in table.degree(n - 1):
        hits = []
        for q in table.degree(n):
            if n % 2 == 0:
                if table.amb_prefix(q, n - 1) == p:
                    hits.append((q, 0, 1))
                if table.amb_suffix(q, n - 1) == p:
                    hits.append((q, len(q.path) - len(p.path), -1))
            else:
                hits.extend((q, occ.position, 1) for occ in divisor_occurrences(p.path, q.path))
        if hits:
            out[p] = hits
    return out


def scan_truncation(table, amb, m, initial):
    """The one m-ambiguity whose path is a traversal-initial segment of amb's
    path (traversal-final when initial is false), by a scan of Γ_m."""
    p = amb.path
    end = len(p)

    def segment(k):
        return p.segment(0, k) if initial else p.segment(end - k, end)

    hits = [a for a in table.degree(m) if len(a.path) <= end and a.path == segment(len(a.path))]
    assert len(hits) == 1, "%d truncations of degree %d" % (len(hits), m)
    return hits[0]


def scan_pair_differential_terms(table, amb, b):
    """Differential of the basis pair (amb, b) by a scan of every output ambiguity."""
    alg = table.algebra
    m = amb.degree + 1  # degree of the output ambiguities
    p = amb.path
    out = {}

    def bump(q, value, sign):
        if value is None:
            return
        key = (q, value)
        out[key] = out.get(key, 0) + sign

    if m % 2 == 0:
        for q in table.degree(m):
            qp = q.path
            head_amb = table.amb_prefix(q, m - 1)
            if head_amb.path == p:
                tail = qp.segment(len(p), len(qp))
                bump(q, alg.reduce_concat(b, tail), 1)
            tail_amb = table.amb_suffix(q, m - 1)
            if tail_amb.path == p:
                head = qp.segment(0, len(qp) - len(p))
                bump(q, alg.reduce_concat(head, b), -1)
    else:
        for q in table.degree(m):
            for occ in divisor_occurrences(p, q.path):
                bump(q, alg.reduce_concat(occ.prefix, b, occ.suffix), 1)
    return {k: c for k, c in out.items() if c}


def scan_cup_cochain(table, m, n, f, g):
    """f cup g by a scan of every output ambiguity for the occurrences of f's and g's ambiguities.

    f and g are keyed cochains {(amb, b): scalar} of degrees m and n; so is
    the product, of degree m + n, without zeros.
    """
    alg = table.algebra
    field = alg.field
    out = {}
    f_terms = {}
    for (amb, b), c in f.items():
        f_terms.setdefault(amb, []).append((b, c))
    g_terms = {}
    for (amb, b), c in g.items():
        g_terms.setdefault(amb, []).append((b, c))
    for q in table.degree(m + n - 1):
        qp = q.path
        seconds = [(pg, k2) for pg, k2 in table.occurrences(n - 1, qp) if pg in g_terms]
        for pf, k1 in table.occurrences(m - 1, qp):
            if pf not in f_terms:
                continue
            end1 = k1 + len(pf.path)
            gap_a = qp.segment(0, k1)
            for pg, k2 in seconds:
                if k2 < end1:
                    continue
                gap_c = qp.segment(end1, k2)
                gap_e = qp.segment(k2 + len(pg.path), len(qp))
                for bf, cf in f_terms[pf]:
                    for bg, cg in g_terms[pg]:
                        value = alg.reduce_concat(gap_a, bf, gap_c, bg, gap_e)
                        if value is not None:
                            key = (q, value)
                            out[key] = field.add(out.get(key, field.zero), field.mul(cf, cg))
    return {key: c for key, c in out.items() if not field.is_zero(c)}


def scan_out_arrows(quiver):
    """Arrows leaving each vertex, by a scan of every arrow."""
    return tuple(
        tuple(a for a in range(quiver.n_arrows) if quiver.arrow_source[a] == v) for v in range(quiver.n_vertices)
    )


def scan_parallel(algebra):
    """{(source, target): basis paths between them}, by a scan of the basis per vertex pair."""
    n = algebra.quiver.n_vertices
    return {
        (s, t): tuple(b for b in algebra.basis if b.source == s and b.target == t) for s in range(n) for t in range(n)
    }


def scan_pair_basis(table, m):
    """Degree-m (ambiguity, parallel basis path) pairs, by a scan of the basis per ambiguity."""
    return [
        (amb, b)
        for amb in table.degree(m - 1)
        for b in table.algebra.basis
        if b.source == amb.path.source and b.target == amb.path.target
    ]


def bar_tuples(algebra, n):
    """Composable n-tuples of nontrivial basis paths, lexicographic order."""
    if n == 0:
        return [()]
    base = algebra.nontrivial_basis
    tuples = [(p,) for p in base]
    for _ in range(n - 1):
        tuples = [t + (y,) for t in tuples for y in base if t[-1].source == y.target]
    return tuples


def scan_bar_column_terms(algebra, t, b):
    """Rows hit by the bar differential of the indicator cochain at (t, b), a
    Path-keyed pair, by a scan of the basis at each anchor."""
    n = len(t)
    out = {}

    def bump(key, c):
        out[key] = out.get(key, 0) + c

    left_anchor = t[0].target if t else b.target
    right_anchor = t[-1].source if t else b.source
    for x in algebra.nontrivial_basis:
        if x.source == left_anchor:
            val = algebra.reduce_concat(b, x)
            if val is not None:
                bump(((x,) + t, val), 1)
        if x.target == right_anchor:
            val = algebra.reduce_concat(x, b)
            if val is not None:
                bump((t + (x,), val), -1 if n % 2 == 0 else 1)
    for k in range(1, n + 1):
        piece = t[k - 1]
        sign = -1 if k % 2 else 1
        for c in range(1, len(piece)):
            u = piece.segment(c, len(piece))
            v = piece.segment(0, c)
            bump((t[: k - 1] + (u, v) + t[k:], b), sign)
    return {key: c for key, c in out.items() if c}


def scan_bar_differential_matrix(algebra, pairs_lo, pairs_hi):
    """The bar differential on Path-keyed pairs, as ``scan_bar_pairs`` lists them."""
    index = {key: i for i, key in enumerate(pairs_hi)}
    cols = []
    for t, b in pairs_lo:
        col = {}
        for key, c in scan_bar_column_terms(algebra, t, b).items():
            assert key in index, "differential left the cochain basis"
            col[index[key]] = c
        cols.append(col)
    return SparseMatrix(len(pairs_hi), len(pairs_lo), tuple(cols))


def scan_bar_pairs(algebra, n):
    """Degree-n bar cochain pairs, Path-keyed, by a scan of the basis per tuple."""
    out = []
    for t in bar_tuples(algebra, n):
        for b in algebra.basis:
            if t:
                if b.source == t[-1].source and b.target == t[0].target:
                    out.append((t, b))
            elif b.source == b.target:
                out.append((t, b))
    return out


def scan_right_spanning_set(table, degree):
    """Right-module generators 1 (x) p (x) b, by a scan of the basis per ambiguity."""
    alg = table.algebra
    out = []
    for amb in table.degree(degree):
        triv = alg.quiver.trivial_path_at(amb.path.source)
        for b in alg.basis:
            if b.source == amb.path.target:
                out.append(bimodule_element(degree, {(triv, amb, b): 1}))
    return out


def _tail_hits_relation(rel_arrows, arrows):
    """Does some relation end exactly at the last arrow?"""
    n = len(arrows)
    return any(len(rel) <= n and arrows[n - len(rel) :] == rel for rel in rel_arrows)


def scan_is_finite(quiver, rel_arrows):
    """Ufnarovskii's cycle test on the relation-free words of length L−1.

    The nodes are those words, keyed with their target vertex so trivial
    words at different vertices stay distinct; an arrow joins two of them
    when their overlap of length L is relation-free.
    """
    ell = max(max((len(r) for r in rel_arrows), default=0) - 1, 0)
    level = [((), v) for v in range(quiver.n_vertices)]
    for _ in range(ell):
        nxt = []
        for arrows, at in level:
            for a in quiver.out_arrows[at]:
                ext = arrows + (a,)
                if not _tail_hits_relation(rel_arrows, ext):
                    nxt.append((ext, quiver.arrow_target[a]))
        level = nxt
    node_ids = {key: i for i, key in enumerate(level)}
    edges = [[] for _ in level]
    for (arrows, at), i in node_ids.items():
        for a in quiver.out_arrows[at]:
            ext = arrows + (a,)
            if _tail_hits_relation(rel_arrows, ext):
                continue
            j = node_ids.get((ext[1:] if ell else (), quiver.arrow_target[a]))
            if j is not None:
                edges[i].append(j)
    return not _has_cycle(edges)


def scan_basis(quiver, rel_arrows):
    """The relation-free paths of a finite A, by a frontier, in basis order."""
    out = [quiver.trivial_path_at(v) for v in range(quiver.n_vertices)]
    frontier = out[:]
    while frontier:
        nxt = []
        for p in frontier:
            for a in quiver.out_arrows[p.target]:
                ext = p.arrows + (a,)
                if not _tail_hits_relation(rel_arrows, ext):
                    nxt.append(Path(quiver, p.source, ext))
        out.extend(nxt)
        frontier = nxt
    out.sort(key=Path.sort_key)
    return out
