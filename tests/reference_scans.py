"""Brute-force scans that the incidence index of ``AmbiguityTable`` replaced.

Each one tests every ambiguity of a whole degree against a word, so its
cost grows with |Γ_m|.  They stay here as the reference that
``occurrences``, ``sub``, the truncation links and the pair
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
The ``path_*`` functions are the resolution and the diagonal on ``Path``
keys, built from path segments and ``reduce_concat``: they are the
reference for the index-keyed elements of ``resolution`` and
``diagonal``, which ``to_paths`` maps onto them.  ``concat`` and
``reduce_concat`` are the path products that the algebra's product
table replaced; ``is_basis`` and ``nontrivial_basis`` ask the algebra's
basis index about paths, and ``vertex_at``, ``segment`` and ``is_trivial``
cut and inspect them.  ``amb_prefix`` and ``amb_suffix`` walk an
ambiguity's head and tail links down to a given degree, the truncations
that ``AmbiguityTable.split`` reads.  ``insert_kernel_basis`` and
``insert_quotient_basis`` are the elimination before its shortcuts: every
column and every kernel vector goes through ``RowBasis.insert`` and every
representative's rest through ``reduce_mod``, the reference for
``linalg.kernel_basis`` and ``linalg.quotient_basis``.  ``term_constants``
is the cup structure constants before their gap classes: every Δ term
looks up the product of every parallel pair (bf, bg), the reference for
``cup._constants``.  ``dense_cup_table`` is the class table before it went
sparse: a matrix with a cell, {} when zero, for every pair of
representatives, the reference for ``cup.cup_table``.  ``lookup_columns``
is δ^m before its face classes: each face of each q looks up the product
of every parallel b, the reference for ``cochains._columns``.
``ratio_to_row`` is the rational ``to_row`` before its ``int`` path, every
entry read through ``as_integer_ratio``.
"""

from math import lcm

from monomial_hh.ambiguities import Ambiguity
from monomial_hh.cochains import _offsets, class_vector
from monomial_hh.combination import Combination
from monomial_hh.cup import cup_products
from monomial_hh.diagonal import diagonal
from monomial_hh.errors import DegreeUnderflow, ImageNotInKernel, InfiniteDimensional, NonComposableRelation
from monomial_hh.linalg import RowBasis, SparseMatrix
from monomial_hh.quivers import _has_cycle

from helpers import Path, amb_path, basis_paths, scalar


def vertex_at(p, k):
    """Vertex index after traversing k arrows of p (0 ≤ k ≤ len)."""
    if k == 0:
        return p.source
    return p.quiver.arrow_target[p.arrows[k - 1]]


def segment(p, i, j):
    """Sub-path of p spanning traversal positions [i, j)."""
    assert 0 <= i <= j <= len(p.arrows)
    return Path(p.quiver, vertex_at(p, i), p.arrows[i:j])


def is_trivial(p):
    return not p.arrows


def amb_suffix(amb, m):
    """The traversal-final truncation u_0…u_m, itself an m-ambiguity."""
    n = amb.degree
    if not -1 <= m <= n:
        raise DegreeUnderflow(f"truncation degree {m} outside [-1, {n}]")
    for _ in range(n - m):
        amb = amb.tail
    return amb


def amb_prefix(amb, m):
    """The traversal-initial truncation v_0…v_m, itself an m-ambiguity."""
    n = amb.degree
    if not -1 <= m <= n:
        raise DegreeUnderflow(f"truncation degree {m} outside [-1, {n}]")
    for _ in range(n - m):
        amb = amb.head
    return amb


def concat(*paths):
    """Concatenate in traversal order; raises when endpoints do not meet."""
    first = paths[0]
    arrows = list(first.arrows)
    cur = first.target
    for p in paths[1:]:
        if p.source != cur:
            raise NonComposableRelation("paths do not compose")
        arrows.extend(p.arrows)
        cur = p.target
    return Path(first.quiver, first.source, tuple(arrows))


def reduce_concat(algebra, *paths):
    """Concatenate (traversal order) and reduce in A; None when zero.

    Raises when endpoints do not meet.  An empty word is the trivial
    path of the vertex every input sits at.
    """
    i = algebra.find(concat(*paths).arrows, paths[0].source)
    return None if i is None else Path(algebra.quiver, algebra.source[i], algebra.words[i])


def is_basis(algebra, p):
    """Is the path p relation-free, that is, a basis path of A?"""
    return algebra.find(p.arrows, p.source) is not None


def nontrivial_basis(algebra):
    """The basis paths of positive length, in basis order."""
    return tuple(p for p in basis_paths(algebra) if p.arrows)


def divisor_occurrences(q, p):
    """Every position k at which the path q divides the path p, p = p[:k]·q·p[k+len(q):], increasing."""
    lq = len(q.arrows)
    if lq == 0:
        return [k for k in range(len(p.arrows) + 1) if vertex_at(p, k) == q.source]
    return [k for k in range(len(p.arrows) - lq + 1) if p.arrows[k : k + lq] == q.arrows]


def scan_occurrences(table, m, word):
    """(m-ambiguity, position) for every occurrence in the path word, by position."""
    hits = [(a, k) for a in table.degree(m) for k in divisor_occurrences(amb_path(table, a), word)]
    hits.sort(key=lambda t: t[1])
    return hits


def scan_sub(table, amb):
    """Positioned (n−1)-ambiguity divisors (lower, k), by increasing position k."""
    return scan_occurrences(table, amb.degree - 1, amb_path(table, amb))


def scan_truncation(table, amb, m, initial):
    """The one m-ambiguity whose path is a traversal-initial segment of amb's
    path (traversal-final when initial is false), by a scan of Γ_m."""
    p = amb_path(table, amb)
    end = len(p)

    def end_piece(k):
        return segment(p, 0, k) if initial else segment(p, end - k, end)

    hits = [a for a in table.degree(m) if len(a.arrows) <= end and amb_path(table, a) == end_piece(len(a.arrows))]
    assert len(hits) == 1, "%d truncations of degree %d" % (len(hits), m)
    return hits[0]


def scan_pair_differential_terms(table, amb, b):
    """Differential of the basis pair (amb, b) by a scan of every output ambiguity."""
    alg = table.algebra
    m = amb.degree + 1  # degree of the output ambiguities
    p = amb_path(table, amb)
    out = {}

    def bump(q, value, sign):
        if value is None:
            return
        key = (q, value)
        out[key] = out.get(key, 0) + sign

    if m % 2 == 0:
        for q in table.degree(m):
            qp = amb_path(table, q)
            if amb_path(table, amb_prefix(q, m - 1)) == p:
                tail = segment(qp, len(p), len(qp))
                bump(q, reduce_concat(alg, b, tail), 1)
            if amb_path(table, amb_suffix(q, m - 1)) == p:
                head = segment(qp, 0, len(qp) - len(p))
                bump(q, reduce_concat(alg, head, b), -1)
    else:
        for q in table.degree(m):
            qp = amb_path(table, q)
            for k in divisor_occurrences(p, qp):
                bump(q, reduce_concat(alg, segment(qp, 0, k), b, segment(qp, k + len(p), len(qp))), 1)
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
        qp = amb_path(table, q)
        seconds = [(pg, k2) for pg, k2 in table.occurrences(n - 1, q.arrows, q.source) if pg in g_terms]
        for pf, k1 in table.occurrences(m - 1, q.arrows, q.source):
            if pf not in f_terms:
                continue
            end1 = k1 + len(pf.arrows)
            gap_a = segment(qp, 0, k1)
            for pg, k2 in seconds:
                if k2 < end1:
                    continue
                gap_c = segment(qp, end1, k2)
                gap_e = segment(qp, k2 + len(pg.arrows), len(qp))
                for bf, cf in f_terms[pf]:
                    for bg, cg in g_terms[pg]:
                        value = reduce_concat(alg, gap_a, bf, gap_c, bg, gap_e)
                        if value is not None:
                            key = (q, value)
                            out[key] = out.get(key, 0) + cf * cg
    return {key: s for key, c in out.items() if (s := scalar(field, c))}


def scan_out_arrows(quiver):
    """Arrows leaving each vertex, by a scan of every arrow."""
    return tuple(
        tuple(a for a in range(quiver.n_arrows) if quiver.arrow_source[a] == v) for v in range(quiver.n_vertices)
    )


def scan_parallel(algebra):
    """{(source, target): indices of the basis paths between them}, by a scan of the basis per vertex pair."""
    n = algebra.quiver.n_vertices
    basis = basis_paths(algebra)
    return {
        (s, t): tuple(i for i, b in enumerate(basis) if b.source == s and b.target == t)
        for s in range(n)
        for t in range(n)
    }


def scan_pair_basis(table, m):
    """Degree-m (ambiguity, parallel basis path) pairs, by a scan of the basis per ambiguity."""
    basis = basis_paths(table.algebra)
    return [(amb, b) for amb in table.degree(m - 1) for b in basis if b.source == amb.source and b.target == amb.target]


def bar_tuples(algebra, n):
    """Composable n-tuples of nontrivial basis paths, lexicographic order."""
    if n == 0:
        return [()]
    base = nontrivial_basis(algebra)
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
    for x in nontrivial_basis(algebra):
        if x.source == left_anchor:
            val = reduce_concat(algebra, b, x)
            if val is not None:
                bump(((x,) + t, val), 1)
        if x.target == right_anchor:
            val = reduce_concat(algebra, x, b)
            if val is not None:
                bump((t + (x,), val), -1 if n % 2 == 0 else 1)
    for k in range(1, n + 1):
        piece = t[k - 1]
        sign = -1 if k % 2 else 1
        for c in range(1, len(piece)):
            u = segment(piece, c, len(piece))
            v = segment(piece, 0, c)
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
    basis = basis_paths(algebra)
    for t in bar_tuples(algebra, n):
        for b in basis:
            if t:
                if b.source == t[-1].source and b.target == t[0].target:
                    out.append((t, b))
            elif b.source == b.target:
                out.append((t, b))
    return out


def scan_right_spanning_set(table, degree):
    """Right-module generators 1 (x) p (x) b, Path-keyed, by a scan of the basis per ambiguity."""
    alg = table.algebra
    out = []
    basis = basis_paths(alg)
    for amb in table.degree(degree):
        triv = Path(alg.quiver, amb.source, ())
        for b in basis:
            if b.source == amb.target:
                out.append(path_triples(degree, {(triv, amb, b): 1}))
    return out


# -- the Path-keyed resolution and diagonal -------------------------------------


def _check_path_triple(key, degree):
    pre, amb, post = key
    assert isinstance(amb, Ambiguity) and amb.degree == degree
    assert pre.target == amb.source
    assert amb.target == post.source


def _check_path_quintuple(key, degree):
    pre, first, mid, second, post = key
    assert first.degree + second.degree + 1 == degree
    assert pre.target == first.source
    assert first.target == mid.source
    assert mid.target == second.source
    assert second.target == post.source


def path_triples(degree, terms=None):
    """Sparse integer combination of composable (pre, amb, post) triples of paths."""
    return Combination(_check_path_triple, degree, terms)


def path_quintuples(degree, terms=None):
    """Sparse integer combination of composable quintuples of paths and ambiguities."""
    return Combination(_check_path_quintuple, degree, terms)


def to_paths(table, x):
    """The index-keyed element x with each basis index replaced by its path.

    The kind follows the key length; an empty element equals the empty
    element of either kind.
    """
    basis = basis_paths(table.algebra)
    out = {}
    for key, c in x.terms.items():
        out[tuple(part if isinstance(part, Ambiguity) else basis[part] for part in key)] = c
    if all(len(key) == 3 for key in out):
        return path_triples(x.degree, out)
    return path_quintuples(x.degree, out)


def path_generator(table, amb):
    q = table.algebra.quiver
    pre = Path(q, amb.source, ())
    post = Path(q, amb.target, ())
    return path_triples(amb.degree, {(pre, amb, post): 1})


def path_d_terms(table, amb):
    """Differential of 1 (x) amb (x) 1, as (pre, sub_amb, post, sign) with Path ends."""
    n = amb.degree
    assert n >= 0
    alg = table.algebra
    out = []
    p = amb_path(table, amb)
    if n % 2 == 1:
        for q, k in table.sub(amb):
            prefix, suffix = segment(p, 0, k), segment(p, k + len(q.arrows), len(p))
            if is_basis(alg, prefix) and is_basis(alg, suffix):
                out.append((prefix, q, suffix, 1))
    else:
        after = segment(p, len(amb.head.arrows), len(p))
        if is_basis(alg, after):
            out.append((Path(alg.quiver, p.source, ()), amb.head, after, 1))
        before = segment(p, 0, len(p) - len(amb.tail.arrows))
        if is_basis(alg, before):
            out.append((before, amb.tail, Path(alg.quiver, p.target, ()), -1))
    return out


def path_differential(table, x):
    alg = table.algebra
    out = path_triples(x.degree - 1)
    for (pre, amb, post), c in x.terms.items():
        for dpre, q, dpost, sign in path_d_terms(table, amb):
            new_pre = reduce_concat(alg, pre, dpre)
            if new_pre is None:
                continue
            new_post = reduce_concat(alg, dpost, post)
            if new_post is None:
                continue
            out.add((new_pre, q, new_post), sign * c)
    return out


def path_homotopy_sigma(table, x):
    """Contracting homotopy; right-linear, scans the unreduced word amb*post."""
    alg = table.algebra
    out = path_triples(x.degree + 1)
    for (pre, amb, post), c in x.terms.items():
        if len(amb.arrows) + len(post) == 0:
            continue
        word = concat(amb_path(table, amb), post)  # may contain relations on purpose
        end = len(word.arrows)
        for q, k in table.occurrences(x.degree + 1, word.arrows, word.source):
            new_pre = reduce_concat(alg, pre, segment(word, 0, k))
            if new_pre is None:
                continue
            tail = segment(word, k + len(q.arrows), end)
            if not is_basis(alg, tail):
                continue
            out.add((new_pre, q, tail), c)
    return out


def path_decompositions(table, amb, i, j):
    """Positioned (q1 at k1) then (q2 at k2 >= k1+len) splits of amb's path, Path-keyed."""
    alg = table.algebra
    p = amb_path(table, amb)
    seconds = table.occurrences(j, amb.arrows, amb.source)
    out = []
    for q1, k1 in table.occurrences(i, amb.arrows, amb.source):
        end1 = k1 + len(q1.arrows)
        for q2, k2 in seconds:
            if k2 < end1:
                continue
            pre = segment(p, 0, k1)
            mid = segment(p, end1, k2)
            post = segment(p, k2 + len(q2.arrows), len(p))
            if not (is_basis(alg, pre) and is_basis(alg, mid) and is_basis(alg, post)):
                continue
            out.append((pre, q1, mid, q2, post))
    return out


def path_diagonal(table, amb):
    n = amb.degree
    out = path_quintuples(n)
    for i in range(-1, n + 1):
        for key in path_decompositions(table, amb, i, n - 1 - i):
            out.add(key, 1)
    return out


def path_tensor_differential(table, x):
    """(d (x) id)x + (-1)^(left homological degree) (id (x) d)x, Path-keyed."""
    alg = table.algebra
    out = path_quintuples(x.degree - 1)
    for (pre, f, m, s, post), c in x.terms.items():
        if s.degree >= 0:
            for dpre, r, dpost, sign in path_d_terms(table, s):
                new_mid = reduce_concat(alg, m, dpre)
                if new_mid is None:
                    continue
                new_post = reduce_concat(alg, dpost, post)
                if new_post is None:
                    continue
                out.add((pre, f, new_mid, r, new_post), sign * c)
        if f.degree >= 0:
            koszul = -1 if (s.degree + 1) % 2 else 1
            for dpre, r, dpost, sign in path_d_terms(table, f):
                new_pre = reduce_concat(alg, pre, dpre)
                if new_pre is None:
                    continue
                new_mid = reduce_concat(alg, dpost, m)
                if new_mid is None:
                    continue
                out.add((new_pre, r, new_mid, s, post), koszul * sign * c)
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
    return not _has_cycle(range(len(edges)), edges.__getitem__)


def scan_basis(quiver, rel_arrows):
    """The relation-free paths of a finite A, by a frontier, in basis order."""
    out = [Path(quiver, v, ()) for v in range(quiver.n_vertices)]
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


def bfs_read_automaton(quiver, rel_arrows):
    """The basis of a finite A off the whole relation automaton, built breadth
    first; InfiniteDimensional when its live states have a cycle."""
    rels = set(rel_arrows)
    known = rels | {r[:k] for r in rels for k in range(1, len(r))}
    states = [((), v) for v in range(quiver.n_vertices)]  # root v is state v
    index = {state: i for i, state in enumerate(states)}
    steps = []  # steps[i]: the live (arrow, next state) pairs out of state i
    for w, v in states:  # states grows while it is read
        out = []
        for a in quiver.out_arrows[v]:
            word = w + (a,)
            hit = next((word[k:] for k in range(len(word)) if word[k:] in known), ())
            if hit in rels:
                continue
            state = (hit, quiver.arrow_target[a])
            if state not in index:
                index[state] = len(states)
                states.append(state)
            out.append((a, index[state]))
        steps.append(out)
    if _has_cycle(range(len(steps)), lambda i: [j for _, j in steps[i]]):
        raise InfiniteDimensional("arbitrarily long relation-free paths exist")
    basis = [Path(quiver, v, ()) for v in range(quiver.n_vertices)]
    frontier = list(enumerate(basis))
    while frontier:
        nxt = []
        for i, p in frontier:
            for a, j in steps[i]:
                nxt.append((j, Path(quiver, p.source, p.arrows + (a,))))
        basis.extend(p for _, p in nxt)
        frontier = nxt
    basis.sort(key=Path.sort_key)
    return basis


def lookup_columns(table, m):
    """``cochains._columns`` with one word lookup per face of each q and parallel b.

    The faces are read off q: the truncation walks in even m, ``sub`` in odd
    m; no face class is read.
    """
    algebra = table.algebra
    words, word_index, parallel, position = algebra.words, algebra.word_index, algebra.parallel, algebra.position
    col_offsets, ncols, _ = _offsets(table, m)
    row_offsets = _offsets(table, m + 1)[0]
    cols = [{} for _ in range(ncols)]
    for q in table.degree(m):
        if m % 2:
            faces = [(p, k, 1) for p, k in table.sub(q)]
        else:
            tail = amb_suffix(q, m - 1)
            faces = [(amb_prefix(q, m - 1), 0, 1), (tail, len(q.arrows) - len(tail.arrows), -1)]
        for p, k, sign in faces:
            pre, post = q.arrows[:k], q.arrows[k + len(p.arrows) :]
            for j, b in enumerate(parallel[(p.source, p.target)], col_offsets[p]):
                i = word_index.get(pre + words[b] + post)
                if i is not None:
                    i = row_offsets[q] + position[i]
                    cols[j][i] = cols[j].get(i, 0) + sign
    return [{i: n for i, n in col.items() if n} for col in cols]


def term_constants(table, m, n):
    """``cup._constants`` with the products of every Δ term looked up afresh, not cached."""
    algebra = table.algebra
    mul, parallel, position = algebra.mul, algebra.parallel, algebra.position
    f_offsets, g_offsets, q_offsets = (_offsets(table, d)[0] for d in (m, n, m + n))
    constants = {}
    for q in table.degree(m + n - 1):
        row = q_offsets[q]
        for (pre, pf, mid, pg, post), c in diagonal(table, q).terms.items():
            if pf.degree != m - 1:
                continue
            assert c == 1, "the diagonal adds each positioned split once"
            bgs = parallel[(pg.source, pg.target)]
            for i, bf in enumerate(parallel[(pf.source, pf.target)], f_offsets[pf]):
                left = mul(pre, bf)
                if left is not None:
                    left = mul(left, mid)
                if left is None:
                    continue
                for j, bg in enumerate(bgs, g_offsets[pg]):
                    value = mul(left, bg)
                    if value is not None:
                        value = mul(value, post)
                    if value is None:
                        continue
                    by_g = constants.setdefault(i, {})
                    by_g.setdefault(j, []).append(row + position[value])
    return constants


def dense_cup_table(table, spaces, i, j):
    """Matrix of class products HH^i x HH^j -> HH^(i+j), entry[a][b]: one
    ``cup_products`` call, then ``class_vector`` on each nonzero product."""
    reps_i, reps_j = spaces[i].representatives, spaces[j].representatives
    products = cup_products(table, i, j, reps_i, reps_j)
    target = spaces[i + j]
    return [
        [class_vector(target, table, products[a, b]) if (a, b) in products else {} for b in range(len(reps_j))]
        for a in range(len(reps_i))
    ]


def insert_kernel_basis(field, matrix, image=None):
    """``linalg.kernel_basis`` with every column inserted, zero columns too."""
    basis = RowBasis(field, track=True)
    out = []
    for j, col in enumerate(matrix.cols):
        added, dep = basis.insert(col, tag=j)
        if not added:
            out.append(dep)
    assert basis.rank + len(out) == matrix.ncols
    if image is not None:
        image.extend(field.canonical(vec, None, p)[0] for p, (vec, _) in basis.rows.items())
    return out


def insert_quotient_basis(field, kernel_vecs, image):
    """``linalg.quotient_basis`` with every kernel vector inserted and every rest reduced."""
    combined = RowBasis(field, seed=image)
    rep_pivots = []
    for v in kernel_vecs:
        if combined.insert(v)[0]:
            rep_pivots.append(next(reversed(combined.rows)))
    if combined.rank != len(kernel_vecs):
        raise ImageNotInKernel("image vector outside the kernel span")
    reps = []
    for p in rep_pivots:
        vec = combined.rows[p][0]
        rep = {p: vec[p]}
        rep.update(combined.reduce_mod({c: v for c, v in vec.items() if c != p}))
        reps.append(rep)
    return reps


def ratio_to_row(vec):
    """``RationalField.to_row`` before its ``int`` path: one ``as_integer_ratio`` per entry."""
    row = {}
    d = 1
    for c, v in vec.items():
        if v:
            row[c], den = v.as_integer_ratio()
            if den != 1:
                d = lcm(d, den)
    if d != 1:
        for c in row:
            n, den = vec[c].as_integer_ratio()
            row[c] = n * (d // den)
    return row, d
