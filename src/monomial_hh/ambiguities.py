"""n-ambiguities (overlap chains) of a monomial algebra.

Degree −1 ambiguities are the vertices, degree 0 the arrows, degree 1 the
minimal relations; degree n ≥ 2 words are built recursively by gluing a
relation onto the traversal-initial end of a degree n−1 ambiguity.  An
ambiguity is its arrow word and end vertices, like a basis index of the
algebra, and every layer reads those.  Every ambiguity has two
distinguished factorizations:

* left pieces  (u_n, …, u_0) in traversal order — u_0 is the last arrow
  traversed, and each written product u_i·u_{i+1} contains exactly one
  relation occurrence, flush with the traversal-initial arrow of u_{i+1};
* right pieces (v_0, …, v_n) in traversal order — the mirror image.

Both factorizations are unique and the two generation recursions produce
the same words; this module generates both independently and checks
that they agree, which downstream modules rely on.  Each ambiguity links
to the two (n−1)-truncations the recursions extend, and the pieces are read
off those links: u_n is what the tail leaves, v_n what the head leaves.
The faces of an ambiguity in the differential are read off it too: the
two links, and its positioned divisors of one degree less, which ``sub``
reads off the links and a scan of the band between them.
"""

from __future__ import annotations

from collections import defaultdict
from functools import wraps

from .errors import DegreeUnderflow
from .quivers import MonomialAlgebra

MEMOS = {}  # name -> builder of every per-table memo


def memoized(build):
    """build(table, key), or build(table, a, b) keyed by (a, b), computed once per table.

    Each result is stored in the table's memo ``<module>.<qualname>`` of the
    builder, so a hit is one call and one dict lookup, and the memo's length
    is its number of builds.  Results are shared: no caller may mutate one.
    """
    name = "%s.%s" % (build.__module__.rpartition(".")[2], build.__qualname__)
    if build.__code__.co_argcount == 2:
        def get(table, key):
            memo = table._memos[name]
            out = memo.get(key)
            if out is None:  # no builder returns None
                out = memo[key] = build(table, key)
            return out
    else:
        def get(table, a, b):
            memo = table._memos[name]
            out = memo.get((a, b))
            if out is None:
                out = memo[a, b] = build(table, a, b)
            return out
    MEMOS[name] = get
    return wraps(build)(get)


class Ambiguity:
    """The arrow word ``arrows`` from vertex ``source`` to ``target``, linked to
    its truncations ``head`` = v_0…v_{n−1} and ``tail`` = u_0…u_{n−1}.

    A vertex v has the empty word and ends v, v, and no links; an arrow's
    links are its source and target vertex.  Built once per table,
    ambiguities compare by identity within one table.
    """

    __slots__ = ("arrows", "source", "target", "degree", "head", "tail")

    def __init__(self, arrows: tuple, source: int, target: int, degree: int, head=None, tail=None):
        self.arrows = arrows
        self.source = source
        self.target = target
        self.degree = degree
        self.head = head
        self.tail = tail

    @property
    def left_pieces(self):
        """(u_n, …, u_0) in traversal order, as arrow words: the piece before each tail link."""
        pieces = []
        amb = self
        while amb.tail is not None:
            pieces.append(amb.arrows[: len(amb.arrows) - len(amb.tail.arrows)])
            amb = amb.tail
        return tuple(pieces)

    @property
    def right_pieces(self):
        """(v_0, …, v_n) in traversal order, as arrow words: the piece after each head link."""
        pieces = []
        amb = self
        while amb.head is not None:
            pieces.append(amb.arrows[len(amb.head.arrows) :])
            amb = amb.head
        return tuple(reversed(pieces))

    def __repr__(self):
        return f"Ambiguity({self.arrows} from {self.source} to {self.target}, degree {self.degree})"


def _left_candidates(rel_arrows, first_piece: tuple):
    """u_n candidates for extending a left chain whose u_{n-1} is first_piece."""
    cands = set()
    for rel in rel_arrows:
        for xlen in range(1, min(len(first_piece), len(rel) - 1) + 1):
            # relation = candidate + x, with x a traversal-initial run of u_{n-1}
            if rel[len(rel) - xlen :] == first_piece[:xlen]:
                cands.add(rel[: len(rel) - xlen])
    return [
        u
        for u in cands
        if not any(len(v) < len(u) and u[len(u) - len(v) :] == v for v in cands)
    ]


def _right_candidates(rel_arrows, last_piece: tuple):
    """v_n candidates for extending a right chain whose v_{n-1} is last_piece."""
    cands = set()
    for rel in rel_arrows:
        for xlen in range(1, min(len(last_piece), len(rel) - 1) + 1):
            # relation = x + candidate, with x a traversal-final run of v_{n-1}
            if rel[:xlen] == last_piece[len(last_piece) - xlen :]:
                cands.add(rel[xlen:])
    return [
        v
        for v in cands
        if not any(len(w) < len(v) and v[: len(w)] == w for w in cands)
    ]


class AmbiguityTable:
    """Lazy per-degree cache of the ambiguities of one algebra, and its memos.

    Generation of degree n reads degree n−1 and the candidate memo: the
    pieces that can extend a parent depend only on the relations and the
    parent's end piece, so each end piece's are found once per table,
    whichever degree first meets it.  Once a degree is stored it is never
    mutated, so concurrent readers are safe after that point.

    On top of Γ_n sits the incidence index that every layer reads:
    ``occurrences`` looks arrow words up in the {arrows: ambiguity} dict
    stored with each degree, and the ``head`` and ``tail`` links name the
    truncations.  Together they give each ambiguity's faces (``sub`` scans
    only what the links leave), so no inverse index is kept.

    Besides Γ_n the table holds one registry, {memo name: {key: value}}.
    Each memo has its builder in ``MEMOS``, entered where it is built: a
    builder under ``memoized`` computes each key once per table, and
    ``memo(name)`` hands over the memo for a caller that reads a hit inline.
    """

    def __init__(self, algebra: MonomialAlgebra):
        self.algebra = algebra
        q = algebra.quiver
        # vertex and arrow indices are already in path order
        base = tuple(Ambiguity((), v, v, -1) for v in range(q.n_vertices))
        arrows = tuple(
            Ambiguity((a,), s, t, 0, base[s], base[t]) for a, (s, t) in enumerate(zip(q.arrow_source, q.arrow_target))
        )
        # index 0 holds degree -1
        self._degrees = [base, arrows]
        # index n holds degree n's {arrows: ambiguity}; degree -1 is base, by vertex
        self._words = [{a.arrows: a for a in arrows}]
        self._memos = defaultdict(dict)  # memo name -> {key: value}, see MEMOS

    def memo(self, name):
        """The {key: value} memo of the builder named name in ``MEMOS``, empty until it is filled."""
        return self._memos[name]

    def degree(self, n: int):
        """The tuple of n-ambiguities, sorted by path; computed on demand."""
        if n < -1:
            raise DegreeUnderflow(f"no ambiguities of degree {n}")
        while len(self._degrees) <= n + 1:
            self._extend()
        return self._degrees[n + 1]

    def _extend(self):
        q = self.algebra.quiver
        n = len(self._degrees) - 1  # degree being generated
        prev = self._degrees[-1]
        extensions = self._extensions

        # {word: parent}: the left recursion extends tails, the right one heads
        tails = {}
        for parent in prev:
            word = parent.arrows
            for u in extensions(_left_candidates, word[: len(word) - len(parent.tail.arrows)]):
                # factorization uniqueness: a collision must have the same parent
                kept = tails.setdefault(u + word, parent)
                assert kept is parent

        heads = {}
        for parent in prev:
            word = parent.arrows
            for v in extensions(_right_candidates, word[len(parent.head.arrows) :]):
                kept = heads.setdefault(word + v, parent)
                assert kept is parent

        words = sorted(tails)
        words.sort(key=len)  # stable: path order, by length then word
        source, target = q.arrow_source, q.arrow_target
        # the two recursions must produce the same words: every left word
        # finds its head parent, and there are as many right words
        try:
            merged = tuple(Ambiguity(w, source[w[0]], target[w[-1]], n, heads[w], tails[w]) for w in words)
        except KeyError:
            merged = None
        assert merged is not None and len(heads) == len(tails), f"left/right ambiguity generation disagree at degree {n}"
        if n == 1:
            # degree 1 must reproduce the minimal relation set exactly
            assert tails.keys() == set(self.algebra.relations)
        self._degrees.append(merged)
        self._words.append(dict(zip(words, merged)))

    @memoized
    def _extensions(self, candidates, end):
        """candidates(relations, end): the pieces that extend a chain whose end
        piece is end, on the side that candidates finds; computed once per table."""
        return candidates(self.algebra.relations, end)

    # -- truncations and divisor structure ------------------------------------

    def split(self, amb: Ambiguity, i: int, j: int):
        """amb = prefix-part · b · suffix-part with i + j = degree − 1.

        Returns (v_0…v_i, b, u_0…u_j): the prefix and suffix truncations,
        walked along the head and tail links, and the basis index b of the
        middle remainder, which always lies in the basis.
        """
        n = amb.degree
        assert i + j == n - 1 and i >= -1 and j >= -1
        pre = suf = amb
        for _ in range(n - i):
            pre = pre.head
        for _ in range(n - j):
            suf = suf.tail
        lo = len(pre.arrows)
        hi = len(amb.arrows) - len(suf.arrows)
        assert lo <= hi, "prefix/suffix truncations overlap"
        b = self.algebra.find(amb.arrows[lo:hi], pre.target)
        assert b is not None
        return pre, b, suf

    def sub(self, amb: Ambiguity):
        """Positioned (n−1)-ambiguity divisors [(lower, k)], by increasing position k.

        Two distinct ambiguities of one degree never lie one inside the
        other, so the divisors sit at distinct positions and are read off
        the links.  With amb = u_n·tail = head·v_n: the divisor at 0 is
        head; one at len(u_n) or later lies inside tail, so it is tail at
        len(u_n); every other one starts at 1 … len(u_n)−1 and ends past
        len(head), and only that band is scanned.  For n = 0 the links are
        the end vertices and the band is empty.  The order is that of
        ``occurrences`` on amb's word.
        """
        n = amb.degree
        if n < 0:
            raise DegreeUnderflow("sub() needs degree >= 0")
        head, tail, arrows = amb.head, amb.tail, amb.arrows
        end = len(arrows)
        cut = end - len(tail.arrows)  # len(u_n)
        hits = [(head, 0)]
        if cut > 1:
            lookup = self._words[n - 1]
            reach = len(head.arrows)
            lengths = self._windows(n - 1)
            for k in range(1, cut):
                for length in lengths:
                    stop = k + length
                    if stop > end:
                        break
                    if stop > reach:
                        lower = lookup.get(arrows[k:stop])
                        if lower is not None:
                            hits.append((lower, k))
            # distinct members occupy distinct positions (same-degree divisors
            # of an ambiguity cannot nest)
            assert len({k for _, k in hits}) == len(hits)
        hits.append((tail, cut))
        return hits

    # -- incidence index -------------------------------------------------------

    def occurrences(self, m: int, arrows: tuple, source: int):
        """Every (m-ambiguity, position) inside the arrow word from source, by position.

        The word may contain relations.  Degree −1 yields the vertex at each
        of the len(arrows) + 1 positions; the source matters only there.
        """
        if m == -1:
            vertices = self.degree(-1)  # sorted by vertex index
            target = self.algebra.quiver.arrow_target
            return [(vertices[v], k) for k, v in enumerate((source, *(target[a] for a in arrows)))]
        lengths = self._windows(m)
        if not lengths:
            return []
        lookup = self._words[m]
        end = len(arrows)
        hits = []
        # no window of the shortest length starts past end − lengths[0]
        for k in range(end - lengths[0] + 1):
            for length in lengths:
                if k + length > end:
                    break
                amb = lookup.get(arrows[k : k + length])
                if amb is not None:
                    hits.append((amb, k))
        return hits

    @memoized
    def _windows(self, m):
        """The sorted lengths of the m-ambiguities, m >= 0; computed once per table."""
        return sorted({len(a.arrows) for a in self.degree(m)})
