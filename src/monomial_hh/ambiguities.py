"""n-ambiguities (overlap chains) of a monomial algebra.

Degree −1 ambiguities are the trivial paths, degree 0 the arrows, degree 1
the minimal relations; degree n ≥ 2 paths are built recursively by gluing a
relation onto the traversal-initial end of a degree n−1 ambiguity.  Every
ambiguity has two distinguished factorizations:

* left pieces  (u_n, …, u_0) in traversal order — u_0 is the last arrow
  traversed, and each written product u_i·u_{i+1} contains exactly one
  relation occurrence, flush with the traversal-initial arrow of u_{i+1};
* right pieces (v_0, …, v_n) in traversal order — the mirror image.

Both factorizations are unique and the two generation recursions produce
the same path sets; this module generates both independently and checks
that they agree, which downstream modules rely on.  Each ambiguity links
to the two (n−1)-truncations the recursions extend, and the pieces are read
off those links: u_n is what the tail leaves, v_n what the head leaves.
"""

from __future__ import annotations

from .errors import DegreeUnderflow
from .quivers import DivisorOccurrence, MonomialAlgebra, Path


class Ambiguity:
    """A path linked to its truncations ``head`` = v_0…v_{n−1} and ``tail`` = u_0…u_{n−1}.

    An arrow's are its source and target vertex; a vertex has neither.  Built
    once per table, ambiguities compare by identity within one table.
    """

    __slots__ = ("path", "degree", "head", "tail")

    def __init__(self, path: Path, degree: int, head=None, tail=None):
        self.path = path
        self.degree = degree
        self.head = head
        self.tail = tail

    @property
    def left_pieces(self):
        """(u_n, …, u_0) in traversal order: the piece before each tail link."""
        pieces = []
        amb = self
        while amb.tail is not None:
            pieces.append(amb.path.segment(0, len(amb.path) - len(amb.tail.path)))
            amb = amb.tail
        return tuple(pieces)

    @property
    def right_pieces(self):
        """(v_0, …, v_n) in traversal order: the piece after each head link."""
        pieces = []
        amb = self
        while amb.head is not None:
            pieces.append(amb.path.segment(len(amb.head.path), len(amb.path)))
            amb = amb.head
        return tuple(reversed(pieces))

    def display_left(self) -> str:
        """Written word with piece separators, e.g. ``alpha|deltagamma|betaalpha``."""
        return "|".join(p.word() for p in reversed(self.left_pieces))

    def display_right(self) -> str:
        return "|".join(p.word() for p in reversed(self.right_pieces))

    def __repr__(self):
        return f"Ambiguity({self.path.display()}, degree {self.degree})"


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
    """Lazy per-degree cache of the ambiguities of one algebra.

    Generation of degree n reads only degree n−1; once a degree is stored it
    is never mutated, so concurrent readers are safe after that point.

    On top of Γ_n sits the incidence index that every layer reads:
    ``occurrences`` and ``by_path`` look words up in the {arrows: ambiguity}
    dict stored with each degree, and ``cofaces`` inverts the differential.
    The window lengths and the cofaces are built lazily, on first use, from
    the stored degrees alone; they are idempotent caches, so building one
    twice gives the same map.
    The faces of the resolution differential and the diagonals, which read
    only this index and the algebra's basis index, the cup structure
    constants, which read only the diagonals, and the pairs and pair
    offsets of the cochains are cached here the same way, one slot each, by
    the modules that build them.  So are three pieces that the check
    battery would otherwise rebuild row after row: the δ columns of each
    ambiguity's pairs, filled only by ``cochains.cochain_differential``
    (matrix assembly reads them but stores nothing, so ``hh`` holds one
    matrix at a time); each ambiguity's divisor occurrences in every
    degree up to its own, filled by ``diagonal._decompositions``; and the
    splits of each word amb·post, filled by ``resolution.homotopy_sigma``.
    """

    def __init__(self, algebra: MonomialAlgebra):
        self.algebra = algebra
        q = algebra.quiver
        # vertex and arrow indices are already in path order
        base = tuple(Ambiguity(q.trivial_path_at(v), -1) for v in range(q.n_vertices))
        arrows = tuple(
            Ambiguity(q.path_from_arrows((a,)), 0, base[q.arrow_source[a]], base[q.arrow_target[a]])
            for a in range(q.n_arrows)
        )
        # index 0 holds degree -1
        self._degrees = [base, arrows]
        # index n holds degree n's {arrows: ambiguity}; degree -1 is base, by vertex
        self._words = [{a.path.arrows: a for a in arrows}]
        self._windows = {}  # degree m >= 0 -> sorted lengths of its ambiguities
        self._cofaces = {}  # degree n -> {(n-1)-ambiguity: [(q, position, sign)]}
        self._cup = {}  # bidegree (m, n) -> cup structure constants, see cup._constants
        self._diagonals = {}  # ambiguity -> its diagonal, see diagonal.diagonal
        self._faces = {}  # ambiguity -> its differential's faces, see resolution._d_terms
        self._pairs = {}  # cochain degree m -> its pairs, see cochains.pair_basis
        self._offsets = {}  # cochain degree m -> row offsets of Γ_{m-1}, see cochains._offsets
        self._delta = {}  # ambiguity -> δ columns of its pairs, see cochains.cochain_differential
        self._divisors = {}  # ambiguity -> its occurrences by degree, see diagonal._decompositions
        self._splits = {}  # (ambiguity, post) -> homotopy splits, see resolution.homotopy_sigma

    def degree(self, n: int):
        """The tuple of n-ambiguities, sorted by path; computed on demand."""
        if n < -1:
            raise DegreeUnderflow(f"no ambiguities of degree {n}")
        while len(self._degrees) <= n + 1:
            self._extend()
        return self._degrees[n + 1]

    def by_path(self, n: int, path: Path):
        """The n-ambiguity with this underlying path, or None."""
        ambs = self.degree(n)
        if n == -1:
            return None if path.arrows else ambs[path.source]
        return self._words[n].get(path.arrows)

    def _extend(self):
        q = self.algebra.quiver
        rel_arrows = self.algebra._rel_arrows
        n = len(self._degrees) - 1  # degree being generated
        prev = self._degrees[-1]

        # the candidates depend only on the parent's end piece, and few pieces
        # are distinct: each piece's are found once
        memo = {}

        def extensions(candidates, end):
            out = memo.get((candidates, end))
            if out is None:
                out = memo[candidates, end] = candidates(rel_arrows, end)
            return out

        # {word: parent}: the left recursion extends tails, the right one heads
        tails = {}
        for parent in prev:
            word = parent.path.arrows
            for u in extensions(_left_candidates, word[: len(word) - len(parent.tail.path)]):
                # factorization uniqueness: a collision must have the same parent
                assert tails.get(u + word, parent) is parent
                tails[u + word] = parent

        heads = {}
        for parent in prev:
            word = parent.path.arrows
            for v in extensions(_right_candidates, word[len(parent.head.path) :]):
                assert heads.get(word + v, parent) is parent
                heads[word + v] = parent

        # the two recursions must produce the same path sets
        assert set(tails) == set(heads), (
            f"left/right ambiguity generation disagree at degree {n}"
        )
        if n == 1:
            # degree 1 must reproduce the minimal relation set exactly
            assert set(tails) == set(rel_arrows)

        words = sorted(tails, key=lambda w: (len(w), w))  # path order
        merged = tuple(Ambiguity(q.path_from_arrows(w), n, heads[w], tails[w]) for w in words)
        self._degrees.append(merged)
        self._words.append(dict(zip(words, merged)))

    # -- truncations and divisor structure ------------------------------------

    def amb_suffix(self, amb: Ambiguity, m: int) -> Ambiguity:
        """The traversal-final truncation u_0…u_m, itself an m-ambiguity."""
        n = amb.degree
        if not -1 <= m <= n:
            raise DegreeUnderflow(f"truncation degree {m} outside [-1, {n}]")
        for _ in range(n - m):
            amb = amb.tail
        return amb

    def amb_prefix(self, amb: Ambiguity, m: int) -> Ambiguity:
        """The traversal-initial truncation v_0…v_m, itself an m-ambiguity."""
        n = amb.degree
        if not -1 <= m <= n:
            raise DegreeUnderflow(f"truncation degree {m} outside [-1, {n}]")
        for _ in range(n - m):
            amb = amb.head
        return amb

    def split(self, amb: Ambiguity, i: int, j: int):
        """amb = prefix-part · b · suffix-part with i + j = degree − 1.

        Returns (amb_prefix(i), b, amb_suffix(j)); b is the middle remainder
        in traversal order and always lies in the basis.
        """
        n = amb.degree
        assert i + j == n - 1 and i >= -1 and j >= -1
        pre = self.amb_prefix(amb, i)
        suf = self.amb_suffix(amb, j)
        lo = len(pre.path.arrows)
        hi = len(amb.path.arrows) - len(suf.path.arrows)
        assert lo <= hi, "prefix/suffix truncations overlap"
        b = amb.path.segment(lo, hi)
        assert self.algebra.find(b.arrows, b.source) is not None
        return pre, b, suf

    def sub(self, amb: Ambiguity):
        """Positioned (n−1)-ambiguity divisors, by increasing prefix length."""
        n = amb.degree
        if n < 0:
            raise DegreeUnderflow("sub() needs degree >= 0")
        p = amb.path
        end = len(p.arrows)
        hits = [
            (lower, DivisorOccurrence(p.segment(0, k), lower.path, p.segment(k + len(lower.path), end), k))
            for lower, k in self.occurrences(n - 1, p)
        ]
        # distinct members occupy distinct positions (same-degree divisors
        # of an ambiguity cannot nest)
        assert len({occ.position for _, occ in hits}) == len(hits)
        return hits

    # -- incidence index -------------------------------------------------------

    def occurrences(self, m: int, path: Path):
        """Every (m-ambiguity, position) inside path's arrow word, by position.

        The word may contain relations.  Degree −1 yields the vertex at each
        of the len(path) + 1 positions.
        """
        if m == -1:
            vertices = self.degree(-1)  # sorted by path, hence by vertex index
            return [(vertices[path.vertex_at(k)], k) for k in range(len(path.arrows) + 1)]
        return self.word_occurrences(m, path.arrows)

    def word_occurrences(self, m: int, arrows: tuple):
        """``occurrences`` of degree m >= 0 inside a bare arrow word."""
        lengths = self._windows.get(m)
        if lengths is None:
            lengths = self._windows[m] = sorted({len(a.path) for a in self.degree(m)})
        lookup = self._words[m]
        end = len(arrows)
        hits = []
        for k in range(end):
            for length in lengths:
                if k + length > end:
                    break
                amb = lookup.get(arrows[k : k + length])
                if amb is not None:
                    hits.append((amb, k))
        return hits

    def cofaces(self, n: int):
        """{(n−1)-ambiguity p: [(q, position, sign)]} over the n-ambiguities q
        whose differential reaches p, with p at that position of q.

        Even n takes the two truncations, head (+1) then tail (−1); odd n
        takes every positioned divisor (+1).  Each list runs in Γ_n order,
        then by position.
        """
        out = self._cofaces.get(n)
        if out is None:
            out = {}
            for q in self.degree(n):
                if n % 2 == 0:
                    hits = ((q.head, 0, 1), (q.tail, len(q.path) - len(q.tail.path), -1))
                else:
                    hits = ((p, k, 1) for p, k in self.occurrences(n - 1, q.path))
                for p, k, sign in hits:
                    out.setdefault(p, []).append((q, k, sign))
            self._cofaces[n] = out
        return out
