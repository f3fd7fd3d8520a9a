"""n-ambiguities (overlap chains) of a monomial algebra.

Degree −1 ambiguities are the trivial paths, degree 0 the arrows, degree 1
the minimal relations; degree n ≥ 2 paths are built recursively by gluing a
relation onto the traversal-initial end of a degree n−1 ambiguity.  Every
ambiguity carries two distinguished factorizations:

* left pieces  (u_n, …, u_0) in traversal order — u_0 is the last arrow
  traversed, and each written product u_i·u_{i+1} contains exactly one
  relation occurrence, flush with the traversal-initial arrow of u_{i+1};
* right pieces (v_0, …, v_n) in traversal order — the mirror image.

Both factorizations are unique and the two generation recursions produce
the same path sets; this module generates both independently and checks
that they agree, which downstream modules rely on.
"""

from __future__ import annotations

from .errors import DegreeUnderflow
from .quivers import DivisorOccurrence, MonomialAlgebra, Path


class Ambiguity:
    """A path with its left/right chain factorizations; hash/eq by path."""

    __slots__ = ("path", "degree", "left_pieces", "right_pieces", "_hash")

    def __init__(self, path: Path, degree: int, left_pieces, right_pieces):
        self.path = path
        self.degree = degree
        self.left_pieces = left_pieces  # traversal order: (u_n, ..., u_0)
        self.right_pieces = right_pieces  # traversal order: (v_0, ..., v_n)
        self._hash = hash((degree, path))

    def __eq__(self, other):
        return (
            isinstance(other, Ambiguity)
            and self.degree == other.degree
            and self.path == other.path
        )

    def __hash__(self):
        return self._hash

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
    ``occurrences`` finds the ambiguities inside a word by hash lookups of
    its windows, and ``cofaces`` inverts the differential.  Their per-degree
    lookups are built lazily, on first use, from the stored degrees alone;
    they are idempotent caches, so building one twice gives the same map.
    The diagonals, which read only this index, the cup structure constants,
    which read only the diagonals, and the key check of the cochains are
    cached here the same way, one slot each, by the modules that build them.
    """

    def __init__(self, algebra: MonomialAlgebra):
        self.algebra = algebra
        q = algebra.quiver
        trivial = [q.trivial_path_at(v) for v in range(q.n_vertices)]
        base = tuple(
            Ambiguity(p, -1, (), ()) for p in sorted(trivial, key=Path.sort_key)
        )
        arrows = tuple(
            Ambiguity(q.arrow_path(name), 0, (q.arrow_path(name),), (q.arrow_path(name),))
            for name in q.arrow_names
        )
        arrows = tuple(sorted(arrows, key=lambda a: a.path.sort_key()))
        # index 0 holds degree -1
        self._degrees = [base, arrows]
        self._by_path = [
            {a.path: a for a in base},
            {a.path: a for a in arrows},
        ]
        self._windows = {}  # degree m >= 0 -> ({arrows: ambiguity}, sorted lengths)
        self._cofaces = {}  # degree n -> {(n-1)-ambiguity: [(q, position, sign)]}
        self._cup = {}  # bidegree (m, n) -> cup structure constants, see cup._constants
        self._diagonals = {}  # ambiguity -> its diagonal, see diagonal.diagonal
        self._cochain_check = None  # key check of every cochain, see cochains.new_cochain

    def degree(self, n: int):
        """The tuple of n-ambiguities, sorted by path; computed on demand."""
        if n < -1:
            raise DegreeUnderflow(f"no ambiguities of degree {n}")
        while len(self._degrees) <= n + 1:
            self._extend()
        return self._degrees[n + 1]

    def by_path(self, n: int, path: Path):
        """The n-ambiguity with this underlying path, or None."""
        self.degree(n)
        return self._by_path[n + 1].get(path)

    def _extend(self):
        q = self.algebra.quiver
        rel_arrows = self.algebra._rel_arrows
        n = len(self._degrees) - 1  # degree being generated
        prev = self._degrees[-1]

        # the candidates depend only on the parent's end piece, and few pieces
        # are distinct: each piece's are found once, with their piece paths
        memo = {}

        def extensions(candidates, end):
            out = memo.get((candidates, end))
            if out is None:
                out = memo[candidates, end] = [(w, q.path_from_arrows(w)) for w in candidates(rel_arrows, end)]
            return out

        left = {}
        for parent in prev:
            for u, piece in extensions(_left_candidates, parent.left_pieces[0].arrows):
                path = Path(q, piece.source, u + parent.path.arrows)
                pieces = (piece,) + parent.left_pieces
                if path in left:
                    # factorization uniqueness: a collision must agree
                    assert left[path] == pieces
                left[path] = pieces

        right = {}
        for parent in prev:
            for v, piece in extensions(_right_candidates, parent.right_pieces[-1].arrows):
                path = Path(q, parent.path.source, parent.path.arrows + v)
                pieces = parent.right_pieces + (piece,)
                if path in right:
                    assert right[path] == pieces
                right[path] = pieces

        # the two recursions must produce the same path sets
        assert set(left) == set(right), (
            f"left/right ambiguity generation disagree at degree {n}"
        )
        if n == 1:
            # degree 1 must reproduce the minimal relation set exactly
            assert set(p.arrows for p in left) == set(rel_arrows)

        merged = tuple(
            Ambiguity(p, n, left[p], right[p])
            for p in sorted(left, key=Path.sort_key)
        )
        self._degrees.append(merged)
        self._by_path.append({a.path: a for a in merged})

    # -- truncations and divisor structure ------------------------------------

    def amb_suffix(self, amb: Ambiguity, m: int) -> Ambiguity:
        """The traversal-final truncation u_0…u_m, itself an m-ambiguity."""
        n = amb.degree
        if not -1 <= m <= n:
            raise DegreeUnderflow(f"truncation degree {m} outside [-1, {n}]")
        if m == n:
            return amb
        keep = sum(len(p.arrows) for p in amb.left_pieces[n - m :])
        path = amb.path.segment(len(amb.path.arrows) - keep, len(amb.path.arrows))
        out = self.by_path(m, path)
        assert out is not None, "truncation is not an ambiguity; table corrupt"
        return out

    def amb_prefix(self, amb: Ambiguity, m: int) -> Ambiguity:
        """The traversal-initial truncation v_0…v_m, itself an m-ambiguity."""
        n = amb.degree
        if not -1 <= m <= n:
            raise DegreeUnderflow(f"truncation degree {m} outside [-1, {n}]")
        if m == n:
            return amb
        keep = sum(len(p.arrows) for p in amb.right_pieces[: m + 1])
        path = amb.path.segment(0, keep)
        out = self.by_path(m, path)
        assert out is not None, "truncation is not an ambiguity; table corrupt"
        return out

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
        assert self.algebra.is_basis(b)
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
        window = self._windows.get(m)
        if window is None:
            ambs = self.degree(m)
            window = ({a.path.arrows: a for a in ambs}, sorted({len(a.path.arrows) for a in ambs}))
            self._windows[m] = window
        lookup, lengths = window
        arrows = path.arrows
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
                    head = self.amb_prefix(q, n - 1)
                    tail = self.amb_suffix(q, n - 1)
                    hits = ((head, 0, 1), (tail, len(q.path) - len(tail.path), -1))
                else:
                    hits = ((p, k, 1) for p, k in self.occurrences(n - 1, q.path))
                for p, k, sign in hits:
                    out.setdefault(p, []).append((q, k, sign))
            self._cofaces[n] = out
        return out
