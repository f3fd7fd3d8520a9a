"""Quivers, paths, and finite-dimensional monomial path algebras.

Orientation convention
----------------------
Arrow words are stored in traversal order: ``word[0]`` is traversed first.
Mathematical writing usually composes right-to-left like functions, so a
written word names the *reverse* of its traversal sequence.  The helper
``path_from_word`` is the single place in this package where the written
convention is converted; everything else speaks traversal order.  Under
this dictionary, a written product ``q·p`` traverses p first, a written
"prefix" divisor is a traversal-initial segment and a written "suffix" is
a traversal-final segment.

A path is its arrow-index word in traversal order plus its end vertices:
a basis index of the algebra, an ambiguity or a relation.  ``Quiver.path``
and ``path_from_word`` parse arrow names into a word, and ``Quiver.word``
and ``Quiver.display`` are the one place that renders a word and its
source vertex as text.  ``Quiver.check_word`` is the one place that decides
whether an arrow-index word is a path; the name parsers and the algebra's
constructor both go through it.

``_has_cycle`` is the one oriented-cycle search: on the relation
automaton it decides whether A is finite, on the quiver whether A is
triangular, and on the arrows that no relation uses it lets ``randomgen``
refuse a draw as infinite before the draw's quiver is built.
"""

from __future__ import annotations

from .errors import (
    DuplicateArrowId,
    InfiniteDimensional,
    NonComposableRelation,
)
from .fields import QQ


class Quiver:
    """A finite directed multigraph with string-named vertices and arrows.

    Names are user-facing; internally everything is dense integer indices
    in declaration order, which also fixes all deterministic orderings.
    ``out_arrows[v]`` holds the arrows leaving vertex ``v``, in that order.
    """

    def __init__(self, vertices, arrows):
        self.vertex_names = tuple(str(v) for v in vertices)
        if len(set(self.vertex_names)) != len(self.vertex_names):
            raise DuplicateArrowId("duplicate vertex id")
        self.vertex_index = {v: i for i, v in enumerate(self.vertex_names)}
        names = []
        src = []
        tgt = []
        for name, s, t in arrows:
            name = str(name)
            if name in self.vertex_index or name in names:
                raise DuplicateArrowId(f"duplicate id {name!r}")
            if str(s) not in self.vertex_index or str(t) not in self.vertex_index:
                raise ValueError(f"arrow {name!r} uses an undeclared vertex")
            names.append(name)
            src.append(self.vertex_index[str(s)])
            tgt.append(self.vertex_index[str(t)])
        self.arrow_names = tuple(names)
        self.arrow_index = {a: i for i, a in enumerate(self.arrow_names)}
        self.arrow_source = tuple(src)
        self.arrow_target = tuple(tgt)
        out = [[] for _ in self.vertex_names]
        for a, s in enumerate(src):
            out[s].append(a)
        self.out_arrows = tuple(map(tuple, out))

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_names)

    @property
    def n_arrows(self) -> int:
        return len(self.arrow_names)

    def path(self, arrow_names) -> tuple:
        """The arrow-index word of arrow names in traversal order."""
        if isinstance(arrow_names, str):
            arrow_names = arrow_names.split()
        # an unknown name stays text, which names no arrow index
        return self.check_word([self.arrow_index.get(a, str(a)) for a in arrow_names])

    def check_word(self, word) -> tuple:
        """``word`` as a tuple, once it is nonempty, each entry is an arrow
        index and each arrow ends where the next one starts."""
        word = tuple(word)
        if not word:
            raise ValueError("empty arrow list; a vertex has no arrow word")
        arrows = range(self.n_arrows)
        for a in word:
            if a not in arrows:
                raise NonComposableRelation(f"unknown arrow {a!r}")
        source, target = self.arrow_source, self.arrow_target
        prev = word[0]
        for a in word[1:]:
            if target[prev] != source[a]:
                raise NonComposableRelation(
                    f"arrows {self.arrow_names[prev]!r} and {self.arrow_names[a]!r} do not compose"
                )
            prev = a
        return word

    def word(self, arrows: tuple, source: int) -> str:
        """Written (right-to-left) rendering: last-traversed arrow first; ``e(v)`` if empty."""
        if not arrows:
            return f"e({self.vertex_names[source]})"
        return "".join(self.arrow_names[a] for a in reversed(arrows))

    def display(self, arrows: tuple, source: int) -> str:
        """Traversal-order rendering, e.g. ``alpha*zeta``; ``e(v)`` if empty."""
        if not arrows:
            return f"e({self.vertex_names[source]})"
        return "*".join(self.arrow_names[a] for a in arrows)

    def __repr__(self):
        return f"Quiver({self.n_vertices} vertices, {self.n_arrows} arrows)"


def path_from_word(quiver: Quiver, word) -> tuple:
    """The arrow-index word of arrow names in *written* order (right-to-left).

    This is the only conversion point between the written convention and
    traversal order: ``path_from_word(q, "beta zeta")`` traverses ``zeta``
    first.  Accepts a space-separated string or an iterable of names.
    """
    if isinstance(word, str):
        word = word.split()
    return quiver.path(list(reversed(list(word))))


class MonomialAlgebra:
    """kQ/I for a monomial ideal I, with the relation-free path basis B.

    ``relations`` is the minimized generating set of arrow-index words,
    sorted by (length, word).  Every given word is checked by
    ``Quiver.check_word`` before minimization, so a word that names no
    arrow or does not compose is refused even when a shorter relation
    divides it.  Construction reads both finite-dimensionality and B off
    one relation automaton (see ``_read_automaton``).

    The basis is indexed here, once, and every layer reads the index:
    index i names the path with arrow word ``words[i]`` from ``source[i]``
    to ``target[i]``.  B is sorted by (length, word, source), so the
    trivial path at vertex v is index v.  ``word_index`` maps the word of
    each nontrivial basis path back to its index.  ``leaving[v]`` holds the
    indices that start at vertex v, and ``parallel[(s, t)]`` those from s
    to t for every pair of vertices (empty when none), both in basis order;
    ``position[i]`` is i's place in its ``parallel`` tuple.  Nothing changes
    after construction except the product table that ``mul`` fills, one row
    per left factor, the first time a product with that factor is asked.
    """

    def __init__(self, quiver: Quiver, relations, field=QQ):
        self.quiver = quiver
        self.field = field
        self.relations = tuple(sorted(_minimize(map(quiver.check_word, relations)), key=lambda r: (len(r), r)))
        if self.relations and len(self.relations[0]) < 2:  # the shortest relation comes first
            raise ValueError(f"relation {self.relations[0]!r} has length < 2")
        self.words, self.source, self.target = map(tuple, zip(*self._read_automaton()))
        self.dim = len(self.words)
        n = quiver.n_vertices
        assert self.words[:n] == ((),) * n and self.source[:n] == tuple(range(n)), "vertex v is not index v"
        self.word_index = {w: i for i, w in enumerate(self.words) if w}
        leaving = [[] for _ in range(n)]
        parallel = {(s, t): [] for s in range(n) for t in range(n)}
        for i, (s, t) in enumerate(zip(self.source, self.target)):
            leaving[s].append(i)
            parallel[(s, t)].append(i)
        self.leaving = tuple(map(tuple, leaving))
        self.parallel = {ends: tuple(indices) for ends, indices in parallel.items()}
        self.position = tuple(parallel[(s, t)].index(i) for i, (s, t) in enumerate(zip(self.source, self.target)))
        self._rows = [None] * self.dim  # the product table, see mul

    # -- construction helpers -------------------------------------------------

    def _read_automaton(self):
        """The basis as (word, source, target), read off the relation automaton;
        raises when A is infinite.

        A state is (w, v): w the longest suffix of the word read so far that
        is a proper prefix of a relation, v the vertex where the word ends.
        Any relation or proper prefix that ends at the next arrow a starts
        inside w, so the step reads the longest suffix of w+(a,) that is
        either.  A relation there makes the step dead.  No shorter suffix
        can be a relation, because the relations are minimal, so a proper
        prefix there is the next state.  The live walks from the roots
        ((), v) are exactly the relation-free paths, so A is finite iff the
        live states have no cycle (Ufnarovskii's criterion, Math. Notes 31,
        1982), and then the basis is those walks.  ``_has_cycle`` walks the
        states depth first and ``expand`` builds each one's steps when the
        walk reaches it, so an infinite A is refused at the first back edge,
        before the rest of its automaton is built.
        """
        q = self.quiver
        rels = set(self.relations)
        known = rels | {r[:k] for r in rels for k in range(1, len(r))}
        states = [((), v) for v in range(q.n_vertices)]  # root v is state v
        index = {state: i for i, state in enumerate(states)}
        steps = {}  # steps[i]: the live (arrow, next state) pairs out of state i

        def expand(i):
            w, v = states[i]
            out = steps[i] = []
            for a in q.out_arrows[v]:
                word = w + (a,)
                hit = next((word[k:] for k in range(len(word)) if word[k:] in known), ())
                if hit in rels:
                    continue
                state = (hit, q.arrow_target[a])
                j = index.get(state)
                if j is None:
                    j = index[state] = len(states)
                    states.append(state)
                out.append((a, j))
            return [j for _, j in out]

        if _has_cycle(range(q.n_vertices), expand):
            raise InfiniteDimensional("arbitrarily long relation-free paths exist")
        basis = [((), v, v) for v in range(q.n_vertices)]
        frontier = [(v, (), v) for v in range(q.n_vertices)]  # (state, word, source)
        while frontier:
            frontier = [(j, w + (a,), s) for i, w, s in frontier for a, j in steps[i]]
            basis.extend((w, s, states[j][1]) for j, w, s in frontier)
        basis.sort(key=lambda p: (len(p[0]), p[0], p[1]))
        return basis

    # -- queries ---------------------------------------------------------------

    def find(self, word: tuple, vertex: int):
        """The index of the basis path with this arrow word, or None when the
        word is not one; the empty word is the trivial path at vertex."""
        return self.word_index.get(word) if word else vertex

    def mul(self, i: int, j: int):
        """The index of the product of i then j (traversal order), or None when
        it is zero in A; a KeyError when j does not start where i ends."""
        row = self._rows[i]
        if row is None:
            word = self.words[i]
            if word:
                word_index, words = self.word_index, self.words
                row = {k: word_index.get(word + words[k]) for k in self.leaving[self.target[i]]}
            else:
                row = {k: k for k in self.leaving[i]}
            self._rows[i] = row
        return row[j]

    def __repr__(self):
        return (
            f"MonomialAlgebra(dim {self.dim}, {len(self.relations)} relations, "
            f"field {self.field.name})"
        )


def _has_cycle(roots, successors) -> bool:
    """Does the digraph reached from ``roots`` have an oriented cycle?

    Iterative three-colour depth-first search, so deep graphs cannot hit
    the recursion limit.  ``successors(v)`` is asked once per node reached,
    and the search stops at the first back edge, so a graph built by
    ``successors`` is built no further than that.
    """
    colour = {}  # absent new, 1 on the stack, 2 done
    for root in roots:
        if root in colour:
            continue
        colour[root] = 1
        stack = [(root, iter(successors(root)))]
        while stack:
            v, it = stack[-1]
            for w in it:
                c = colour.get(w)
                if c == 1:
                    return True
                if c is None:
                    colour[w] = 1
                    stack.append((w, iter(successors(w))))
                    break
            else:
                colour[v] = 2
                stack.pop()
    return False


def _minimize(relations):
    """Drop duplicates and any relation containing another as a factor."""
    uniq = list(dict.fromkeys(relations))
    out = []
    for r in uniq:
        redundant = False
        for s in uniq:
            if s == r or len(s) > len(r):
                continue
            ls = len(s)
            if any(r[k : k + ls] == s for k in range(len(r) - ls + 1)):
                redundant = True
                break
        if not redundant:
            out.append(r)
    return out


def build_algebra(quiver: Quiver, relations, field=QQ) -> MonomialAlgebra:
    return MonomialAlgebra(quiver, relations, field)


def is_triangular(algebra: MonomialAlgebra) -> bool:
    """True iff the quiver has no oriented cycle."""
    q = algebra.quiver
    return not _has_cycle(range(q.n_vertices), lambda v: [q.arrow_target[a] for a in q.out_arrows[v]])
