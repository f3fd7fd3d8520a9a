"""Small constructions that only the tests need, shared by several modules."""

import functools
import itertools

from monomial_hh import cochains
from monomial_hh.cochains import _offsets, cochain_differential
from monomial_hh.quivers import path_from_word
from monomial_hh.resolution import bimodule_element


class Path:
    """An oriented path; immutable, hashable, ordered deterministically.

    The library carries a path as its arrow word and end vertices; this is
    the key type of the Path-keyed reference route in ``reference_scans``
    and of the test bodies that write paths.  ``arrows`` holds arrow
    indices in traversal order; a trivial path has an empty tuple and
    remembers its vertex in ``source``.
    """

    __slots__ = ("quiver", "source", "arrows", "_hash")

    def __init__(self, quiver, source, arrows):
        self.quiver = quiver
        self.source = source
        self.arrows = arrows
        self._hash = hash((source, arrows))

    @property
    def target(self):
        if self.arrows:
            return self.quiver.arrow_target[self.arrows[-1]]
        return self.source

    def __len__(self):
        return len(self.arrows)

    def sort_key(self):
        return (len(self.arrows), self.arrows, self.source)

    def __eq__(self, other):
        return isinstance(other, Path) and self.source == other.source and self.arrows == other.arrows

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def display(self):
        return self.quiver.display(self.arrows, self.source)

    def word(self):
        return self.quiver.word(self.arrows, self.source)

    def __repr__(self):
        return f"Path({self.display()})"


def word_path(quiver, word):
    """The path of a nonempty arrow-index word, such as a relation."""
    return Path(quiver, quiver.arrow_source[word[0]], tuple(word))


def path(quiver, names):
    """The path of arrow names in traversal order, checked by ``Quiver.path``."""
    return word_path(quiver, quiver.path(names))


def written(quiver, word):
    """The path of arrow names in written (right-to-left) order, checked by ``path_from_word``."""
    return word_path(quiver, path_from_word(quiver, word))


def vertex(quiver, name):
    """The trivial path at the vertex called name."""
    return Path(quiver, quiver.vertex_index[str(name)], ())


@functools.lru_cache(maxsize=64)
def basis_paths(algebra):
    """The basis as paths, in basis order: index i is ``words[i]`` from ``source[i]``.

    Cached per algebra, since the test bodies map pairs through it again and
    again; a path is immutable, so the tuple is shared.
    """
    return tuple(Path(algebra.quiver, s, w) for w, s in zip(algebra.words, algebra.source))


def amb_path(table, amb):
    """The path of the quiver that amb's arrow word and ends spell."""
    p = Path(table.algebra.quiver, amb.source, amb.arrows)
    assert p.target == amb.target
    return p


def by_path(table, n, path):
    """The n-ambiguity spelled by path (at n = −1, the vertex of a trivial path), or None."""
    hits = table.occurrences(n, path.arrows, path.source)
    return next((amb for amb, k in hits if k == 0 and len(amb.arrows) == len(path.arrows)), None)


def index_of(table, path):
    """The basis index of a basis path."""
    basis = basis_paths(table.algebra)
    assert path in basis, "%r is not a basis path" % path
    return basis.index(path)


def triple(table, pre, amb, post):
    """The resolution key of pre (x) amb (x) post, pre and post basis paths."""
    return (index_of(table, pre), amb, index_of(table, post))


def generator(table, amb):
    """1 (x) amb (x) 1: the trivial path at vertex v is basis index v."""
    return bimodule_element(table, amb.degree, {(amb.source, amb, amb.target): 1})


def quintuple(table, pre, first, mid, second, post):
    """The diagonal key of (pre, first, mid, second, post), pre, mid and post basis paths."""
    return (index_of(table, pre), first, index_of(table, mid), second, index_of(table, post))


def pair_key(pair):
    """Sort key of an (ambiguity, parallel basis path) pair: by ambiguity path, then by path."""
    amb, b = pair
    return ((len(amb.arrows), amb.arrows, amb.source), b.sort_key())


def pair_list(table, m):
    """The degree-m pairs (amb, b), b a basis index, in index order.

    The library builds no pair list: the pair (amb, b) has the index
    ``offsets[amb] + algebra.position[b]`` of ``cochains._offsets``, and this
    list puts each pair at that index, so it also checks that the indices
    fill range(number of pairs) once each.
    """
    alg = table.algebra
    offsets, n, _ = _offsets(table, m)
    pairs = [None] * n
    for amb, first in offsets.items():
        for b in alg.parallel[(amb.source, amb.target)]:
            assert pairs[first + alg.position[b]] is None
            pairs[first + alg.position[b]] = (amb, b)
    assert None not in pairs
    return pairs


def path_pairs(table, m):
    """``pair_list(table, m)`` with each basis index replaced by its path: (amb, b) with b a ``Path``.

    The one place the tests translate between the library's index-keyed
    pairs and the path-keyed pairs that test bodies write.
    """
    basis = basis_paths(table.algebra)
    return [(amb, basis[b]) for amb, b in pair_list(table, m)]


def bar_pair_list(basis):
    """The (tuple, value) pairs of a degree's bar basis, in row order.

    ``bar_oracle.bar_pairs`` holds a degree per tuple and builds no pair
    list; this flattens it for the test bodies that compare pairs.
    """
    return [(t, v) for t, values in zip(basis.tuples, basis.values) for v in values]


def vector(table, m, terms):
    """The degree-m cochain Σ c·(amb, b) over terms {(amb, b): c}, as a pair-index vector.

    Each key must be a degree-m pair: amb of degree m-1, b a basis path
    parallel to it.
    """
    pairs = path_pairs(table, m)
    out = {}
    for (amb, b), c in terms.items():
        assert amb.degree == m - 1
        assert amb.source == b.source and amb.target == b.target
        assert b in basis_paths(table.algebra)
        out[pairs.index((amb, b))] = c
    return out


def keyed(table, m, vec):
    """The pair-index vector vec of degree m as {(amb, b): c}, b a ``Path``."""
    pairs = path_pairs(table, m)
    return {pairs[i]: c for i, c in vec.items()}


def scalar(field, c):
    """The plain number c as a scalar of field: c itself over the rationals,
    c mod p over a prime field.  The references reduce with this, never with
    the library's field objects, which keep no per-scalar arithmetic."""
    p = getattr(field, "p", None)
    return c if p is None else c % p


def difference(field, x, y):
    """x - y for two cochains of one degree, without zeros."""
    out = dict(x)
    for i, c in y.items():
        out[i] = out.get(i, 0) - c
    return {i: s for i, c in out.items() if (s := scalar(field, c))}


def unit_cochain(table):
    """The sum of all vertex pairs; a cocycle of degree 0 representing the unit class."""
    return vector(table, 0, {(amb, amb_path(table, amb)): 1 for amb in table.degree(-1)})


def is_cocycle(table, m, vec):
    """δ^m kills vec, a cochain of degree m."""
    return not cochain_differential(table, m, vec)


def plant_representative(monkeypatch, degree, extra):
    """From now on each degree-``degree`` space that ``hochschild_cohomology``
    computes gets ``extra`` as its last representative, planted through
    ``cochains.quotient_basis``; the degree is that of the last δ assembled."""
    degrees = []
    matrix, quotient = cochains.differential_matrix, cochains.quotient_basis

    def recording(table, m):
        degrees.append(m)
        return matrix(table, m)

    def planted(field, kernel, image):
        reps = quotient(field, kernel, image)
        if degrees[-1] != degree:
            return reps
        return reps + (extra,)

    monkeypatch.setattr(cochains, "differential_matrix", recording)
    monkeypatch.setattr(cochains, "quotient_basis", planted)


def is_quadratic(algebra):
    """Every relation has length two."""
    return all(len(r) == 2 for r in algebra.relations)


def loops_algebra_text(k, rel_len):
    """.alg text of one vertex with loops x1..xk and every length-rel_len word as a relation.

    ``rsz(k)`` is rel_len 2, where |Γ_n| = k^(n+1); ``cub(k)`` is rel_len 3.
    """
    names = ["x%d" % i for i in range(1, k + 1)]
    lines = ["field q", "vertices 1"] + ["arrow %s: 1 -> 1" % n for n in names]
    lines += ["relation " + " ".join(w) for w in itertools.product(names, repeat=rel_len)]
    return "".join(line + "\n" for line in lines)


def split(vectors):
    """A list of vectors as a space holds it, one tuple: each {j: 1} as the index j."""
    return tuple(min(v) if len(v) == 1 and next(iter(v.values())) == 1 else v for v in vectors)


def expand(items):
    """The vectors that a space's tuple stands for: each unit index j as {j: 1}."""
    return [{x: 1} if type(x) is int else x for x in items]
