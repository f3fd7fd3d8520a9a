"""Seeded random monomial algebras, plus greedy shrinking.

The property suites quantify over "all finite-dimensional monomial algebras";
bounded random instances stand in for that.  Everything is driven by a
``random.Random`` seeded explicitly, so a trial index reproduces its algebra
exactly.  Trial i of a suite uses seed ``base_seed + i``.  What to draw is a
``RandomAlgebraConfig``, a named tuple (``triangular``, default False;
``field``, default QQ), equal and hashed by value.

Most draws are infinite-dimensional, and the relation automaton of
``build_algebra`` is the one test of finiteness.  Before it, ``_free_cycle``
refuses a draw, from its arrow ends and relation words alone, when it meets
one of two sufficient conditions for an infinite relation-free path:

- a loop a that is not the only arrow of any relation: no relation is a
  power of a, so no relation divides aⁿ, and every aⁿ is a basis path;
- an oriented cycle among the arrows that no relation uses: every relation
  holds an arrow off the cycle, so no relation divides a power of it.

Both are exact, so a refused draw is one the automaton would refuse too.
The rule runs after every random call of the draw and calls none itself,
so it never changes the RNG stream nor which draw is kept; it only spares
the refused draws their ``Quiver`` and their automaton.  ``shrink_algebra``
asks it before each candidate, so the shrunk algebras are unchanged too.
"""

import random
from collections import namedtuple

from .errors import InfiniteDimensional
from .fields import QQ
from .quivers import Quiver, _has_cycle, build_algebra

MAX_ATTEMPTS = 5000
MAX_VERTICES = 6
MAX_ARROWS = 10
MAX_RELATIONS = 5
MIN_RELATION_LENGTH = 2
MAX_RELATION_LENGTH = 4


RandomAlgebraConfig = namedtuple("RandomAlgebraConfig", "triangular field", defaults=(False, QQ))


def _sample_walk(rng, arrows, out_arrows, length):
    # a random composable arrow word, traversal order; shorter if the walk dies
    first = rng.randrange(len(arrows))
    word = [first]
    cur = arrows[first][2]
    while len(word) < length:
        step = out_arrows[cur]
        if not step:
            break
        a = rng.choice(step)
        word.append(a)
        cur = arrows[a][2]
    return word


def _free_cycle(n_vertices, arrows, relations) -> bool:
    """Does a power of some oriented cycle avoid every relation?

    ``arrows`` are (name, source, target) with vertex indices, ``relations``
    arrow-index words.  True means A is infinite (see the module docstring);
    False decides nothing.
    """
    used = {a for r in relations for a in r}
    powers = {r[0] for r in relations if len(set(r)) == 1}
    free = [[] for _ in range(n_vertices)]  # free[s]: the targets of unused arrows from s
    for a, (_, s, t) in enumerate(arrows):
        if s == t and a not in powers:
            return True
        if a not in used:
            free[s].append(t)
    return _has_cycle(range(n_vertices), free.__getitem__)


def _window_relations(rng, walk, count):
    """Windows carved from one walk; overlaps are what feed deep ambiguity chains."""
    rels = []
    top = min(MAX_RELATION_LENGTH, len(walk))
    if top < MIN_RELATION_LENGTH:
        return rels
    if rng.random() < 0.5:
        # dense mode: same-length windows at consecutive starts chain the
        # deepest (every window overlaps the next in all but one arrow);
        # short windows chain deeper, so favor them
        if rng.random() < 0.6:
            length = MIN_RELATION_LENGTH
        else:
            length = rng.randint(MIN_RELATION_LENGTH, top)
        for start in range(min(count, len(walk) - length + 1)):
            rels.append(tuple(walk[start : start + length]))
        return rels
    for _ in range(count):
        length = rng.randint(MIN_RELATION_LENGTH, top)
        start = rng.randrange(len(walk) - length + 1)
        rels.append(tuple(walk[start : start + length]))
    return rels


def _try_sample(rng, config):
    if config.triangular and rng.random() < 0.4:
        # deep DAG instances need room for a long chain
        nv = MAX_VERTICES
    else:
        nv = rng.randint(1, MAX_VERTICES)
    vertices = [str(i + 1) for i in range(nv)]
    arrows = []  # (name, src_idx, tgt_idx)
    spine = []  # arrow indices forming a composable walk
    if nv >= 2:
        if config.triangular:
            # a strictly increasing vertex chain keeps the quiver a DAG;
            # long chains get extra weight, they carry the deep instances
            hops = nv - 1 if rng.random() < 0.5 else rng.randint(0, nv - 1)
            stops = sorted(rng.sample(range(nv), hops + 1))
            steps = list(zip(stops, stops[1:]))
        else:
            steps = []
            cur = rng.randrange(nv)
            for _ in range(rng.randint(0, 2 * MAX_RELATION_LENGTH)):
                nxt = rng.randrange(nv)
                steps.append((cur, nxt))
                cur = nxt
        for s, t in steps:
            spine.append(len(arrows))
            arrows.append(("a%d" % (len(arrows) + 1), s, t))
    for _ in range(rng.randint(0, max(0, MAX_ARROWS - len(arrows)))):
        if config.triangular:
            if nv < 2:
                break
            s = rng.randrange(nv - 1)
            t = rng.randrange(s + 1, nv)
        else:
            s = rng.randrange(nv)
            t = rng.randrange(nv)
        arrows.append(("a%d" % (len(arrows) + 1), s, t))
    if len(arrows) > MAX_ARROWS:
        return None
    relations = []
    if arrows:
        # max of two draws: biased toward several relations, zero still possible
        nr = max(rng.randint(0, MAX_RELATIONS), rng.randint(0, MAX_RELATIONS))
        if nr and spine and rng.random() < 0.7:
            relations = _window_relations(rng, spine, nr)
        if nr and not relations:
            out_arrows = [[] for _ in vertices]
            for a, (_, s, _) in enumerate(arrows):
                out_arrows[s].append(a)
            for _ in range(nr):
                length = rng.randint(MIN_RELATION_LENGTH, MAX_RELATION_LENGTH)
                word = _sample_walk(rng, arrows, out_arrows, length)
                if len(word) == length:
                    relations.append(tuple(word))
    if _free_cycle(nv, arrows, relations):
        return None
    quiver = Quiver(vertices, [(n, vertices[s], vertices[t]) for n, s, t in arrows])
    try:
        return build_algebra(quiver, relations, config.field)
    except InfiniteDimensional:
        return None


def random_algebra(config, seed):
    """Deterministic in (config, seed); rejection-samples until finite-dim."""
    rng = random.Random(seed)
    for _ in range(MAX_ATTEMPTS):
        alg = _try_sample(rng, config)
        if alg is not None:
            return alg
    raise RuntimeError("rejection sampling did not terminate; bounds too tight?")


def _drops(algebra):
    """(arrows, relations) with one relation dropped, then with one arrow and
    the relations through it dropped; later arrows are renumbered.  Arrows
    are (name, source, target) with vertex indices."""
    q, rels = algebra.quiver, algebra.relations
    ends = list(zip(q.arrow_names, q.arrow_source, q.arrow_target))
    for i in range(len(rels)):
        yield ends, rels[:i] + rels[i + 1 :]
    for idx in range(q.n_arrows):
        yield ends[:idx] + ends[idx + 1 :], [tuple(a - (a > idx) for a in r) for r in rels if idx not in r]


def shrink_algebra(algebra, predicate):
    """Greedy minimization keeping predicate true: relations first, then arrows."""
    assert predicate(algebra), "predicate must hold on the input"
    current = algebra
    while True:
        names = current.quiver.vertex_names
        for arrows, relations in _drops(current):
            if _free_cycle(len(names), arrows, relations):
                continue
            quiver = Quiver(names, [(n, names[s], names[t]) for n, s, t in arrows])
            try:
                cand = build_algebra(quiver, relations, current.field)
            except InfiniteDimensional:
                continue
            if predicate(cand):
                current = cand
                break
        else:
            return current
