"""Seeded random monomial algebras, plus greedy shrinking.

The property suites quantify over "all finite-dimensional monomial algebras";
bounded random instances stand in for that.  Everything is driven by a
``random.Random`` seeded explicitly, so a trial index reproduces its algebra
exactly.  Trial i of a suite uses seed ``base_seed + i``.
"""

import random
from dataclasses import dataclass, field as dc_field

from .errors import InfiniteDimensional
from .fields import QQ
from .quivers import Quiver, build_algebra

MAX_ATTEMPTS = 5000
MAX_VERTICES = 6
MAX_ARROWS = 10
MAX_RELATIONS = 5
MIN_RELATION_LENGTH = 2
MAX_RELATION_LENGTH = 4


@dataclass(frozen=True)
class RandomAlgebraConfig:
    triangular: bool = False
    field: object = dc_field(default=QQ)


def _sample_walk(rng, quiver, length):
    # a random composable arrow word, traversal order; shorter if the walk dies
    first = rng.randrange(quiver.n_arrows)
    word = [first]
    cur = quiver.arrow_target[first]
    while len(word) < length:
        step = quiver.out_arrows[cur]
        if not step:
            break
        a = rng.choice(step)
        word.append(a)
        cur = quiver.arrow_target[a]
    return word


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
    quiver = Quiver(vertices, [(n, vertices[s], vertices[t]) for n, s, t in arrows])
    relations = []
    if arrows:
        # max of two draws: biased toward several relations, zero still possible
        nr = max(rng.randint(0, MAX_RELATIONS), rng.randint(0, MAX_RELATIONS))
        if nr and spine and rng.random() < 0.7:
            relations = _window_relations(rng, spine, nr)
        if nr and not relations:
            for _ in range(nr):
                length = rng.randint(MIN_RELATION_LENGTH, MAX_RELATION_LENGTH)
                word = _sample_walk(rng, quiver, length)
                if len(word) == length:
                    relations.append(tuple(word))
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
    """(quiver, relations) with one relation dropped, then with one arrow
    and the relations through it dropped; later arrows are renumbered."""
    q, rels = algebra.quiver, algebra.relations
    for i in range(len(rels)):
        yield q, rels[:i] + rels[i + 1 :]
    ends = list(zip(q.arrow_names, q.arrow_source, q.arrow_target))
    for idx in range(q.n_arrows):
        arrows = [(name, q.vertex_names[s], q.vertex_names[t]) for name, s, t in ends[:idx] + ends[idx + 1 :]]
        yield Quiver(q.vertex_names, arrows), [tuple(a - (a > idx) for a in r) for r in rels if idx not in r]


def shrink_algebra(algebra, predicate):
    """Greedy minimization keeping predicate true: relations first, then arrows."""
    assert predicate(algebra), "predicate must hold on the input"
    current = algebra
    while True:
        for quiver, relations in _drops(current):
            try:
                cand = build_algebra(quiver, relations, current.field)
            except InfiniteDimensional:
                continue
            if predicate(cand):
                current = cand
                break
        else:
            return current
