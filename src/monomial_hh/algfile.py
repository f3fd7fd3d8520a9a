"""The .alg text format: a monomial algebra in a handful of line kinds.

    # comments run to end of line
    field q                 (or fp:<prime>; optional, default q)
    writing traversal       (or functional; optional, default traversal)
    vertices 1 2 3
    arrow alpha: 1 -> 2
    relation zeta beta

Relation lines list arrow names in traversal order (first-traversed arrow
first); ``writing functional`` flips every relation line to the right-to-left
composite order instead, the way one writes composition of functions.  The
writer emits the canonical traversal form, so write(parse(write(x))) ==
write(x) byte for byte.
"""

import re

from .errors import NonComposableRelation, ParseError
from .fields import parse_field_spec
from .quivers import Quiver, build_algebra, path_from_word

_TOKEN = re.compile(r"\S+")


def _tokens(line):
    """(token, 1-based column) pairs, comments stripped."""
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    return [(m.group(), m.start() + 1) for m in _TOKEN.finditer(line)]


def parse_algebra_file(text):
    field_spec = None
    writing = None
    vertices = []
    seen_vertices = set()
    vertices_line = None
    arrows = []
    arrow_names = set()
    relations = []  # (lineno, [(name, col), ...])

    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _tokens(raw)
        if not toks:
            continue
        head, head_col = toks[0]
        rest = toks[1:]
        if head == "field":
            if field_spec is not None:
                raise ParseError(lineno, head_col, "duplicate field line")
            if len(rest) != 1:
                raise ParseError(lineno, head_col, "field expects one descriptor")
            try:
                field_spec = parse_field_spec(rest[0][0])
            except ValueError as exc:
                raise ParseError(lineno, rest[0][1], str(exc)) from None
        elif head == "writing":
            if writing is not None:
                raise ParseError(lineno, head_col, "duplicate writing line")
            if len(rest) != 1 or rest[0][0] not in ("traversal", "functional"):
                raise ParseError(lineno, head_col, "writing expects 'traversal' or 'functional'")
            writing = rest[0][0]
        elif head == "vertices":
            vertices_line = lineno
            for name, col in rest:
                if name in seen_vertices:
                    raise ParseError(lineno, col, "duplicate vertex %r" % name)
                if name in arrow_names:
                    raise ParseError(lineno, col, "duplicate id %r" % name)
                seen_vertices.add(name)
                vertices.append(name)
        elif head == "arrow":
            # arrow <name>: <src> -> <tgt>
            if not rest:
                raise ParseError(lineno, head_col, "arrow needs a name")
            name, name_col = rest[0]
            if not name.endswith(":"):
                raise ParseError(lineno, name_col, "arrow name must end with ':'")
            name = name[:-1]
            if not name:
                raise ParseError(lineno, name_col, "empty arrow name")
            shape = [t for t, _ in rest[1:]]
            if len(shape) != 3 or shape[1] != "->":
                raise ParseError(lineno, head_col, "expected 'arrow name: src -> tgt'")
            src, src_col = rest[1]
            tgt, tgt_col = rest[3]
            if src not in seen_vertices:
                raise ParseError(lineno, src_col, "unknown vertex %r" % src)
            if tgt not in seen_vertices:
                raise ParseError(lineno, tgt_col, "unknown vertex %r" % tgt)
            if name in arrow_names or name in seen_vertices:
                raise ParseError(lineno, name_col, "duplicate id %r" % name)
            arrow_names.add(name)
            arrows.append((name, src, tgt))
        elif head == "relation":
            if len(rest) < 2:
                raise ParseError(lineno, head_col, "relation needs at least two arrows")
            for name, col in rest:
                if name not in arrow_names:
                    raise ParseError(lineno, col, "unknown arrow %r" % name)
            relations.append((lineno, head_col, rest))
        else:
            raise ParseError(lineno, head_col, "unknown directive %r" % head)

    if not vertices:
        line = vertices_line if vertices_line is not None else 1
        raise ParseError(line, 1, "no vertices declared")
    quiver = Quiver(vertices, arrows)
    rel_paths = []
    for lineno, head_col, named in relations:
        names = [name for name, _ in named]
        try:
            rel_paths.append(path_from_word(quiver, names) if writing == "functional" else quiver.path(names))
        except NonComposableRelation as exc:
            raise ParseError(lineno, head_col, str(exc)) from None
    field = field_spec if field_spec is not None else parse_field_spec("q")
    return build_algebra(quiver, rel_paths, field)


def write_algebra_file(algebra):
    """Canonical traversal-order text for the algebra; parse() round-trips it."""
    q = algebra.quiver
    lines = ["field %s" % algebra.field.name]
    lines.append("vertices %s" % " ".join(q.vertex_names))
    for i in range(q.n_arrows):
        lines.append(
            "arrow %s: %s -> %s"
            % (
                q.arrow_names[i],
                q.vertex_names[q.arrow_source[i]],
                q.vertex_names[q.arrow_target[i]],
            )
        )
    for r in algebra.relations:
        lines.append("relation %s" % " ".join(q.arrow_names[a] for a in r))
    return "\n".join(lines) + "\n"
