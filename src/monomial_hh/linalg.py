"""Exact sparse linear algebra over a field object from ``fields``.

Vectors are sparse dicts ``{index: scalar}``.  A plain ``int`` is a scalar
of every field, so a matrix assembled from integer coefficients is a matrix
over Z that serves every field as it is.  A matrix is a ``SparseMatrix``,
an immutable named tuple (nrows, ncols, cols) whose cols are column-major
such dicts, each row index checked when it is built.  Everything is
exact.  The elimination keeps row-echelon rows and never edits a stored
row; every result it hands out (kernel vectors, dependencies,
expressions, reductions, quotient representatives) is the unique normal
form of its span, so results depend only on insertion order, which
callers fix deterministically.  ``kernel_basis`` and ``quotient_basis``
keep their order, because their outputs depend on it.

``rank`` is the one count-only pass.  It returns a number that depends on
the column span alone, so it is free in four ways that a ``RowBasis`` is
not:

- order: it takes the columns last first, the order that fills in least
  on the bar matrices;
- leading-entry reduction: it reduces a column only while its smallest
  index is a stored pivot, and stores it (with no back reduction) once
  it is not.  The stored rows have distinct pivots at
  their smallest indices, so the smallest index of any nonzero combination
  of them is a pivot, and a vector whose smallest index is not one is
  independent of them.  A ``RowBasis`` clears every pivot index instead,
  because ``quotient_basis`` reads the entries of its stored rows;
- clearing (C. Chen and M. Kerber, *Persistent Homology Computation with
  a Twist*, EuroCG 2011): it skips the columns its caller names, which
  must lie in the span of the others.  For δ^n the pivots P of im δ^{n−1}
  qualify: an echelon basis of im δ^{n−1} and the e_j, j ∉ P, together
  are a basis of the cochains, and δ^n kills the first part, so the
  columns j ∉ P span im δ^n;
- canonical on first read: it stores a new row as it comes, and makes it
  canonical only when a later column's reduction first reads it.  A row
  that no reduction reads adds its pivot, whatever its scale.  On the bar
  matrices most stored rows are never read (on ``cub(2)`` at degree 3 the
  reductions read 492 of the 1,248), so, as in U. Bauer's Ripser
  (*J. Appl. Comput. Topol.* 5, 2021), a row is paid for only when read.

Inside the elimination a row is a dict of plain ints, never of scalars.
The field's ``to_row`` is where every input vector enters: it reduces the
vector into the field and drops the entries that are zero there, so "no
stored zeros" holds from then on.  The field's row kernels then make each
reduction step ``vec ← a·vec − b·row`` (fraction-free over the rationals,
mod p over a prime field) and convert back to scalars only what is
returned; no step touches a single scalar through the field.

The cohomology passes hold a list of vectors as one tuple in list order,
each unit vector e_j as its index j, an ``int``, and every other vector
as a dict.  Nearly every kernel vector and representative of the
complexes is a unit vector.  The unit e_0 is the falsy 0, so a reader
tells the two apart by ``type(x) is int``, never by truth.  The passes
eliminate only where vectors meet, by shortcuts that the uniqueness
above makes exact:

- ``kernel_basis`` gives an empty integer column j the dependency
  ``{j: 1}`` without inserting it, which is what ``canonical`` makes of
  the coefficient {j: 1} it would carry (a column that is nonzero over Z
  but zero in the field is still inserted), and keeps every one-entry
  dependency as the unit j;
- ``quotient_basis`` takes a unit column j that is no current pivot
  straight into the representatives, as e_j, and stores no row for it.
  Reducing a vector against the row e_j only deletes its entry j, with
  a = 1, and touches nothing else, so a vector is reduced against the
  stored rows and the entries at those units are deleted afterwards: the
  same row, scale and pivot;
- ``quotient_basis`` stores a kernel vector that has no index at a current
  pivot as it is, in canonical form: reducing it would change nothing;
- the kernel vectors are independent, so one with a single entry puts e_j
  in the span, and j is dropped from a representative's rest before it is
  reduced: the coset, and so its normal form, stays the same, and a rest
  left empty needs no reduction at all.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import ImageNotInKernel


class SparseMatrix(namedtuple("SparseMatrix", "nrows ncols cols")):
    """Column-major sparse matrix: cols[j] maps row index -> scalar.

    The assembled differentials are integer matrices, over Z for every
    field; an entry may be zero in the field (a 2 over GF(2)), and the
    field's ``to_row`` reduces it and drops it when a column is eliminated.

    An immutable value: a named tuple, equal by its three fields.  Every
    row index is checked at construction; the message naming the column
    is built only when the check fails.
    """

    __slots__ = ()

    def __new__(cls, nrows, ncols, cols):
        assert len(cols) == ncols, "ncols %d, but %d columns" % (ncols, len(cols))
        for col in cols:
            for r in col:
                # an earlier column equal to col would have failed first, so index finds col's own
                assert 0 <= r < nrows, "column %d has row %r, not in range(nrows=%d)" % (cols.index(col), r, nrows)
        return super().__new__(cls, nrows, ncols, cols)


class RowBasis:
    """Incremental row-echelon span of sparse vectors.

    Each stored row has a pivot, its smallest index, no two rows share one,
    and a row is never edited once stored: rows are reduced only against
    the rows before them, so they are echelon, not fully reduced.  The
    results are canonical all the same.  Reduction clears every pivot index
    from a vector and the pivot set depends only on the span, so
    ``reduce_mod`` returns the one member of the coset that is zero at every
    pivot; and coefficients over the independent inserted vectors are
    unique, so ``express`` and the dependencies from ``insert`` are too.
    With ``track=True`` each row also carries its expression in terms of the
    original inserted vectors, each named by the tag the caller inserted it
    with, which is what kernel extraction and membership certificates need.

    Rows and coefficients are integer dicts in the field's row form (see
    ``fields``); ``rows`` maps pivot index -> (vec, coeffs|None) with
    vec = Σ coeffs[t]·original_t.

    A basis can start from the stored rows of another, ``seed``: integer
    rows in canonical form with distinct pivots, as ``kernel_basis`` hands
    back the rows of a column span.  Seed rows are not inserted vectors and
    carry no coefficients, so a tracked basis expresses vectors modulo
    their span, over the vectors inserted after them.  No library code
    calls ``express``: it stays as the tests' reference solve of a class
    read, and ``perfbench``'s tracer wraps it by name.
    """

    QUERY = object()  # tag used by express() for the queried vector

    def __init__(self, field, track: bool = False, seed=()):
        self.field = field
        self.track = track
        # pivot index -> (vec, coeffs|None), in insertion order
        self.rows = {min(vec): (vec, {} if track else None) for vec in seed}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: dict, coeffs) -> int:
        """Clear every pivot index from the row vec, in place.

        Each step is vec ← a·vec − b·row, and the same on coeffs; returns
        the product of the a's, the factor that vec now carries.
        """
        f = self.field
        rows = self.rows
        scale = 1
        while True:
            piv_cols = [c for c in vec if c in rows]
            if not piv_cols:
                return scale
            # smallest pivot first: a row has no entries left of its pivot,
            # so eliminations only introduce entries to the right and this
            # terminates after at most rank rounds
            c = min(piv_cols)
            rvec, rcoeffs = rows[c]
            a, b = f.pivot_step(vec[c], rvec[c])
            f.combine(vec, a, b, rvec)
            if coeffs is not None:
                f.combine(coeffs, a, b, rcoeffs)
            scale *= a

    def insert(self, vec: dict, tag=None):
        """Insert a vector. Returns (added, dependency).

        added is True when the rank grew; dependency is None in that case.
        When the vector is dependent, dependency maps tags of previously
        inserted vectors (plus this vector's own tag) to scalars λ with
        Σ λ_t · original_t = 0 — a kernel certificate, scaled by the field's
        ``canonical`` at its smallest tag: primitive with a positive entry
        there over the rationals, that entry 1 over a prime field.  It is
        the canonical integer row as it is, which is a vector of scalars.
        A tracked basis needs each vector's tag; an untracked one reads none.
        """
        assert tag is not None or not self.track, "a tracked basis needs a tag"
        f = self.field
        vec, d = f.to_row(vec)
        coeffs = {tag: d} if self.track else None
        self._reduce(vec, coeffs)
        if not vec:
            if not self.track:
                return False, {}
            return False, f.canonical(coeffs, None, min(coeffs))[0]
        pivot = min(vec)
        self.rows[pivot] = f.canonical(vec, coeffs, pivot)
        return True, None

    def contains(self, vec: dict) -> bool:
        vec, _ = self.field.to_row(vec)
        self._reduce(vec, None)
        return not vec

    def express(self, vec: dict):
        """Write vec as a combination of the inserted vectors.

        Returns {tag: scalar} with vec = Σ scalar_t · original_t, or None
        when vec is outside the span.  Requires track=True.
        """
        assert self.track, "express() needs coefficient tracking"
        f = self.field
        vec, d = f.to_row(vec)
        coeffs = {self.QUERY: d}
        self._reduce(vec, coeffs)
        if vec:
            return None
        # 0 = q·vec + Σ coeffs[t]·orig_t, q the scale the query now carries
        q = coeffs.pop(self.QUERY)
        return f.from_row({t: -v for t, v in coeffs.items()}, q)

    def reduce_mod(self, vec: dict) -> dict:
        """The canonical representative of vec modulo the span."""
        f = self.field
        vec, d = f.to_row(vec)
        scale = self._reduce(vec, None)
        return f.from_row(vec, d * scale)


def kernel_basis(field, matrix: SparseMatrix, image=None):
    """Kernel vectors (in column coordinates), deterministic order, as one tuple.

    One vector per dependent column j: j's dependency on the independent
    columns before it, which is unique up to scale.  A one-entry dependency
    is the canonical {j: 1}, held as the unit j, an ``int``; every other is
    a dict.  So the units are sorted, and no vector has an entry at a unit,
    since a dependency reads only independent columns and its own.
    Satisfies rank + len(kernel) = ncols by construction; asserted.

    When ``image`` is a list, it receives the echelon rows of the column
    span, without their coefficients and scaled as an untracked basis
    stores them: the rows that inserting the independent columns into a
    fresh ``RowBasis`` would give, a ``seed`` for the next degree.
    """
    basis = RowBasis(field, track=True)
    out = []
    for j, col in enumerate(matrix.cols):
        if col:  # inserting an empty column would give {j: 1}
            added, dep = basis.insert(col, tag=j)
            if added:
                continue
            if len(dep) > 1:
                out.append(dep)
                continue
        out.append(j)
    out = tuple(out)
    assert basis.rank + len(out) == matrix.ncols
    if image is not None:
        # each tracked row is a multiple of the untracked one: canonical
        # without coefficients divides it back out
        image.extend(field.canonical(vec, None, p)[0] for p, (vec, _) in basis.rows.items())
    return out


def rank(field, matrix: SparseMatrix, cleared=(), pivots=None) -> int:
    """Rank of the column span, in one count-only pass (module docstring).

    The columns are taken last first, and those in ``cleared`` are skipped:
    the caller answers for their lying in the span of the others.  A
    column is reduced only while its smallest index is a stored pivot, and
    one that reaches zero is dependent.  A new row is stored as it comes
    and made canonical when a reduction first reads it.  When ``pivots`` is
    a set it receives the pivots of the span, which depend on the span
    alone.
    """
    rows = {}  # pivot -> a stored row that a reduction has read, canonical
    unread = {}  # pivot -> a stored row no reduction has read yet
    for j in reversed(range(matrix.ncols)):
        if j in cleared:
            continue
        vec = field.to_row(matrix.cols[j])[0]
        while vec:
            c = min(vec)
            row = rows.get(c)
            if row is None:
                row = unread.pop(c, None)
                if row is None:
                    unread[c] = vec
                    break
                rows[c] = row = field.canonical(row, None, c)[0]
            a, b = field.pivot_step(vec[c], row[c])
            field.combine(vec, a, b, row)
    if pivots is not None:
        pivots.update(rows, unread)
    return len(rows) + len(unread)


def quotient_basis(field, kernel, image):
    """Representatives of span(kernel)/span(image), as one tuple; requires im ⊆ ker.

    ``kernel`` is a sequence of independent vectors, each a dict or the
    index j of the unit e_j, taken in order, and ``image`` the echelon rows
    of the image, a ``RowBasis`` seed, so only the kernel vectors are
    eliminated here.  Returns the reduced-echelon completion of the image
    basis inside the kernel span, deterministic given the input orders,
    each e_p among them as the index p and every other as a dict.  The
    kernel vectors are independent, so im ⊆ ker holds exactly when image
    and kernel together span no more than the kernel does.
    """
    combined = RowBasis(field, seed=image)
    rows = combined.rows
    reps = []  # a unit that met no pivot as it is, every other representative as its pivot
    pending = []  # the places in reps of the other representatives
    taken = set()  # the units taken as they are
    for x in kernel:
        if type(x) is int:
            if x not in rows:
                reps.append(x)
                taken.add(x)
                continue
            vec = {x: 1}
        else:
            vec = field.to_row(x)[0]
        # reduce against the stored rows, then delete the entries that the
        # rows e_j of taken would have deleted (module docstring)
        combined._reduce(vec, None)
        for c in taken.intersection(vec):
            del vec[c]
        if vec:
            p = min(vec)
            rows[p] = field.canonical(vec, None, p)
            pending.append(len(reps))
            reps.append(p)
    if combined.rank + len(taken) != len(kernel):
        raise ImageNotInKernel("image vector outside the kernel span")
    if pending:
        # the kernel vectors are independent, so a one-entry one puts e_j in
        # the span: dropping j from a rest leaves its coset, and so its
        # reduction, unchanged
        units = {x for x in kernel if type(x) is int}
        units.update(*(x for x in kernel if type(x) is not int and len(x) == 1))
    # only the rows returned are fully reduced, once every vector is in: the
    # pivot entry plus the rest of the row reduced modulo the span is the
    # one row of the span with that pivot entry and zeros at the other pivots
    for at in pending:
        p = reps[at]
        vec = rows[p][0]  # an integer row, a vector of scalars too
        rep = {p: vec[p]}
        rest = {c: v for c, v in vec.items() if c != p and c not in units}
        if rest:
            rep.update(item for item in combined.reduce_mod(rest).items() if item[0] not in taken)
        if len(rep) > 1 or rep[p] != 1:
            reps[at] = rep
    return tuple(reps)
