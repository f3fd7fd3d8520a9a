"""Exact sparse linear algebra over a field object from ``fields``.

Vectors are sparse dicts ``{index: scalar}`` with no explicit zeros.
Matrices are column-major tuples of such dicts.  Everything is exact.  The
elimination keeps row-echelon rows and never edits a stored row; every
result it hands out (kernel vectors, expressions, reductions, quotient
representatives) is the unique normal form of its span, so results depend
only on insertion order, which callers fix deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ImageNotInKernel


@dataclass(frozen=True)
class SparseMatrix:
    """Column-major sparse matrix: cols[j] maps row index -> scalar."""

    nrows: int
    ncols: int
    cols: tuple

    def __post_init__(self):
        assert len(self.cols) == self.ncols
        # stored zeros are dropped here, once: every scalar type in ``fields``
        # is falsy exactly at zero, and elimination assumes no stored zeros
        cols = tuple({r: v for r, v in col.items() if v} for col in self.cols)
        for col in cols:
            for r in col:
                assert 0 <= r < self.nrows
        object.__setattr__(self, "cols", cols)


def _sub_scaled(f, target: dict, factor, source: dict):
    """target -= factor * source in place; entries that cancel are removed."""
    for key, val in source.items():
        cur = f.sub(target.get(key, f.zero), f.mul(factor, val))
        if f.is_zero(cur):
            target.pop(key, None)
        else:
            target[key] = cur


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
    original inserted vectors, which is what kernel extraction and
    membership certificates need.
    """

    QUERY = object()  # tag used by express() for the queried vector

    def __init__(self, field, track: bool = False):
        self.field = field
        self.track = track
        self.rows = {}  # pivot index -> (vec, coeffs|None), in insertion order
        self.n_inserted = 0

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: dict, coeffs):
        """Clear every pivot index from vec; mutates and returns (vec, coeffs)."""
        f = self.field
        while True:
            piv_cols = [c for c in vec if c in self.rows]
            if not piv_cols:
                return vec, coeffs
            # smallest pivot first: a row has no entries left of its pivot,
            # so eliminations only introduce entries to the right and this
            # terminates after at most rank rounds
            c = min(piv_cols)
            rvec, rcoeffs = self.rows[c]
            factor = f.div(vec[c], rvec[c])
            _sub_scaled(f, vec, factor, rvec)
            if coeffs is not None and rcoeffs is not None:
                _sub_scaled(f, coeffs, factor, rcoeffs)

    def _scale(self, vec: dict, coeffs):
        """Canonical scaling of (vec, coeffs) via the field's row normalizer."""
        f = self.field
        scaled = f.normalize_row(vec)
        if coeffs:
            pivot = min(vec)
            factor = f.div(scaled[pivot], vec[pivot])
            coeffs = {t: f.mul(factor, v) for t, v in coeffs.items()}
        return scaled, coeffs

    def insert(self, vec: dict, tag=None):
        """Insert a vector. Returns (added, dependency).

        added is True when the rank grew; dependency is None in that case.
        When the vector is dependent, dependency maps tags of previously
        inserted vectors (plus this vector's own tag) to scalars λ with
        Σ λ_t · original_t = 0 — a kernel certificate.
        """
        f = self.field
        if tag is None:
            tag = self.n_inserted
        self.n_inserted += 1
        coeffs = {tag: f.one} if self.track else None
        vec, coeffs = self._reduce(dict(vec), coeffs)
        if not vec:
            return False, (coeffs if self.track else {})
        vec, coeffs = self._scale(vec, coeffs)
        self.rows[min(vec)] = (vec, coeffs)
        return True, None

    def contains(self, vec: dict) -> bool:
        red, _ = self._reduce(dict(vec), None)
        return not red

    def express(self, vec: dict):
        """Write vec as a combination of the inserted vectors.

        Returns {tag: scalar} with vec = Σ scalar_t · original_t, or None
        when vec is outside the span.  Requires track=True.
        """
        assert self.track, "express() needs coefficient tracking"
        f = self.field
        coeffs = {self.QUERY: f.one}
        red, coeffs = self._reduce(dict(vec), coeffs)
        if red:
            return None
        # 0 = vec + Σ coeffs[t]·orig_t  (coeffs[QUERY] stayed 1)
        return {t: f.neg(v) for t, v in coeffs.items() if t is not self.QUERY}

    def reduce_mod(self, vec: dict) -> dict:
        """The canonical representative of vec modulo the span."""
        red, _ = self._reduce(dict(vec), None)
        return red


def kernel_basis(field, matrix: SparseMatrix):
    """Kernel vectors (in column coordinates), deterministic order.

    One vector per dependent column j: j's dependency on the independent
    columns before it, which is unique up to scale.  Satisfies
    rank + len(kernel) = ncols by construction; asserted.
    """
    basis = RowBasis(field, track=True)
    out = []
    for j, col in enumerate(matrix.cols):
        added, dep = basis.insert(col, tag=j)
        if not added:
            out.append(field.normalize_row(dep))
    assert basis.rank + len(out) == matrix.ncols
    return out


def quotient_basis(field, kernel_vecs, image_vecs):
    """Representatives of span(kernel)/span(image); requires im ⊆ ker.

    Returns the reduced-echelon completion of the image basis inside the
    kernel span: deterministic given the input orders.  The kernel vectors
    are independent, so im ⊆ ker holds exactly when image and kernel
    together span no more than the kernel does.
    """
    combined = RowBasis(field)
    for v in image_vecs:
        combined.insert(v)
    rep_pivots = []
    for v in kernel_vecs:
        if combined.insert(v)[0]:
            rep_pivots.append(next(reversed(combined.rows)))
    if combined.rank != len(kernel_vecs):
        raise ImageNotInKernel("image vector outside the kernel span")
    # only the rows returned are fully reduced, once every vector is in: the
    # pivot entry plus the rest of the row reduced modulo the span is the
    # one row of the span with that pivot entry and zeros at the other pivots
    reps = []
    for p in rep_pivots:
        vec = combined.rows[p][0]
        rep = {p: vec[p]}
        rep.update(combined.reduce_mod({c: v for c, v in vec.items() if c != p}))
        reps.append(rep)
    return reps
