"""Exact sparse linear algebra over a field object from ``fields``.

Vectors are sparse dicts ``{index: scalar}`` with no explicit zeros.
Matrices are column-major tuples of such dicts.  Everything is exact; the
elimination keeps a fully reduced row-echelon basis, so results depend only
on insertion order, which callers fix deterministically.
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
    """Incremental reduced row-echelon span of sparse vectors.

    Rows are kept fully reduced against one another: each stored row has a
    pivot (its leftmost nonzero index) and every other stored row is zero at
    that pivot.  With ``track=True`` each row also carries its expression in
    terms of the original inserted vectors, which is what kernel extraction
    and membership certificates need.
    """

    QUERY = object()  # tag used by express() for the queried vector

    def __init__(self, field, track: bool = False):
        self.field = field
        self.track = track
        self.rows = []  # list of [pivot, vec, coeffs|None]
        self._by_pivot = {}  # pivot index -> position in rows
        self.n_inserted = 0

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: dict, coeffs):
        """Fully reduce vec against the basis; mutates and returns (vec, coeffs)."""
        f = self.field
        while True:
            piv_cols = [c for c in vec if c in self._by_pivot]
            if not piv_cols:
                return vec, coeffs
            # smallest pivot first: eliminations only introduce entries to
            # the right, so this terminates after at most rank rounds
            c = min(piv_cols)
            _, rvec, rcoeffs = self.rows[self._by_pivot[c]]
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
        pivot = min(vec)
        # back-substitute so older rows are zero at the new pivot
        for row in self.rows:
            rvec = row[1]
            if pivot not in rvec:
                continue
            factor = f.div(rvec[pivot], vec[pivot])
            _sub_scaled(f, rvec, factor, vec)
            if self.track and row[2] is not None and coeffs is not None:
                _sub_scaled(f, row[2], factor, coeffs)
        self._by_pivot[pivot] = len(self.rows)
        self.rows.append([pivot, vec, coeffs])
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

    Satisfies rank + len(kernel) = ncols by construction; asserted.
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
    rep_rows = []
    for v in kernel_vecs:
        if combined.insert(v)[0]:
            rep_rows.append(combined.rank - 1)
    if combined.rank != len(kernel_vecs):
        raise ImageNotInKernel("image vector outside the kernel span")
    # snapshot after all insertions: rows are then fully back-substituted,
    # i.e. the reduced-echelon completion of the image basis
    return [dict(combined.rows[i][1]) for i in rep_rows]
