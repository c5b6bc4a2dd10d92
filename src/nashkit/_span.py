"""Subspaces of flattened matrices: the exact ``Subspace`` and one float helper.

``Subspace`` holds the reduced row echelon basis of the span of some
rational vectors (a matrix counts as its row-major entries).  Built once,
it answers membership and coordinate questions with one reduction of the
query vector each, and grows with ``add``.  The list-taking helpers below
build one per call; callers that ask many questions of one span pass a
prebuilt ``Subspace`` instead.  ``float_span_basis`` is the float track's
span: an SVD basis cut at the inputs' own absolute tolerance.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from math import isqrt

import numpy as np

from .matrix_core import APPROX, Matrix, exact_nullspace, exact_solve


class Subspace:
    """Exact span of rational vectors, kept in reduced row echelon form.

    ``rows`` and ``pivots`` are what ``rref`` gives for the span: row i has
    a 1 in column pivots[i] and a 0 in every other pivot column.  Each row
    also carries its combination of the added vectors that raised the rank,
    so ``coords`` reads coordinates in the list the span was built from.
    Vectors of different lengths raise ``ValueError``.
    """

    __slots__ = ("rows", "pivots", "length", "_combos", "_picked", "_added")

    def __init__(self, vecs=()):
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []
        self.length: int | None = None
        # rows[i] == sum_k _combos[i][k] * (added vector number _picked[k])
        self._combos: list[list[Fraction]] = []
        self._picked: list[int] = []
        self._added = 0
        for v in vecs:
            self.add(v)

    def __len__(self) -> int:
        return len(self.rows)

    def _reduce(self, v) -> tuple[list, list]:
        """(v as a flat list, v minus its projection along the echelon rows)."""
        v = list(v.vec()) if isinstance(v, Matrix) else list(v)
        if self.length is not None and len(v) != self.length:
            raise ValueError(f"a length-{len(v)} vector in a span of length-{self.length} vectors")
        res = v
        for row, p in zip(self.rows, self.pivots):
            c = v[p]  # other rows are 0 at p, so the reduction never changes it
            if c:
                res = [a - c * b if b else a for a, b in zip(res, row)]
        return v, res

    def add(self, v) -> bool:
        """Adjoin v to the span; True when the rank rises."""
        v, res = self._reduce(v)
        if self.length is None:
            self.length = len(v)
        self._added += 1
        p = next((i for i, x in enumerate(res) if x != 0), None)
        if p is None:
            return False
        inv = Fraction(1) / res[p]
        row = [x * inv for x in res]
        for combo in self._combos:
            combo.append(Fraction(0))
        combo = [Fraction(0)] * len(self._picked) + [Fraction(1)]
        for r, q in zip(self._combos, self.pivots):
            if v[q]:
                combo = [a - v[q] * b for a, b in zip(combo, r)]
        combo = [x * inv for x in combo]
        for i, other in enumerate(self.rows):
            f = other[p]
            if f:
                self.rows[i] = [a - f * b for a, b in zip(other, row)]
                self._combos[i] = [a - f * b for a, b in zip(self._combos[i], combo)]
        at = bisect(self.pivots, p)
        self.rows.insert(at, row)
        self.pivots.insert(at, p)
        self._combos.insert(at, combo)
        self._picked.append(self._added - 1)
        return True

    def __contains__(self, v) -> bool:
        return not any(x != 0 for x in self._reduce(v)[1])

    def coords(self, v) -> list[Fraction] | None:
        """Coordinates of v in the added vectors, or None if v is outside the span.

        Vectors that did not raise the rank get coordinate 0, as the free
        variables of ``exact_solve`` do.
        """
        v, res = self._reduce(v)
        if any(x != 0 for x in res):
            return None
        terms = [(v[p], combo) for p, combo in zip(self.pivots, self._combos) if v[p]]
        out = [Fraction(0)] * self._added
        for k, index in enumerate(self._picked):
            out[index] = sum((c * combo[k] for c, combo in terms), Fraction(0))
        return out

    def matrices(self) -> list[Matrix]:
        """The echelon rows as square exact matrices."""
        n = isqrt(self.length or 0)
        return [Matrix.exact([r[i * n:(i + 1) * n] for i in range(n)]) for r in self.rows]


def vec_coords(v: list[Fraction], vecs: list[list[Fraction]]) -> list[Fraction] | None:
    """Coordinates of v in the given spanning list, or None if outside the span."""
    if not vecs:
        return None if any(x != 0 for x in v) else []
    cols = [[vecs[j][i] for j in range(len(vecs))] for i in range(len(v))]
    return exact_solve(cols, list(v))


def span_basis(mats: list[Matrix]) -> list[Matrix]:
    """Reduced basis (as matrices) of the span of the given matrices."""
    return Subspace(mats).matrices()


def independent_subset(mats: list[Matrix]) -> list[Matrix]:
    """Maximal linearly independent sublist, keeping the original elements."""
    space = Subspace()
    return [m for m in mats if space.add(m)]


def coords_in_span(m: Matrix, space: Subspace | list[Matrix]) -> list[Fraction] | None:
    if not isinstance(space, Subspace):
        space = Subspace(space)
    return space.coords(m)


def in_span(m: Matrix, space: Subspace | list[Matrix]) -> bool:
    return coords_in_span(m, space) is not None


def intersect(a: list[Matrix], b: list[Matrix]) -> list[Matrix]:
    """Reduced basis of span(a) ∩ span(b)."""
    if not a or not b:
        return []
    va, vb = [list(m.vec()) for m in a], [list(m.vec()) for m in b]
    dim = len(va[0])
    cols = [[(va[j][i] if j < len(va) else -vb[j - len(va)][i]) for j in range(len(va) + len(vb))]
            for i in range(dim)]
    out = Subspace()
    for k in exact_nullspace(cols):
        out.add([sum(k[j] * va[j][i] for j in range(len(va))) for i in range(dim)])
    return out.matrices()


def span_dim(mats: list[Matrix]) -> int:
    return len(Subspace(mats))


def bracket(a: Matrix, b: Matrix) -> Matrix:
    return a @ b - b @ a


def restriction(z: Matrix, basis: list[list[Fraction]]) -> Matrix | None:
    """Matrix of z on span(basis) in that (independent) basis; None if not invariant."""
    space = Subspace(basis)
    n = z.n
    cols = []
    for v in basis:
        coords = space.coords([sum(z.entry(i, j) * v[j] for j in range(n)) for i in range(n)])
        if coords is None:
            return None
        cols.append(coords)
    return Matrix.exact(cols).T


def eigenspace(r: Matrix, lam, basis: list[list[Fraction]]) -> list[list[Fraction]]:
    """Reduced basis of the lam-eigenspace of r = restriction(z, basis), as vectors."""
    kernel = exact_nullspace([[r.entry(i, j) - (lam if i == j else 0)
                               for j in range(r.n)] for i in range(r.n)])
    return Subspace([sum(k[a] * basis[a][i] for a in range(len(basis)))
                     for i in range(len(basis[0]))] for k in kernel).rows


def float_span_basis(mats: list[Matrix]) -> list[Matrix]:
    """Orthonormal float basis of the span, with rank cut at the largest abs_tol."""
    if not mats:
        return []
    n = mats[0].n
    rows = np.array([m.float_array().ravel() for m in mats])
    _, s, vt = np.linalg.svd(rows)
    rank = int(np.sum(s > max(m.abs_tol() for m in mats)))
    tol = max(m.tol for m in mats)
    return [Matrix(vt[i].reshape(n, n).copy(), APPROX, tol) for i in range(rank)]
