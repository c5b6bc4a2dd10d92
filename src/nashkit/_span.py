"""Subspaces of flattened matrices: the exact ``Subspace`` and one float helper.

``Subspace`` holds the reduced row echelon basis of the span of some
rational vectors (a matrix counts as its row-major entries).  Built once,
it answers membership and coordinate questions with one reduction of the
query vector each (one integer product with its rows), and grows with
``add``.  ``bracket`` of exact matrices is one integer kernel on their
``Matrix.ints`` forms.  The list-taking helpers below
build one per call; callers that ask many questions of one span pass a
prebuilt ``Subspace`` instead.  ``float_span_basis`` is the float track's
span: an SVD basis cut at the inputs' own absolute tolerance.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from math import gcd, isqrt, lcm

import numpy as np

from .matrix_core import APPROX, EXACT, Matrix, _reduced, exact_nullspace, exact_solve


class Subspace:
    """Exact span of rational vectors, kept in reduced row echelon form.

    ``rows`` and ``pivots`` are what ``rref`` gives for the span: row i has
    a 1 in column pivots[i] and a 0 in every other pivot column.  Each row is
    stored as a primitive int vector with a positive pivot entry, so
    elimination runs on Python ints; a matrix enters by its ``ints`` form
    and a list of rationals by its numerators over their lcm.  Each row also
    carries its combination of the added vectors that raised the rank, so
    ``coords`` reads coordinates in the list the span was built from.
    Vectors of different lengths raise ``ValueError``.
    """

    __slots__ = ("pivots", "length", "_rows", "_heads", "_lcm", "_combos", "_dens",
                 "_picked", "_added")

    def __init__(self, vecs=()):
        self.pivots: list[int] = []
        self.length: int | None = None
        # row i of the echelon form is _rows[i] / _heads[i], _heads[i] = _rows[i, pivots[i]] > 0
        self._rows = np.empty((0, 0), dtype=object)
        self._heads: list[int] = []
        self._lcm = 1  # of the heads
        # _rows[i] == sum_k _combos[i, k] / _dens[i] * (added vector number _picked[k])
        self._combos = np.empty((0, 0), dtype=object)
        self._dens: list[int] = []
        self._picked: list[int] = []
        self._added = 0
        for v in vecs:
            self.add(v)

    def __len__(self) -> int:
        return len(self.pivots)

    @property
    def rows(self) -> list[list[Fraction]]:
        """The echelon rows as rationals, each with a 1 at its pivot."""
        return [[Fraction(x, h) for x in r] for r, h in zip(self._rows, self._heads)]

    def _reduce(self, v) -> tuple[np.ndarray, int, np.ndarray, list[int]]:
        """(a, d, res, coef): v = a / d in ints, and res = lcm(heads) * a - coef . rows.

        coef[i] = a[pivots[i]] * lcm(heads) / heads[i], so res is lcm(heads) * d
        times v minus its projection along the echelon rows; it is 0 at every pivot.
        """
        if isinstance(v, Matrix):
            nums, d = v.ints
            a = nums.reshape(-1)
        else:
            v = list(v)
            d = lcm(*(x.denominator for x in v))
            a = np.array([x.numerator * (d // x.denominator) for x in v], dtype=object)
        if self.length is not None and len(a) != self.length:
            raise ValueError(f"a length-{len(a)} vector in a span of length-{self.length} vectors")
        coef = [a[p] * (self._lcm // h) for p, h in zip(self.pivots, self._heads)]
        res = self._lcm * a
        if any(coef):
            res -= np.dot(np.array(coef, dtype=object), self._rows)
        return a, d, res, coef

    def add(self, v) -> bool:
        """Adjoin v to the span; True when the rank rises."""
        a, d, res, coef = self._reduce(v)
        if self.length is None:
            self.length = len(a)
            self._rows = np.empty((0, self.length), dtype=object)
        self._added += 1
        nonzero = res.nonzero()[0]
        if not len(nonzero):
            return False
        p = int(nonzero[0])
        g = gcd(*res) if res[p] > 0 else -gcd(*res)
        row = res // g
        head = row[p]
        # row = (lcm * d * v - coef . rows) / g, as a combination of the added vectors
        rank = len(self.pivots)
        den = lcm(*self._dens)
        combo = np.zeros(rank + 1, dtype=object)
        if rank:
            weights = [c * (den // e) for c, e in zip(coef, self._dens)]
            combo[:rank] = -np.dot(np.array(weights, dtype=object), self._combos)
        combo[rank] = self._lcm * d * den
        combo, cden = _reduced(combo, den * g)
        # insert the new row at its pivot's place; old combinations get a 0 for the new vector
        at = bisect(self.pivots, p)
        rows = np.empty((rank + 1, self.length), dtype=object)
        rows[:at], rows[at], rows[at + 1:] = self._rows[:at], row, self._rows[at:]
        combos = np.zeros((rank + 1, rank + 1), dtype=object)
        combos[:at, :rank], combos[at], combos[at + 1:, :rank] = (
            self._combos[:at], combo, self._combos[at:])
        self.pivots.insert(at, p)
        self._heads.insert(at, head)
        self._dens.insert(at, cden)
        # clear column p from the other rows; each stays primitive with a positive head
        for i in range(rank + 1):
            f = rows[i, p]
            if i == at or not f:
                continue
            rows[i] = head * rows[i] - f * row
            gi = gcd(*rows[i])
            rows[i] //= gi
            self._heads[i] = rows[i, self.pivots[i]]
            e = lcm(self._dens[i], cden)
            combos[i], self._dens[i] = _reduced(
                head * (e // self._dens[i]) * combos[i] - f * (e // cden) * combo, e * gi)
        self._rows, self._combos = rows, combos
        self._lcm = lcm(*self._heads)
        self._picked.append(self._added - 1)
        return True

    def __contains__(self, v) -> bool:
        return not self._reduce(v)[2].any()

    def coords(self, v) -> list[Fraction] | None:
        """Coordinates of v in the added vectors, or None if v is outside the span.

        Vectors that did not raise the rank get coordinate 0, as the free
        variables of ``exact_solve`` do.
        """
        a, d, res, _ = self._reduce(v)
        if res.any():
            return None
        out = [Fraction(0)] * self._added
        if not self.pivots:
            return out
        # v = sum_i a[p_i] / (d * heads[i]) * rows[i], each row a combination over _dens[i]
        scales = [h * e for h, e in zip(self._heads, self._dens)]
        den = lcm(*scales)
        weights = np.array([a[p] * (den // s) for p, s in zip(self.pivots, scales)], dtype=object)
        for index, x in zip(self._picked, np.dot(weights, self._combos)):
            out[index] = Fraction(x, d * den)
        return out

    def matrices(self) -> list[Matrix]:
        """The echelon rows as square exact matrices."""
        n = isqrt(self.length or 0)
        return [Matrix.from_ints(r.reshape(n, n).copy(), h)
                for r, h in zip(self._rows, self._heads)]


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
    return m in (space if isinstance(space, Subspace) else Subspace(space))


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
    """[a, b] = ab - ba; exact operands give (na nb - nb na) / (da db) in one kernel."""
    if a.mode == b.mode == EXACT:
        (na, da), (nb, db) = a.ints, b.ints
        return Matrix.from_ints(np.dot(na, nb) - np.dot(nb, na), da * db, max(a.tol, b.tol))
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
