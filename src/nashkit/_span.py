"""Span helpers over ``matrix_core.Subspace``, brackets, and one float helper.

``Subspace`` (in ``matrix_core``, next to Bareiss) holds the reduced row
echelon basis of the span of some rational vectors, a matrix counting as
its row-major entries.  It grows with ``add`` and answers membership with
one reduction of the query vector; coordinates come from the inverse of
the added vectors' pivot-column block, computed on demand.  The helpers
below build one per call; ``coords_in_span`` takes a prebuilt one.
``independent_subset`` is the one basis extension: of a given span, by
elements of a list (a complement, a completed flag, an independent sublist).
``bracket``, ``intersect``, ``restriction`` and ``eigenspace`` run on the
integer forms (``Matrix.ints`` and vectors over a common denominator).
``float_span_basis`` is the float track's span: an SVD basis cut at the
inputs' own absolute tolerance.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .matrix_core import APPROX, EXACT, Matrix, Subspace, _scaled, exact_nullspace


def span_basis(mats: list[Matrix]) -> list[Matrix]:
    """Reduced basis (as matrices) of the span of the given matrices."""
    return Subspace(mats).matrices()


def independent_subset(mats: list, given=()) -> list:
    """The elements of mats (matrices or vectors) that extend a basis of span(given)."""
    space = Subspace(given)
    return [m for m in mats if space.add(m)]


def coords_in_span(m: Matrix, space: Subspace) -> list[Fraction] | None:
    return space.coords(m)


def in_span(m: Matrix, space: Subspace | list[Matrix]) -> bool:
    return m in (space if isinstance(space, Subspace) else Subspace(space))


def intersect(a: list[Matrix], b: list[Matrix]) -> list[Matrix]:
    """Reduced basis of span(a) ∩ span(b).

    A kernel vector k of the columns [a_1 .. a_p, b_1 .. b_q] gives the
    common vector sum_{j <= p} k_j a_j = -sum_{j > p} k_j b_(j-p).  Each
    matrix enters by its numerators, a multiple of it, which leaves the
    spans unchanged.
    """
    if not a or not b:
        return []
    va = np.array([m.ints[0].reshape(-1) for m in a])
    vb = np.array([m.ints[0].reshape(-1) for m in b])
    kernel = exact_nullspace(np.concatenate([va, vb]).T.tolist())
    if not kernel:
        return []
    ks, _ = _scaled(np.array(kernel, dtype=object)[:, :len(a)])
    return Subspace(np.dot(ks, va)).matrices()


def span_dim(mats: list[Matrix]) -> int:
    return len(Subspace(mats))


def bracket(a: Matrix, b: Matrix) -> Matrix:
    """[a, b] = ab - ba; exact operands give (na nb - nb na) / (da db) in one kernel."""
    if a.mode == b.mode == EXACT:
        (na, da), (nb, db) = a.ints, b.ints
        return Matrix.from_ints(np.dot(na, nb) - np.dot(nb, na), da * db, max(a.tol, b.tol))
    return a @ b - b @ a


def restriction(z: Matrix, basis: list[list]) -> Matrix | None:
    """Matrix of z on span(basis) in that (independent) basis; None if not invariant."""
    space = Subspace(basis)
    nz, dz = z.ints
    vs, dv = _scaled(np.array(basis, dtype=object).reshape(len(basis), z.n))
    cols = []
    for image in np.dot(vs, nz.T):  # dz * dv * (z v) for each basis vector v
        coords = space.coords(image)
        if coords is None:
            return None
        cols.append(coords)
    return Matrix.exact(cols).T.scale(Fraction(1, dz * dv))


def eigenspace(r: Matrix, lam, basis: list[list]) -> list[list[Fraction]]:
    """Reduced basis of the lam-eigenspace of r = restriction(z, basis), as vectors."""
    kernel = exact_nullspace((r - Matrix.identity(r.n).scale(lam)).ints[0].tolist())
    if not kernel:
        return []
    ks, _ = _scaled(np.array(kernel, dtype=object))
    vs, _ = _scaled(np.array(basis, dtype=object))
    return Subspace(np.dot(ks, vs)).rows


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
