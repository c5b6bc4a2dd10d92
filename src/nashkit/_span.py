"""Span helpers over ``matrix_core``'s two subspaces, and brackets.

``Subspace`` (in ``matrix_core``, next to Bareiss) holds the reduced row
echelon basis of the span of some rational vectors, a matrix counting as
its row-major entries, as primitive rows of Python ints; ``FloatSubspace``,
its float twin, keeps orthonormal rows.  ``span_of`` picks the exact one
when every matrix is exact.  The exact helpers hand each other
``Subspace``s and int rows, not ``Fraction``s: ``coords_in_span`` gives int
coordinates in a prebuilt ``Subspace`` (float ones, over 1, in a
``FloatSubspace``), ``intersect`` and ``eigenspace`` read int kernel rows
(``matrix_core._kernel``), and ``restriction`` and ``eigenspace`` work in
the basis of a ``Subspace``'s int echelon rows.  ``independent_subset`` is
the one basis extension: of a given span (a ``Subspace`` or
``FloatSubspace`` is extended in place), by elements of a list (a
complement, a completed flag, an independent sublist).  ``bracket`` runs on
``Matrix.ints``.
"""

from __future__ import annotations

import numpy as np

from .matrix_core import EXACT, FloatSubspace, Matrix, Subspace, _kernel


def span_of(mats: list[Matrix]) -> Subspace | FloatSubspace:
    """span(mats): a ``Subspace`` when every matrix is exact, else a ``FloatSubspace``."""
    return Subspace(mats) if all(m.mode == EXACT for m in mats) else FloatSubspace(mats)


def span_basis(mats: list[Matrix]) -> list[Matrix]:
    """Basis (as matrices) of the span: reduced echelon rows, or orthonormal float rows."""
    return span_of(mats).matrices()


def independent_subset(mats: list, given=()) -> list:
    """The elements of mats (matrices or vectors) that extend a basis of span(given).

    A ``Subspace`` or ``FloatSubspace`` given is extended in place by them.
    """
    space = given if isinstance(given, (Subspace, FloatSubspace)) else Subspace(given)
    return [m for m in mats if space.add(m)]


def coords_in_span(m: Matrix, space: Subspace | FloatSubspace) -> tuple[list, int] | None:
    """(x, den): m = sum_k x[k] / den times the k-th vector that raised the rank of space."""
    return space._solve(m)


def in_span(m: Matrix, space: Subspace | FloatSubspace | list[Matrix]) -> bool:
    return m in (space if isinstance(space, (Subspace, FloatSubspace)) else span_of(space))


def intersect(a: list[Matrix], b: list[Matrix]) -> list[Matrix]:
    """Reduced basis of span(a) ∩ span(b).

    A kernel vector k of the columns [a_1 .. a_p, b_1 .. b_q] gives the
    common vector sum_{j <= p} k_j a_j = -sum_{j > p} k_j b_(j-p).  Each
    matrix enters by its numerators, a multiple of it, and each kernel
    vector by an int multiple, which leaves the spans unchanged.
    """
    if not a or not b:
        return []
    va = [m.ints[0].reshape(-1).tolist() for m in a]
    vb = [m.ints[0].reshape(-1).tolist() for m in b]
    kernel, _ = _kernel(list(zip(*va, *vb)))
    if not kernel:
        return []
    ks = np.array([k[:len(a)] for k in kernel], dtype=object)
    return Subspace(np.dot(ks, np.array(va, dtype=object)).tolist()).matrices()


def span_dim(mats: list[Matrix]) -> int:
    return len(span_of(mats))


def bracket(a: Matrix, b: Matrix) -> Matrix:
    """[a, b] = ab - ba; exact operands give (na nb - nb na) / (da db) in one kernel."""
    if a.mode == b.mode == EXACT:
        (na, da), (nb, db) = a.ints, b.ints
        return Matrix.from_ints(np.dot(na, nb) - np.dot(nb, na), da * db, max(a.tol, b.tol))
    return a @ b - b @ a


def restriction(z: Matrix, space: Subspace) -> Matrix | None:
    """Matrix of z on span(space) in the basis of its int echelon rows; None if not invariant.

    Each row is 0 at the other rows' pivots, so an image w in the span has
    coordinate w[pivot] / head along a row.
    """
    nz, dz = z.ints
    k, big = len(space), space._lcm
    images = np.dot(np.array(space._rows, dtype=object).reshape(k, z.n), nz.T).tolist()
    if any(w not in space for w in images):
        return None
    r = [[w[p] * (big // h) for w in images] for p, h in zip(space.pivots, space._heads)]
    return Matrix.from_ints(np.array(r, dtype=object).reshape(k, k), dz * big)


def eigenspace(r: Matrix, lam, space: Subspace) -> Subspace:
    """The lam-eigenspace of r = restriction(z, space), spanned by int rows."""
    kernel, _ = _kernel((r - Matrix.identity(r.n).scale(lam)).ints[0].tolist())
    if not kernel:
        return Subspace()
    return Subspace(np.dot(np.array(kernel, dtype=object),
                           np.array(space._rows, dtype=object)).tolist())
