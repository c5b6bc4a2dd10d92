"""Constructive flag theorems for nilpotent and split solvable actions.

A family of nilpotent operators kills a complete flag (built from iterated
joint kernels); a solvable algebra whose elements all have real spectrum is
conjugated into upper-triangular form by iterated common-eigenvector
extraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from ._span import bracket, eigenspace, independent_subset, restriction
from .errors import (
    NotNilpotentAlgebra,
    NotSolvable,
    NotSplit,
    NumericalFailure,
    PostconditionFailed,
)
from .liealg import LieAlgebraData, algebra_from_basis, is_solvable
from .matrix_core import (
    APPROX,
    EXACT,
    FloatSubspace,
    Matrix,
    Subspace,
    _kernel,
    _svd_kernel,
    char_poly,
    spectrum,
)
from .polynomial import _all_roots_real, _rational_roots, count_real_roots, squarefree_part


@dataclass(frozen=True)
class Flag:
    """Nested subspaces V_1 c ... c V_n, each stage a tuple of spanning vectors."""

    stages: tuple[tuple[tuple, ...], ...]
    complete: bool


class _Irrational(Exception):
    """Internal: exact eigenvector step hit a real but irrational eigenvalue."""


def _flag_from_columns(cols: list[list]) -> Flag:
    stages = tuple(tuple(tuple(c) for c in cols[:i + 1]) for i in range(len(cols)))
    return Flag(stages, complete=True)


def engel_flag(g: LieAlgebraData) -> Flag:
    """Complete flag with b.V_i inside V_{i-1} for every basis element.

    Built by repeatedly extracting the joint kernel of the induced action on
    the quotient by the flag so far; the kernel is nonzero as long as the
    action is genuinely nilpotent.
    """
    for b in g.basis:
        if not b.is_nilpotent():
            raise NotNilpotentAlgebra("a basis element is not nilpotent")
    if g.is_exact:
        return _flag_from_columns(_pulled_back_columns(g, _joint_kernel_vector))
    tol = max(b.abs_tol() for b in g.basis) if g.basis else 1e-12

    def kernel_vector(blocks, width):
        kernel = _svd_kernel(np.vstack(blocks) if blocks else np.zeros((0, width)), tol, width)
        if kernel.shape[0] == 0:
            raise NotNilpotentAlgebra("joint kernel vanished before the flag completed")
        return kernel[0]

    return _flag_from_columns([list(map(float, c)) for c in _pulled_back_float(g, kernel_vector)])


def _joint_kernel_vector(blocks: list[np.ndarray], width: int) -> tuple[list[int], int]:
    """(v, den): v / den is the first basis vector of the joint kernel of the quotient actions."""
    # no basis element: the kernel of a zero row, every unit vector
    kernel, den = _kernel([row for block in blocks for row in block.tolist()] or [[0] * width])
    if not kernel:
        raise NotNilpotentAlgebra("joint kernel vanished before the flag completed")
    return kernel[0], den  # lexicographically smallest free column


def _pulled_back_columns(g: LieAlgebraData, pick) -> list[list[Fraction]]:
    """Flag columns, each pulled back from the quotient by the columns so far.

    ``pick(blocks, width)`` chooses a vector v / den of the quotient, as int
    v and den, from the actions of the basis elements on it (one width x
    width block each, a positive int multiple of the action).
    """
    n = g.ambient
    cols: list[list[Fraction]] = []
    units = [[int(i == j) for i in range(n)] for j in range(n)]
    while len(cols) < n:
        k = len(cols)
        full = cols + independent_subset(units, cols)
        bmat = Matrix.exact(full).T  # columns: the flag so far, then unit vectors
        binv = bmat.inv()
        blocks = []
        for b in g.basis:
            m = (binv @ b @ bmat).ints[0]
            if any(m[k:, :k].flat):
                raise PostconditionFailed("flag stages are not invariant")
            blocks.append(m[k:, k:])
        # pull back: the lift's entries weight the unit columns after the flag so far
        lift, den = pick(blocks, n - k)
        cols.append([Fraction(x, den) for x in np.dot(lift, np.array(full[k:], dtype=object))])
    return cols


def _pulled_back_float(g: LieAlgebraData, pick) -> list[np.ndarray]:
    """Orthonormal flag columns, each a unit vector of the complement of those so far.

    ``pick(blocks, width)`` chooses it from the basis elements' actions on that complement.
    """
    n = g.ambient
    cols: list[np.ndarray] = []
    while len(cols) < n:
        # orthonormal columns spanning the complement (cols are orthonormal: singular values 1)
        q = _svd_kernel(np.array(cols), 0.5, n).T
        cols.append(q @ pick([q.T @ b.float_array() @ q for b in g.basis], n - len(cols)))
    return cols


# -- common eigenvectors (Lie's theorem, split case) ----------------------------


def common_eigenvector(g: LieAlgebraData) -> tuple[list, list]:
    """A joint eigenvector v and its character (one eigenvalue per basis element)."""
    if g.ambient == 0:
        raise ValueError("R^0 has no eigenvector")
    if g.is_exact:
        try:
            w = _joint_eigenspace(Subspace(g.basis), g.ambient)
            return w.rows[0], _character_exact(g, w._rows[0])
        except _Irrational:
            pass
    tol = max(b.abs_tol() for b in g.basis) if g.basis else 1e-12
    ops = _operator_span([b.float_array() for b in g.basis], tol)
    v = _joint_eigenspace(ops, g.ambient).rows[0]
    chars = []
    for b in g.basis:
        image = b.float_array() @ v
        pivot = int(np.argmax(np.abs(v)))
        lam = image[pivot] / v[pivot]
        if np.linalg.norm(image - lam * v) > 10 * tol * (1 + abs(lam)):
            raise PostconditionFailed("common eigenvector candidate is not joint")
        chars.append(float(lam))
    return [float(x) for x in v], chars


def _character_exact(g: LieAlgebraData, v: list[int]) -> list[Fraction]:
    a = np.array(v, dtype=object)
    pivot = next(i for i, x in enumerate(a) if x)
    chars = []
    for b in g.basis:
        nums, d = b.ints
        image = np.dot(nums, a)  # d * b a; b a = lam a iff image is parallel to a
        if any(image * a[pivot] - image[pivot] * a):
            raise PostconditionFailed("common eigenvector candidate is not joint")
        chars.append(Fraction(image[pivot], d * a[pivot]))
    return chars


def _joint_eigenspace(ops: Subspace | FloatSubspace, n: int) -> Subspace | FloatSubspace:
    """A nonzero subspace of R^n on which every operator in span(ops) acts as a scalar.

    ``ops`` holds the operators flattened row-major: rationals, or unit-scale
    floats (``_operator_span``) whose ``tol`` is that of every test here.
    Classic induction: shrink to a codimension-one ideal containing the
    derived span, recurse, then split one remaining operator over the
    recursive eigenspace by its smallest (on the exact track, rational) real
    eigenvalue.
    """
    exact = isinstance(ops, Subspace)
    if not ops:
        units = [[int(i == j) for i in range(n)] for j in range(n)]
        return Subspace(units) if exact else FloatSubspace(units)
    mats = ops.matrices()
    derived = (bracket(a, b) for a, b in combinations(mats, 2))
    ideal = Subspace(derived) if exact else FloatSubspace(derived, ops.tol)
    if len(ideal) >= len(ops):
        raise NotSolvable("derived span did not shrink")
    # any codimension-one subspace containing the derived span is an ideal: extend
    # the derived span by mats in turn to that dimension; z is the first one left out
    for z in mats:
        if len(ideal) < len(ops) - 1:
            ideal.add(z)
        elif z not in ideal:
            break
    else:
        raise NumericalFailure("no direction extends the derived span at the working tolerance")
    w = _joint_eigenspace(ideal, n)
    # restrict z to the recursive eigenspace (invariant in characteristic zero)
    if exact:
        r = restriction(z, w)
        if r is None:
            raise PostconditionFailed("eigenspace is not stable under the action")
        out = eigenspace(r, _rational_eigenvalue(r), w)
    else:  # in the eigenspace's orthonormal basis
        r = w.rows @ z.float_array() @ w.rows.T
        real = sorted((v for v in np.linalg.eigvals(r) if abs(v.imag) <= ops.tol * (1 + abs(v))),
                      key=lambda v: v.real)
        if not real:
            raise NotSplit("the action has no real eigenvalue at this step")
        shifted = r - real[0].real * np.eye(len(r))
        out = FloatSubspace(_svd_kernel(shifted, max(ops.tol, 1e-12 * (1.0 + np.linalg.norm(r))),
                                        len(r)) @ w.rows)
    if not out:
        raise PostconditionFailed("restricted operator lost its eigenvalue")
    return out


def _rational_eigenvalue(r: Matrix) -> Fraction:
    """Smallest rational eigenvalue; NotSplit if none is real, promote if irrational."""
    f = squarefree_part(char_poly(r))
    roots = _rational_roots(f.ints)
    if roots:
        return min(roots)
    if count_real_roots(f) > 0:
        raise _Irrational
    raise NotSplit("the action has no real eigenvalue at this step")


def _operator_span(ops: list[np.ndarray], tol: float) -> FloatSubspace:
    """span(ops), tol absolute for them, at unit scale: ops and tol over the largest norm."""
    scale = max((np.linalg.norm(o) for o in ops), default=0.0) or 1.0
    return FloatSubspace((o.ravel() / scale for o in ops), tol / scale)


# -- triangularization ---------------------------------------------------------------


def split_triangularize(g: LieAlgebraData) -> tuple[Matrix, Flag]:
    """Invertible P with every P^-1 b P upper-triangular; solvable split input.

    The columns of P are pulled back from common eigenvectors of the induced
    quotient actions, so the first flag stage is a fixed line of the whole
    algebra.
    """
    if not is_solvable(g):
        raise NotSolvable("algebra is not solvable")
    for b in g.basis:
        _check_real_spectrum(b)
    if g.is_exact:
        try:
            cols = _pulled_back_columns(g, _joint_eigenvector)
            p, slack = Matrix.exact(cols).T, 0
        except _Irrational:
            try:
                g = algebra_from_float(g)
            except ValueError as exc:  # the float copy of the basis is dependent at this tolerance
                raise NumericalFailure(str(exc)) from None
    if not g.is_exact:
        tol = max(b.abs_tol() for b in g.basis) if g.basis else 1e-12
        cols = [list(map(float, c)) for c in _pulled_back_float(
            g, lambda blocks, width: _joint_eigenspace(_operator_span(blocks, tol), width).rows[0])]
        p, slack = Matrix(np.array(cols).T, APPROX, max(b.tol for b in g.basis)), 50 * tol
    pinv = p.inv()
    for b in g.basis:
        m = (pinv @ b @ p).rows()
        if any(abs(m[i][j]) > slack for i in range(g.ambient) for j in range(i)):
            raise PostconditionFailed("conjugated basis element is not upper-triangular")
    return p, _flag_from_columns(cols)


def _joint_eigenvector(blocks: list[np.ndarray], width: int) -> tuple[list[int], int]:
    """(v, den): v / den spans a joint eigenline of the exact quotient actions."""
    space = _joint_eigenspace(Subspace(block.reshape(-1) for block in blocks), width)
    return space._rows[0], space._heads[0]


def algebra_from_float(g: LieAlgebraData) -> LieAlgebraData:
    return algebra_from_basis([b.to_approx() for b in g.basis], g.ambient)


def _check_real_spectrum(b: Matrix):
    if b.mode == EXACT:
        if not _all_roots_real(squarefree_part(char_poly(b))):
            raise NotSplit("a basis element has non-real eigenvalues")
    else:
        spec = spectrum(b)
        if any(abs(v.imag) > b.abs_tol() for v in spec.values()):
            raise NotSplit("a basis element has non-real eigenvalues at tolerance")
