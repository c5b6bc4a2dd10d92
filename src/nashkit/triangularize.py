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
    Matrix,
    Subspace,
    _kernel,
    _rational_roots,
    _svd_kernel,
    char_poly,
    count_real_roots,
    spectrum,
    squarefree_part,
)


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
    if not g.is_exact:
        return _engel_flag_float(g)
    return _flag_from_columns(_pulled_back_columns(g, _joint_kernel_vector))


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


def _engel_flag_float(g: LieAlgebraData) -> Flag:
    n = g.ambient
    tol = max(b.abs_tol() for b in g.basis) if g.basis else 1e-12
    cols: list[np.ndarray] = []
    while len(cols) < n:
        k = len(cols)
        q = _orthocomplement(cols, n)
        stacked = np.vstack([q.T @ b.float_array() @ q for b in g.basis]) if g.basis \
            else np.zeros((0, n - k))
        kernel = _svd_kernel(stacked, tol, n - k)
        if kernel.shape[0] == 0:
            raise NotNilpotentAlgebra("joint kernel vanished before the flag completed")
        cols.append(q @ kernel[0])
    return _flag_from_columns([list(map(float, c)) for c in cols])


def _orthocomplement(cols: list[np.ndarray], n: int) -> np.ndarray:
    if not cols:
        return np.eye(n)
    a = np.array(cols).T
    qfull, _ = np.linalg.qr(a, mode="complete")
    return qfull[:, len(cols):]


# -- common eigenvectors (Lie's theorem, split case) ----------------------------


def common_eigenvector(g: LieAlgebraData) -> tuple[list, list]:
    """A joint eigenvector v and its character (one eigenvalue per basis element)."""
    if g.is_exact:
        try:
            w = _joint_eigenspace_exact(Subspace(g.basis), g.ambient)
            return w.rows[0], _character_exact(g, w._rows[0])
        except _Irrational:
            pass
    return _common_eigenvector_float(g)


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


def _joint_eigenspace_exact(ops: Subspace, n: int) -> Subspace:
    """A nonzero subspace of Q^n on which every operator in span(ops) acts as a scalar.

    ``ops`` holds the operators flattened row-major.  Classic induction:
    shrink to a codimension-one ideal containing the derived span, recurse,
    then split one remaining operator over the recursive eigenspace by a
    rational eigenvalue.
    """
    if not ops:
        return Subspace([int(i == j) for i in range(n)] for j in range(n))
    mats = ops.matrices()
    ideal = Subspace(bracket(a, b) for a, b in combinations(mats, 2))  # the derived span
    if len(ideal) >= len(ops):
        raise NotSolvable("derived span did not shrink")
    # any codimension-one subspace containing the derived span is an ideal: extend
    # the derived span by mats in turn to that dimension; z is the first one left out
    for z in mats:
        if len(ideal) < len(ops) - 1:
            ideal.add(z)
        elif z not in ideal:
            break
    w = _joint_eigenspace_exact(ideal, n)
    # restrict z to the recursive eigenspace (invariant in characteristic zero)
    r = restriction(z, w)
    if r is None:
        raise PostconditionFailed("eigenspace is not stable under the action")
    out = eigenspace(r, _rational_eigenvalue(r), w)
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


def _common_eigenvector_float(g: LieAlgebraData):
    n = g.ambient
    tol = max(b.abs_tol() for b in g.basis) if g.basis else 1e-12
    w = _joint_eigenspace_float([b.float_array() for b in g.basis], n, tol)
    v = w[0]
    chars = []
    for b in g.basis:
        image = b.float_array() @ v
        pivot = int(np.argmax(np.abs(v)))
        lam = image[pivot] / v[pivot]
        if np.linalg.norm(image - lam * v) > 10 * tol * (1 + abs(lam)):
            raise PostconditionFailed("common eigenvector candidate is not joint")
        chars.append(float(lam))
    return [float(x) for x in v], chars


def _joint_eigenspace_float(ops: list[np.ndarray], n: int, tol: float) -> list[np.ndarray]:
    """Float ``_joint_eigenspace_exact``; tol is absolute for the input rows."""
    rows = np.array([o.ravel() for o in ops]) if ops else np.zeros((0, n * n))
    if rows.size == 0:
        return [np.eye(n)[i] for i in range(n)]
    _, s, vt = np.linalg.svd(rows)
    rank = int(np.sum(s > tol))
    if rank == 0:
        return [np.eye(n)[i] for i in range(n)]
    unit_tol = tol / s[0]  # for the unit-scale rows built from vt, and for r
    basis = [vt[i].reshape(n, n) for i in range(rank)]
    derived = [a @ b - b @ a for a in basis for b in basis]
    drows = np.array([d.ravel() for d in derived])
    dsv = np.linalg.svd(drows, compute_uv=False)
    drank = int(np.sum(dsv > unit_tol))
    if drank >= rank:
        raise NotSolvable("derived span did not shrink")
    # ideal = derived span extended to codimension one; z = the last direction
    _, _, dvt = np.linalg.svd(drows)
    ideal = [dvt[i].reshape(n, n) for i in range(drank)]
    z = None
    for b in basis:
        cand = np.array([m.ravel() for m in ideal] + [b.ravel()])
        r = int(np.sum(np.linalg.svd(cand, compute_uv=False) > unit_tol))
        if r > len(ideal):
            if len(ideal) < rank - 1:
                ideal.append(b)
            else:
                z = b
                break
    if z is None:
        raise NumericalFailure("no direction extends the derived span at the working tolerance")
    w = _joint_eigenspace_float(ideal, n, unit_tol)
    q, _ = np.linalg.qr(np.array(w).T)  # orthonormalize the eigenspace
    r = q.T @ z @ q
    vals = np.linalg.eigvals(r)
    real = sorted((v for v in vals if abs(v.imag) <= unit_tol * (1 + abs(v))),
                  key=lambda v: v.real)
    if not real:
        raise NotSplit("the action has no real eigenvalue at this step")
    lam = real[0].real
    shifted = r - lam * np.eye(r.shape[0])
    kern = _svd_kernel(shifted, max(unit_tol, 1e-12 * (1.0 + np.linalg.norm(r))), r.shape[0])
    if kern.shape[0] == 0:
        raise PostconditionFailed("restricted operator lost its eigenvalue")
    return [q @ kv for kv in kern]


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
            return _split_triangularize_exact(g)
        except _Irrational:
            try:
                approx = algebra_from_float(g)
            except ValueError as exc:  # the float copy of the basis is dependent at this tolerance
                raise NumericalFailure(str(exc)) from None
            return _split_triangularize_float(approx)
    return _split_triangularize_float(g)


def algebra_from_float(g: LieAlgebraData) -> LieAlgebraData:
    return algebra_from_basis([b.to_approx() for b in g.basis], g.ambient)


def _check_real_spectrum(b: Matrix):
    if b.mode == EXACT:
        f = squarefree_part(char_poly(b))
        if count_real_roots(f) != f.degree:
            raise NotSplit("a basis element has non-real eigenvalues")
    else:
        spec = spectrum(b)
        if any(abs(v.imag) > b.abs_tol() for v in spec.values()):
            raise NotSplit("a basis element has non-real eigenvalues at tolerance")


def _split_triangularize_exact(g: LieAlgebraData) -> tuple[Matrix, Flag]:
    n = g.ambient

    def eigenvector(blocks, width):
        space = _joint_eigenspace_exact(Subspace(block.reshape(-1) for block in blocks), width)
        return space._rows[0], space._heads[0]

    cols = _pulled_back_columns(g, eigenvector)
    p = Matrix.exact(cols).T
    pinv = p.inv()
    for b in g.basis:
        m = (pinv @ b @ p).rows()
        if any(m[i][j] != 0 for i in range(n) for j in range(i)):
            raise PostconditionFailed("conjugated basis element is not upper-triangular")
    return p, _flag_from_columns(cols)


def _split_triangularize_float(g: LieAlgebraData) -> tuple[Matrix, Flag]:
    n = g.ambient
    tol = max(b.abs_tol() for b in g.basis) if g.basis else 1e-12
    cols: list[np.ndarray] = []
    while len(cols) < n:
        k = len(cols)
        q = _orthocomplement(cols, n)
        quo = [q.T @ b.float_array() @ q for b in g.basis]
        w = _joint_eigenspace_float(quo, n - k, tol)[0]
        v = q @ w
        cols.append(v / np.linalg.norm(v))
    p = Matrix(np.array(cols).T, APPROX, max(b.tol for b in g.basis))
    pinv = p.inv()
    for b in g.basis:
        m = (pinv @ b @ p).data
        if np.max(np.abs(np.tril(m, -1))) > 50 * tol:
            raise PostconditionFailed("conjugated basis element is not upper-triangular")
    return p, _flag_from_columns([list(map(float, c)) for c in cols])
