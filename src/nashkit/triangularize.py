"""Constructive flag theorems for nilpotent and split solvable actions.

A family of nilpotent operators kills a complete flag (built from iterated
joint kernels); a solvable algebra whose elements all have real spectrum is
conjugated into upper-triangular form by iterated common-eigenvector
extraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._span import Subspace, eigenspace, restriction
from .errors import (
    NotNilpotentAlgebra,
    NotSolvable,
    NotSplit,
    PostconditionFailed,
)
from .liealg import LieAlgebraData, algebra_from_basis, is_solvable
from .matrix_core import (
    APPROX,
    EXACT,
    Matrix,
    char_poly,
    count_real_roots,
    exact_nullspace,
    irreducible_factors,
    spectrum,
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


def _complete_columns(cols: list[list[Fraction]], n: int) -> list[list[Fraction]]:
    """Extend the given independent columns with coordinate vectors."""
    out = [list(c) for c in cols]
    space = Subspace(out)
    for j in range(n):
        if len(out) == n:
            break
        unit = [Fraction(int(i == j)) for i in range(n)]
        if space.add(unit):
            out.append(unit)
    return out


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


def _joint_kernel_vector(blocks: list[list[list[Fraction]]], width: int) -> list[Fraction]:
    """First basis vector of the joint kernel of the quotient actions."""
    stacked = [row for block in blocks for row in block]
    if not stacked:
        return [Fraction(int(i == 0)) for i in range(width)]
    kernel = exact_nullspace(stacked)
    if not kernel:
        raise NotNilpotentAlgebra("joint kernel vanished before the flag completed")
    return kernel[0]  # lexicographically smallest free column


def _pulled_back_columns(g: LieAlgebraData, pick) -> list[list[Fraction]]:
    """Flag columns, each pulled back from the quotient by the columns so far.

    ``pick(blocks, width)`` chooses a vector of the quotient from the
    actions of the basis elements on it (one width x width block each).
    """
    n = g.ambient
    cols: list[list[Fraction]] = []
    while len(cols) < n:
        k = len(cols)
        full = _complete_columns(cols, n)
        bmat = Matrix.exact(full).T  # columns: the flag so far, then unit vectors
        binv = bmat.inv()
        blocks = []
        for b in g.basis:
            m = (binv @ b @ bmat).rows()
            if any(m[i][j] != 0 for i in range(k, n) for j in range(k)):
                raise PostconditionFailed("flag stages are not invariant")
            blocks.append([row[k:] for row in m[k:]])
        lift = [Fraction(0)] * k + list(pick(blocks, n - k))
        cols.append([sum(full[j][i] * lift[j] for j in range(n)) for i in range(n)])
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
        kernel = _float_kernel(stacked, tol, n - k)
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


def _float_kernel(a: np.ndarray, tol: float, width: int) -> np.ndarray:
    if a.shape[0] == 0:
        return np.eye(width)
    _, s, vt = np.linalg.svd(a)
    rank = int(np.sum(s > tol))
    return vt[rank:]


# -- common eigenvectors (Lie's theorem, split case) ----------------------------


def common_eigenvector(g: LieAlgebraData) -> tuple[list, list]:
    """A joint eigenvector v and its character (one eigenvalue per basis element)."""
    if g.is_exact:
        try:
            w = _joint_eigenspace_exact([list(b.vec()) for b in g.basis], g.ambient)
            v = w[0]
            return list(v), _character_exact(g, v)
        except _Irrational:
            pass
    return _common_eigenvector_float(g)


def _character_exact(g: LieAlgebraData, v: list[Fraction]) -> list[Fraction]:
    n = g.ambient
    pivot = next(i for i, x in enumerate(v) if x != 0)
    chars = []
    for b in g.basis:
        image = [sum(b.entry(i, j) * v[j] for j in range(n)) for i in range(n)]
        lam = image[pivot] / v[pivot]
        if any(image[i] != lam * v[i] for i in range(n)):
            raise PostconditionFailed("common eigenvector candidate is not joint")
        chars.append(lam)
    return chars


def _joint_eigenspace_exact(flat_ops: list[list[Fraction]], n: int) -> list[list[Fraction]]:
    """Basis of a nonzero subspace on which every operator acts as a scalar.

    Classic induction: shrink to a codimension-one ideal containing the
    derived span, recurse, then split one remaining operator over the
    recursive eigenspace by a rational eigenvalue.
    """
    ops = Subspace(flat_ops)
    if not ops:
        return [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
    mats = ops.matrices()
    ideal = Subspace(a @ b - b @ a for a in mats for b in mats)  # the derived span
    if len(ideal) >= len(ops):
        raise NotSolvable("derived span did not shrink")
    # any codimension-one subspace containing the derived span is an ideal
    for m in mats:
        if len(ideal) == len(ops) - 1:
            break
        ideal.add(m)
    z = next(m for m in mats if m not in ideal)
    w = _joint_eigenspace_exact(ideal.rows, n)
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
    factors = irreducible_factors(char_poly(r))
    linear = sorted(-q.coeffs[0] for q, _ in factors if q.degree == 1)
    if linear:
        return linear[0]
    if any(count_real_roots(q) > 0 for q, _ in factors):
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
    rows = np.array([o.ravel() for o in ops]) if ops else np.zeros((0, n * n))
    if rows.size == 0:
        return [np.eye(n)[i] for i in range(n)]
    _, s, vt = np.linalg.svd(rows)
    rank = int(np.sum(s > tol))
    if rank == 0:
        return [np.eye(n)[i] for i in range(n)]
    basis = [vt[i].reshape(n, n) for i in range(rank)]
    derived = [a @ b - b @ a for a in basis for b in basis]
    drows = np.array([d.ravel() for d in derived])
    dsv = np.linalg.svd(drows, compute_uv=False)
    drank = int(np.sum(dsv > tol))
    if drank >= rank:
        raise NotSolvable("derived span did not shrink")
    # ideal = derived span extended to codimension one; z = the last direction
    _, _, dvt = np.linalg.svd(drows)
    ideal = [dvt[i].reshape(n, n) for i in range(drank)]
    z = None
    for b in basis:
        cand = np.array([m.ravel() for m in ideal] + [b.ravel()])
        r = int(np.sum(np.linalg.svd(cand, compute_uv=False) > tol))
        if r > len(ideal):
            if len(ideal) < rank - 1:
                ideal.append(b)
            else:
                z = b
                break
    w = _joint_eigenspace_float(ideal, n, tol)
    q, _ = np.linalg.qr(np.array(w).T)  # orthonormalize the eigenspace
    r = q.T @ z @ q
    vals = np.linalg.eigvals(r)
    real = sorted((v for v in vals if abs(v.imag) <= tol * (1 + abs(v))),
                  key=lambda v: v.real)
    if not real:
        raise NotSplit("the action has no real eigenvalue at this step")
    lam = real[0].real
    shifted = r - lam * np.eye(r.shape[0])
    kern = _float_kernel(shifted, max(tol, 1e-12 * (1.0 + np.linalg.norm(r))), r.shape[0])
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
    n = g.ambient
    if g.is_exact:
        try:
            return _split_triangularize_exact(g)
        except _Irrational:
            approx = algebra_from_float(g)
            return _split_triangularize_float(approx)
    return _split_triangularize_float(g)


def algebra_from_float(g: LieAlgebraData) -> LieAlgebraData:
    return algebra_from_basis([b.to_approx() for b in g.basis], g.ambient)


def _check_real_spectrum(b: Matrix):
    if b.mode == EXACT:
        for q, _ in irreducible_factors(char_poly(b)):
            if count_real_roots(q) != q.degree:
                raise NotSplit("a basis element has non-real eigenvalues")
    else:
        spec = spectrum(b)
        if any(abs(v.imag) > b.abs_tol() for v in spec.values()):
            raise NotSplit("a basis element has non-real eigenvalues at tolerance")


def _split_triangularize_exact(g: LieAlgebraData) -> tuple[Matrix, Flag]:
    n = g.ambient

    def eigenvector(blocks, width):
        flat = [[x for row in block for x in row] for block in blocks]
        return _joint_eigenspace_exact(flat, width)[0]

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
