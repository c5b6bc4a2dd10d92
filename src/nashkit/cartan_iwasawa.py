"""Cartan involution, maximal abelian subspaces, restricted roots, and the
group-level polar (KAK) and KAN factorizations.

The involution is fixed to negative-transpose, so the fixed subspace
consists of skew-symmetric matrices and the (-1)-eigenspace of symmetric
ones.  Algebras that are not stable under it are rejected rather than
conjugated into a stable position.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from ._span import (
    bracket,
    coords_in_span,
    eigenspace,
    independent_subset,
    restriction,
    span_basis,
)
from .errors import (
    ExactModeRequired,
    NotAbelian,
    NotInvertible,
    NotSimultaneouslyDiagonalizable,
    NotThetaStable,
    PostconditionFailed,
)
from .liealg import LieAlgebraData, algebra_from_basis
from .matrix_core import (
    APPROX,
    EXACT,
    Matrix,
    Subspace,
    _combine,
    _kernel,
    rational_eigenvalues,
)


@dataclass(frozen=True)
class CartanSplit:
    k_basis: tuple[Matrix, ...]  # fixed space of x -> -x^T: skew-symmetric part
    p_basis: tuple[Matrix, ...]  # (-1)-eigenspace: symmetric part


@dataclass(frozen=True)
class RootDatum:
    a_basis: tuple[Matrix, ...]
    roots: tuple[tuple[Fraction, ...], ...]
    root_spaces: tuple[tuple[Matrix, ...], ...]
    zero_space: tuple[Matrix, ...]
    positive: tuple[int, ...]  # indices into roots


@dataclass(frozen=True)
class KANTriple:
    k: Matrix
    a: Matrix
    n: Matrix


def cartan_split(g: LieAlgebraData) -> CartanSplit:
    """Eigenspace split of negative-transpose on a stable algebra."""
    if not g.is_exact:
        raise ExactModeRequired("the involution split is only defined on the exact track")
    space = Subspace(g.basis)
    skews, syms = [], []
    for b in g.basis:
        skew, sym = (b - b.T).scale(Fraction(1, 2)), (b + b.T).scale(Fraction(1, 2))
        for part in (skew, sym):
            if not part.is_zero() and part not in space:
                raise NotThetaStable("algebra is not stable under negative-transpose")
        skews.append(skew)
        syms.append(sym)
    return CartanSplit(tuple(span_basis(skews)), tuple(span_basis(syms)))


def maximal_abelian(split: CartanSplit, seed_index: int = 0) -> list[Matrix]:
    """Greedy maximal abelian subspace of the symmetric part.

    Seeds with one basis vector, then keeps adjoining elements of the
    centralizer-in-p until the centralizer equals the current span.
    """
    p = list(split.p_basis)
    if not p:
        return []
    if any(m.mode != EXACT for m in p):
        raise ExactModeRequired("maximal abelian subspaces need the exact track")
    a = [p[seed_index % len(p)]]
    while True:
        # the centralizer contains a; its elements outside span(a) extend it
        new = independent_subset(_centralizer_in(p, a), a)
        if not new:
            return a
        a.append(new[0])


def _centralizer_in(p: list[Matrix], a: list[Matrix]) -> list[Matrix]:
    """{x in span(p) : [x, a_i] = 0 for all i}, as matrices.

    Row block i holds the entries of [p_j, a_i] in column j, all over one
    denominator; a row block's scale leaves the kernel unchanged.
    """
    rows = []
    for ai in a:
        forms = [bracket(pj, ai).ints for pj in p]
        den = lcm(*(d for _, d in forms))
        rows += np.array([nums.reshape(-1) * (den // d) for nums, d in forms]).T.tolist()
    kernel, den = _kernel(rows)
    return [_combine(k, p, p[0].n, den) for k in kernel]


# -- restricted roots ---------------------------------------------------------------


def restricted_roots(g: LieAlgebraData, a_basis: list[Matrix]) -> RootDatum:
    """Joint eigenspace decomposition of g under the commuting ad action of a.

    Roots are the nonzero joint eigenvalue tuples, read against the ordered
    basis of a; the positive system takes tuples whose first nonzero
    coordinate is positive.
    """
    if not g.is_exact or any(m.mode != EXACT for m in a_basis):
        raise ExactModeRequired("restricted roots need the exact track")
    for i in range(len(a_basis)):
        for j in range(i + 1, len(a_basis)):
            if not bracket(a_basis[i], a_basis[j]).is_zero():
                raise NotAbelian(f"a-basis elements {i} and {j} do not commute")
    d = g.dim
    g_space = Subspace(g.basis)
    ads = [_ad_matrix(g, g_space, a) for a in a_basis]
    unit = Subspace([int(i == j) for i in range(d)] for j in range(d))
    leaves: list[tuple[Subspace, tuple[Fraction, ...]]] = [(unit, ())]
    for m in ads:
        refined = []
        for space, tag in leaves:
            for lam, sub in _eigensplit_exact(m, space):
                refined.append((sub, tag + (lam,)))
        leaves = refined
    roots, root_spaces = [], []
    zero_space: tuple[Matrix, ...] = ()
    for space, tag in leaves:
        # an echelon row over its head: the coordinates in g's basis of one basis element
        mats = tuple(_combine(v, g.basis, g.ambient, h) for v, h in zip(space._rows, space._heads))
        if all(c == 0 for c in tag):
            zero_space = mats
        else:
            roots.append(tag)
            root_spaces.append(mats)
    order = sorted(range(len(roots)), key=lambda i: [float(c) for c in roots[i]])
    roots = [roots[i] for i in order]
    root_spaces = [root_spaces[i] for i in order]
    root_set = set(roots)
    for alpha in roots:
        if tuple(-c for c in alpha) not in root_set:
            raise PostconditionFailed("root set is not symmetric under negation")
    positive = tuple(i for i, alpha in enumerate(roots)
                     if next(c for c in alpha if c != 0) > 0)
    datum = RootDatum(tuple(a_basis), tuple(roots), tuple(root_spaces),
                      zero_space, positive)
    total = len(zero_space) + sum(len(s) for s in root_spaces)
    if total != d:
        raise PostconditionFailed("root space dimensions do not add up")
    return datum


def _ad_matrix(g: LieAlgebraData, space: Subspace, a: Matrix) -> Matrix:
    """ad(a) in the basis of g; ``space`` is the span of that basis."""
    cols = []
    for b in g.basis:
        coords = coords_in_span(bracket(a, b), space)
        if coords is None:
            raise NotSimultaneouslyDiagonalizable("ad image left the algebra")
        cols.append(coords)
    den = lcm(*(d for _, d in cols))
    nums = np.array([[x * (den // d) for x in xs] for xs, d in cols], dtype=object)
    return Matrix.from_ints(nums.reshape(g.dim, g.dim).T.copy(), den)


def _eigensplit_exact(m: Matrix, space: Subspace):
    """Split an invariant subspace into eigenspaces of m; rational, complete."""
    r = restriction(m, space)
    if r is None:
        raise NotSimultaneouslyDiagonalizable("subspace is not ad-invariant")
    values = rational_eigenvalues(r)
    if values is None:
        raise NotSimultaneouslyDiagonalizable(
            "ad operator has non-rational eigenvalues; the subspace is not split"
        )
    out = []
    covered = 0
    for lam in reversed(values):
        sub = eigenspace(r, lam, space)
        covered += len(sub)
        out.append((lam, sub))
    if covered != len(space):
        raise NotSimultaneouslyDiagonalizable("ad operator is not semisimple on the subspace")
    return out


def nilpotent_part_n(rd: RootDatum) -> LieAlgebraData:
    """Sum of the positive root spaces; bracket-closed with nilpotent elements."""
    mats = [m for i in rd.positive for m in rd.root_spaces[i]]
    if not mats:  # a is empty when g has no symmetric part (so3); zero_space is then all of g
        known = (*rd.a_basis, *rd.zero_space)
        return algebra_from_basis([], known[0].n if known else 0)
    try:
        algebra = algebra_from_basis(mats)
    except ValueError as exc:
        raise PostconditionFailed(f"positive root spaces are not bracket closed: {exc}")
    for b in algebra.basis:
        if not b.is_nilpotent():
            raise PostconditionFailed("a positive root space element is not nilpotent")
    return algebra


# -- group-level factorizations ---------------------------------------------------------


def polar_kak(x: Matrix) -> tuple[Matrix, Matrix]:
    """x = k exp(X), k orthogonal and X symmetric, from one SVD x = U S V^T: k = U V^T and
    X = V log(S) V^T (Higham, Functions of Matrices, 2008, ch. 8); x^T x is never formed."""
    if not x.is_invertible():
        raise NotInvertible("polar factorization needs an invertible input")
    u, sigma, vt = np.linalg.svd(x.float_array())
    big_x = (vt.T * np.log(sigma)) @ vt
    big_x = (big_x + big_x.T) / 2  # symmetrize away roundoff
    return Matrix(u @ vt, APPROX, x.tol), Matrix(big_x, APPROX, x.tol)


def iwasawa_kan(x: Matrix, adapted_basis: Matrix | None = None) -> KANTriple:
    """Gram-Schmidt factorization x = k a n with positive diagonal normalizers.

    When an adapted change of basis P is supplied the input is conjugated by
    it first, so the unipotent factor is upper-triangular in the adapted
    coordinates; the triple then multiplies to P^-1 x P.
    """
    if not x.is_invertible():
        raise NotInvertible("the factorization needs an invertible input")
    y = x.float_array()
    if adapted_basis is not None:
        p = adapted_basis.float_array()
        y = np.linalg.inv(p) @ y @ p
    q, r = np.linalg.qr(y)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q = q * signs[np.newaxis, :]
    r = r * signs[:, np.newaxis]
    diag = np.diag(r).copy()
    a = np.diag(diag)
    n = r / diag[:, np.newaxis]
    tol = x.tol
    return KANTriple(Matrix(q, APPROX, tol), Matrix(a, APPROX, tol), Matrix(n, APPROX, tol))
