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

import numpy as np

from ._span import (
    Subspace,
    bracket,
    coords_in_span,
    eigenspace,
    in_span,
    restriction,
    span_basis,
    span_dim,
)
from .errors import (
    ExactModeRequired,
    NotAbelian,
    NotInvertible,
    NotSimultaneouslyDiagonalizable,
    NotThetaStable,
    PostconditionFailed,
)
from .explog import exp_hyperbolic, log_hyperbolic
from .liealg import LieAlgebraData, algebra_from_basis
from .matrix_core import APPROX, EXACT, Matrix, exact_nullspace, rational_eigenvalues


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


def _half(m: Matrix) -> Matrix:
    return m.scale(Fraction(1, 2) if m.mode == EXACT else 0.5)


def cartan_split(g: LieAlgebraData) -> CartanSplit:
    """Eigenspace split of negative-transpose on a stable algebra."""
    if not g.is_exact:
        raise ExactModeRequired("the involution split is only defined on the exact track")
    space = Subspace(g.basis)
    skews, syms = [], []
    for b in g.basis:
        skew, sym = _half(b - b.T), _half(b + b.T)
        for part in (skew, sym):
            if not part.is_zero() and not in_span(part, space):
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
    space = Subspace(a)
    while True:
        central = _centralizer_in(p, a)
        if span_dim(central) == len(space):
            return a
        a.append(next(m for m in central if space.add(m)))


def _centralizer_in(p: list[Matrix], a: list[Matrix]) -> list[Matrix]:
    """{x in span(p) : [x, a_i] = 0 for all i}, as matrices."""
    rows = []
    dim = p[0].n ** 2
    for ai in a:
        cols = [list(bracket(pj, ai).vec()) for pj in p]
        for r in range(dim):
            rows.append([cols[j][r] for j in range(len(p))])
    out = []
    for coeffs in exact_nullspace(rows):
        acc = Matrix.zero(p[0].n)
        for c, pj in zip(coeffs, p):
            if c != 0:
                acc = acc + pj.scale(c)
        out.append(acc)
    return out


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
    unit = [[Fraction(int(i == j)) for i in range(d)] for j in range(d)]
    leaves: list[tuple[list[list[Fraction]], tuple[Fraction, ...]]] = [(unit, ())]
    for m in ads:
        refined = []
        for space, tag in leaves:
            for lam, sub in _eigensplit_exact(m, space):
                refined.append((sub, tag + (lam,)))
        leaves = refined
    roots, root_spaces = [], []
    zero_space: tuple[Matrix, ...] = ()
    for space, tag in leaves:
        mats = tuple(g.element(v) for v in space)
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
    return Matrix.exact(cols).T


def _eigensplit_exact(m: Matrix, space: list[list[Fraction]]):
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
    if not mats:
        ambient = rd.a_basis[0].n if rd.a_basis else 0
        return algebra_from_basis([], ambient)
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
    """x = k exp(X) with k orthogonal and X symmetric: X = log(x^T x) / 2."""
    if not x.is_invertible():
        raise NotInvertible("polar factorization needs an invertible input")
    gram = x.T @ x
    big_x = _half(log_hyperbolic(gram))
    big_x = _half(big_x + big_x.T)  # symmetrize away roundoff
    k = x.to_approx() @ exp_hyperbolic(-big_x)
    return k, big_x


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
