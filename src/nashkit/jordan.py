"""Element classification and elliptic/hyperbolic/unipotent decompositions.

Every invertible real matrix factors uniquely as e*h*u with e semisimple of
modulus-one spectrum, h semisimple of positive real spectrum, u unipotent,
all commuting; every matrix splits additively as e+h+u with purely
imaginary / real / nilpotent spectra.  The exact track builds the parts of
both from rational weights on each irreducible factor of the characteristic
polynomial chi, which the root predicates of ``polynomial`` decide
(``_exact_parts``, the one place that promotes to floats where a weight is
irrational).  Factors with equal weights form one weight class,
and each part takes one eigenprojection per class, none when one class holds
every factor (as for the additive parts of a real spectrum).  The float track
builds them from one eigendecomposition of the semisimple part, constant on
each cluster's eigenspace.  Both tracks check that e*h*u = x, and the float
additive split that h commutes with s.  An exact call computes chi once
(``sn_split`` computes its own) and reads invertibility from
chi(0) = (-1)^n det x; ``_classify_exact`` lets the callers of ``classify`` in
``explog`` and ``replica`` hand theirs over.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm, prod

import numpy as np

from ._span import bracket
from .errors import (
    NotAbelian,
    NotInvertible,
    NumericalFailure,
    PostconditionFailed,
)
from .matrix_core import (
    APPROX,
    EXACT,
    FloatSubspace,
    Matrix,
    Subspace,
    _check_reassembly,
    _combine,
    _finite,
    _inv_exact,
    _inv_float,
    _kernel,
    _norm,
    char_poly,
    float_rank,
    spectrum,
)
from .polynomial import (
    Polynomial,
    _all_roots_negative,
    _all_roots_positive,
    _all_roots_real,
    _horner_float,
    _rational_roots,
    _roots_modulus_one,
    _roots_purely_imaginary,
    irreducible_factors,
    squarefree_part,
)

GROUP = "group"
ALGEBRA = "algebra"

MULTIPLICATIVE = "multiplicative"
ADDITIVE = "additive"


@dataclass(frozen=True)
class ElementClass:
    elliptic: bool
    hyperbolic: bool
    unipotent: bool
    semisimple: bool
    exponential: bool

    def as_dict(self) -> dict:
        return {
            "elliptic": self.elliptic,
            "hyperbolic": self.hyperbolic,
            "unipotent": self.unipotent,
            "semisimple": self.semisimple,
            "exponential": self.exponential,
        }


@dataclass(frozen=True)
class JordanTriple:
    e: Matrix
    h: Matrix
    u: Matrix
    flavor: str  # MULTIPLICATIVE or ADDITIVE

    def parts(self) -> tuple[Matrix, Matrix, Matrix]:
        return self.e, self.h, self.u


# -- semisimple / nilpotent splitting ------------------------------------------


def sn_split(x: Matrix) -> tuple[Matrix, Matrix]:
    """x = s + n with s semisimple, n nilpotent, both polynomials in x.

    Exact track: the matrix Newton step s <- s - f(s) f'(s)^-1 (Couty,
    Esterle and Zarouf 2011) for f the squarefree characteristic polynomial,
    with the Bareiss inverse on ints.  f'(s) is invertible as f is
    squarefree, and the nilpotency index of f(s) halves each round.  Float
    track: the same step for the squarefree polynomial of the clusters.
    """
    if x.mode != EXACT:
        return tuple(Matrix(a, APPROX, x.tol) for a in _sn_split_approx(x, spectrum(x)))
    f = squarefree_part(char_poly(x))
    df = f.derivative()
    s, fs = x, f.eval_matrix(x)
    for _ in range((x.n - 1).bit_length() + 1):  # ceil(log2 n) + 1 rounds
        if fs.is_zero():
            break
        try:
            s = s - fs @ df.eval_matrix(s).inv()
        except NotInvertible:
            raise PostconditionFailed("f'(s) is singular: f shares a root with f'") from None
        fs = f.eval_matrix(s)
    if not fs.is_zero():
        raise PostconditionFailed("semisimple defect did not vanish")
    return s, x - s


def _squarefree_from_clusters(spec) -> list[float]:
    """Real monic squarefree polynomial (ascending coeffs) vanishing on the clusters."""
    coeffs = np.array([1.0])
    for center, _ in spec.clusters:
        if center.imag > 0:
            factor = np.array([abs(center) ** 2, -2.0 * center.real, 1.0])
        elif center.imag < 0:
            continue
        else:
            factor = np.array([-center.real, 1.0])
        coeffs = np.convolve(coeffs, factor)
    return list(coeffs)


def _sn_split_approx(x: Matrix, spec) -> tuple[np.ndarray, np.ndarray]:
    """The float Newton step, for the clusters of spec = spectrum(x); s and n, finite arrays."""
    coeffs = _squarefree_from_clusters(spec)
    dcoeffs = [k * c for k, c in enumerate(coeffs)][1:]
    size = x.norm()
    thresh = max(x.tol, 1e-13) * prod(1.0 + size + abs(c) for c in spec.values())
    s = x.float_array().copy()
    fs = _horner_float(coeffs, s)
    res = _norm(fs.ravel())
    for _ in range(40):
        if res <= thresh:
            break
        s_new = s - fs @ _inv_float(_horner_float(dcoeffs, s), x.tol)
        fs_new = _horner_float(coeffs, s_new)
        res_new = _norm(fs_new.ravel())
        if res_new >= res:
            raise NumericalFailure(
                f"semisimple/nilpotent iteration stalled at residual {res_new:.3e}"
            )
        s, fs, res = s_new, fs_new, res_new
    if res > thresh:
        raise NumericalFailure(f"semisimple/nilpotent iteration did not converge ({res:.3e})")
    return _finite(s), _finite(x.float_array() - s)


# -- exact generalized eigenprojections -----------------------------------------


def eigenprojections(s: Matrix, factors: list[Polynomial]) -> list[Matrix]:
    """Projections p_j onto K_j = ker q_j(s) along the other K_i, for pairwise coprime q_j.

    s is exact, and the q_j must multiply to a polynomial killing it (here:
    its squarefree characteristic polynomial), so R^n is the direct sum of
    the K_j.  The int kernel bases of the q_j(s) are the columns of one n x n
    matrix B, inverted once (Bareiss), and p_j = B[:, K_j] B^-1[K_j, :]; the
    p_j sum to the identity.  Raises ``PostconditionFailed`` unless B is square
    and invertible, as when the q_j share a root of s or their product misses one.
    """
    bases = [_kernel(q.eval_matrix(s).ints[0].tolist())[0] for q in factors]
    cols = [v for basis in bases for v in basis]
    b = np.array(cols, dtype=object).reshape(len(cols), s.n).T
    if len(cols) != s.n or (binv := _inv_exact(b, 1)) is None:
        raise PostconditionFailed("the kernels of the factors do not split the space")
    nums, den = binv.ints
    ends = list(accumulate(map(len, bases), initial=0))
    return [Matrix.from_ints(np.dot(b[:, i:j], nums[i:j]), den, s.tol)
            for i, j in zip(ends, ends[1:])]


def _on_eigenspaces(spec, s: np.ndarray, tol: float, *fns) -> list[Matrix]:
    """Re(V diag(fn(c)) V^-1) at tol for each fn, s = V diag(w) V^-1, c the centers nearest w.

    s is semisimple only to tolerance, so the eigenvectors of one cluster may be
    nearly parallel: an orthonormal basis of their span replaces them."""
    if not len(s):  # no eigenvalue to match to a center
        return [Matrix(s, APPROX, tol)] * len(fns)
    w, v = np.linalg.eig(s)
    centers = np.array(spec.values())
    nearest = np.abs(w[:, None] - centers).argmin(axis=1)
    for j in np.flatnonzero(np.bincount(nearest) > 1):
        v[:, nearest == j] = np.linalg.qr(v[:, nearest == j])[0]
    vinv = np.linalg.inv(v)
    return [Matrix(((v * fn(centers)[nearest]) @ vinv).real, APPROX, tol) for fn in fns]


# -- the two decompositions: one exact plan, rational weights per irreducible factor -----


def _real_part(q: Polynomial) -> tuple | None:
    """Weights ((a, b),) of Re z = a z + b on the roots z of irreducible q; or None."""
    if _all_roots_real(q):
        return ((1, 0),)
    a = -q.coeffs[q.degree - 1] / q.degree
    return ((0, a),) if _roots_purely_imaginary(q.compose_shift(a)) else None


def _modulus_phase(q: Polynomial) -> tuple | None:
    """Weights (a, b) of |z| = a z + b, then of z/|z|, on the roots z of irreducible q; or None."""
    if q.degree == 2 and q.coeffs[1] ** 2 - 4 * q.coeffs[0] < 0:
        c = q.coeffs[0]  # = |z|^2
        rho = max(_rational_roots([-c.numerator, 0, c.denominator]), default=None)
        return None if rho is None else ((0, rho), (1 / rho, 0))
    if _all_roots_positive(q):
        return (1, 0), (0, 1)
    if _all_roots_negative(q):
        return (-1, 0), (0, -1)
    return None


def _weighted(ws: list, mats: list[Matrix], n: int) -> Matrix:
    """sum_j w_j m_j for rational w_j and exact n x n m_j, one int sum over a common denominator."""
    den = lcm(*(Fraction(w).denominator for w in ws))
    return _combine([int(w * den) for w in ws], mats, n, den)


def _affine(s: Matrix, projs: list[Matrix], pairs: list) -> Matrix:
    """sum_j (a_j s + b_j) p_j for rational pairs (a_j, b_j): s A + B, A and B each one int sum."""
    a, b = ([w[i] for w in pairs] for i in (0, 1))
    shift = _weighted(b, projs, s.n)
    return s @ _weighted(a, projs, s.n) + shift if any(a) else shift


def _exact_parts(x: Matrix, chi: Polynomial, rule, count: int
                 ) -> tuple[Matrix, Matrix, list[Matrix]] | None:
    """(s, n, parts) of an exact x with characteristic polynomial chi, or None if rule(q) is None
    on an irreducible factor q of chi.

    rule(q) gives ``count`` rational pairs (a, b), one per part.  The factors
    with equal pairs form one weight class, whose polynomial is their product;
    part k is sum_j (a_jk s + b_jk) p_j over the eigenprojections p_j of the
    classes, and a_k s + b_k I when one class holds every factor.
    """
    classes: dict[tuple, Polynomial] = {}
    for q, _ in irreducible_factors(chi):
        weights = rule(q)
        if weights is None:
            return None
        classes[weights] = classes[weights] * q if weights in classes else q
    s, n = sn_split(x)
    if len(classes) == 1:  # the class's eigenspace is the whole space: nothing to project
        ident = Matrix.identity(s.n, EXACT, s.tol)
        return s, n, [_weighted(pair, [s, ident], s.n) for pair in next(iter(classes))]
    projs = eigenprojections(s, list(classes.values()))
    return s, n, [_affine(s, projs, [w[k] for w in classes]) for k in range(count)]


def additive_jordan(x: Matrix) -> JordanTriple:
    """x = e + h + u, commuting; spectra purely imaginary / real / {0}."""
    if x.mode == EXACT:
        plan = _exact_parts(x, char_poly(x), _real_part, 1)
        if plan is not None:
            s, n, (h,) = plan
            return JordanTriple(s - h, h, n, ADDITIVE)
        x = x.to_approx()
    spec = spectrum(x)
    s, n = _sn_split_approx(x, spec)
    (h,) = _on_eigenspaces(spec, s, x.tol, np.real)
    # [s, h] = 0 within x.abs_tol() (1 + ||s||), checked on s / ||s|| to stay in the float range
    size = _norm(s.ravel()) or 1.0
    sa, ha = s / size, h.float_array()
    if _norm((sa @ ha - ha @ sa).ravel()) > x.abs_tol() * (1.0 + 1.0 / size):
        raise PostconditionFailed("the hyperbolic part does not commute with the semisimple part")
    return JordanTriple(Matrix(s - ha, APPROX, x.tol), h, Matrix(n, APPROX, x.tol), ADDITIVE)


def multiplicative_jordan(x: Matrix) -> JordanTriple:
    """x = e * h * u, commuting; spectra on the circle / positive / {1}."""
    chi = char_poly(x) if x.mode == EXACT else None
    # an exact x is decided by chi(0) = (-1)^n det x
    if not (x.is_invertible() if chi is None else chi.coeffs[0]):
        raise NotInvertible("multiplicative decomposition needs an invertible input")
    plan = None if chi is None else _exact_parts(x, chi, _modulus_phase, 2)
    if plan is not None:
        s, n, (h, e) = plan
        u = Matrix.identity(x.n, EXACT, x.tol) + s.inv() @ n
        # exact equality, so an exact x beyond the float range is checked too
        if e @ h @ u != x:
            raise PostconditionFailed("multiplicative parts fail to reassemble the input")
        return JordanTriple(e, h, u, MULTIPLICATIVE)
    if x.mode == EXACT:
        x = x.to_approx()
        if not x.is_invertible():  # a promoted exact input may be singular in floats
            raise NotInvertible("matrix is singular at the working tolerance")
    spec = spectrum(x)
    if 0 in spec.values():  # at tol 0 an eigenvalue of 0.0 gets past is_invertible
        raise NotInvertible("matrix is singular at the working tolerance")
    s, n = _sn_split_approx(x, spec)
    h, e = _on_eigenspaces(spec, s, x.tol, np.abs, lambda c: c / np.abs(c))
    # u and e h u on arrays, by the products Matrix made; an overflow fails in Matrix or the check
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.eye(x.n) + np.dot(_inv_float(s, x.tol), n)
        ehu = np.dot(np.dot(e.float_array(), h.float_array()), u)
    u = Matrix(u, APPROX, x.tol)
    _check_reassembly(ehu, x.float_array(), x.tol,
                      "multiplicative parts fail to reassemble the input")
    return JordanTriple(e, h, u, MULTIPLICATIVE)


# -- classification -------------------------------------------------------------------


def classify(x: Matrix, setting: str) -> ElementClass:
    """Evaluate the elliptic/hyperbolic/unipotent/semisimple/exponential predicates."""
    if setting not in (GROUP, ALGEBRA):
        raise ValueError(f"setting must be {GROUP!r} or {ALGEBRA!r}")
    if x.mode == EXACT:
        return _classify_exact(x, setting, char_poly(x))
    if setting == GROUP and not x.is_invertible():
        raise NotInvertible("group elements must be invertible")
    return _classify_approx(x, setting)


def _classify_exact(x: Matrix, setting: str, chi: Polynomial) -> ElementClass:
    """``classify`` of an exact x with characteristic polynomial chi; chi(0) = (-1)^n det x."""
    if setting == GROUP and not chi.coeffs[0]:
        raise NotInvertible("group elements must be invertible")
    f = squarefree_part(chi)
    semisimple = f.eval_matrix(x).is_zero()
    # f = 1 only for n = 0, where every predicate holds vacuously
    unipotent = f.degree == 0 or f == Polynomial.of([-1 if setting == GROUP else 0, 1])
    if setting == GROUP:
        exponential = _all_roots_positive(f)
        elliptic = semisimple and _roots_modulus_one(f)
    else:
        exponential = _all_roots_real(f)
        elliptic = semisimple and _roots_purely_imaginary(f)
    hyperbolic = semisimple and exponential
    return ElementClass(elliptic, hyperbolic, unipotent, semisimple, exponential)


def _classify_approx(x: Matrix, setting: str) -> ElementClass:
    spec = spectrum(x)
    t = x.abs_tol()
    vals, mults = spec.values(), np.array([k for _, k in spec.clusters])
    # x - c I for every cluster center c (complex before the shift), one SVD for the stack
    shifted = x.float_array().astype(complex) - np.array(vals)[:, None, None] * np.eye(x.n)
    semisimple = not vals or bool((float_rank(shifted, t) == x.n - mults).all())
    real = all(abs(v.imag) <= t for v in vals)
    if setting == GROUP:
        positive = real and all(v.real > t for v in vals)
        unipotent = all(abs(v - 1.0) <= t for v in vals)
        elliptic = semisimple and all(abs(abs(v) - 1.0) <= t for v in vals)
        hyperbolic = semisimple and positive
        exponential = positive
    else:
        unipotent = all(abs(v) <= t for v in vals)
        elliptic = semisimple and all(abs(v.real) <= t for v in vals)
        hyperbolic = semisimple and real
        exponential = real
    return ElementClass(elliptic, hyperbolic, unipotent, semisimple, exponential)


# -- commuting families -----------------------------------------------------------------


def abelian_ehu_split(basis: list[Matrix]) -> tuple[list[Matrix], list[Matrix], list[Matrix]]:
    """Split the span of a commuting family into elliptic/hyperbolic/unipotent parts.

    Returns bases of the spans E, H, U of the additive e/h/u parts of the
    inputs.  E + H + U is direct and holds every input (both checked, at
    tolerance off the exact track); it may exceed their span, as for [[2, 1], [0, 2]].
    """
    for i, a in enumerate(basis):
        for j in range(i + 1, len(basis)):
            if not bracket(a, basis[j]).is_zero():
                raise NotAbelian(f"generators {i} and {j} do not commute")
    parts = [additive_jordan(m).parts() for m in basis]
    exact = all(m.mode == EXACT for m in basis) and all(x.mode == EXACT for p in parts for x in p)
    space = Subspace if exact else FloatSubspace
    bases = [space(p[k] for p in parts if not p[k].is_zero()).matrices() for k in range(3)]
    total = space(m for b in bases for m in b)
    # the sum is direct exactly when dim(E + H + U) = dim E + dim H + dim U
    if len(total) != sum(map(len, bases)) or any(m not in total for m in basis):
        raise PostconditionFailed("elliptic/hyperbolic/unipotent spans do not split the input")
    return tuple(bases)
