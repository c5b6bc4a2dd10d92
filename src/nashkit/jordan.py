"""Element classification and elliptic/hyperbolic/unipotent decompositions.

Every invertible real matrix factors uniquely as e*h*u with e semisimple of
modulus-one spectrum, h semisimple of positive real spectrum, u unipotent,
all commuting; every matrix splits additively as e+h+u with purely
imaginary / real / nilpotent spectra.  The exact track builds the parts of
both from rational weights on each irreducible factor of the characteristic
polynomial chi (``_exact_parts``, the one place that promotes to floats where
a weight is irrational).  Factors with equal weights form one weight class,
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
from math import isqrt, lcm, prod

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
    Polynomial,
    Subspace,
    _combine,
    _horner_float,
    _inv_exact,
    _kernel,
    _norm,
    char_poly,
    count_real_roots,
    float_rank,
    irreducible_factors,
    spectrum,
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


# -- root predicates on a squarefree polynomial -------------------------------
# Each holds for a product exactly when it holds for each factor, so it is
# decided on the squarefree part f by Sturm counts and deflation, unfactored.


def _rational_sqrt(x: Fraction) -> Fraction | None:
    np_, dp = isqrt(x.numerator), isqrt(x.denominator)
    if np_ * np_ == x.numerator and dp * dp == x.denominator:
        return Fraction(np_, dp)
    return None


def _all_roots_real(f: Polynomial, lo=None, hi=None) -> bool:
    """All roots of the squarefree f real and in [lo, hi] (None: unbounded)."""
    return count_real_roots(f, lo, hi) == f.degree


def _all_roots_positive(f: Polynomial) -> bool:
    return f.coeffs[0] != 0 and _all_roots_real(f, Fraction(0))


def _all_roots_negative(f: Polynomial) -> bool:
    return f.coeffs[0] != 0 and _all_roots_real(f, None, Fraction(0))


def _roots_purely_imaginary(f: Polynomial) -> bool:
    """All roots of the squarefree monic f on the imaginary axis (0 included)."""
    if f.coeffs[0] == 0:  # strip the root 0
        f = Polynomial.of(f.coeffs[1:])
    if not f.is_even():
        return False
    # f = r(t^2): the roots of r are the squares of those of f, all real < 0
    return _all_roots_negative(f.even_part_in_square())


def _roots_modulus_one(f: Polynomial) -> bool:
    """All roots of the squarefree monic f on the unit circle."""
    for root in (Fraction(1), Fraction(-1)):  # strip the real roots on the circle
        q, r = f.divmod(Polynomial.of([-root, 1]))
        if r.is_zero():
            f = q
    # the other roots pair up as z, 1/z = conj(z), so f must be palindromic
    d = f.degree
    if d % 2 or any(f.coeffs[k] != f.coeffs[d - k] for k in range(d + 1)):
        return False
    # palindromic: f(t) = t^m Q(t + 1/t); roots on the circle iff Q has m
    # real roots in [-2, 2]
    m = d // 2
    basis = [Polynomial.of([2]), Polynomial.of([0, 1])]  # t^k + t^-k in z
    for _ in range(2, m + 1):
        basis.append(Polynomial.of([0, 1]) * basis[-1] - basis[-2])
    acc = Polynomial.of([f.coeffs[m]])
    for k in range(1, m + 1):
        acc = acc + basis[k].scale(f.coeffs[m + k])
    return count_real_roots(acc, Fraction(-2), Fraction(2)) == m


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
        return _sn_split_approx(x, spectrum(x))
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


def _sn_split_approx(x: Matrix, spec) -> tuple[Matrix, Matrix]:
    """The float Newton step, for the clusters of spec = spectrum(x)."""
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
        s_new = s - fs @ np.linalg.inv(_horner_float(dcoeffs, s))
        fs_new = _horner_float(coeffs, s_new)
        res_new = _norm(fs_new.ravel())
        if res_new >= res:
            raise NumericalFailure(
                f"semisimple/nilpotent iteration stalled at residual {res_new:.3e}"
            )
        s, fs, res = s_new, fs_new, res_new
    if res > thresh:
        raise NumericalFailure(f"semisimple/nilpotent iteration did not converge ({res:.3e})")
    sm = Matrix(s, APPROX, x.tol)
    return sm, x.to_approx() - sm


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


def _on_eigenspaces(spec, s: Matrix, *fns) -> list[Matrix]:
    """Re(V diag(fn(c)) V^-1) for each fn, s = V diag(w) V^-1 and c the spec centers nearest w.

    s is semisimple only to tolerance, so the eigenvectors of one cluster may be
    nearly parallel: an orthonormal basis of their span replaces them."""
    if not s.n:  # no eigenvalue to match to a center
        return [s] * len(fns)
    w, v = np.linalg.eig(s.float_array())
    centers = np.array(spec.values())
    nearest = np.abs(w[:, None] - centers).argmin(axis=1)
    for j in np.flatnonzero(np.bincount(nearest) > 1):
        v[:, nearest == j] = np.linalg.qr(v[:, nearest == j])[0]
    vinv = np.linalg.inv(v)
    return [Matrix(((v * fn(centers)[nearest]) @ vinv).real, APPROX, s.tol) for fn in fns]


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
        rho = _rational_sqrt(q.coeffs[0])
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
    (h,) = _on_eigenspaces(spec, s, np.real)
    # [s, h] = 0 within x.abs_tol() (1 + ||s||), checked on s / ||s|| to stay in the float range
    size = s.norm() or 1.0
    sa, ha = s.float_array() / size, h.float_array()
    if _norm((sa @ ha - ha @ sa).ravel()) > x.abs_tol() * (1.0 + 1.0 / size):
        raise PostconditionFailed("the hyperbolic part does not commute with the semisimple part")
    return JordanTriple(s - h, h, n, ADDITIVE)


def multiplicative_jordan(x: Matrix) -> JordanTriple:
    """x = e * h * u, commuting; spectra on the circle / positive / {1}."""
    chi = char_poly(x) if x.mode == EXACT else None
    # an exact x is decided by chi(0) = (-1)^n det x
    if not (x.is_invertible() if chi is None else chi.coeffs[0]):
        raise NotInvertible("multiplicative decomposition needs an invertible input")
    plan = None if chi is None else _exact_parts(x, chi, _modulus_phase, 2)
    if plan is None:
        if x.mode == EXACT:
            x = x.to_approx()
            if not x.is_invertible():  # a promoted exact input may be singular in floats
                raise NotInvertible("matrix is singular at the working tolerance")
        spec = spectrum(x)
        if 0 in spec.values():  # at tol 0 an eigenvalue of 0.0 gets past is_invertible
            raise NotInvertible("matrix is singular at the working tolerance")
        s, n = _sn_split_approx(x, spec)
        plan = s, n, _on_eigenspaces(spec, s, np.abs, lambda c: c / np.abs(c))
    s, n, (h, e) = plan
    u = Matrix.identity(x.n, x.mode, x.tol) + s.inv() @ n
    # exact equality on the exact track, so an exact x beyond the float range is checked too
    if not (e @ h @ u).close_to(x, None if x.mode == EXACT else x.abs_tol()):
        raise PostconditionFailed("multiplicative parts fail to reassemble the input")
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
    a = x.float_array()
    semisimple = True
    for center, mult in spec.clusters:
        shifted = a.astype(complex) - center * np.eye(x.n)
        if float_rank(shifted, t) != x.n - mult:
            semisimple = False
            break
    vals = spec.values()
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
