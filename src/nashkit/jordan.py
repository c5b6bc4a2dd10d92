"""Element classification and elliptic/hyperbolic/unipotent decompositions.

Every invertible real matrix factors uniquely as e*h*u with e semisimple of
modulus-one spectrum, h semisimple of positive real spectrum, u unipotent,
all commuting; every matrix splits additively as e+h+u with purely
imaginary / real / nilpotent spectra.  The exact track resolves both
splittings with rational arithmetic whenever the spectral data is decidable
over the rationals, and silently promotes to the float track otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from ._span import bracket, float_span_basis, intersect, span_basis, span_dim
from .errors import (
    NotAbelian,
    NotInvertible,
    NumericalFailure,
    PostconditionFailed,
)
from .matrix_core import (
    APPROX,
    EXACT,
    Matrix,
    Polynomial,
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


# -- polynomial helpers -------------------------------------------------------


def poly_ext_gcd(a: Polynomial, b: Polynomial):
    """(g, u, v) with u*a + v*b = g = gcd(a, b), g monic."""
    r0, r1 = a, b
    u0, u1 = Polynomial.of([1]), Polynomial.of([])
    v0, v1 = Polynomial.of([]), Polynomial.of([1])
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero():
        return r0, u0, v0
    lead = r0.coeffs[-1]
    inv = Fraction(1) / lead
    return r0.scale(inv), u0.scale(inv), v0.scale(inv)


def max_root_multiplicity(p: Polynomial) -> int:
    """Largest multiplicity among the roots of p."""
    g = p
    count = 0
    while g.degree > 0:
        g = g.gcd(g.derivative())
        count += 1
    return max(count, 1)


def _rational_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    np_, dp = isqrt(x.numerator), isqrt(x.denominator)
    if np_ * np_ == x.numerator and dp * dp == x.denominator:
        return Fraction(np_, dp)
    return None


def _all_roots_real(q: Polynomial) -> bool:
    return count_real_roots(q) == q.degree


def _all_roots_positive(q: Polynomial) -> bool:
    if q.coeffs[0] == 0:
        return False
    return count_real_roots(q, Fraction(0), None) == q.degree


def _all_roots_negative(q: Polynomial) -> bool:
    if q.coeffs[0] == 0:
        return False
    return count_real_roots(q, None, Fraction(0)) == q.degree


def _roots_purely_imaginary(q: Polynomial) -> bool:
    """All roots of the irreducible monic q on the imaginary axis (0 included)."""
    if q.degree == 1:
        return q.coeffs[0] == 0  # q = t
    if not q.is_even():
        return False
    r = q.even_part_in_square()  # roots are the squares, must be real < 0
    return _all_roots_real(r) and count_real_roots(r, Fraction(0), None) == 0


def _roots_modulus_one(q: Polynomial) -> bool:
    """All roots of the irreducible monic q on the unit circle."""
    d = q.degree
    if d == 1:
        return q.coeffs[0] in (Fraction(1), Fraction(-1))
    if d == 2:
        b, c = q.coeffs[1], q.coeffs[0]
        return c == 1 and b * b - 4 * c < 0
    if d % 2 or q.coeffs[0] != 1:
        return False
    if any(q.coeffs[k] != q.coeffs[d - k] for k in range(d + 1)):
        return False
    # palindromic: q(t) = t^m Q(t + 1/t); roots on the circle iff Q has m
    # real roots in [-2, 2]
    m = d // 2
    basis = [Polynomial.of([2]), Polynomial.of([0, 1])]  # t^k + t^-k in z
    for _ in range(2, m + 1):
        basis.append(Polynomial.of([0, 1]) * basis[-1] - basis[-2])
    acc = Polynomial.of([q.coeffs[m]])
    for k in range(1, m + 1):
        acc = acc + basis[k].scale(q.coeffs[m + k])
    return count_real_roots(acc, Fraction(-2), Fraction(2)) == m


def _shifted_imaginary_part(q: Polynomial) -> Fraction | None:
    """The common real part a when all roots of q are a + bi; None otherwise."""
    d = q.degree
    a = -q.coeffs[d - 1] / d
    if _roots_purely_imaginary(q.compose_shift(a)):
        return a
    return None


# -- semisimple / nilpotent splitting ------------------------------------------


def sn_split(x: Matrix) -> tuple[Matrix, Matrix]:
    """x = s + n with s semisimple, n nilpotent, both polynomials in x.

    Exact track: Newton iteration on the squarefree part f of the
    characteristic polynomial, s <- s - f(s) * g(s) with g the inverse of f'
    modulo f; the defect f(s) squares its nilpotency depth each round.
    Float track: the same iteration against the squarefree polynomial built
    from the clustered spectrum, with a matrix inverse in place of g.
    """
    if x.mode == EXACT:
        p = char_poly(x)
        f = squarefree_part(p)
        if f.eval_matrix(x).is_zero():
            return x, Matrix.zero(x.n, EXACT)
        g, u, _ = poly_ext_gcd(f.derivative(), f)
        if g.degree != 0:
            raise PostconditionFailed("squarefree part shares a root with its derivative")
        u = u.scale(Fraction(1) / g.coeffs[0])
        mult = max_root_multiplicity(p)
        rounds = (mult - 1).bit_length() + 1  # ceil(log2(mult)) + 1
        s = x
        for _ in range(rounds):
            fs = f.eval_matrix(s)
            if fs.is_zero():
                break
            s = s - fs @ u.eval_matrix(s)
        if not f.eval_matrix(s).is_zero():
            raise PostconditionFailed("semisimple defect did not vanish")
        return s, x - s
    return _sn_split_approx(x)


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


def _apply_poly_float(coeffs: list[float], a: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(a)
    eye = np.eye(a.shape[0])
    for c in reversed(coeffs):
        acc = acc @ a + c * eye
    return acc


def _sn_split_approx(x: Matrix) -> tuple[Matrix, Matrix]:
    spec = spectrum(x)
    coeffs = _squarefree_from_clusters(spec)
    dcoeffs = [k * c for k, c in enumerate(coeffs)][1:]
    a = x.float_array()
    scale = 1.0
    for center, _ in spec.clusters:
        scale *= 1.0 + np.linalg.norm(a) + abs(center)
    thresh = max(x.tol, 1e-13) * scale
    s = a.copy()
    res = np.linalg.norm(_apply_poly_float(coeffs, s))
    for _ in range(40):
        if res <= thresh:
            break
        corr = _apply_poly_float(coeffs, s) @ np.linalg.inv(_apply_poly_float(dcoeffs, s))
        s_new = s - corr
        res_new = np.linalg.norm(_apply_poly_float(coeffs, s_new))
        if res_new >= res:
            raise NumericalFailure(
                f"semisimple/nilpotent iteration stalled at residual {res_new:.3e}"
            )
        s, res = s_new, res_new
    if res > thresh:
        raise NumericalFailure(f"semisimple/nilpotent iteration did not converge ({res:.3e})")
    sm = Matrix(s, APPROX, x.tol)
    return sm, x.to_approx() - sm


# -- exact generalized eigenprojections -----------------------------------------


def eigenprojections(s: Matrix, factors: list[Polynomial]) -> list[Matrix]:
    """Projections onto the kernels of q_j(s) for pairwise coprime monic q_j.

    The q_j must multiply to a polynomial killing s (here: its squarefree
    characteristic polynomial); the projections then sum to the identity and
    are polynomials in s.
    """
    full = Polynomial.of([1])
    for q in factors:
        full = full * q
    projs = []
    for q in factors:
        rest, rem = full.divmod(q)
        assert rem.is_zero()
        g, u, _ = poly_ext_gcd(rest % q, q)
        if g.degree != 0:
            raise PostconditionFailed("projection factors are not coprime")
        u = u.scale(Fraction(1) / g.coeffs[0])
        alpha = (rest * u) % full
        projs.append(alpha.eval_matrix(s))
    return projs


def _interp_on_clusters(spec, values) -> list[float]:
    """Real polynomial (ascending coeffs) interpolating values[j] at cluster j."""
    zs = np.array([c for c, _ in spec.clusters], dtype=complex)
    ws = np.array(values, dtype=complex)
    v = np.vander(zs, increasing=True)
    coeffs = np.linalg.solve(v, ws)
    return [float(c.real) for c in coeffs]


# -- additive decomposition -------------------------------------------------------


def additive_jordan(x: Matrix) -> JordanTriple:
    """x = e + h + u, commuting; spectra purely imaginary / real / {0}."""
    if x.mode == EXACT:
        s, n = sn_split(x)
        f = squarefree_part(char_poly(x))
        factors = [q for q, _ in irreducible_factors(f)]
        plan = []
        for q in factors:
            if _all_roots_real(q):
                plan.append(("real", None))
                continue
            a = _shifted_imaginary_part(q)
            if a is None:
                return _additive_jordan_approx(x.to_approx())
            plan.append(("shift", a))
        projs = eigenprojections(s, factors)
        h = Matrix.zero(x.n, EXACT)
        for (kind, a), p in zip(plan, projs):
            h = h + (s @ p if kind == "real" else p.scale(a))
        e = s - h
        return JordanTriple(e, h, n, ADDITIVE)
    return _additive_jordan_approx(x)


def _additive_jordan_approx(x: Matrix) -> JordanTriple:
    s, n = sn_split(x)
    spec = spectrum(x)
    if len(spec.clusters) == 1:
        h = Matrix(spec.clusters[0][0].real * np.eye(x.n), APPROX, x.tol)
    else:
        coeffs = _interp_on_clusters(spec, [c.real for c, _ in spec.clusters])
        h = Matrix(_apply_poly_float(coeffs, s.float_array()), APPROX, x.tol)
    return JordanTriple(s - h, h, n, ADDITIVE)


# -- multiplicative decomposition ---------------------------------------------------


def multiplicative_jordan(x: Matrix) -> JordanTriple:
    """x = e * h * u, commuting; spectra on the circle / positive / {1}."""
    if not x.is_invertible():
        raise NotInvertible("multiplicative decomposition needs an invertible input")
    if x.mode == EXACT:
        s, n = sn_split(x)
        f = squarefree_part(char_poly(x))
        factors = [q for q, _ in irreducible_factors(f)]
        plan = []
        for q in factors:
            if q.degree == 2 and q.coeffs[1] ** 2 - 4 * q.coeffs[0] < 0:
                rho = _rational_sqrt(q.coeffs[0])
                if rho is None:
                    return _multiplicative_jordan_approx(x.to_approx())
                plan.append(("circle", rho))
            elif _all_roots_positive(q):
                plan.append(("pos", None))
            elif _all_roots_negative(q):
                plan.append(("neg", None))
            else:
                return _multiplicative_jordan_approx(x.to_approx())
        projs = eigenprojections(s, factors)
        e = Matrix.zero(x.n, EXACT)
        h = Matrix.zero(x.n, EXACT)
        for (kind, rho), p in zip(plan, projs):
            if kind == "pos":
                e, h = e + p, h + s @ p
            elif kind == "neg":
                e, h = e - p, h - s @ p
            else:
                e = e + (s @ p).scale(Fraction(1) / rho)
                h = h + p.scale(rho)
        u = Matrix.identity(x.n) + s.inv() @ n
        if not (e @ h @ u).close_to(x):
            raise PostconditionFailed("multiplicative parts fail to reassemble the input")
        return JordanTriple(e, h, u, MULTIPLICATIVE)
    return _multiplicative_jordan_approx(x)


def _multiplicative_jordan_approx(x: Matrix) -> JordanTriple:
    if not x.is_invertible():  # an exact input promoted here may be singular in floats
        raise NotInvertible("matrix is singular at the working tolerance")
    s, n = sn_split(x)
    spec = spectrum(x)
    if len(spec.clusters) == 1:
        rho = abs(spec.clusters[0][0])
        h = Matrix(rho * np.eye(x.n), APPROX, x.tol)
        e = s.scale(1.0 / rho)
    else:
        # evaluate |lambda| and lambda/|lambda| as polynomials in s; going
        # through h^-1 instead would amplify error on ill-conditioned spectra
        habs = _interp_on_clusters(spec, [abs(c) for c, _ in spec.clusters])
        phase = _interp_on_clusters(spec, [c / abs(c) for c, _ in spec.clusters])
        h = Matrix(_apply_poly_float(habs, s.float_array()), APPROX, x.tol)
        e = Matrix(_apply_poly_float(phase, s.float_array()), APPROX, x.tol)
    u = Matrix.identity(x.n, APPROX, x.tol) + s.inv() @ n
    return JordanTriple(e, h, u, MULTIPLICATIVE)


# -- classification -------------------------------------------------------------------


def classify(x: Matrix, setting: str) -> ElementClass:
    """Evaluate the elliptic/hyperbolic/unipotent/semisimple/exponential predicates."""
    if setting not in (GROUP, ALGEBRA):
        raise ValueError(f"setting must be {GROUP!r} or {ALGEBRA!r}")
    if setting == GROUP and not x.is_invertible():
        raise NotInvertible("group elements must be invertible")
    if x.mode == EXACT:
        p = char_poly(x)
        semisimple = squarefree_part(p).eval_matrix(x).is_zero()
        factors = [q for q, _ in irreducible_factors(p)]
        if setting == GROUP:
            unipotent = factors == [Polynomial.of([-1, 1])]
            elliptic = semisimple and all(_roots_modulus_one(q) for q in factors)
            hyperbolic = semisimple and all(_all_roots_positive(q) for q in factors)
            exponential = all(_all_roots_positive(q) for q in factors)
        else:
            unipotent = factors == [Polynomial.of([0, 1])]
            elliptic = semisimple and all(_roots_purely_imaginary(q) for q in factors)
            hyperbolic = semisimple and all(_all_roots_real(q) for q in factors)
            exponential = all(_all_roots_real(q) for q in factors)
        return ElementClass(elliptic, hyperbolic, unipotent, semisimple, exponential)
    return _classify_approx(x, setting)


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


def abelian_ehu_split(
    basis: list[Matrix],
) -> tuple[list[Matrix], list[Matrix], list[Matrix]]:
    """Split the span of a commuting family into elliptic/hyperbolic/unipotent parts.

    Returns bases of the spans of the additive e/h/u parts of the inputs;
    the three subspaces intersect trivially and sum to the input span.
    """
    for i, a in enumerate(basis):
        for j in range(i + 1, len(basis)):
            if not bracket(a, basis[j]).is_zero():
                raise NotAbelian(f"generators {i} and {j} do not commute")
    parts = [additive_jordan(m).parts() for m in basis]
    es = [p[0] for p in parts if not p[0].is_zero()]
    hs = [p[1] for p in parts if not p[1].is_zero()]
    us = [p[2] for p in parts if not p[2].is_zero()]
    if all(m.mode == EXACT for m in list(basis) + es + hs + us):
        e_b, h_b, u_b = span_basis(es), span_basis(hs), span_basis(us)
        total = span_dim(e_b + h_b + u_b)
        if total != len(e_b) + len(h_b) + len(u_b) or total != span_dim(list(basis)):
            raise PostconditionFailed("elliptic/hyperbolic/unipotent spans do not split the input")
        for x, y in ((e_b, h_b), (e_b, u_b), (h_b, u_b)):
            if intersect(x, y):
                raise PostconditionFailed("part subspaces intersect nontrivially")
        return e_b, h_b, u_b
    return float_span_basis(es), float_span_basis(hs), float_span_basis(us)
