"""Exponential and logarithm maps on their bijective loci.

exp/log are mutually inverse between nilpotent matrices and unipotent ones
(finite series, exact), between semisimple real-spectrum matrices and
semisimple positive-spectrum ones (eigenvalue formulas), and between the
exponential loci (trivial elliptic part) via log(x) = log(x_h) + log(x_u).
"""

from __future__ import annotations

from fractions import Fraction
from math import frexp

import numpy as np

from .errors import (
    NotExponentialElement,
    NotHyperbolic,
    NotNilpotent,
    NotUnipotent,
)
from .jordan import (ALGEBRA, GROUP, _classify_exact, classify, eigenprojections,
                     multiplicative_jordan)
from .matrix_core import APPROX, EXACT, Matrix, char_poly
from .polynomial import Polynomial, _distinct_rational_roots


def exp_nilpotent(x: Matrix) -> Matrix:
    """Finite exponential series of a nilpotent matrix; exact in exact mode."""
    if not x.is_nilpotent():
        raise NotNilpotent("exponential series needs a nilpotent input")
    acc = Matrix.identity(x.n, x.mode, x.tol)
    term = Matrix.identity(x.n, x.mode, x.tol)
    for k in range(1, x.n):
        term = (term @ x).scale(Fraction(1, k))
        acc = acc + term
    return acc


def log_unipotent(x: Matrix) -> Matrix:
    """Finite logarithm series of a unipotent matrix; exact in exact mode."""
    y = x - Matrix.identity(x.n, x.mode, x.tol)
    if not y.is_nilpotent():
        raise NotUnipotent("logarithm series needs a unipotent input")
    return _log_series(y)


def _log_series(y: Matrix) -> Matrix:
    """log(1 + y) = sum_(k < n) (-1)^(k+1) y^k / k for a nilpotent y, which is not checked."""
    acc, power = Matrix.zero(y.n, y.mode, y.tol), y
    for k in range(1, y.n):
        power = y if k == 1 else power @ y
        acc = acc + power.scale(Fraction((-1) ** (k + 1), k))
    return acc


def _hyperbolic_map(x: Matrix, setting: str, fn, complaint: str) -> Matrix:
    """fn (np.exp or np.log) of x, which ``classify(x, setting)`` must find hyperbolic (else
    ``NotHyperbolic(complaint)``): exact eigenprojections when the eigenvalues are rational, else
    one eigendecomposition x = V diag(w) V^-1.  Both steps read one characteristic polynomial
    of an exact x."""
    chi = char_poly(x) if x.mode == EXACT else None
    if not (classify(x, setting) if chi is None else _classify_exact(x, setting, chi)).hyperbolic:
        raise NotHyperbolic(complaint)
    if chi is not None and (values := _distinct_rational_roots(chi)) is not None:
        # summed from the largest eigenvalue down: that order fixes the float result bit for bit
        values = values[::-1]
        projs = eigenprojections(x, [Polynomial.of([-lam, 1]) for lam in values])
        out = np.zeros((x.n, x.n))
        for lam, p in zip(values, projs):
            out = out + fn(float(lam)) * p.float_array()
        return Matrix(out, APPROX, x.tol)
    w, v = np.linalg.eig(x.float_array())
    return Matrix(np.real((v * fn(w)) @ np.linalg.inv(v)), APPROX, x.tol)


def exp_hyperbolic(x: Matrix) -> Matrix:
    """exp of a semisimple matrix with real spectrum; always float."""
    return _hyperbolic_map(x, ALGEBRA, np.exp, "input must be semisimple with real spectrum")


def log_hyperbolic(x: Matrix) -> Matrix:
    """log of a semisimple matrix with positive real spectrum; always float."""
    return _hyperbolic_map(x, GROUP, np.log,
                           "input must be semisimple with positive real spectrum")


def log_exponential(x: Matrix) -> Matrix:
    """log on the exponential locus: log(x_h) + log(x_u).

    The two summands commute, so exp of the result reproduces x.
    """
    triple = multiplicative_jordan(x)
    ident = Matrix.identity(x.n, triple.e.mode, x.tol)
    if not (triple.e - ident).is_zero():
        raise NotExponentialElement("elliptic part is nontrivial")
    return log_hyperbolic(triple.h) + log_unipotent(triple.u)


def matrix_exp(x: Matrix) -> Matrix:
    """General matrix exponential, independent of the Jordan code (a verification utility):
    the degree-16 Taylor polynomial of exp(a / 2^s), for s with ||a / 2^s||_inf <= 1/2, squared
    s times (Moler and Van Loan, "Nineteen dubious ways...", 2003, method 3)."""
    a = x.float_array()
    s = max(0, frexp(np.linalg.norm(a, np.inf))[1] + 1)
    a, e, term = a / 2.0 ** s, np.eye(x.n), np.eye(x.n)
    for k in range(1, 17):
        term = term @ a / k
        e = e + term
    for _ in range(s):
        e = e @ e
    return Matrix(e, APPROX, x.tol)
