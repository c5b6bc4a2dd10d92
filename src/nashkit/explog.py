"""Exponential and logarithm maps on their bijective loci.

exp/log are mutually inverse between nilpotent matrices and unipotent ones
(finite series, exact), between semisimple real-spectrum matrices and
semisimple positive-spectrum ones (eigenvalue formulas), and between the
exponential loci (trivial elliptic part) via log(x) = log(x_h) + log(x_u).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import scipy.linalg

from .errors import (
    NotExponentialElement,
    NotHyperbolic,
    NotNilpotent,
    NotUnipotent,
)
from .jordan import ALGEBRA, GROUP, classify, multiplicative_jordan, eigenprojections
from .matrix_core import APPROX, EXACT, Matrix, Polynomial, rational_eigenvalues


def exp_nilpotent(x: Matrix) -> Matrix:
    """Finite exponential series of a nilpotent matrix; exact in exact mode."""
    if not x.is_nilpotent():
        raise NotNilpotent("exponential series needs a nilpotent input")
    acc = Matrix.identity(x.n, x.mode, x.tol)
    term = Matrix.identity(x.n, x.mode, x.tol)
    for k in range(1, x.n):
        term = (term @ x).scale(Fraction(1, k) if x.mode == EXACT else 1.0 / k)
        acc = acc + term
    return acc


def log_unipotent(x: Matrix) -> Matrix:
    """Finite logarithm series of a unipotent matrix; exact in exact mode."""
    y = x - Matrix.identity(x.n, x.mode, x.tol)
    if not y.is_nilpotent():
        raise NotUnipotent("logarithm series needs a unipotent input")
    acc = Matrix.zero(x.n, x.mode, x.tol)
    power = Matrix.identity(x.n, x.mode, x.tol)
    for k in range(1, x.n):
        power = power @ y
        c = Fraction((-1) ** (k + 1), k) if x.mode == EXACT else (-1.0) ** (k + 1) / k
        acc = acc + power.scale(c)
    return acc


def _scalar_map_exact(x: Matrix, values, fn) -> Matrix:
    """Apply fn to the rational eigenvalues through exact eigenprojections.

    The terms are summed from the largest eigenvalue down; that order fixes
    the float result bit for bit.
    """
    values = values[::-1]
    projs = eigenprojections(x, [Polynomial.of([-lam, 1]) for lam in values])
    out = np.zeros((x.n, x.n))
    for lam, p in zip(values, projs):
        out = out + fn(float(lam)) * p.float_array()
    return Matrix(out, APPROX, x.tol)


def exp_hyperbolic(x: Matrix) -> Matrix:
    """exp of a semisimple matrix with real spectrum."""
    if not classify(x, ALGEBRA).hyperbolic:
        raise NotHyperbolic("input must be semisimple with real spectrum")
    if x.is_zero():
        return Matrix.identity(x.n, x.mode, x.tol)
    if x.mode == EXACT:
        values = rational_eigenvalues(x)
        if values is not None:
            return _scalar_map_exact(x, values, np.exp)
    a = x.float_array()
    if np.allclose(a, a.T, atol=x.abs_tol()):
        w, v = np.linalg.eigh(a)
        return Matrix(v @ np.diag(np.exp(w)) @ v.T, APPROX, x.tol)
    return Matrix(scipy.linalg.expm(a), APPROX, x.tol)


def log_hyperbolic(x: Matrix) -> Matrix:
    """log of a semisimple matrix with positive real spectrum; always float."""
    if not classify(x, GROUP).hyperbolic:
        raise NotHyperbolic("input must be semisimple with positive real spectrum")
    if x == Matrix.identity(x.n, x.mode, x.tol):
        return Matrix.zero(x.n, x.mode, x.tol).to_approx()
    if x.mode == EXACT:
        values = rational_eigenvalues(x)
        if values is not None:
            return _scalar_map_exact(x, values, np.log)
    a = x.float_array()
    if np.allclose(a, a.T, atol=x.abs_tol()):
        w, v = np.linalg.eigh(a)
        return Matrix(v @ np.diag(np.log(w)) @ v.T, APPROX, x.tol)
    out = scipy.linalg.logm(a)
    return Matrix(np.real(out), APPROX, x.tol)


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
    """General matrix exponential (scaling and squaring); verification utility."""
    return Matrix(scipy.linalg.expm(x.float_array()), APPROX, x.tol)
