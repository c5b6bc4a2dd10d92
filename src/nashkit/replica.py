"""Smallest closed subgroups generated by hyperbolic or unipotent elements.

For a hyperbolic element with rational eigenvalues the subgroup is cut out
of the diagonal torus by the multiplicative relation lattice of the
eigenvalues; rational relations among logs of positive rationals reduce to
integer linear algebra on prime-factorization exponent vectors.  For a
unipotent element it is the one-parameter group through the logarithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import sympy

from .errors import IrrationalSpectrum, NotHyperbolic, NotPositiveRational
from .explog import log_unipotent
from .jordan import GROUP, classify
from .matrix_core import EXACT, Matrix, rational_eigenvalues

HYPERBOLIC = "hyperbolic"
UNIPOTENT = "unipotent"


@dataclass(frozen=True)
class ReplicaDatum:
    kind: str  # HYPERBOLIC or UNIPOTENT
    dimension: int
    relation_lattice: tuple[tuple[int, ...], ...] | None = None
    slots: tuple[Fraction, ...] | None = None  # eigenvalue per lattice coordinate
    generator: Matrix | None = None


# -- integer lattice kernels ---------------------------------------------------


def _integer_kernel(rows: list[list[int]], m: int) -> list[list[int]]:
    """Basis of {k in Z^m : k * rows = 0} via unimodular row reduction.

    Row-reduces the exponent matrix while carrying the transformation; the
    transformation rows matching zero rows of the echelon form are a basis
    of the (saturated) kernel lattice.
    """
    h = [list(r) for r in rows]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    ncols = len(h[0]) if h and h[0] else 0
    r = 0
    for c in range(ncols):
        while True:
            pivots = [i for i in range(r, m) if h[i][c] != 0]
            if not pivots:
                break
            i0 = min(pivots, key=lambda i: abs(h[i][c]))
            h[r], h[i0] = h[i0], h[r]
            u[r], u[i0] = u[i0], u[r]
            done = True
            for i in range(r + 1, m):
                if h[i][c] != 0:
                    q = h[i][c] // h[r][c]
                    h[i] = [a - q * b for a, b in zip(h[i], h[r])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[r])]
                    if h[i][c] != 0:
                        done = False
            if done:
                r += 1
                break
    return _row_hnf([u[i] for i in range(r, m)])


def _row_hnf(rows: list[list[int]]) -> list[list[int]]:
    """Canonical (Hermite-style) basis of the integer row span."""
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return []
    ncols = len(mat[0])
    out: list[list[int]] = []
    r = 0
    for c in range(ncols):
        while True:
            pivots = [i for i in range(r, len(mat)) if mat[i][c] != 0]
            if not pivots:
                break
            i0 = min(pivots, key=lambda i: abs(mat[i][c]))
            mat[r], mat[i0] = mat[i0], mat[r]
            reduced = True
            for i in range(r + 1, len(mat)):
                if mat[i][c] != 0:
                    q = mat[i][c] // mat[r][c]
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
                    if mat[i][c] != 0:
                        reduced = False
            if reduced:
                if mat[r][c] < 0:
                    mat[r] = [-x for x in mat[r]]
                for i in range(r):
                    q = mat[i][c] // mat[r][c]
                    if q:
                        mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
                r += 1
                break
    return mat[:r]


def exponent_lattice(values: list[Fraction]) -> list[list[int]]:
    """Basis of {k in Z^m : prod values_i^(k_i) = 1} for positive rationals."""
    vals = []
    for v in values:
        v = Fraction(v)
        if v <= 0:
            raise NotPositiveRational(f"{v} is not a positive rational")
        vals.append(v)
    m = len(vals)
    if m == 0:
        return []
    primes: list[int] = []
    expanded = []
    for v in vals:
        fac = dict(sympy.factorint(v.numerator))
        for p, e in sympy.factorint(v.denominator).items():
            fac[p] = fac.get(p, 0) - e
        expanded.append(fac)
        for p in fac:
            if p not in primes:
                primes.append(p)
    primes.sort()
    rows = [[fac.get(p, 0) for p in primes] for fac in expanded]
    return _integer_kernel(rows, m)


def hom_space_dimension(values: list[Fraction]) -> int:
    """Dimension of the closed subgroup of the torus generated by the diagonal."""
    lattice = exponent_lattice(values)
    return len(values) - len(lattice)


# -- replicas --------------------------------------------------------------------


def replica_hyperbolic(x: Matrix) -> ReplicaDatum:
    """Replica of a hyperbolic element with rational eigenvalues.

    The element diagonalizes over the rationals; the replica is the
    subgroup of the diagonal torus cut out by the relation lattice of the
    distinct eigenvalues, of dimension (slots) - rank(lattice).
    """
    if x.mode != EXACT:
        raise IrrationalSpectrum(
            "float spectra cannot certify rationality; use an exact input"
        )
    if not classify(x, GROUP).hyperbolic:
        raise NotHyperbolic("input is not semisimple with positive real spectrum")
    values = rational_eigenvalues(x)
    if values is None:
        raise IrrationalSpectrum("eigenvalues are not rational")
    lattice = exponent_lattice(values)
    return ReplicaDatum(
        kind=HYPERBOLIC,
        dimension=len(values) - len(lattice),
        relation_lattice=tuple(tuple(r) for r in lattice),
        slots=tuple(values),
    )


def replica_unipotent(x: Matrix) -> ReplicaDatum:
    """One-parameter replica of a unipotent element through its logarithm."""
    gen = log_unipotent(x)
    dim = 0 if gen.is_zero() else 1
    return ReplicaDatum(kind=UNIPOTENT, dimension=dim, generator=gen)


def replica(x: Matrix) -> ReplicaDatum:
    """Dispatch on the element class: unipotent, then rational hyperbolic."""
    cls = classify(x, GROUP)
    if cls.unipotent:
        return replica_unipotent(x)
    if cls.hyperbolic:
        return replica_hyperbolic(x)
    raise NotHyperbolic(
        "replicas are computed for unipotent or rational-spectrum hyperbolic elements"
    )
