"""Smallest closed subgroups generated by hyperbolic or unipotent elements.

For a hyperbolic element with rational eigenvalues the subgroup is cut out
of the diagonal torus by the multiplicative relation lattice of the
eigenvalues.  Relations among positive rationals are integer relations
among their exponent vectors over a coprime base of the numerators and
denominators, and one Hermite reduction (``_row_hnf``) of the exponent rows
next to an identity block returns them.  For a unipotent element the
subgroup is the one-parameter group through the logarithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import IrrationalSpectrum, NotHyperbolic, NotPositiveRational
from .explog import _log_series, log_unipotent
from .jordan import GROUP, _classify_exact, classify
from .matrix_core import EXACT, Matrix, char_poly
from .polynomial import Polynomial, _distinct_rational_roots

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
    """Hermite basis of {k in Z^m : k * rows = 0}.

    The rows of [rows | I] span the lattice of pairs (k * rows, k).  Its
    Hermite form ends with the rows that vanish on the first block; their
    second blocks form the Hermite form of the kernel, which is unique.
    """
    width = len(rows[0]) if rows else 0
    aug = [list(r) + [int(i == j) for j in range(m)] for i, r in enumerate(rows)]
    return [h[width:] for h in _row_hnf(aug) if not any(h[:width])]


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


def _coprime_base(numbers: list[int]) -> list[int]:
    """Pairwise coprime integers > 1, ascending, of which each number is a product of powers.

    Refinement by gcds alone (Bernstein, "Factoring into coprimes in
    essentially linear time", 2005, here in its plain quadratic form): a
    number x sharing g > 1 with a base element b takes b out and puts back
    b/g, g and x/g to be placed.  Each such step divides the product of what
    is placed or still to place by g, so the loop ends.
    """
    base: list[int] = []
    todo = list(numbers)
    while todo:
        x = todo.pop()
        if x == 1:
            continue
        for i, b in enumerate(base):
            g = gcd(x, b)
            if g > 1:
                del base[i]
                todo += [b // g, g, x // g]
                break
        else:
            base.append(x)
    return sorted(base)


def _valuation(x: int, b: int) -> int:
    """Largest e with b^e dividing x, for b > 1."""
    e = 0
    while x % b == 0:
        x //= b
        e += 1
    return e


def exponent_lattice(values: list[Fraction]) -> list[list[int]]:
    """Basis of {k in Z^m : prod values_i^(k_i) = 1} for positive rationals.

    Each prime divides exactly one element b of a coprime base of the
    numerators and denominators, and its exponent in every value is a fixed
    multiple of the value's exponent of b.  So the exponent rows over the
    base have the kernel of the prime-exponent rows, and ``_integer_kernel``
    returns that kernel in Hermite form.
    """
    vals = []
    for v in values:
        v = Fraction(v)
        if v <= 0:
            raise NotPositiveRational(f"{v} is not a positive rational")
        vals.append(v)
    m = len(vals)
    if m == 0:
        return []
    base = _coprime_base([x for v in vals for x in (v.numerator, v.denominator)])
    rows = [[_valuation(v.numerator, b) - _valuation(v.denominator, b) for b in base]
            for v in vals]
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
    chi = char_poly(x)
    if not _classify_exact(x, GROUP, chi).hyperbolic:
        raise NotHyperbolic("input is not semisimple with positive real spectrum")
    return _hyperbolic_datum(chi)


def _hyperbolic_datum(chi: Polynomial) -> ReplicaDatum:
    """The replica of a hyperbolic element with characteristic polynomial chi."""
    values = _distinct_rational_roots(chi)
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
    return _unipotent_datum(log_unipotent(x))


def _unipotent_datum(gen: Matrix) -> ReplicaDatum:
    return ReplicaDatum(kind=UNIPOTENT, dimension=0 if gen.is_zero() else 1, generator=gen)


def replica(x: Matrix) -> ReplicaDatum:
    """Dispatch on the element class: unipotent, then rational hyperbolic."""
    chi = char_poly(x) if x.mode == EXACT else None
    cls = classify(x, GROUP) if chi is None else _classify_exact(x, GROUP, chi)
    if cls.unipotent:  # with chi, x - I is nilpotent by Cayley-Hamilton: its log is not checked
        return _unipotent_datum(log_unipotent(x) if chi is None
                                else _log_series(x - Matrix.identity(x.n, EXACT, x.tol)))
    if cls.hyperbolic:
        return replica_hyperbolic(x) if chi is None else _hyperbolic_datum(chi)
    raise NotHyperbolic(
        "replicas are computed for unipotent or rational-spectrum hyperbolic elements"
    )
