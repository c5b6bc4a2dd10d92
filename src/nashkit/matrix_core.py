"""Exact-rational and tolerance-controlled floating matrix arithmetic.

Two numeric tracks share one ``Matrix`` type: exact entries are stored as
reduced ``fractions.Fraction`` in an object ndarray, approximate entries are
float64.  Exact is the default for triangular, nilpotent and
rational-spectrum inputs; float (with a relative tolerance) is only needed
when eigenvalues are irrational.  Mixed-mode arithmetic promotes exact
operands to the float track.

The exact kernels (matmul, polynomial evaluation, characteristic
polynomial, determinant and inverse) compute on a scaled-integer form: the
Python-int numerators of ``m * d`` for the common denominator ``d`` of the
entries.  Products, Horner steps and fraction-free (Bareiss) elimination then
run on integers, and each entry is reduced once, when the result goes back to
``Fraction``.  ``rref`` and the polynomial arithmetic stay on ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, lcm
from typing import Iterable, Sequence

import numpy as np
import sympy

from .errors import ClusterAmbiguity, NotInvertible, ZeroPolynomial

EXACT = "exact"
APPROX = "approx"
DEFAULT_TOL = 1e-8

_SYMPY_T = sympy.Symbol("t")


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError(f"cannot interpret {x!r} as an exact rational")
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, float):
        if not isfinite(x):
            raise ValueError(f"{x!r} is not a finite number")
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"{x!r} has a zero denominator") from None
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


# -- scaled integers: an exact array is nums / d, Python ints over d > 0 ---------


def _scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """Fraction array -> (int numerators, lcm of the denominators)."""
    d = lcm(*[x.denominator for x in a.flat])
    nums = np.empty(a.shape, dtype=object)
    nums.flat = [x.numerator * (d // x.denominator) for x in a.flat]
    return nums, d


def _unscaled(nums: np.ndarray, d: int) -> np.ndarray:
    """(int numerators, denominator) -> array of reduced Fractions."""
    out = np.empty(nums.shape, dtype=object)
    out.flat = [Fraction(p, d) for p in nums.flat]
    return out


class Matrix:
    """Square real matrix, either exact-rational or float with a tolerance.

    Values are immutable after construction and safe to share between
    threads.  ``tol`` is a relative tolerance; the effective threshold for
    "numerically zero" is ``tol * (1 + frobenius norm)``.
    """

    __slots__ = ("n", "mode", "data", "tol")

    def __init__(self, data: np.ndarray, mode: str, tol: float = DEFAULT_TOL):
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise ValueError("matrix must be square")
        if mode not in (EXACT, APPROX):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == APPROX:
            data = np.asarray(data, dtype=float)
            if not np.all(np.isfinite(data)):
                raise ValueError("entries must be finite")
        object.__setattr__(self, "n", data.shape[0])
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "tol", float(tol))
        data.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def exact(rows: Sequence[Sequence]) -> "Matrix":
        arr = np.empty((len(rows), len(rows)), dtype=object)
        for i, row in enumerate(rows):
            if len(row) != len(rows):
                raise ValueError("matrix must be square")
            for j, x in enumerate(row):
                arr[i, j] = _as_fraction(x)
        return Matrix(arr, EXACT)

    @staticmethod
    def approx(rows, tol: float = DEFAULT_TOL) -> "Matrix":
        return Matrix(np.array(rows, dtype=float), APPROX, tol)

    @staticmethod
    def identity(n: int, mode: str = EXACT, tol: float = DEFAULT_TOL) -> "Matrix":
        if mode == EXACT:
            return Matrix.diagonal([Fraction(1)] * n)
        return Matrix(np.eye(n), APPROX, tol)

    @staticmethod
    def zero(n: int, mode: str = EXACT, tol: float = DEFAULT_TOL) -> "Matrix":
        if mode == EXACT:
            arr = np.empty((n, n), dtype=object)
            arr[:] = Fraction(0)
            return Matrix(arr, EXACT)
        return Matrix(np.zeros((n, n)), APPROX, tol)

    @staticmethod
    def diagonal(values: Sequence, mode: str = EXACT, tol: float = DEFAULT_TOL) -> "Matrix":
        if mode == EXACT:
            arr = np.empty((len(values), len(values)), dtype=object)
            arr[:] = Fraction(0)
            for i, v in enumerate(values):
                arr[i, i] = _as_fraction(v)
            return Matrix(arr, EXACT)
        return Matrix(np.diag(np.asarray(values, dtype=float)), APPROX, tol)

    # -- basic queries ---------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.mode == EXACT

    def entry(self, i: int, j: int):
        return self.data[i, j]

    def rows(self) -> list[list]:
        return [list(r) for r in self.data]

    def norm(self) -> float:
        """Frobenius norm as a float (also for exact matrices)."""
        flat = self.float_array().ravel()
        squares = np.dot(flat, flat)
        if isfinite(squares):
            return float(np.sqrt(squares))
        big = np.max(np.abs(flat))  # rescaled only on overflow: finite norms keep their bits
        return float(big * np.linalg.norm(flat / big))

    def abs_tol(self) -> float:
        """Effective absolute threshold: tol * (1 + ||m||)."""
        return self.tol * (1.0 + self.norm())

    def float_array(self) -> np.ndarray:
        if self.mode == APPROX:
            return self.data
        if self.n == 0:
            return np.zeros((0, 0))
        return np.array([[float(x) for x in row] for row in self.data])

    def to_approx(self, tol: float | None = None) -> "Matrix":
        return Matrix(self.float_array(), APPROX, self.tol if tol is None else tol)

    def vec(self) -> np.ndarray:
        """Entries flattened row-major (object or float 1-D array)."""
        return self.data.reshape(-1)

    def is_nilpotent(self) -> bool:
        """m^n vanishes: exactly, or within tol * (1 + ||m||)^n on the float track."""
        p = self ** self.n
        if self.mode == EXACT:
            return p.is_zero()
        return p.norm() <= self.tol * (1.0 + self.norm()) ** self.n

    def is_zero(self, tol: float | None = None) -> bool:
        if self.mode == EXACT:
            return all(x == 0 for x in self.vec())
        t = self.abs_tol() if tol is None else tol
        return bool(np.all(np.abs(self.data) <= t))

    def close_to(self, other: "Matrix", tol: float | None = None) -> bool:
        return (self - other).is_zero(tol)

    # -- arithmetic ------------------------------------------------------------

    def _pair(self, other: "Matrix"):
        """Promote to a common mode; exact meets approx as approx."""
        if self.mode == other.mode:
            return self, other, max(self.tol, other.tol)
        tol = max(self.tol, other.tol)
        return self.to_approx(tol), other.to_approx(tol), tol

    def __add__(self, other: "Matrix") -> "Matrix":
        a, b, tol = self._pair(other)
        return Matrix(a.data + b.data, a.mode, tol)

    def __sub__(self, other: "Matrix") -> "Matrix":
        a, b, tol = self._pair(other)
        return Matrix(a.data - b.data, a.mode, tol)

    def __neg__(self) -> "Matrix":
        return Matrix(-self.data, self.mode, self.tol)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        a, b, tol = self._pair(other)
        if a.mode == EXACT:
            (na, da), (nb, db) = _scaled(a.data), _scaled(b.data)
            return Matrix(_unscaled(np.dot(na, nb), da * db), EXACT, tol)
        return Matrix(np.dot(a.data, b.data), APPROX, tol)

    def scale(self, c) -> "Matrix":
        if self.mode == EXACT and isinstance(c, (int, Fraction)):
            return Matrix(self.data * _as_fraction(c), EXACT, self.tol)
        return Matrix(self.float_array() * float(c), APPROX, self.tol)

    def __pow__(self, k: int) -> "Matrix":
        if k < 0:
            return self.inv() ** (-k)
        out = Matrix.identity(self.n, self.mode, self.tol)
        base = self
        while k:
            if k & 1:
                out = out @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return out

    @property
    def T(self) -> "Matrix":
        return Matrix(self.data.T.copy(), self.mode, self.tol)

    def trace(self):
        return sum(self.data[i, i] for i in range(self.n))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.n != other.n or self.mode != other.mode:
            return False
        return bool(np.all(self.data == other.data))

    def __hash__(self):
        return hash((self.n, self.mode, tuple(self.vec())))

    def __repr__(self) -> str:
        return f"Matrix({self.rows()!r}, mode={self.mode!r})"

    def det(self):
        if self.mode == EXACT:
            return _det_exact(self.data)
        return float(np.linalg.det(self.data))

    def inv(self) -> "Matrix":
        if self.mode == EXACT:
            out = _inv_exact(self.data)
            if out is None:
                raise NotInvertible("exact matrix is singular")
            return Matrix(out, EXACT)
        if min(np.linalg.svd(self.data, compute_uv=False), default=0.0) <= self.abs_tol():
            raise NotInvertible("matrix is singular at the working tolerance")
        return Matrix(np.linalg.inv(self.data), APPROX, self.tol)

    def is_invertible(self) -> bool:
        if self.mode == EXACT:
            return self.det() != 0
        return bool(min(np.linalg.svd(self.data, compute_uv=False)) > self.abs_tol())


# -- exact elimination kernels -------------------------------------------------


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals; returns (rows, pivot cols)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def exact_nullspace(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right kernel of a rational matrix (rows of coefficients)."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def exact_solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """One solution of A x = b over the rationals, or None if inconsistent."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    ncols = len(rows[0]) if rows else 0
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def _bareiss(rows: list[list[int]]) -> tuple[int, int]:
    """Fraction-free Gauss-Jordan on the leading square block of int rows, in place.

    Bareiss (1968): each update divides exactly by the previous pivot, so
    every entry stays an integer minor of the input, and the block ends as D
    times the identity.  Returns (D, sign of the row swaps); D is sign * det
    of the block, and 0 if the block is singular.
    """
    n = len(rows)
    prev, sign = 1, 1
    for k in range(n):
        pr = next((i for i in range(k, n) if rows[i][k] != 0), None)
        if pr is None:
            return 0, sign
        if pr != k:
            rows[k], rows[pr] = rows[pr], rows[k]
            sign = -sign
        pivot = rows[k]
        p = pivot[k]
        for i in range(n):
            if i != k:
                f = rows[i][k]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], pivot)]
        prev = p
    return prev, sign


def _det_exact(a: np.ndarray) -> Fraction:
    """det(N / d) = det(N) / d^n."""
    nums, d = _scaled(a)
    det, sign = _bareiss([list(r) for r in nums])
    return Fraction(sign * det, d ** len(nums))


def _inv_exact(a: np.ndarray) -> np.ndarray | None:
    """(N / d)^-1 = d * N^-1: Gauss-Jordan takes [N | d*I] to [D*I | D*d*N^-1]."""
    nums, d = _scaled(a)
    n = len(nums)
    rows = [list(r) + [d * (i == j) for j in range(n)] for i, r in enumerate(nums)]
    det, _ = _bareiss(rows)
    if det == 0:
        return None
    right = np.empty((n, n), dtype=object)
    right.flat = [x for r in rows for x in r[n:]]
    return _unscaled(right, det)


# -- polynomials ----------------------------------------------------------------


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial with exact rational coefficients.

    Coefficients are stored lowest degree first; the leading coefficient is
    nonzero unless the polynomial is zero.
    """

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def of(coeffs: Iterable) -> "Polynomial":
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return Polynomial(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Polynomial.of([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + Polynomial.of([-c for c in other.coeffs])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero() or other.is_zero():
            return Polynomial.of([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial.of(out)

    def scale(self, c) -> "Polynomial":
        c = _as_fraction(c)
        return Polynomial.of([c * x for x in self.coeffs])

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        q = [Fraction(0)] * max(0, len(self.coeffs) - len(other.coeffs) + 1)
        r = list(self.coeffs)
        d = other.degree
        lead = other.coeffs[-1]
        while len(r) - 1 >= d and any(c != 0 for c in r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) - 1 < d:
                break
            f = r[-1] / lead
            q[len(r) - 1 - d] = f
            for i, c in enumerate(other.coeffs):
                r[len(r) - 1 - d + i] -= f * c
            r.pop()
        return Polynomial.of(q), Polynomial.of(r)

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[1]

    def derivative(self) -> "Polynomial":
        return Polynomial.of([k * c for k, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Polynomial":
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial has no monic form")
        lead = self.coeffs[-1]
        return Polynomial.of([c / lead for c in self.coeffs])

    def gcd(self, other: "Polynomial") -> "Polynomial":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def eval_matrix(self, m: Matrix) -> Matrix:
        if m.mode == APPROX:
            acc = Matrix.zero(m.n, APPROX, m.tol)
            ident = Matrix.identity(m.n, APPROX, m.tol)
            for c in reversed(self.coeffs):
                acc = acc @ m + ident.scale(c)
            return acc
        # p(N/d) = sum_k (a_k/q) N^k d^-k = (sum_k a_k d^(deg-k) N^k) / (q d^deg),
        # the sum by integer Horner steps
        if self.is_zero():
            return Matrix.zero(m.n, EXACT, m.tol)
        nums, d = _scaled(m.data)
        q = lcm(*[c.denominator for c in self.coeffs])
        diag = np.arange(m.n)
        acc = np.zeros((m.n, m.n), dtype=object)
        for k, c in enumerate(reversed(self.coeffs)):
            acc = np.dot(acc, nums)
            acc[diag, diag] += c.numerator * (q // c.denominator) * d ** k
        return Matrix(_unscaled(acc, q * d ** self.degree), EXACT, m.tol)

    def compose_shift(self, a: Fraction) -> "Polynomial":
        """Coefficients of p(t + a)."""
        out = Polynomial.of([])
        shift = Polynomial.of([a, 1])
        power = Polynomial.of([1])
        for c in self.coeffs:
            out = out + power.scale(c)
            power = power * shift
        return out

    def is_even(self) -> bool:
        return all(c == 0 for c in self.coeffs[1::2])

    def even_part_in_square(self) -> "Polynomial":
        """For an even polynomial p, the r with r(t^2) = p(t)."""
        if not self.is_even():
            raise ValueError("polynomial is not even")
        return Polynomial.of(self.coeffs[0::2])

    def to_sympy(self):
        return sympy.Poly(list(reversed(self.coeffs)), _SYMPY_T, domain="QQ")

    @staticmethod
    def from_sympy(p) -> "Polynomial":
        cs = [Fraction(c.p, c.q) for c in reversed(p.all_coeffs())]
        return Polynomial.of(cs)

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self.coeffs]})"


def char_poly(m: Matrix) -> Polynomial:
    """Characteristic polynomial det(tI - m), exact rational coefficients.

    Faddeev-LeVerrier recursion on the integer matrix N = d * m, where every
    trace division is exact; the coefficient of t^(n-k) is then c_k(N) / d^k.
    Float entries are lifted to exact rationals first so one code path
    serves both modes.
    """
    n = m.n
    if m.mode == APPROX:
        m = Matrix.exact([[Fraction(float(x)) for x in row] for row in m.data])
    nums, d = _scaled(m.data)
    diag = np.arange(n)
    coeffs = [Fraction(1)]  # c_{n-k}, starting with leading 1
    mk = np.identity(n, dtype=object)
    for k in range(1, n + 1):
        am = np.dot(nums, mk)
        ck = -sum(am[diag, diag]) // k
        coeffs.append(Fraction(ck, d ** k))
        mk = am
        mk[diag, diag] += ck
    return Polynomial.of(list(reversed(coeffs)))


def squarefree_part(p: Polynomial) -> Polynomial:
    """p / gcd(p, p'), monic."""
    if p.is_zero():
        raise ZeroPolynomial("squarefree part of the zero polynomial")
    g = p.gcd(p.derivative())
    if g.is_zero() or g.degree == 0:
        return p.monic()
    q, r = p.divmod(g)
    assert r.is_zero()
    return q.monic()


def irreducible_factors(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Monic irreducible factors over the rationals with multiplicities."""
    if p.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    _, factors = p.to_sympy().factor_list()
    out = [(Polynomial.from_sympy(q).monic(), int(e)) for q, e in factors]
    out.sort(key=lambda fe: (fe[0].degree, fe[0].coeffs))
    return out


def count_real_roots(p: Polynomial, lo=None, hi=None) -> int:
    """Number of real roots in [lo, hi] (endpoints included; None = unbounded)."""
    sp = p.to_sympy()
    lo = -sympy.oo if lo is None else sympy.Rational(lo.numerator, lo.denominator)
    hi = sympy.oo if hi is None else sympy.Rational(hi.numerator, hi.denominator)
    return int(sp.count_roots(lo, hi))


def rational_eigenvalues(m: Matrix) -> list[Fraction] | None:
    """Distinct eigenvalues of an exact matrix, ascending; None unless all are rational."""
    factors = irreducible_factors(char_poly(m))
    if any(q.degree > 1 for q, _ in factors):
        return None
    return sorted(-q.coeffs[0] for q, _ in factors)


# -- spectra ---------------------------------------------------------------------


@dataclass(frozen=True)
class Spectrum:
    """Clustered eigenvalues: ((value, multiplicity), ...), multiplicities sum to n."""

    clusters: tuple[tuple[complex, int], ...]

    def values(self) -> list[complex]:
        return [v for v, _ in self.clusters]

    def total(self) -> int:
        return sum(k for _, k in self.clusters)


def _factor_roots(q: Polynomial) -> list[complex]:
    """Roots of one monic irreducible rational polynomial, as complex floats."""
    if q.degree == 1:
        return [complex(float(-q.coeffs[0]))]
    if q.degree == 2:
        b, c = q.coeffs[1], q.coeffs[0]
        disc = b * b - 4 * c
        if disc < 0:
            re = float(-b) / 2.0
            im = float(np.sqrt(float(-disc))) / 2.0
            return [complex(re, im), complex(re, -im)]
        rt = float(np.sqrt(float(disc)))
        return [complex((float(-b) + rt) / 2.0), complex((float(-b) - rt) / 2.0)]
    coeffs = [float(c) for c in reversed(q.coeffs)]
    return [complex(z) for z in np.roots(coeffs)]


def _cluster_values(values: np.ndarray, radius: float) -> list[tuple[complex, int]]:
    """Single-linkage clustering of complex values at the given merge radius."""
    m = len(values)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if abs(values[i] - values[j]) <= radius:
                parent[find(i)] = find(j)
    groups: dict[int, list[complex]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(complex(values[i]))
    clusters = []
    for vals in groups.values():
        center = sum(vals) / len(vals)
        if abs(center.imag) <= radius:
            center = complex(center.real, 0.0)
        clusters.append((center, len(vals)))
    clusters.sort(key=lambda ck: (ck[0].real, ck[0].imag))
    return clusters


def spectrum(m: Matrix) -> Spectrum:
    """Eigenvalues with clustering.

    Exact mode factors the characteristic polynomial over the rationals and
    reads roots off linear and quadratic factors exactly (float roots for
    higher irreducible factors).  Approx mode clusters the float eigenvalues
    at radius tol * (1 + ||m||) and raises ClusterAmbiguity when two cluster
    centers are within twice that radius.
    """
    if m.mode == EXACT:
        clusters: list[tuple[complex, int]] = []
        for q, e in irreducible_factors(char_poly(m)):
            for root in _factor_roots(q):
                clusters.append((root, e))
        clusters.sort(key=lambda ck: (ck[0].real, ck[0].imag))
        return Spectrum(tuple(clusters))
    radius = m.abs_tol()
    values = np.linalg.eigvals(m.data)
    clusters = _cluster_values(values, radius)
    for i in range(len(clusters)):
        for j in range(i + 1, len(clusters)):
            gap = abs(clusters[i][0] - clusters[j][0])
            if gap < 2.0 * radius:
                raise ClusterAmbiguity(
                    f"clusters {clusters[i][0]} and {clusters[j][0]} are separated "
                    f"by {gap:.3e} < twice the merge radius {radius:.3e}"
                )
    return Spectrum(tuple(clusters))


def nullspace(m: Matrix) -> list[np.ndarray]:
    """Basis of the kernel of m.

    Exact mode uses rational elimination; approx mode thresholds singular
    values at tol * (1 + ||m||).
    """
    if m.mode == EXACT:
        basis = exact_nullspace([list(r) for r in m.data])
        return [np.array(v, dtype=object) for v in basis]
    _, s, vt = np.linalg.svd(m.data)
    thresh = m.abs_tol()
    small = [i for i in range(m.n) if (s[i] if i < len(s) else 0.0) <= thresh]
    return [vt[i].copy() for i in small]


def float_rank(a: np.ndarray, thresh: float) -> int:
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s > thresh))


# -- JSON wire format --------------------------------------------------------------
#
# {"mode": "exact"|"approx", "entries": [[...rows...]]}, row-major; exact
# entries are strings "p/q" in lowest terms with q > 0, approx entries are
# JSON numbers.


def fraction_to_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def matrix_to_json(m: Matrix) -> dict:
    if m.mode == EXACT:
        entries = [[fraction_to_str(x) for x in row] for row in m.data]
        return {"mode": "exact", "entries": entries}
    return {"mode": "approx", "entries": [[float(x) for x in row] for row in m.data]}


def matrix_from_json(obj: dict, tol: float = DEFAULT_TOL) -> Matrix:
    if not isinstance(obj, dict) or "mode" not in obj or "entries" not in obj:
        raise ValueError("matrix JSON needs 'mode' and 'entries'")
    mode = obj["mode"]
    entries = obj["entries"]
    if not isinstance(entries, list) or not entries:
        raise ValueError("'entries' must be a non-empty list of rows")
    if mode == "exact":
        return Matrix.exact([[_as_fraction(x) for x in row] for row in entries])
    if mode == "approx":
        return Matrix.approx(entries, tol=tol)
    raise ValueError(f"unknown matrix mode {mode!r}")
