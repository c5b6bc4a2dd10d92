"""Exact-rational and tolerance-controlled floating matrix arithmetic.

Two numeric tracks share one ``Matrix`` type: exact matrices are rational,
approximate ones float64.  Exact is the default for triangular, nilpotent
and rational-spectrum inputs; float (with a relative tolerance) is only
needed when eigenvalues are irrational.  Mixed-mode arithmetic promotes
exact operands to the float track.

An exact matrix carries one scaled-integer form, ``Matrix.ints == (nums,
d)``: an object array of Python ints and a positive int ``d``, reduced so
that ``gcd(d, *nums) == 1`` (``d`` is then the lcm of the entry
denominators).  The exact kernels run on it: ``+``, ``-``, ``@``, ``scale``,
``trace``, ``T``, equality and ``float_array`` here, ``_span.bracket`` and
``liealg``'s trace forms, polynomial evaluation, the characteristic
polynomial (Faddeev-LeVerrier, n - 2 matrix products for an n x n matrix)
and fraction-free (Bareiss) ``det``/``inv``.
A kernel's result is built from its integer output and reduced once.
``Matrix.data``, the read-only array of reduced ``Fraction`` entries that
``entry``/``rows``/``vec``, hashing and the JSON wire format read, is built
from ``ints`` on first access, and ``ints`` from ``data`` for matrices
constructed from entries.

``Subspace`` (echelon rows as lists of Python ints) is the one exact row
reduction: ``_kernel`` (int kernel rows), ``rref``, ``exact_nullspace`` and
``exact_solve`` read one, and Bareiss stays the square determinant and
inverse kernel.  ``FloatSubspace``, its float twin, answers every float span
question by one residual rule; singular values remain for rank (of a stack
in one ``float_rank`` call) and kernels (``nullspace``).  ``Polynomial``, its
factors and every root question live in ``polynomial``; this module builds
``char_poly`` (on ``ints``) and ``spectrum`` from them.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from math import frexp, gcd, isfinite, isqrt, lcm, ldexp
from operator import mul, truediv
from typing import Sequence

import numpy as np

from .errors import ClusterAmbiguity, NotInvertible, NumericalFailure, PostconditionFailed
# perfbench/tracer.py looks squarefree_part, irreducible_factors and count_real_roots up here
from .polynomial import (Polynomial, _as_fraction, count_real_roots, irreducible_factors,
                         squarefree_part)

EXACT = "exact"
APPROX = "approx"
DEFAULT_TOL = 1e-8
_TINY = float(np.finfo(float).tiny)  # the smallest normal float
_EPS = float(np.finfo(float).eps)


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


def _reduced(nums: np.ndarray, d: int) -> tuple[np.ndarray, int]:
    """(nums, d) for d != 0 -> the same quotient with d > 0 and gcd(d, *nums) == 1."""
    if d < 0:
        nums, d = -nums, -d
    g = gcd(d, *nums.flat)
    if g != 1:
        nums, d = nums // g, d // g
    return nums, d


class Matrix:
    """Square real matrix, either exact-rational or float with a tolerance.

    Values are immutable after construction and safe to share between
    threads.  ``tol`` is a relative tolerance; the effective threshold for
    "numerically zero" is ``tol * (1 + frobenius norm)``.

    An exact matrix has ``data`` (reduced ``Fraction`` entries) and ``ints``
    (the reduced scaled-integer form, see the module docstring); it is built
    with one of them and derives the other on first access.  Two threads
    racing on that first access compute equal values.  Both are properties
    over the slots ``_data`` and ``_ints``, and the float track reads
    ``_data`` directly.
    """

    __slots__ = ("n", "mode", "tol", "_data", "_ints")

    def __init__(self, data: np.ndarray, mode: str, tol: float = DEFAULT_TOL):
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise ValueError("matrix must be square")
        if mode not in (EXACT, APPROX):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == APPROX:
            if data.dtype != np.float64:  # a float64 array is taken as it is
                data = data.astype(float)
            _finite(data)  # inputs are checked in Matrix.approx
        object.__setattr__(self, "n", data.shape[0])
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "_data", data)
        object.__setattr__(self, "tol", float(tol))
        data.setflags(write=False)

    @property
    def data(self) -> np.ndarray:
        """Read-only entries: float64, or reduced Fractions on the exact track."""
        try:
            return self._data
        except AttributeError:  # an exact kernel's output, built from its ints
            data = _unscaled(*self._ints)
            data.setflags(write=False)
            object.__setattr__(self, "_data", data)
            return data

    @property
    def ints(self) -> tuple[np.ndarray, int]:
        """Exact track: (nums, d), the entries are nums / d, d > 0 and gcd(d, *nums) == 1."""
        try:
            return self._ints
        except AttributeError:
            if self.mode != EXACT:
                raise AttributeError("a float matrix has no integer form") from None
            nums, d = _scaled(self._data)
            nums.setflags(write=False)
            object.__setattr__(self, "_ints", (nums, d))
            return nums, d

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_ints(nums: np.ndarray, d: int, tol: float = DEFAULT_TOL) -> "Matrix":
        """The exact matrix nums / d, for a square object array of ints and an int d != 0."""
        if nums.ndim != 2 or nums.shape[0] != nums.shape[1]:
            raise ValueError("matrix must be square")
        nums, d = _reduced(nums, d)
        m = object.__new__(Matrix)
        object.__setattr__(m, "n", nums.shape[0])
        object.__setattr__(m, "mode", EXACT)
        object.__setattr__(m, "tol", float(tol))
        nums.setflags(write=False)
        object.__setattr__(m, "_ints", (nums, d))
        return m

    @staticmethod
    def exact(rows: Sequence[Sequence], tol: float = DEFAULT_TOL) -> "Matrix":
        arr = np.empty((len(rows), len(rows)), dtype=object)
        for i, row in enumerate(rows):
            if len(row) != len(rows):
                raise ValueError("matrix must be square")
            for j, x in enumerate(row):
                arr[i, j] = _as_fraction(x)
        return Matrix(arr, EXACT, tol)

    @staticmethod
    def approx(rows, tol: float = DEFAULT_TOL) -> "Matrix":
        data = np.array(rows, dtype=float)
        if not np.isfinite(data).all():
            raise ValueError("entries must be finite")
        return Matrix(data, APPROX, tol)

    @staticmethod
    def identity(n: int, mode: str = EXACT, tol: float = DEFAULT_TOL) -> "Matrix":
        if mode == EXACT:
            return Matrix.from_ints(np.identity(n, dtype=object), 1, tol)
        return Matrix(np.eye(n), APPROX, tol)

    @staticmethod
    def zero(n: int, mode: str = EXACT, tol: float = DEFAULT_TOL) -> "Matrix":
        if mode == EXACT:
            return Matrix.from_ints(np.zeros((n, n), dtype=object), 1, tol)
        return Matrix(np.zeros((n, n)), APPROX, tol)

    @staticmethod
    def diagonal(values: Sequence, mode: str = EXACT, tol: float = DEFAULT_TOL) -> "Matrix":
        if mode == EXACT:
            return Matrix.exact([[v if i == j else 0 for j in range(len(values))]
                                 for i, v in enumerate(values)], tol)
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
        return _norm(self.float_array().ravel())

    def abs_tol(self) -> float:
        """Effective absolute threshold: tol * (1 + ||m||)."""
        return _abs_tol(self.tol, self.norm())

    def float_array(self) -> np.ndarray:
        if self.mode == APPROX:
            return self._data
        if self.n == 0:
            return np.zeros((0, 0))
        nums, d = self.ints  # int / int is correctly rounded, as float(Fraction) is
        return np.array([[p / d for p in row] for row in nums])

    def to_approx(self, tol: float | None = None) -> "Matrix":
        if self.mode == APPROX and (tol is None or tol == self.tol):
            return self
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
            return not any(self.ints[0].flat)
        t = self.abs_tol() if tol is None else tol
        return bool((np.abs(self._data) <= t).all())

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
        if a.mode == EXACT:
            return _sum_ints(a.ints, b.ints, 1, tol)
        return Matrix(a._data + b._data, a.mode, tol)

    def __sub__(self, other: "Matrix") -> "Matrix":
        a, b, tol = self._pair(other)
        if a.mode == EXACT:
            return _sum_ints(a.ints, b.ints, -1, tol)
        return Matrix(a._data - b._data, a.mode, tol)

    def __neg__(self) -> "Matrix":
        if self.mode == EXACT:
            nums, d = self.ints
            return Matrix.from_ints(-nums, d, self.tol)
        return Matrix(-self._data, self.mode, self.tol)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        a, b, tol = self._pair(other)
        if a.mode == EXACT:
            (na, da), (nb, db) = a.ints, b.ints
            return Matrix.from_ints(np.dot(na, nb), da * db, tol)
        return Matrix(np.dot(a._data, b._data), APPROX, tol)

    def scale(self, c) -> "Matrix":
        if self.mode == EXACT and isinstance(c, (int, np.integer, Fraction)):
            c = _as_fraction(c)
            nums, d = self.ints
            return Matrix.from_ints(nums * c.numerator, d * c.denominator, self.tol)
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
        if self.mode == EXACT:
            nums, d = self.ints
            return Matrix.from_ints(nums.T.copy(), d, self.tol)
        return Matrix(self._data.T.copy(), self.mode, self.tol)

    def trace(self):
        if self.mode == EXACT:
            nums, d = self.ints
            return Fraction(sum(nums.diagonal()), d)
        return sum(self._data[i, i] for i in range(self.n))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.n != other.n or self.mode != other.mode:
            return False
        if self.mode == EXACT:  # the reduced form is unique, so compare it
            (na, da), (nb, db) = self.ints, other.ints
            return da == db and bool((na == nb).all())
        return bool((self._data == other._data).all())

    def __hash__(self):
        return hash((self.n, self.mode, tuple(self.vec())))

    def __repr__(self) -> str:
        return f"Matrix({self.rows()!r}, mode={self.mode!r})"

    def det(self):
        if self.mode == EXACT:
            return _det_exact(*self.ints)
        return float(np.linalg.det(self._data))

    def inv(self) -> "Matrix":
        if self.mode == EXACT:
            out = _inv_exact(*self.ints)
            if out is None:
                raise NotInvertible("exact matrix is singular")
            return out
        return Matrix(_inv_float(self._data, self.tol), APPROX, self.tol)

    def is_invertible(self) -> bool:
        if self.mode == EXACT:
            return self.det() != 0
        return _invertible_float(self._data, self.tol)


def _abs_tol(tol: float, size: float) -> float:
    """The absolute threshold of a matrix of Frobenius norm size at relative tol."""
    return tol * (1.0 + size)


def _finite(a: np.ndarray) -> np.ndarray:
    """a, once every entry is finite: the check each float ``Matrix`` makes."""
    if not np.isfinite(a).all():
        raise NumericalFailure("a float result left the float range")
    return a


def _check_reassembly(whole: np.ndarray, a: np.ndarray, tol: float, complaint: str):
    """PostconditionFailed(complaint) unless whole = a within tol (1 + ||a||) in every entry,
    after NumericalFailure where whole - a is not finite (as a float ``Matrix`` of it raises)."""
    with np.errstate(over="ignore", invalid="ignore"):
        diff = whole - a
    if not (np.abs(diff) <= _abs_tol(tol, _norm(a.ravel()))).all():
        _finite(diff)
        raise PostconditionFailed(complaint)


def _invertible_float(a: np.ndarray, tol: float) -> bool:
    # every singular value exceeds tol (1 + ||a||); a 0 x 0 a has none, as its exact det is 1
    return bool(min(np.linalg.svd(a, compute_uv=False), default=np.inf)
                > _abs_tol(tol, _norm(a.ravel())))


def _inv_float(a: np.ndarray, tol: float) -> np.ndarray:
    """a^-1 for a float array a that ``_invertible_float`` accepts; else NotInvertible."""
    try:
        if _invertible_float(a, tol):
            return np.linalg.inv(a)
    except np.linalg.LinAlgError:  # at tol 0 a pivot can vanish although no singular value does
        pass
    raise NotInvertible("matrix is singular at the working tolerance")


def _norm(flat: np.ndarray) -> float:
    """Euclidean norm, rescaled only if the sum of squares leaves the normal range."""
    squares = np.vdot(flat, flat)  # np.dot would warn where the sum overflows; vdot gives inf
    if _TINY <= squares and isfinite(squares):
        return float(np.sqrt(squares))
    big = np.abs(flat).max(initial=0.0)
    return float(big * np.linalg.norm(flat / big)) if big else 0.0


def _sum_ints(a: tuple[np.ndarray, int], b: tuple[np.ndarray, int], sign: int,
              tol: float) -> Matrix:
    """na/da + sign * nb/db over lcm(da, db)."""
    (na, da), (nb, db) = a, b
    if da == db:
        return Matrix.from_ints(na + nb if sign > 0 else na - nb, da, tol)
    d = lcm(da, db)
    return Matrix.from_ints(na * (d // da) + nb * (sign * (d // db)), d, tol)


# -- exact elimination: the integer echelon Subspace, and Bareiss det/inv ------


class _Span:
    """What ``Subspace`` and ``FloatSubspace`` share: the rank, and coordinates from ``_solve``."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self._picked)

    def coords(self, v) -> list | None:
        """Coordinates of v in the added vectors, or None if v is outside the span.

        Vectors that did not raise the rank get coordinate 0, as the free
        variables of ``exact_solve`` do.
        """
        solved = self._solve(v)
        if solved is None:
            return None
        out = [self._coord(0, 1)] * self._added
        for picked, x in zip(self._picked, solved[0]):
            out[picked[0]] = self._coord(x, solved[1])
        return out


class Subspace(_Span):
    """Exact span of rational vectors, kept in reduced row echelon form.

    The only exact row reduction: ``_kernel``, ``rref``, ``exact_nullspace``
    and ``exact_solve`` read one.  Row i of ``rows`` has a 1 in column
    pivots[i] and a 0 in every other pivot column.  Each row is stored as a
    primitive list of Python ints with a positive pivot entry, so
    elimination runs on Python ints (which never wrap) without numpy's
    per-call cost on these short rows; a matrix enters by its ``ints`` form
    (``nums.reshape(-1).tolist()``) and a list of rationals by its
    numerators over their lcm.  The added vectors that raised the rank are
    kept as they came; ``_solve`` reads int coordinates in them (``coords``
    is its ``Fraction`` form) through the inverse of their block on the
    pivot columns, computed (Bareiss) on the first call after the rank last
    rose.  Vectors of different lengths raise ``ValueError``.
    """

    __slots__ = ("pivots", "length", "_rows", "_heads", "_lcm", "_picked", "_added", "_inv")
    _coord = staticmethod(Fraction)

    def __init__(self, vecs=()):
        self.pivots: list[int] = []
        self.length: int | None = None
        # row i of the echelon form is _rows[i] / _heads[i], _heads[i] = _rows[i][pivots[i]] > 0
        self._rows: list[list[int]] = []
        self._heads: list[int] = []
        self._lcm = 1  # of the heads
        # (index, nums, d): added vector number index was nums / d and raised the rank
        self._picked: list[tuple[int, list[int], int]] = []
        self._added = 0
        self._inv: tuple[list[list[int]], int] | None = None  # of the picked block, see coords
        for v in vecs:
            self.add(v)

    @property
    def rows(self) -> list[list[Fraction]]:
        """The echelon rows as rationals, each with a 1 at its pivot."""
        return [[Fraction(x, h) for x in r] for r, h in zip(self._rows, self._heads)]

    def _reduce(self, v) -> tuple[list[int], int, list[int]]:
        """(a, d, res): v = a / d in ints, and res = lcm(heads) * a - coef . rows.

        coef[i] = a[pivots[i]] * lcm(heads) / heads[i], so res is lcm(heads) * d
        times v minus its projection along the echelon rows; it is 0 at every pivot.
        A row with coefficient 0 is skipped: each row is 0 at the other pivots.
        """
        if isinstance(v, Matrix):
            nums, d = v.ints
            a = nums.reshape(-1).tolist()
        else:
            a, d = list(v), 1  # int lists, as the Lie helpers pass, are read as they are
            if not all(type(x) is int for x in a):
                # int(): numpy integer entries would wrap on overflow
                d = lcm(*(int(x.denominator) for x in a))
                a = [int(x.numerator) * (d // int(x.denominator)) for x in a]
        if self.length is not None and len(a) != self.length:
            raise ValueError(f"a length-{len(a)} vector in a span of length-{self.length} vectors")
        big = self._lcm
        res = [big * x for x in a] if big != 1 else a
        for p, h, row in zip(self.pivots, self._heads, self._rows):
            c = a[p]
            if c:
                c *= big // h
                res = [x - c * y for x, y in zip(res, row)]
        return a, d, res

    def add(self, v) -> bool:
        """Adjoin v to the span; True when the rank rises."""
        a, d, res = self._reduce(v)
        if self.length is None:
            self.length = len(a)
        self._added += 1
        p = next((i for i, x in enumerate(res) if x), None)
        if p is None:
            return False
        g = gcd(*res) if res[p] > 0 else -gcd(*res)
        row = [x // g for x in res]
        head = row[p]
        # clear column p from the rows above, the only ones with an entry there;
        # each stays primitive with a positive head
        at = bisect(self.pivots, p)
        for i in range(at):
            f = self._rows[i][p]
            if f:
                r = [head * x - f * y for x, y in zip(self._rows[i], row)]
                g = gcd(*r)
                self._rows[i] = r = [x // g for x in r]
                self._heads[i] = r[self.pivots[i]]
        self._rows.insert(at, row)
        self.pivots.insert(at, p)
        self._heads.insert(at, head)
        self._lcm = lcm(*self._heads)
        self._picked.append((self._added - 1, a, d))
        self._inv = None
        return True

    def __contains__(self, v) -> bool:
        return not any(self._reduce(v)[2])

    def _solve(self, v) -> tuple[list[int], int] | None:
        """(x, den): v = sum_k x[k] / den times the k-th added vector that raised the rank.

        None if v is outside the span.  The picked vectors nums_k / d_k are
        independent, so their block B[k, i] = nums_k[pivots[i]] is invertible,
        and v = sum_k c_k nums_k / d_k gives c_k = d_k (v[pivots] B^-1)_k.
        """
        a, d, res = self._reduce(v)
        if any(res):
            return None
        if not self.pivots:
            return [], d
        if self._inv is None:
            block = [[nums[p] for p in self.pivots] for _, nums, _ in self._picked]
            inv, den = _inv_exact(block, 1).ints
            # column k of B^-1 / den, times d_k
            self._inv = [[dk * x for x in col] for col, (_, _, dk) in
                         zip(inv.T.tolist(), self._picked)], den
        cols, den = self._inv
        at = [a[p] for p in self.pivots]
        return [sum(map(mul, at, col)) for col in cols], d * den

    def matrices(self) -> list[Matrix]:
        """The echelon rows as square exact matrices."""
        n = isqrt(self.length or 0)
        return [Matrix.from_ints(np.array(r, dtype=object).reshape(n, n), h)
                for r, h in zip(self._rows, self._heads)]


class FloatSubspace(_Span):
    """Float twin of ``Subspace``, with its interface, kept as orthonormal rows.

    One rule decides rank and membership: v is in the span exactly when the
    norm of its residual after projection on the rows (Gram-Schmidt run
    twice, Björck 1994) is at most ``tol``, the largest of the span's floor
    and of the ``abs_tol`` of v and of the vectors that raised the rank (an
    array has none), or at most rounding, length * eps * |v|.  ``add``
    raises the rank exactly when v is not in the span, and never past the
    vector length, so adding until nothing is new ends at every tolerance.
    ``coords`` are least squares over the vectors that raised the rank.
    """

    __slots__ = ("length", "tol", "rows", "_picked", "_added", "_mtol")
    _coord = staticmethod(truediv)  # x / 1: the float x

    def __init__(self, vecs=(), tol: float = 0.0):
        self.length: int | None = None
        self.tol = float(tol)
        self.rows = np.empty((0, 0))  # orthonormal, one per rank raiser
        self._picked: list[tuple[int, np.ndarray]] = []  # (index, vector) of each rank raiser
        self._added = 0
        self._mtol = 0.0  # the largest Matrix.tol of a rank raiser
        for v in vecs:
            self.add(v)

    def _reduce(self, v) -> tuple[np.ndarray, float, np.ndarray, bool]:
        """(x, abs_tol, residual, in the span) for v; the residual is that of x 2^k (below)."""
        x = (v.float_array() if isinstance(v, Matrix) else np.asarray(v, dtype=float)).ravel()
        size = _norm(x)
        t = _abs_tol(v.tol, size) if isinstance(v, Matrix) else 0.0  # v.abs_tol(), from size
        # rounding is a share of the size only in the normal range, so an x whose rounding
        # falls below it is projected as x 2^k at unit size (exact), and r is compared unscaled
        k = -frexp(size)[1] if 0 < size < _TINY / (len(x) * _EPS) else 0
        r = np.ldexp(x, k) if k else x
        rounding = len(x) * _EPS * (_norm(r) if k else size)
        if self.length is not None:
            if len(x) != self.length:
                raise ValueError(f"a length-{len(x)} vector in a span of length-{self.length} "
                                 "vectors")
            for _ in range(2):
                r = r - (self.rows @ r) @ self.rows
        res = _norm(r)
        inside = res <= rounding or ldexp(res, -k) <= max(self.tol, t)
        return x, t, r, len(self) == self.length or inside

    def add(self, v) -> bool:
        """Adjoin v to the span; True when the rank rises."""
        x, t, r, inside = self._reduce(v)
        if self.length is None:
            self.length, self.rows = len(x), np.empty((0, len(x)))
        self._added += 1
        if inside:
            return False
        u = r / _norm(r)
        u = u - (self.rows @ u) @ self.rows  # once more at unit scale: r may be near rounding
        self.rows = np.vstack([self.rows, u / _norm(u)])
        self._picked.append((self._added - 1, x))
        self.tol = max(self.tol, t)
        if isinstance(v, Matrix):
            self._mtol = max(self._mtol, v.tol)
        return True

    def __contains__(self, v) -> bool:
        return self._reduce(v)[3]

    def _solve(self, v) -> tuple[list[float], int] | None:
        """(x, 1): v = sum_k x[k] times the k-th rank raiser, by least squares; None if outside."""
        x, _, _, inside = self._reduce(v)
        if not inside:
            return None
        if not self._picked:
            return [], 1
        sol = np.linalg.lstsq(np.array([p for _, p in self._picked]).T, x, rcond=None)[0]
        return [float(c) for c in sol], 1

    def matrices(self) -> list[Matrix]:
        """The rows as square float matrices, at the largest tol of the rank raisers."""
        n = isqrt(self.length or 0)
        return [Matrix(row.reshape(n, n).copy(), APPROX, self._mtol) for row in self.rows]


def rref(rows: list[list]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals; returns (rows, pivot cols).

    The rows are those of ``Subspace(rows)``, padded with zero rows to the
    input's count.
    """
    space = Subspace(rows)
    ncols = len(rows[0]) if rows else 0
    zeros = [[Fraction(0)] * ncols for _ in range(len(rows) - len(space))]
    return space.rows + zeros, space.pivots


def _kernel(rows) -> tuple[list[list[int]], int]:
    """(K, L): the right kernel of a rational matrix is spanned by the int rows K[j] / L.

    L is the lcm of the echelon heads.  One vector per free column c of the
    echelon form: L at c, -L * row[c] / head at each echelon row's pivot, 0
    elsewhere.
    """
    space = Subspace(rows)
    big = space._lcm
    kernel = []
    for c in (c for c in range(space.length or 0) if c not in space.pivots):
        v = [0] * space.length
        v[c] = big
        for p, row, head in zip(space.pivots, space._rows, space._heads):
            v[p] = -row[c] * (big // head)
        kernel.append(v)
    return kernel, big


def exact_nullspace(rows: list[list]) -> list[list[Fraction]]:
    """Basis of the right kernel of a rational matrix (rows of coefficients).

    One vector per free column c of the echelon form: 1 at c, minus the
    echelon rows' entries in column c at their pivots, 0 elsewhere.
    """
    kernel, big = _kernel(rows)
    return [[Fraction(x, big) for x in v] for v in kernel]


def exact_solve(rows: list[list], rhs: list) -> list[Fraction] | None:
    """One solution of A x = b over the rationals, or None if inconsistent.

    The coordinates of b in the columns of A; free variables are 0.
    """
    return Subspace(zip(*rows)).coords(rhs)


def _combine(coeffs: Sequence[int], mats: list[Matrix], n: int, den: int = 1) -> Matrix:
    """sum_i coeffs[i] * mats[i] / den for int coeffs and exact n x n mats, as one int sum."""
    terms = [(c, m) for c, m in zip(coeffs, mats) if c]
    d = lcm(*(m.ints[1] for _, m in terms))
    acc = np.zeros((n, n), dtype=object)
    for c, m in terms:
        nums, dm = m.ints
        acc += nums * (c * (d // dm))
    return Matrix.from_ints(acc, d * den, max([DEFAULT_TOL] + [m.tol for _, m in terms]))


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


def _det_exact(nums: np.ndarray, d: int) -> Fraction:
    """det(N / d) = det(N) / d^n."""
    det, sign = _bareiss([list(r) for r in nums])
    return Fraction(sign * det, d ** len(nums))


def _inv_exact(nums: np.ndarray, d: int) -> Matrix | None:
    """(N / d)^-1 = d * N^-1: Gauss-Jordan takes [N | d*I] to [D*I | D*d*N^-1]."""
    n = len(nums)
    rows = [list(r) + [d * (i == j) for j in range(n)] for i, r in enumerate(nums)]
    det, _ = _bareiss(rows)
    if det == 0:
        return None
    right = np.empty((n, n), dtype=object)
    right.flat = [x for r in rows for x in r[n:]]
    return Matrix.from_ints(right, det)


# -- characteristic polynomials and spectra ---------------------------------------


def char_poly(m: Matrix) -> Polynomial:
    """Characteristic polynomial det(tI - m), exact rational coefficients.

    Faddeev-LeVerrier recursion on the integer matrix N = d * m, where every
    trace division is exact; the coefficient of t^(n-k) is then c_k(N) / d^k.
    Of the products N M_(k-1) it forms those for k = 2 .. n - 1, n - 2 in
    all: N M_0 = N, and the last is read only through its trace.  Float
    entries are lifted to exact rationals first so one code path serves both
    modes.
    """
    n = m.n
    if m.mode == APPROX:
        m = Matrix.exact([[Fraction(float(x)) for x in row] for row in m.data])
    nums, d = m.ints
    diag = np.arange(n)
    ints = [d ** n]  # c_k(N) * d^(n-k) from k = 0 on; made primitive, the int form
    mk = np.identity(n, dtype=object)  # M_0
    for k in range(1, n):
        mk = nums.copy() if k == 1 else np.dot(nums, mk)  # N M_(k-1)
        ck = -sum(mk[diag, diag]) // k
        ints.append(ck * d ** (n - k))
        mk[diag, diag] += ck  # M_k
    if n:  # tr(N M_(n-1)) is the sum of the entrywise product of N and M_(n-1)^T
        ints.append(-(nums * mk.T).sum() // n)
    g = gcd(*ints)
    ints = tuple(c // g for c in reversed(ints))
    out = Polynomial.of([Fraction(c, ints[-1]) for c in ints])
    object.__setattr__(out, "ints", ints)
    return out


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


def _cluster_values(values: list[complex], radius: float) -> list[tuple[complex, int]]:
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
    values = np.linalg.eigvals(m.data).tolist()  # Python numbers: no numpy scalar per pair
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

    Exact mode reads it off the integer echelon form; approx mode thresholds singular
    values at tol * (1 + ||m||).
    """
    if m.mode == EXACT:
        return [np.array(v, dtype=object) for v in exact_nullspace(m.ints[0].tolist())]
    return list(_svd_kernel(m.data, m.abs_tol(), m.n))


def _svd_kernel(a: np.ndarray, tol: float, width: int) -> np.ndarray:
    """Orthonormal rows spanning the kernel of a (width columns): singular values <= tol."""
    if a.shape[0] == 0:
        return np.eye(width)
    _, s, vt = np.linalg.svd(a)
    return vt[int((s > tol).sum()):]


def float_rank(a: np.ndarray, thresh: float):
    """Singular values above thresh: of a, or of each matrix of a stack (... x m x n), one SVD."""
    return (np.linalg.svd(a, compute_uv=False) > thresh).sum(axis=-1)


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
        return Matrix.exact(entries, tol=tol)
    if mode == "approx":
        return Matrix.approx(entries, tol=tol)
    raise ValueError(f"unknown matrix mode {mode!r}")
