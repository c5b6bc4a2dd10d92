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
in one ``float_rank`` call) and kernels (``nullspace``).  ``Polynomial``
arithmetic stays on ``Fraction``; its int forms, each built once, are ``ints``,
the primitive int multiple, and ``sturm``, the Sturm sequence on Python ints
(exact int division, no ``Fraction`` Euclid) divided by gcd(p, p'), led by the
squarefree part, which inherits both.  Exact ``eval_matrix`` reads ``ints``;
rational roots (p-adic lifting), factors and squarefree parts read only the
head of the sequence, so its tail is divided when a real-root count first
reads it.  Spectral predicates are answered on the squarefree part without
factoring it, so only a Jordan plan (``jordan``'s exact
``multiplicative_jordan`` and ``additive_jordan``) and exact ``spectrum``
call ``irreducible_factors``: rational roots, then Zassenhaus's method
(factoring mod a prime, Musser's degree-set test, a Hensel lift and
recombination) for a rest of degree >= 4.
The library never imports sympy; only ``Polynomial.to_sympy`` and
``from_sympy`` need it.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import frexp, gcd, isfinite, isqrt, lcm, ldexp
from operator import mul, truediv
from typing import Iterable, Sequence

import numpy as np

from .errors import (ClusterAmbiguity, NotInvertible, NumericalFailure, PostconditionFailed,
                     ZeroPolynomial)

EXACT = "exact"
APPROX = "approx"
DEFAULT_TOL = 1e-8
_TINY = float(np.finfo(float).tiny)  # the smallest normal float
_EPS = float(np.finfo(float).eps)


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


# -- polynomials ----------------------------------------------------------------


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial with exact rational coefficients.

    Coefficients are stored lowest degree first; the leading coefficient is
    nonzero unless the polynomial is zero.  The int forms ``ints`` and
    ``sturm`` (with the remainders and the head it is built from) are built
    on first access and stay out of ``==``/``hash``/``repr``.
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
        r, d, lead = list(self.coeffs), other.degree, other.coeffs[-1]
        q = [Fraction(0)] * max(0, len(r) - d)
        for k in range(len(q) - 1, -1, -1):  # cancel the coefficient of t^(k+d)
            c = q[k] = r[k + d] / lead
            for i, x in enumerate(other.coeffs):
                r[k + i] -= c * x
        return Polynomial.of(q), Polynomial.of(r[:d])

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

    @cached_property
    def ints(self) -> tuple[int, ...]:
        """The primitive int multiple c * coeffs with c > 0 (lowest degree first); () for 0."""
        scale = lcm(*[c.denominator for c in self.coeffs])
        ints = [c.numerator * (scale // c.denominator) for c in self.coeffs]
        g = gcd(*ints)
        return tuple(x // g for x in ints)

    @cached_property
    def _remainders(self) -> tuple[tuple[int, ...], ...]:
        """p_0 = p != 0, p_1 = p', p_(i+1) = -(p_(i-1) mod p_i), up to p_k != 0.

        Each p_i is primitive on ints and a positive multiple of the rational
        one (pseudo-remainders divided by their content keep the ints small
        where ``Fraction`` remainders grow).  p_k is gcd(p, p') times a constant.
        """
        seq = [self.ints]
        b = [k * c for k, c in enumerate(seq[0])][1:]  # p' on ints, then made primitive
        content = gcd(*b)
        b = [c // content for c in b]
        while b:
            seq.append(b)
            b = _neg_prem(seq[-2], b)
        return tuple(map(tuple, seq))

    @cached_property
    def _sturm_head(self) -> tuple[int, ...]:
        """s_0 = p_0 / p_k: +-the primitive squarefree part of p, all that factoring reads."""
        seq = self._remainders
        return seq[0] if len(seq[-1]) == 1 else tuple(_exact_quotient(seq[0], seq[-1]))

    @cached_property
    def sturm(self) -> tuple[tuple[int, ...], ...]:
        """s_i = p_i / p_k over the remainders p_i: a Sturm sequence of s_0.

        Only root counts read the tail, so it is divided by gcd(p, p') on
        first access and the head ``_sturm_head`` on its own.
        """
        seq = self._remainders
        if len(seq[-1]) == 1:
            return seq
        return (self._sturm_head, *(tuple(_exact_quotient(s, seq[-1])) for s in seq[1:]))

    def eval_matrix(self, m: Matrix) -> Matrix:
        if m.mode == APPROX:
            return Matrix(_horner_float([float(c) for c in self.coeffs], m._data), APPROX, m.tol)
        # p = (a/b) sum_k i_k t^k for a/b = lead/i_deg, i = ints, so p(N/d) = (sum_k a i_k
        # d^(deg-k) N^k) / (b d^deg), the sum by integer Horner steps, the first a scaling
        if self.is_zero():
            return Matrix.zero(m.n, EXACT, m.tol)
        nums, d = m.ints
        lead = self.coeffs[-1]
        cs = [lead.numerator * c * d ** k for k, c in enumerate(reversed(self.ints))]
        diag = np.arange(m.n)
        acc = np.zeros((m.n, m.n), dtype=object) if len(cs) == 1 else nums * cs[0]
        for c in cs[1:-1]:
            acc[diag, diag] += c
            acc = np.dot(acc, nums)
        acc[diag, diag] += cs[-1]
        return Matrix.from_ints(acc, self.ints[-1] * lead.denominator * d ** self.degree, m.tol)

    def compose_shift(self, a: Fraction) -> "Polynomial":
        """Coefficients of p(t + a): a Taylor shift by repeated Horner steps."""
        a, cs = _as_fraction(a), list(self.coeffs)
        for i in range(len(cs) - 1):
            for j in range(len(cs) - 2, i - 1, -1):
                cs[j] += a * cs[j + 1]
        return Polynomial.of(cs)

    def is_even(self) -> bool:
        return all(c == 0 for c in self.coeffs[1::2])

    def even_part_in_square(self) -> "Polynomial":
        """For an even polynomial p, the r with r(t^2) = p(t)."""
        if not self.is_even():
            raise ValueError("polynomial is not even")
        return Polynomial.of(self.coeffs[0::2])

    def to_sympy(self):
        """This polynomial as a ``sympy.Poly`` in t over QQ; needs sympy installed."""
        import sympy  # loaded on first use only: it costs about 0.45 s to import

        return sympy.Poly(list(reversed(self.coeffs)), sympy.Symbol("t"), domain="QQ")

    @staticmethod
    def from_sympy(p) -> "Polynomial":
        """The polynomial of a ``sympy.Poly`` with rational coefficients; needs sympy installed."""
        cs = [Fraction(c.p, c.q) for c in reversed(p.all_coeffs())]
        return Polynomial.of(cs)

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self.coeffs]})"


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


def _neg_prem(a: list[int], b: list[int]) -> list[int]:
    """A primitive int polynomial that is a positive multiple of -(a mod b).

    Pseudo-division: each step scales the remainder by lc(b) before it
    cancels the leading term, so after e steps it is lc(b)^e * (a mod b).
    """
    r, lead, e = list(a), b[-1], 0
    while len(r) >= len(b):
        f, k = r[-1], len(r) - len(b)
        r = [lead * x for x in r]
        for i, c in enumerate(b):
            r[k + i] -= f * c
        e += 1
        while r and r[-1] == 0:
            r.pop()
    if not r:
        return r
    sign = -1 if lead < 0 and e % 2 else 1
    g = gcd(*r)
    return [-sign * x // g for x in r]


def _exact_quotient(a: list[int], b: list[int]) -> list[int] | None:
    """a / b for int polynomials (lowest degree first), b primitive; None unless b divides a.

    By Gauss's lemma a b that divides a over the rationals divides it over
    the ints, so each step of the long division must divide exactly.
    """
    r, lead, top = list(a), b[-1], len(b) - 1
    q = [0] * (len(a) - top)
    for k in range(len(q) - 1, -1, -1):
        q[k], rem = divmod(r[k + top], lead)
        if rem:
            return None
        for i, x in enumerate(b):
            r[k + i] -= q[k] * x
    return q if q and not any(r) else None


def squarefree_part(p: Polynomial) -> Polynomial:
    """p / gcd(p, p'), monic; it carries its int form, +-``p._sturm_head``, and p's remainders,
    whose Sturm sequence is one of the squarefree part too."""
    if p.is_zero():
        raise ZeroPolynomial("squarefree part of the zero polynomial")
    f = p._sturm_head
    out = Polynomial.of([Fraction(c, f[-1]) for c in f])
    object.__setattr__(out, "ints", f if f[-1] > 0 else tuple(-c for c in f))
    object.__setattr__(out, "_remainders", p._remainders)
    object.__setattr__(out, "_sturm_head", f)
    return out


def _horner(cs: list[int], x: int, m: int = 0) -> int:
    """The int polynomial cs (lowest degree first) at x, reduced mod m when m > 0."""
    v = 0
    for c in reversed(cs):
        v = v * x + c
        if m:
            v %= m
    return v


def _horner_float(coeffs: Sequence[float], a: np.ndarray) -> np.ndarray:
    """The polynomial coeffs (lowest degree first) at the float matrix a, by Horner steps."""
    acc = np.zeros_like(a)
    eye = np.eye(a.shape[0])
    for c in reversed(coeffs):
        acc = acc @ a + c * eye
    return acc


def _primes():
    """2, 3, 5, 7, ... by trial division."""
    p = 2
    while True:
        if all(p % d for d in range(2, isqrt(p) + 1)):
            yield p
        p += 1


def _integer_roots(q: list[int]) -> list[int]:
    """Integer roots of a monic squarefree int polynomial (lowest degree first).

    Loos, "Computing rational zeros of integral polynomials by p-adic
    expansion" (1983): at the first prime p where every root of q mod p is
    simple (true wherever q mod p is squarefree, so at all but finitely many
    p), each integer root reduces to one of the roots mod p found by trying
    all p residues, and Newton's step r <- r - q(r)/q'(r) lifts that root
    uniquely from mod m to mod m^2.  Once m exceeds twice the Cauchy bound
    1 + max|q_i| on the roots, the residue of the lift nearest 0 is the
    integer root if there is one; an exact evaluation keeps it or drops it.
    """
    dq = [i * c for i, c in enumerate(q)][1:]
    for p in _primes():
        residues = [r for r in range(p) if _horner(q, r, p) == 0]
        if all(_horner(dq, r, p) for r in residues):
            break
    bound = 2 * (1 + max(abs(c) for c in q[:-1]))
    roots = []
    for r in residues:
        m = p
        while m <= bound:
            m *= m
            r = (r - _horner(q, r, m) * pow(_horner(dq, r, m), -1, m)) % m
        if r > m // 2:
            r -= m
        if _horner(q, r) == 0:
            roots.append(r)
    return roots


def _rational_roots(f: list[int]) -> list[Fraction]:
    """Rational roots of a squarefree int polynomial f (lowest degree first) of degree n.

    For L = lc(f), q(s) = L^(n-1) f(s/L) is monic with int coefficients, so
    its rational roots are integers, and they are L times those of f.
    """
    n, lead = len(f) - 1, f[-1]
    q = [c * lead ** (n - 1 - i) for i, c in enumerate(f[:-1])] + [1]
    return [Fraction(s, lead) for s in _integer_roots(q)] if n > 0 else []


# -- Zassenhaus factorization: int polynomials mod m, lowest degree first, no zero top -


def _trim(a: list[int], m: int) -> list[int]:
    """a mod m, without zero top coefficients."""
    a = [x % m for x in a]
    while a and not a[-1]:
        a.pop()
    return a


def _padd(a: list[int], b: list[int], m: int, c: int = 1) -> list[int]:
    """a + c * b mod m."""
    a = a + [0] * (len(b) - len(a))
    return _trim([x + c * y for x, y in zip(a, b)] + a[len(b):], m)


def _pmul(a: list[int], b: list[int], m: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            out[j] += x * y
    return _trim(out, m)


def _pdivmod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b, whose leading coefficient is a unit mod m."""
    r, top, inv = list(a), len(b) - 1, pow(b[-1], -1, m)
    q = [0] * max(0, len(a) - top)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + top] * inv % m
        for i, x in enumerate(b, k):
            r[i] -= c * x
    return q, _trim(r[:top], m)


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd over Z/p, p prime."""
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    return _pdivmod(a, [a[-1]], p)[0]


def _ppow(a: list[int], e: int, f: list[int], m: int) -> list[int]:
    """a^e mod (f, m) for e >= 1, by squaring."""
    if e == 1:
        return _pdivmod(a, f, m)[1]
    h = _ppow(a, e // 2, f, m)
    h = _pdivmod(_pmul(h, h, m), f, m)[1]
    return _pdivmod(_pmul(h, a, m), f, m)[1] if e % 2 else h


def _ddf(f: list[int], p: int) -> list[tuple[int, list[int]]]:
    """Distinct-degree factorization of a monic squarefree f over Z/p: (d, product of its
    degree-d factors) for each d that occurs (Cantor and Zassenhaus 1981)."""
    out, h, d = [], [0, 1], 0
    while 2 * (d + 1) < len(f):  # h = x^(p^d) mod f
        d += 1
        h = _ppow(h, p, f, p) if d > 1 else _pdivmod([0] * p + [1], f, p)[1]
        g = _pgcd(f, _padd(h, [0, 1], p, -1), p)
        if len(g) > 1:
            out.append((d, g))
            f = _pdivmod(f, g, p)[0]
    return out + [(len(f) - 1, f)] * (len(f) > 1)


def _edf(f: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """The monic degree-d factors over Z/p, p odd, of their product f (equal-degree split)."""
    while len(f) - 1 > d:
        a = _trim([rng.randrange(p) for _ in range(len(f) - 1)], p)
        g = _pgcd(f, _padd(_ppow(a, (p ** d - 1) // 2, f, p), [1], p, -1), p)
        if 1 < len(g) < len(f):
            return _edf(g, d, p, rng) + _edf(_pdivmod(f, g, p)[0], d, p, rng)
    return [f]


def _hensel(f: list[int], us: list[list[int]], p: int, top: int) -> list[list[int]]:
    """Monic lifts mod top = p^(2^k) of the monic factors us of f mod p, f squarefree mod p.

    Each factor h is lifted alone, with g = f div h and s = 1/g mod h: a
    step from mod m to mod m^2 divides f = g h + e, so e = 0 mod m, and adds
    s e mod h to h; Newton's s <- s (2 - s g) mod h keeps s good enough (von
    zur Gathen and Gerhard, Modern Computer Algebra, section 15.4).
    """
    out = []
    for h in us:
        # extended Euclid: rows (r, s) with s g = r mod (h, p), down to a constant r
        (r0, s0), (r1, s1) = (h, []), (_pdivmod(_pdivmod(f, h, p)[0], h, p)[1], [1])
        while r1:
            q, r = _pdivmod(r0, r1, p)
            (r0, s0), (r1, s1) = (r1, s1), (r, _padd(s0, _pmul(q, s1, p), p, -1))
        s, m = _pdivmod(s0, r0, p)[0], p
        while m < top:
            m *= m
            g, e = _pdivmod(f, h, m)
            if m > p * p:  # s from the Euclid is good mod p, enough for the first step
                s = _pdivmod(_pmul(s, _padd([2], _pmul(s, g, m), m, -1), m), h, m)[1]
            h = _padd(h, _pdivmod(_pmul(s, e, m), h, m)[1], m)
        out.append(h)
    return out


def _zassenhaus(g: list[int]) -> list[list[int]]:
    """Irreducible factors (primitive, lc > 0) of a squarefree primitive int g of degree n
    >= 4 with lc(g) > 0 and no rational root.

    Musser (1978): a factor's degree is a sum of degrees of the factors mod
    each good prime p (odd, not dividing lc(g), g squarefree mod p), so the
    allowed degrees are the intersection of those subset sums over up to
    three primes, 1 and n - 1 excluded; an empty set proves g
    irreducible.  Else the factors mod the prime with the fewest are lifted
    past twice lc(g) times Mignotte's bound 2^n ||g||_2 on the coefficients
    of a factor, and subsets of allowed degree are recombined, smallest
    first: lc(g) times their product in symmetric residues, made primitive,
    is a factor when it divides g exactly.
    """
    n = len(g) - 1
    allowed, best, primes = sum(1 << d for d in range(2, n - 1)), None, 3
    for p in (q for q in _primes() if q > 2 and g[-1] % q):
        f = _pdivmod(_trim(g, p), [g[-1]], p)[0]
        if len(_pgcd(f, _trim([i * c for i, c in enumerate(f)][1:], p), p)) > 1:
            continue  # g is not squarefree mod p
        split, sums = _ddf(f, p), 1
        for d, fd in split:
            for _ in range((len(fd) - 1) // d):
                sums |= sums << d
        if not (allowed := allowed & sums):
            return [g]
        count = sum((len(fd) - 1) // d for d, fd in split)
        if best is None or count < best[0]:
            best = (count, p, split)
        primes -= 1
        if not primes or best[0] <= 2:  # two factors leave one candidate: lift them
            break
    _, p, split = best
    rng = random.Random(0)  # a fixed seed: the factorization is deterministic
    us = [u for d, fd in split for u in _edf(fd, d, p, rng)]
    bound, m = 2 * g[-1] * 2 ** n * (isqrt(sum(c * c for c in g)) + 1), p
    while m <= bound:
        m *= m
    us, out, size = _hensel(g, us, p, m), [], 1
    while 2 * size <= len(us):
        for subset in combinations(range(len(us)), size):
            if allowed >> sum(len(us[i]) - 1 for i in subset) & 1:
                c = [g[-1]]
                for i in subset:
                    c = _pmul(c, us[i], m)
                c = [x - m if 2 * x > m else x for x in c]
                c = [x // gcd(*c) for x in c]
                if c[0] and g[0] % c[0] == 0 and (q := _exact_quotient(g, c)):
                    out.append(c)
                    g, us = q, [u for i, u in enumerate(us) if i not in subset]
                    break
        else:
            size += 1
    return out + [g]


def irreducible_factors(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Monic irreducible factors over the rationals with multiplicities.

    Sorted by (degree, coeffs).  The work runs on int forms: each rational
    root a/b of the squarefree part f = ``p._sturm_head`` divides out b t - a,
    and the rest of f is irreducible up to degree 3 and factored by
    ``_zassenhaus`` from degree 4.  Multiplicities come from exact division
    of ``p.ints``, needed only when deg f < deg p.
    """
    if p.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    f = p._sturm_head
    repeated = len(f) < len(p.coeffs)
    f, factors = [c if f[-1] > 0 else -c for c in f], []
    for r in _rational_roots(f):
        factors.append([-r.numerator, r.denominator])
        f = _exact_quotient(f, factors[-1])
    if len(f) > 1:  # no rational root: irreducible up to degree 3
        factors += _zassenhaus(f) if len(f) > 4 else [f]
    out, rest = [], p.ints
    for q in factors:
        e = 1
        if repeated:  # divide the factors out of p
            e = 0
            while quot := _exact_quotient(rest, q):
                e, rest = e + 1, quot
        out.append((Polynomial.of([Fraction(c, q[-1]) for c in q]), e))
    out.sort(key=lambda fe: (fe[0].degree, fe[0].coeffs))
    return out


def _sign_at(cs: list[int], x: Fraction) -> int:
    """Sign of the int polynomial cs at x = a/b: of b^deg * cs(a/b), by Horner on ints."""
    a, b = x.numerator, x.denominator
    v, bk = 0, 1
    for c in reversed(cs):
        v = v * a + c * bk
        bk *= b
    return (v > 0) - (v < 0)


def count_real_roots(p: Polynomial, lo=None, hi=None) -> int:
    """Number of distinct real roots in [lo, hi] (endpoints included; None = unbounded), lo <= hi.

    Sturm's theorem: the remainder sequence p_k of p ends in g = gcd(p, p'),
    and ``p.sturm``, s_k = p_k / g, is a Sturm sequence of the squarefree
    part s_0.  Its number of sign changes V(x) drops by one exactly as x
    passes a root, and at a root equals its value just right of it, so
    V(lo) - V(hi) counts the roots in (lo, hi]; a root at lo is added.  At
    an unbounded end the leading terms give the signs.  Like sympy's
    ``count_roots``, a constant polynomial has no roots.
    """
    if p.degree == 1:  # the root -c0/c1 is read off
        root = -p.coeffs[0] / p.coeffs[1]
        return int((lo is None or lo <= root) and (hi is None or root <= hi))
    if p.degree < 1:
        return 0

    def signs(x, end: int) -> list[int]:
        if x is None:  # x = end * infinity: the leading term's sign
            return [(1 if s[-1] > 0 else -1) * end ** (len(s) - 1) for s in p.sturm]
        return [_sign_at(s, x) for s in p.sturm]

    def changes(sg: list[int]) -> int:
        sg = [v for v in sg if v]
        return sum(u != v for u, v in zip(sg, sg[1:]))

    at_lo = signs(lo, -1)
    return changes(at_lo) - changes(signs(hi, 1)) + (at_lo[0] == 0)


def _distinct_rational_roots(p: Polynomial) -> list[Fraction] | None:
    """Distinct roots of p != 0, ascending; None unless all are rational."""
    f = squarefree_part(p)
    roots = _rational_roots(f.ints)
    return sorted(roots) if len(roots) == f.degree else None


def rational_eigenvalues(m: Matrix) -> list[Fraction] | None:
    """Distinct eigenvalues of an exact matrix, ascending; None unless all are rational."""
    return _distinct_rational_roots(char_poly(m))


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
