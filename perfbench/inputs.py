"""Seeded input generators; nothing here imports nashkit.

Every generator draws from a counter-based Philox stream keyed by
``[seed, stream]``, as the nashkit acceptance suite does, so one seed always
gives the same inputs.  Exact inputs are lists of ``Fraction`` rows; float
inputs are numpy arrays.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from oracle import eye, inverse, mul, rank

ELEMENT_SIZES = (4, 6, 8)
FLOAT_SIZES = (3, 4, 6)

# Diagonals are seeded orders of fixed multisets, so every seed gives the same
# eigenvalue multiplicities (hence the same Jordan structure and about the same cost).
_DIAG = [Fraction(v) for v in ("2", "-1", "2", "-1", "3", "1/2", "-3/2", "1")]
_POSITIVE_DIAG = [Fraction(v) for v in ("2", "1/2", "2", "1", "3", "1/3", "3/2", "1")]
_REPLICA_POOL = [Fraction(p) ** e for p in (2, 3, 5, 7) for e in (-2, -1, 1, 2)]
# (t, rho): the block rho * [[c, -s], [s, c]] with c = (1-t^2)/(1+t^2), s = 2t/(1+t^2)
# has the rational modulus rho, so its eigenvalues are a circle factor times rho.
_ROTATIONS = [(Fraction(1, 2), Fraction(2)), (Fraction(1, 3), Fraction(1, 2)),
              (Fraction(2, 3), Fraction(3, 2)), (Fraction(2), Fraction(1))]


def rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def rational(g, num: int, den: int) -> Fraction:
    return Fraction(int(g.integers(-num, num + 1)), int(g.integers(1, den + 1)))


def pick(g, pool):
    return pool[int(g.integers(0, len(pool)))]


def rational_nonzero(g, num: int, den: int) -> Fraction:
    sign = int(g.choice([-1, 1]))
    return Fraction(sign * int(g.integers(1, num + 1)), int(g.integers(1, den + 1)))


def unimodular(g, n: int):
    """(P, P^-1) with P = L U, L and U unit bidiagonal with random signs.

    The shape is the same for every seed, so conjugates of one input kind
    cost about the same whatever the seed; only signs and values move.
    """
    lower, upper = eye(n), eye(n)
    for i in range(n - 1):
        lower[i + 1][i] = Fraction(int(g.choice([-1, 1])))
        upper[i][i + 1] = Fraction(int(g.choice([-1, 1])))
    p = mul(lower, upper)
    return p, inverse(p)


def conjugate(g, t):
    p, pinv = unimodular(g, len(t))
    return mul(mul(p, t), pinv)


def triangular(g, n: int, diag_values):
    """Upper-triangular with a seeded order of the given diagonal and nonzero entries above."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, k in enumerate(g.permutation(n)):
        rows[i][i] = diag_values[int(k)]
        for j in range(i + 1, n):
            rows[i][j] = rational_nonzero(g, 3, 2)
    return rows


def strictly_upper(g, n: int):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rational_nonzero(g, 4, 3)
    return rows


def rotation_blocks(g, n: int):
    """Block upper-triangular matrix with rotation blocks of rational modulus."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for b, k in zip(range(0, n, 2), g.permutation(len(_ROTATIONS))):
        t, rho = _ROTATIONS[int(k)]
        c, s = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
        rows[b][b], rows[b][b + 1] = rho * c, -rho * s
        rows[b + 1][b], rows[b + 1][b + 1] = rho * s, rho * c
        for i in (b, b + 1):
            for j in range(b + 2, n):
                rows[i][j] = rational_nonzero(g, 2, 2)
    return rows


def random_invertible(g, n: int):
    while True:
        rows = [[rational(g, 5, 3) for _ in range(n)] for _ in range(n)]
        if rank(rows) == n:
            return rows


def diagonal(values):
    n = len(values)
    return [[values[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]


# -- element inputs ------------------------------------------------------------------


def element_inputs(seed: int, n: int) -> dict:
    """Exact n x n inputs of every kind the elements workload uses."""
    g = rng(seed, 100 + n)
    ident = eye(n)
    nil = strictly_upper(g, n)
    unip = [[a + b for a, b in zip(r, s)] for r, s in zip(ident, nil)]
    hyp_values = [pick(g, _REPLICA_POOL) for _ in range(n)]
    return {
        "tri": [conjugate(g, triangular(g, n, _DIAG[:n])) for _ in range(4)],
        "rot": [conjugate(g, rotation_blocks(g, n)) for _ in range(2)],
        "rand": [random_invertible(g, n) for _ in range(2)],
        "nilpotent": conjugate(g, nil),
        "unipotent": conjugate(g, unip),
        "exponential": conjugate(g, triangular(g, n, _POSITIVE_DIAG[:n])),
        "hyperbolic": (conjugate(g, diagonal(hyp_values)), hyp_values),
    }


# -- algebra inputs --------------------------------------------------------------------


def unit(i: int, j: int, n: int):
    rows = [[Fraction(0)] * n for _ in range(n)]
    rows[i][j] = Fraction(1)
    return rows


def _sl_diag(n: int):
    out = []
    for i in range(n - 1):
        d = [Fraction(0)] * n
        d[i], d[i + 1] = Fraction(1), Fraction(-1)
        out.append(diagonal(d))
    return out


def _rot(i: int, j: int, n: int):
    rows = unit(j, i, n)
    rows[i][j] = Fraction(-1)
    return rows


def _block_sum(a, b):
    na, nb = len(a[0]), len(b[0])
    n = na + nb

    def place(m, off):
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i, r in enumerate(m):
            for j, x in enumerate(r):
                rows[off + i][off + j] = x
        return rows

    return [place(m, 0) for m in a] + [place(m, na) for m in b]


def algebra_catalog() -> dict:
    """name -> (basis, generators, facts); facts are conjugation invariants."""
    def ut(n):
        basis = [unit(i, j, n) for i in range(n) for j in range(n) if i <= j]
        gens = [unit(i, i, n) for i in range(n)] + [unit(i, i + 1, n) for i in range(n - 1)]
        return basis, gens

    def strict(n):
        basis = [unit(i, j, n) for i in range(n) for j in range(n) if i < j]
        return basis, [unit(i, i + 1, n) for i in range(n - 1)]

    def sl(n):
        basis = _sl_diag(n) + [unit(i, j, n) for i in range(n) for j in range(n) if i != j]
        gens = [unit(i, i + 1, n) for i in range(n - 1)] + [unit(i + 1, i, n) for i in range(n - 1)]
        return basis, gens

    def so(n):
        basis = [_rot(i, j, n) for i in range(n) for j in range(i + 1, n)]
        return basis, [_rot(i, i + 1, n) for i in range(n - 1)]

    def gl(n):
        basis, gens = sl(n)
        return basis + [eye(n)], gens + [eye(n)]

    semi = [unit(i, j, 3) for i, j in ((0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (1, 2))]
    sl2, ut2 = sl(2), ut(2)
    return {
        # name: basis, generators, dim, radical dim, unipotent radical dim,
        #       nilpotent, split solvable, stable under negative transpose
        "ut2": (*ut2, dict(dim=3, rad=3, unip=1, nilpotent=False, split=True, stable=False)),
        "ut3": (*ut(3), dict(dim=6, rad=6, unip=3, nilpotent=False, split=True, stable=False)),
        "ut4": (*ut(4), dict(dim=10, rad=10, unip=6, nilpotent=False, split=True, stable=False)),
        "n3": (*strict(3), dict(dim=3, rad=3, unip=3, nilpotent=True, split=True, stable=False)),
        "n4": (*strict(4), dict(dim=6, rad=6, unip=6, nilpotent=True, split=True, stable=False)),
        "sl2": (*sl2, dict(dim=3, rad=0, unip=0, nilpotent=False, split=False, stable=True)),
        "sl3": (*sl(3), dict(dim=8, rad=0, unip=0, nilpotent=False, split=False, stable=True)),
        "so3": (*so(3), dict(dim=3, rad=0, unip=0, nilpotent=False, split=False, stable=True)),
        "so4": (*so(4), dict(dim=6, rad=0, unip=0, nilpotent=False, split=False, stable=True)),
        "gl2": (*gl(2), dict(dim=4, rad=1, unip=0, nilpotent=False, split=False, stable=True)),
        "gl3": (*gl(3), dict(dim=9, rad=1, unip=0, nilpotent=False, split=False, stable=True)),
        "gl2_semi": (semi, [unit(0, 1, 3), unit(1, 0, 3), unit(0, 0, 3), unit(1, 2, 3)],
                     dict(dim=6, rad=3, unip=2, nilpotent=False, split=False, stable=False)),
        "sl2+ut2": (_block_sum(sl2[0], ut2[0]), _block_sum(sl2[1], ut2[1]),
                    dict(dim=6, rad=3, unip=1, nilpotent=False, split=False, stable=False)),
    }


# members whose unimodular conjugates join the algebras workload
CONJUGATED_ALGEBRAS = ("ut3", "n4", "sl3", "gl2_semi", "sl2+ut2")


def conjugate_family(g, mats):
    """Conjugate every matrix of a family by one unimodular P."""
    p, pinv = unimodular(g, len(mats[0]))
    return [mul(mul(p, m), pinv) for m in mats]


# -- float inputs -----------------------------------------------------------------------


def _well_separated(a: np.ndarray) -> bool:
    """Eigenvalues far apart, and real ones far from the imaginary axis cut."""
    w = np.linalg.eigvals(a)
    scale = 1.0 + np.linalg.norm(a)
    gaps = [abs(w[i] - w[j]) for i in range(len(w)) for j in range(i + 1, len(w))]
    if min(gaps) < 1e-2 * scale:
        return False
    return all(abs(z.imag) < 1e-12 or abs(z.imag) > 1e-3 * scale for z in w)


def sl_draw(g, n: int) -> np.ndarray:
    """Conditioned SL_n draw (det 1, condition number below 1e4, separated spectrum)."""
    while True:
        a = g.normal(size=(n, n))
        det = np.linalg.det(a)
        if abs(det) < 1e-3:
            continue
        if det < 0:
            a[0] = -a[0]
            det = -det
        a = a / det ** (1.0 / n)
        if np.linalg.cond(a) < 1e4 and _well_separated(a):
            return a


def diagonalizable_draw(g, n: int) -> np.ndarray:
    """Q diag(d) Q^-1 with well-separated real d, half of them negative."""
    while True:
        d = np.sort(g.choice(np.arange(1, 4 * n + 1), size=n, replace=False)) / 2.0
        d[: n // 2] *= -1.0
        q = g.normal(size=(n, n))
        if np.linalg.cond(q) < 1e2:
            a = q @ np.diag(d) @ np.linalg.inv(q)
            if _well_separated(a):
                return a


def symmetric_draw(g, n: int) -> np.ndarray:
    a = g.normal(size=(n, n))
    return (a + a.T) / 4.0


def float_inputs(seed: int, n: int) -> dict:
    g = rng(seed, 200 + n)
    return {
        "sl": [sl_draw(g, n) for _ in range(2)],
        "diag": [diagonalizable_draw(g, n)],
        "sym": symmetric_draw(g, n),
    }
