"""Output checks that share no code with the library under test.

Exact checks use plain ``Fraction`` lists and this module's own Gaussian
elimination (never nashkit's ``_span`` or ``matrix_core`` kernels), with
sympy for characteristic polynomials, so a kernel bug cannot approve its own
output.  Float checks use numpy and scipy directly, at the residual bounds of
the nashkit acceptance suite.  Every check raises ``CheckFailed``.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import scipy.linalg
import sympy

# residual bounds of the acceptance suite (selftest criteria 1, 4, 7 and 8)
RECON_TOL = 1e-9
KAN_RECON_TOL = 1e-10
ORTH_TOL = 1e-12


class CheckFailed(Exception):
    pass


def require(cond, what: str):
    if not cond:
        raise CheckFailed(what)


# -- exact arithmetic on Fraction lists -----------------------------------------


def rows_of(m) -> list[list[Fraction]]:
    """Entries of a nashkit exact Matrix as Fraction rows (type-checked)."""
    require(m.mode == "exact", "expected an exact result")
    out = [list(r) for r in m.rows()]
    require(all(isinstance(x, Fraction) for r in out for x in r), "exact entry is not a Fraction")
    return out


def eye(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mul(a, b):
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(r, c)), Fraction(0)) for c in bt] for r in a]


def add(a, b):
    return [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]


def sub(a, b):
    return [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)]


def scale(a, c):
    return [[x * c for x in r] for r in a]


def is_zero(a) -> bool:
    return all(x == 0 for r in a for x in r)


def power(a, k: int):
    out = eye(len(a))
    for _ in range(k):
        out = mul(out, a)
    return out


def bracket(a, b):
    return sub(mul(a, b), mul(b, a))


def flat(a) -> list[Fraction]:
    return [x for r in a for x in r]


def rank(vecs) -> int:
    m = [list(v) for v in vecs]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def in_span(v, vecs) -> bool:
    if not vecs:
        return all(x == 0 for x in v)
    return rank(list(vecs) + [v]) == rank(vecs)


def inverse(a):
    n = len(a)
    m = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(a)]
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c] != 0), None)
        require(p is not None, "matrix is singular")
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [r[n:] for r in m]


def sympy_charpoly(a) -> list[Fraction]:
    """Characteristic polynomial coefficients (highest degree first), by sympy."""
    sm = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in a])
    p = sm.charpoly()
    return [Fraction(int(c.p), int(c.q)) for c in p.all_coeffs()]


def squarefree_kills(a, s) -> bool:
    """The squarefree part of a's characteristic polynomial annihilates s."""
    t = sympy.Symbol("t")
    p = sympy.Poly(sympy_charpoly(a), t, domain="QQ")
    f = sympy.sqf_part(p)
    acc = [[Fraction(0)] * len(s) for _ in s]
    for c in f.all_coeffs():
        c = Fraction(int(sympy.Rational(c).p), int(sympy.Rational(c).q))
        acc = add(mul(acc, s), scale(eye(len(s)), c))
    return is_zero(acc)


# -- exact decomposition checks ---------------------------------------------------


def check_sn_exact(x, s, n):
    require(add(s, n) == x, "s + n != x")
    require(mul(s, n) == mul(n, s), "s and n do not commute")
    require(is_zero(power(n, len(x))), "n is not nilpotent")
    require(squarefree_kills(x, s), "s is not semisimple")


def check_triple_exact(x, e, h, u, multiplicative: bool):
    n = len(x)
    if multiplicative:
        require(mul(mul(e, h), u) == x, "e h u != x")
        require(is_zero(power(sub(u, eye(n)), n)), "u is not unipotent")
    else:
        require(add(add(e, h), u) == x, "e + h + u != x")
        require(is_zero(power(u, n)), "u is not nilpotent")
    for p, q in ((e, h), (e, u), (h, u)):
        require(mul(p, q) == mul(q, p), "parts do not commute")


def check_triple_float(x, t, multiplicative: bool):
    a = np.array(x, dtype=float) if isinstance(x, list) else x
    e, h, u = (m.float_array() for m in (t.e, t.h, t.u))
    scale_ = 1.0 + np.linalg.norm(a)
    recon = (e @ h @ u) if multiplicative else (e + h + u)
    require(np.linalg.norm(recon - a) / scale_ <= RECON_TOL, "reconstruction residual too large")
    for p, q in ((e, h), (e, u), (h, u)):
        require(np.linalg.norm(p @ q - q @ p) / scale_ <= RECON_TOL,
                "commutator residual too large")


def exp_series(nil):
    n = len(nil)
    acc, term = eye(n), eye(n)
    for k in range(1, n):
        term = scale(mul(term, nil), Fraction(1, k))
        acc = add(acc, term)
    return acc


def log_series(uni):
    n = len(uni)
    y = sub(uni, eye(n))
    acc, pw = [[Fraction(0)] * n for _ in range(n)], eye(n)
    for k in range(1, n):
        pw = mul(pw, y)
        acc = add(acc, scale(pw, Fraction((-1) ** (k + 1), k)))
    return acc


def check_exp_close(log_result, x):
    """scipy's expm of a float logarithm reproduces x."""
    a = np.array(x, dtype=float)
    back = scipy.linalg.expm(log_result.float_array())
    require(np.linalg.norm(back - a) / (1.0 + np.linalg.norm(a)) <= RECON_TOL,
            "exp(log x) residual too large")


def check_replica_hyperbolic(datum, eigenvalues: list[Fraction]):
    values = sorted(set(eigenvalues))
    require(datum.kind == "hyperbolic", "expected a hyperbolic replica")
    require(list(datum.slots) == values, "replica slots are not the distinct eigenvalues")
    lattice = [list(v) for v in datum.relation_lattice]
    for vec in lattice:
        prod = Fraction(1)
        for v, k in zip(values, vec):
            prod *= v ** k
        require(prod == 1, "lattice vector is not a multiplicative relation")
    lat_rank = rank([[Fraction(k) for k in v] for v in lattice]) if lattice else 0
    require(lat_rank == len(lattice), "lattice basis is dependent")
    require(datum.dimension == len(values) - lat_rank, "replica dimension is off")


# -- float checks ---------------------------------------------------------------------


def check_sn_float(a, s, n):
    s, n = s.float_array(), n.float_array()
    scale_ = 1.0 + np.linalg.norm(a)
    require(np.linalg.norm(s + n - a) / scale_ <= RECON_TOL, "s + n residual too large")
    require(np.linalg.norm(s @ n - n @ s) / scale_ <= RECON_TOL, "[s, n] residual too large")


def check_kak(a, k, big_x):
    # k = x exp(-X) with X from log(x^T x) loses orthogonality like cond(x)^2 * eps,
    # so k is held to the float track's own "numerically zero": tol * (1 + ||I||)
    n, tol = len(a), k.tol
    k, big_x = k.float_array(), big_x.float_array()
    require(np.linalg.norm(big_x - big_x.T) <= ORTH_TOL, "X is not symmetric")
    require(np.linalg.norm(k.T @ k - np.eye(n)) <= tol * (1.0 + np.sqrt(n)), "k is not orthogonal")
    recon = k @ scipy.linalg.expm(big_x)
    require(np.linalg.norm(recon - a) / np.linalg.norm(a) <= KAN_RECON_TOL, "k exp(X) != x")


def check_kan(a, t):
    k, d, n = (m.float_array() for m in (t.k, t.a, t.n))
    require(np.linalg.norm(k @ d @ n - a) / np.linalg.norm(a) <= KAN_RECON_TOL, "k a n != x")
    require(np.linalg.norm(k.T @ k - np.eye(len(a))) <= ORTH_TOL, "k is not orthogonal")
    require(np.all(np.diag(d) > 0) and np.count_nonzero(d - np.diag(np.diag(d))) == 0,
            "a is not positive diagonal")
    require(np.allclose(np.diag(n), 1.0, atol=ORTH_TOL)
            and np.max(np.abs(np.tril(n, -1))) <= ORTH_TOL, "n is not unit upper-triangular")


def check_close_float(result, expected):
    r = result.float_array()
    require(np.linalg.norm(r - expected) / (1.0 + np.linalg.norm(expected)) <= RECON_TOL,
            "result differs from the scipy reference")


# -- Lie algebra checks ----------------------------------------------------------------


def basis_rows(mats) -> list[list[list[Fraction]]]:
    return [rows_of(m) for m in mats]


def basis_rows_chain(chain):
    return [basis_rows(stage) for stage in chain]


def check_subalgebra(basis, dim: int | None = None):
    vecs = [flat(b) for b in basis]
    require(rank(vecs) == len(vecs), "basis is dependent")
    if dim is not None:
        require(len(vecs) == dim, f"dimension {len(vecs)} != expected {dim}")
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            require(in_span(flat(bracket(basis[i], basis[j])), vecs), "not bracket closed")


def check_ideal(whole, part):
    vecs = [flat(p) for p in part]
    for b in whole:
        for p in part:
            require(in_span(flat(bracket(b, p)), vecs), "not an ideal")


def derived_dims(basis) -> list[int]:
    dims = [len(basis)]
    cur = basis
    while cur:
        vecs = [flat(bracket(a, b)) for a in cur for b in cur]
        r = rank(vecs) if vecs else 0
        if r >= len(cur):
            break
        dims.append(r)
        cur = _reduced(vecs, r)
    return dims


def _reduced(vecs, r):
    """r independent members of vecs, as square matrices."""
    picked = []
    for v in vecs:
        if rank([flat(p) for p in picked] + [v]) > len(picked):
            n = int(round(len(v) ** 0.5))
            picked.append([v[i * n:(i + 1) * n] for i in range(n)])
        if len(picked) == r:
            break
    return picked


def check_series(g_basis, chain, derived: bool):
    require(rank([flat(m) for m in chain[0]]) == len(g_basis)
            and all(in_span(flat(m), [flat(b) for b in chain[0]]) for m in g_basis),
            "series does not start at g")
    for k in range(1, len(chain)):
        left = chain[k - 1] if derived else g_basis
        want = [flat(bracket(a, b)) for a in left for b in chain[k - 1]]
        got = [flat(m) for m in chain[k]]
        require(rank(want) == len(got) and rank(want + got) == len(got),
                "series stage is not the bracket span of the previous one")


def check_levi(g_basis, levi, unip):
    lv, uv = [flat(m) for m in levi], [flat(m) for m in unip]
    require(rank(lv + uv) == len(g_basis) == len(lv) + len(uv), "not a direct sum")
    check_subalgebra(levi)
    for a in levi:
        for b in unip:
            require(in_span(flat(bracket(a, b)), uv), "[l, u] escapes u")


def check_engel(g_basis, flag, n: int):
    require(flag.complete and len(flag.stages) == n, "flag is not complete")
    prev: list = []
    for stage in flag.stages:
        vecs = [list(map(Fraction, v)) for v in stage]
        require(rank(vecs) == len(vecs) == len(prev) + 1, "flag stage has the wrong dimension")
        for b in g_basis:
            for v in vecs:
                image = [sum(b[i][j] * v[j] for j in range(n)) for i in range(n)]
                require(in_span(image, prev), "b V_i is not inside V_(i-1)")
        prev = vecs


def check_triangularizes(g_basis, p):
    pinv = inverse(p)
    for b in g_basis:
        m = mul(mul(pinv, b), p)
        require(all(m[i][j] == 0 for i in range(len(m)) for j in range(i)),
                "conjugate is not upper-triangular")
