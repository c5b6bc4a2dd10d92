"""Acceptance battery: every release criterion as a runnable check.

All randomized suites draw from counter-based Philox streams keyed by the
seed and a per-criterion stream index, so reports are reproducible
byte-for-byte for a fixed seed.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._span import bracket, in_span, intersect, span_dim
from .cartan_iwasawa import (
    cartan_split,
    iwasawa_kan,
    maximal_abelian,
    polar_kak,
    restricted_roots,
)
from .errors import NotSplit
from .explog import exp_hyperbolic, exp_nilpotent, log_exponential, log_unipotent, matrix_exp
from .jordan import ALGEBRA, GROUP, classify, multiplicative_jordan, sn_split
from .liealg import (
    LieAlgebraData,
    algebra_from_basis,
    is_reductive,
    is_semisimple_element,
    levi_complement,
    unipotent_radical,
)
from .matrix_core import EXACT, Matrix, Subspace, char_poly, squarefree_part
from .replica import exponent_lattice, replica_hyperbolic
from .triangularize import engel_flag, split_triangularize


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail}"


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def _unit(i: int, j: int, n: int) -> Matrix:
    rows = [[0] * n for _ in range(n)]
    rows[i][j] = 1
    return Matrix.exact(rows)


def _random_rational(rng, num=5, den=3) -> Fraction:
    return Fraction(int(rng.integers(-num, num + 1)), int(rng.integers(1, den + 1)))


def _random_rational_matrix(rng, n: int) -> Matrix:
    return Matrix.exact([[_random_rational(rng) for _ in range(n)] for _ in range(n)])


def _random_triangular(rng, n: int, pool, num: int, den: int) -> Matrix:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        if pool is not None:
            rows[i][i] = pool[int(rng.integers(0, len(pool)))]
        for j in range(i + 1, n):
            rows[i][j] = _random_rational(rng, num=num, den=den)
    return Matrix.exact(rows)


def _random_invertible(rng, n: int) -> Matrix:
    while True:
        m = _random_rational_matrix(rng, n)
        if m.det() != 0:
            return m


def _random_unimodular(rng, n: int, ops: int = 6) -> Matrix:
    m = Matrix.identity(n)
    rows = m.rows()
    for _ in range(ops):
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        c = int(rng.integers(-2, 3))
        rows[int(i)] = [a + c * b for a, b in zip(rows[int(i)], rows[int(j)])]
    return Matrix.exact(rows)


# -- the nine-member algebra battery ------------------------------------------


def battery() -> dict[str, LieAlgebraData]:
    e = _unit
    sl2 = algebra_from_basis([Matrix.diagonal([1, -1]), e(0, 1, 2), e(1, 0, 2)])
    so3 = algebra_from_basis([
        Matrix.exact([[0, -1, 0], [1, 0, 0], [0, 0, 0]]),
        Matrix.exact([[0, 0, -1], [0, 0, 0], [1, 0, 0]]),
        Matrix.exact([[0, 0, 0], [0, 0, -1], [0, 1, 0]]),
    ])
    gl2_semi = algebra_from_basis([
        Matrix.exact([[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
        Matrix.exact([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
        Matrix.exact([[0, 0, 0], [1, 0, 0], [0, 0, 0]]),
        Matrix.exact([[0, 0, 0], [0, 1, 0], [0, 0, 0]]),
        Matrix.exact([[0, 0, 1], [0, 0, 0], [0, 0, 0]]),
        Matrix.exact([[0, 0, 0], [0, 0, 1], [0, 0, 0]]),
    ])
    return {
        "zero": algebra_from_basis([], ambient=2),
        "diag2": algebra_from_basis([e(0, 0, 2), e(1, 1, 2)]),
        "sl2": sl2,
        "so3": so3,
        "gl2": algebra_from_basis([e(0, 0, 2), e(0, 1, 2), e(1, 0, 2), e(1, 1, 2)]),
        "ut2": algebra_from_basis([e(0, 0, 2), e(1, 1, 2), e(0, 1, 2)]),
        "ut3": algebra_from_basis([e(i, j, 3) for i in range(3) for j in range(3) if i <= j]),
        "heis3": algebra_from_basis([e(0, 1, 3), e(0, 2, 3), e(1, 2, 3)]),
        "gl2_semi": gl2_semi,
    }


REDUCTIVE_MEMBERS = ("zero", "diag2", "sl2", "so3", "gl2")
SPLIT_SOLVABLE_MEMBERS = ("zero", "diag2", "ut2", "ut3", "heis3")


# -- criteria -------------------------------------------------------------------


def crit_jordan_reconstruction(seed: int) -> CriterionResult:
    rng = _rng(seed, 1)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        x = _random_invertible(rng, 4)
        t = multiplicative_jordan(x)
        scale = 1.0 + x.norm()
        recon = (t.e @ t.h @ t.u - x).norm() / scale
        comm = max(
            (t.e @ t.h - t.h @ t.e).norm(),
            (t.e @ t.u - t.u @ t.e).norm(),
            (t.h @ t.u - t.u @ t.h).norm(),
        ) / scale
        worst = max(worst, recon, comm)
        ce, ch, cu = classify(t.e, GROUP), classify(t.h, GROUP), classify(t.u, GROUP)
        if not (ce.elliptic and ch.hyperbolic and cu.unipotent):
            return CriterionResult("jordan_reconstruction", False,
                                   "a part failed its classification predicate")
        if recon > 1e-9 or comm > 1e-9:
            break
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 10.0
    return CriterionResult("jordan_reconstruction", ok, f"max_residual={worst:.3e}")


def crit_chevalley_exact(seed: int) -> CriterionResult:
    rng = _rng(seed, 2)
    diag_pool = [Fraction(v) for v in (-2, -1, 1, 2, 3)] + [Fraction(1, 2), Fraction(-3, 2)]
    for _ in range(200):
        n = 4
        t = _random_triangular(rng, n, diag_pool, 3, 2)
        p = _random_unimodular(rng, n)
        x = p @ t @ p.inv()
        s, m = sn_split(x)
        if s.mode != EXACT or m.mode != EXACT:
            return CriterionResult("chevalley_exact", False, "split left the exact track")
        if not (s + m == x):
            return CriterionResult("chevalley_exact", False, "s + n != x")
        if not (m ** n).is_zero():
            return CriterionResult("chevalley_exact", False, "n is not nilpotent")
        f = squarefree_part(char_poly(x))
        if not f.eval_matrix(s).is_zero():
            return CriterionResult("chevalley_exact", False, "minimal polynomial of s not squarefree")
    return CriterionResult("chevalley_exact", True, "200/200 exact splits")


def crit_functoriality(seed: int) -> CriterionResult:
    rng = _rng(seed, 3)
    worst = 0.0
    for _ in range(100):
        x = _random_invertible(rng, 3)
        g = _random_invertible(rng, 3)
        ginv = g.inv()
        tx = multiplicative_jordan(x)
        ty = multiplicative_jordan(g @ x @ ginv)
        for px, py in zip(tx.parts(), ty.parts()):
            conj = g @ px @ ginv
            worst = max(worst, (py - conj).norm() / (1.0 + conj.norm()))
    ok = worst <= 1e-8
    return CriterionResult("functoriality", ok, f"max_residual={worst:.3e}")


def strict_upper_fixtures(seed: int = 0) -> list[Matrix]:
    rng = _rng(seed, 4)
    fixtures = []
    for n in range(2, 7):
        single = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n - 1):
            single[i][i + 1] = Fraction(1)
        fixtures.append(Matrix.exact(single))
        fixtures += [_random_triangular(rng, n, None, 4, 3) for _ in range(2)]
    return fixtures


def crit_explog(seed: int) -> CriterionResult:
    for x in strict_upper_fixtures(seed):
        u = exp_nilpotent(x)
        if log_unipotent(u) != x:
            return CriterionResult("explog", False, "exact log(exp) roundtrip failed")
        if exp_nilpotent(log_unipotent(u)) != u:
            return CriterionResult("explog", False, "exact exp(log) roundtrip failed")
    rng = _rng(seed, 5)
    diag_pool = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2),
                 Fraction(2), Fraction(3)]
    worst = 0.0
    for _ in range(200):
        x = _random_triangular(rng, 4, diag_pool, 3, 2)
        back = matrix_exp(log_exponential(x))
        worst = max(worst, (back - x.to_approx()).norm() / (1.0 + x.norm()))
    ok = worst <= 1e-9
    return CriterionResult("explog", ok, f"max_residual={worst:.3e}")


def crit_reductivity_cross_oracle(seed: int) -> CriterionResult:
    disagreements = []
    for name, g in battery().items():
        via_form = is_reductive(g)
        via_radical = unipotent_radical(g) == []
        if via_form != via_radical:
            disagreements.append(name)
    ok = not disagreements
    detail = "0 disagreements on 9 members" if ok else f"disagreements: {disagreements}"
    return CriterionResult("reductivity_cross_oracle", ok, detail)


def crit_levi(seed: int) -> CriterionResult:
    for name, g in battery().items():
        decomp = levi_complement(g)  # raises on any broken postcondition
        levi, unip = list(decomp.levi_basis), list(decomp.unip_basis)
        if span_dim(levi + unip) != g.dim or intersect(levi, unip):
            return CriterionResult("levi", False, f"{name}: direct sum failed")
        for a in levi:
            for b in unip:
                if not in_span(bracket(a, b), unip):
                    return CriterionResult("levi", False, f"{name}: [l, u] escaped u")
    return CriterionResult("levi", True, "postconditions hold on 9 members")


def _random_sl3(rng) -> Matrix:
    while True:
        a = rng.normal(size=(3, 3))
        det = np.linalg.det(a)
        if abs(det) < 1e-3:
            continue
        if det < 0:
            a[0] = -a[0]
            det = -det
        a = a / det ** (1.0 / 3.0)
        if np.linalg.cond(a) < 1e4:
            return Matrix.approx(a)


def crit_kan(seed: int) -> CriterionResult:
    rng = _rng(seed, 7)
    worst_recon = worst_orth = worst_redo = 0.0
    for _ in range(1000):
        x = _random_sl3(rng)
        t = iwasawa_kan(x)
        recon = (t.k @ t.a @ t.n - x).norm() / x.norm()
        orth = (t.k.T @ t.k - Matrix.identity(3).to_approx()).norm()
        if np.any(np.diag(t.a.data) <= 0):
            return CriterionResult("kan", False, "a has a nonpositive diagonal entry")
        nd = t.n.data
        if not np.allclose(np.diag(nd), 1.0, atol=1e-12) or np.max(np.abs(np.tril(nd, -1))) > 1e-12:
            return CriterionResult("kan", False, "n is not unit upper-triangular")
        t2 = iwasawa_kan(t.k @ t.a @ t.n)
        redo = max((t2.k - t.k).norm(), (t2.a - t.a).norm(), (t2.n - t.n).norm())
        worst_recon = max(worst_recon, recon)
        worst_orth = max(worst_orth, orth)
        worst_redo = max(worst_redo, redo)
    ok = worst_recon <= 1e-10 and worst_orth <= 1e-12 and worst_redo <= 1e-9
    return CriterionResult(
        "kan", ok,
        f"max_recon={worst_recon:.3e} max_orth={worst_orth:.3e} max_redo={worst_redo:.3e}",
    )


def crit_kak(seed: int) -> CriterionResult:
    rng = _rng(seed, 8)
    worst_recon = worst_sym = 0.0
    for _ in range(1000):
        x = _random_sl3(rng)
        k, big_x = polar_kak(x)
        worst_sym = max(worst_sym, (big_x - big_x.T).norm())
        recon = (k @ exp_hyperbolic(big_x) - x).norm() / x.norm()
        worst_recon = max(worst_recon, recon)
        if not classify(big_x, ALGEBRA).hyperbolic:
            return CriterionResult("kak", False, "X failed the hyperbolic predicate")
    ok = worst_recon <= 1e-10 and worst_sym <= 1e-12
    return CriterionResult("kak", ok,
                           f"max_recon={worst_recon:.3e} max_sym={worst_sym:.3e}")


def _sl_n(n: int) -> LieAlgebraData:
    basis = []
    for i in range(n - 1):
        d = [Fraction(0)] * n
        d[i], d[i + 1] = Fraction(1), Fraction(-1)
        basis.append(Matrix.diagonal(d))
    basis.extend(_unit(i, j, n) for i in range(n) for j in range(n) if i != j)
    return algebra_from_basis(basis)


def crit_restricted_roots(seed: int) -> CriterionResult:
    for n in (2, 3, 4):
        g = _sl_n(n)
        a = maximal_abelian(cartan_split(g))
        rd = restricted_roots(g, a)
        if len(rd.roots) != n * (n - 1):
            return CriterionResult("restricted_roots", False,
                                   f"sl{n}: expected {n * (n - 1)} roots, got {len(rd.roots)}")
        if any(len(s) != 1 for s in rd.root_spaces):
            return CriterionResult("restricted_roots", False,
                                   f"sl{n}: a root space is not one-dimensional")
        total = len(rd.zero_space) + sum(len(s) for s in rd.root_spaces)
        if total != g.dim:
            return CriterionResult("restricted_roots", False, f"sl{n}: dimension bookkeeping off")
    return CriterionResult("restricted_roots", True, "sl2, sl3, sl4 as expected")


def _primitive_pool() -> list[Fraction]:
    primes = (2, 3, 5, 7, 11, 13)
    pool = []
    for p in primes:
        for e in (-2, -1, 1, 2):
            pool.append(Fraction(p) ** e)
    pool.append(Fraction(1))
    return pool


def crit_replica(seed: int) -> CriterionResult:
    d1 = replica_hyperbolic(Matrix.diagonal([2, 4, 8]))
    if d1.dimension != 1:
        return CriterionResult("replica", False, f"diag(2,4,8) dimension {d1.dimension}")
    d2 = replica_hyperbolic(Matrix.diagonal([2, 3]))
    if d2.dimension != 2:
        return CriterionResult("replica", False, f"diag(2,3) dimension {d2.dimension}")
    rng = _rng(seed, 10)
    pool = _primitive_pool()
    for _ in range(20):
        m = int(rng.integers(2, 5))
        values = [pool[int(rng.integers(0, len(pool)))] for _ in range(m)]
        lattice = [list(v) for v in exponent_lattice(values)]
        missed = _brute_force_relation_outside(values, lattice)
        if missed is not None:
            return CriterionResult("replica", False,
                                   f"relation {missed} outside the lattice span for {values}")
    return CriterionResult("replica", True, "lattice spans confirmed by enumeration")


def _brute_force_relation_outside(values, lattice):
    m = len(values)
    logs = [float(np.log(float(v))) for v in values]

    def is_relation(vec) -> bool:
        if abs(sum(k * l for k, l in zip(vec, logs))) > 1e-9:
            return False
        prod = Fraction(1)
        for v, k in zip(values, vec):
            prod *= Fraction(v) ** k
        return prod == 1

    space = Subspace(lattice)
    for vec in itertools.product(*[range(-6, 7)] * m):
        if is_relation(vec) and vec not in space:
            return vec
    return None


def crit_flags(seed: int) -> CriterionResult:
    e = _unit
    heis = algebra_from_basis([e(0, 1, 3), e(0, 2, 3), e(1, 2, 3)])
    strict4 = algebra_from_basis([e(i, j, 4) for i in range(4) for j in range(4) if i < j])
    for g in (heis, strict4):
        flag = engel_flag(g)
        if not _flag_killed(g, flag):
            return CriterionResult("flags", False, "a flag containment failed")
    bat = battery()
    for name in SPLIT_SOLVABLE_MEMBERS:
        g = bat[name]
        p, _ = split_triangularize(g)
        pinv = p.inv()
        for b in g.basis:
            m = (pinv @ b @ p).rows()
            if any(m[i][j] != 0 for i in range(g.ambient) for j in range(i)):
                return CriterionResult("flags", False, f"{name}: conjugate not upper-triangular")
    so2 = algebra_from_basis([Matrix.exact([[0, -1], [1, 0]])])
    try:
        split_triangularize(so2)
        return CriterionResult("flags", False, "so2 was not rejected")
    except NotSplit:
        pass
    return CriterionResult("flags", True, "containments exact; so2 rejected with NotSplit")


def _flag_killed(g: LieAlgebraData, flag) -> bool:
    n = g.ambient
    stages = [[]] + [list(stage) for stage in flag.stages]
    for b in g.basis:
        for i in range(1, len(stages)):
            for v in stages[i]:
                image = [sum(b.entry(r, c) * v[c] for c in range(n)) for r in range(n)]
                if any(x != 0 for x in image) and image not in Subspace(stages[i - 1]):
                    return False
    return True


def reductive_corpus(seed: int) -> list[tuple[LieAlgebraData, Matrix]]:
    bat = battery()
    samples = []
    for name in REDUCTIVE_MEMBERS:
        g = bat[name]
        for b in g.basis:
            samples.append((g, b))
    rng = _rng(seed, 12)
    pool = [bat[name] for name in REDUCTIVE_MEMBERS if bat[name].dim]
    while len(samples) < 20:
        g = pool[int(rng.integers(0, len(pool)))]
        coeffs = [_random_rational(rng, num=2, den=2) for _ in range(g.dim)]
        x = g.element(coeffs)
        samples.append((g, x))
    return samples[:20]


def crit_semisimple_density(seed: int) -> CriterionResult:
    rng = _rng(seed, 13)
    for g, x in reductive_corpus(seed):
        if is_semisimple_element(x, g):
            continue
        found = False
        for _ in range(100):
            coeffs = [Fraction(int(rng.integers(-999, 1000)), 4_000_000) for _ in range(g.dim)]
            y = x + g.element(coeffs)
            if (y - x).norm() <= 1e-3 and is_semisimple_element(y, g):
                found = True
                break
        if not found:
            return CriterionResult("semisimple_density", False,
                                   "no semisimple neighbor within 100 draws")
    return CriterionResult("semisimple_density", True,
                           "semisimple neighbor within 1e-3 for all 20 samples")


CRITERIA = (
    crit_jordan_reconstruction,
    crit_chevalley_exact,
    crit_functoriality,
    crit_explog,
    crit_reductivity_cross_oracle,
    crit_levi,
    crit_kan,
    crit_kak,
    crit_restricted_roots,
    crit_replica,
    crit_flags,
    crit_semisimple_density,
)


def run_all(seed: int = 0) -> list[CriterionResult]:
    return [crit(seed) for crit in CRITERIA]
