"""Matrix Lie algebra structure: closure, series, radical, trace forms,
reductivity, unipotent radical, and reductive complements.

The heavy structure computations (radical, unipotent radical, complement
lifting) are exact-only: rank decisions compound, and the statements being
computed are exact.  Closure, series, trace forms and the reductivity test
also run on the float track with tolerance-based rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._span import (
    Subspace,
    bracket,
    coords_in_span,
    float_span_basis,
    in_span,
    independent_subset,
    intersect,
    span_basis,
    span_dim,
)
from .errors import (
    ExactModeRequired,
    LiftFailed,
    NotInAlgebra,
    PostconditionFailed,
)
from .jordan import additive_jordan
from .matrix_core import (
    APPROX,
    EXACT,
    Matrix,
    exact_nullspace,
    exact_solve,
    float_rank,
)

NATURAL = "natural"
ADJOINT = "adjoint"

DERIVED = "derived"
LOWER_CENTRAL = "lower_central"


@dataclass(frozen=True)
class LieAlgebraData:
    """Bracket-closed subspace of n x n matrices with structure constants.

    structure_constants[i][j][k] is the coefficient of basis[k] in
    [basis[i], basis[j]].
    """

    ambient: int
    basis: tuple[Matrix, ...]
    structure_constants: np.ndarray  # (d, d, d); Fractions when exact

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def is_exact(self) -> bool:
        return all(b.mode == EXACT for b in self.basis)

    def element(self, coeffs) -> Matrix:
        mode = EXACT if self.is_exact else APPROX
        out = Matrix.zero(self.ambient, mode)
        for c, b in zip(coeffs, self.basis):
            out = out + b.scale(c)
        return out


@dataclass(frozen=True)
class TraceFormGram:
    gram: Matrix
    rep: str  # NATURAL or ADJOINT


@dataclass(frozen=True)
class LeviDecomp:
    levi_basis: tuple[Matrix, ...]
    unip_basis: tuple[Matrix, ...]


def _require_exact(mats, what: str):
    if any(m.mode != EXACT for m in mats):
        raise ExactModeRequired(f"{what} is only defined on the exact track")


# -- float-track span helpers -------------------------------------------------


def _f_tol(mats) -> float:
    return max(m.abs_tol() for m in mats)


def _f_independent(mats: list[Matrix]) -> list[Matrix]:
    picked: list[Matrix] = []
    for m in mats:
        rows = np.array([x.float_array().ravel() for x in picked + [m]])
        if float_rank(rows, _f_tol(picked + [m])) > len(picked):
            picked.append(m)
    return picked


def _f_coords(m: Matrix, basis: list[Matrix]) -> list[float] | None:
    target = m.float_array().ravel()
    if not basis:
        return [] if np.linalg.norm(target) <= m.abs_tol() else None
    a = np.array([b.float_array().ravel() for b in basis]).T
    sol, *_ = np.linalg.lstsq(a, target, rcond=None)
    if np.linalg.norm(a @ sol - target) > _f_tol(basis + [m]):
        return None
    return [float(c) for c in sol]


# -- construction ---------------------------------------------------------------


def _structure_constants(basis: list[Matrix], exact: bool, ideal=()) -> np.ndarray:
    """sc[i, j, k]: coefficient of basis[k] in [basis[i], basis[j]] modulo span(ideal)."""
    d = len(basis)
    sc = np.empty((d, d, d), dtype=object if exact else float)
    sc[:] = Fraction(0) if exact else 0.0
    space = Subspace(basis + list(ideal)) if exact else basis
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            br = bracket(basis[i], basis[j])
            coords = coords_in_span(br, space) if exact else _f_coords(br, basis)
            if coords is None:
                raise ValueError("basis is not bracket closed")
            for k in range(d):
                sc[i, j, k] = coords[k]
    return sc


def algebra_from_basis(basis: list[Matrix], ambient: int | None = None) -> LieAlgebraData:
    """Wrap a bracket-closed, linearly independent family as a LieAlgebraData."""
    if not basis:
        return LieAlgebraData(ambient or 0, (), np.empty((0, 0, 0), dtype=object))
    exact = all(b.mode == EXACT for b in basis)
    if exact:
        if span_dim(list(basis)) != len(basis):
            raise ValueError("basis is linearly dependent")
    else:
        rows = np.array([b.float_array().ravel() for b in basis])
        if float_rank(rows, _f_tol(list(basis))) != len(basis):
            raise ValueError("basis is numerically dependent")
    return LieAlgebraData(basis[0].n, tuple(basis),
                          _structure_constants(list(basis), exact))


def lie_closure(generators: list[Matrix], ambient: int | None = None) -> LieAlgebraData:
    """Smallest bracket-closed subspace containing the generators."""
    gens = [m for m in generators if not m.is_zero()]
    if not gens:
        return algebra_from_basis([], ambient)
    exact = all(m.mode == EXACT for m in gens)
    basis = independent_subset(gens) if exact else _f_independent(gens)
    space = Subspace(basis) if exact else None
    while True:
        new = []
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                br = bracket(basis[i], basis[j])
                if br.is_zero():
                    continue
                if space.add(br) if exact else (_f_coords(br, basis + new) is None):
                    new.append(br)
        if not new:
            break
        # exact: each new bracket raised the rank, so basis + new stays independent
        basis = basis + new if exact else _f_independent(basis + new)
    return algebra_from_basis(basis)


# -- series and solvability --------------------------------------------------------


def series(g: LieAlgebraData, kind: str) -> list[list[Matrix]]:
    """Derived or lower central series, from g down to the stable term."""
    if kind not in (DERIVED, LOWER_CENTRAL):
        raise ValueError(f"kind must be {DERIVED!r} or {LOWER_CENTRAL!r}")
    exact = g.is_exact
    chain = [list(g.basis)]
    while True:
        current = chain[-1]
        left = current if kind == DERIVED else list(g.basis)
        brackets = [bracket(a, b) for a in left for b in current]
        nonzero = [m for m in brackets if not m.is_zero()]
        nxt = span_basis(nonzero) if exact else float_span_basis(nonzero)
        if len(nxt) >= len(current):
            break
        chain.append(nxt)
        if not nxt:
            break
    return chain


def is_solvable(g: LieAlgebraData) -> bool:
    return not series(g, DERIVED)[-1]


def is_nilpotent(g: LieAlgebraData) -> bool:
    return not series(g, LOWER_CENTRAL)[-1]


# -- trace forms ---------------------------------------------------------------------


def trace_form(g: LieAlgebraData, rep: str = NATURAL) -> TraceFormGram:
    """Gram matrix tr(rho(b_i) rho(b_j)); rho = inclusion or adjoint."""
    if rep not in (NATURAL, ADJOINT):
        raise ValueError(f"rep must be {NATURAL!r} or {ADJOINT!r}")
    d = g.dim
    if d == 0:
        return TraceFormGram(Matrix.exact([]), rep)
    if rep == NATURAL:
        entries = [[(g.basis[i] @ g.basis[j]).trace() for j in range(d)] for i in range(d)]
    else:
        sc = g.structure_constants
        entries = [[sum(sc[i, k, l] * sc[j, l, k] for k in range(d) for l in range(d))
                    for j in range(d)] for i in range(d)]
    if g.is_exact:
        return TraceFormGram(Matrix.exact(entries), rep)
    tol = max(b.tol for b in g.basis)
    return TraceFormGram(Matrix.approx([[float(x) for x in row] for row in entries], tol), rep)


def is_reductive(g: LieAlgebraData) -> bool:
    """Nondegeneracy of the natural trace form."""
    gram = trace_form(g, NATURAL).gram
    if gram.n == 0:
        return True
    if gram.mode == EXACT:
        return gram.det() != 0
    return float_rank(gram.data, gram.abs_tol()) == gram.n


# -- radical -----------------------------------------------------------------------


def radical(g: LieAlgebraData) -> list[Matrix]:
    """Largest solvable ideal: the trace-form orthocomplement of [g, g]."""
    _require_exact(g.basis, "radical")
    derived = span_basis([bracket(a, b) for a in g.basis for b in g.basis])
    if not derived:
        return list(g.basis)
    rows = [[(b @ y).trace() for b in g.basis] for y in derived]
    rad = [g.element(v) for v in exact_nullspace(rows)]
    _check_radical(g, rad)
    return rad


def _check_radical(g: LieAlgebraData, rad: list[Matrix]):
    rad_space = Subspace(rad)
    for b in g.basis:
        for r in rad:
            if not in_span(bracket(b, r), rad_space):
                raise PostconditionFailed("radical candidate is not an ideal")
    if rad and not is_solvable(algebra_from_basis(span_basis(rad))):
        raise PostconditionFailed("radical candidate is not solvable")
    quo = _quotient_structure(g, rad)
    if quo is not None and quo.dim and trace_form(quo, ADJOINT).gram.det() == 0:
        raise PostconditionFailed("quotient by the radical has degenerate Killing form")


def _quotient_structure(g: LieAlgebraData, ideal: list[Matrix]) -> LieAlgebraData | None:
    """Structure constants of g modulo an ideal (for Killing-form checks).

    The returned object's basis holds the adjoint matrices of the quotient,
    so only its structure constants and dimension are meaningful.
    """
    comp = _complement_mod(list(g.basis), ideal)
    if not comp:
        return None
    d = len(comp)
    try:
        sc = _structure_constants(comp, True, ideal)
    except ValueError:
        raise PostconditionFailed("quotient brackets fall outside the algebra") from None
    ads = []
    for i in range(d):
        rows = [[sc[i, j, k] for j in range(d)] for k in range(d)]
        ads.append(Matrix.exact(rows))
    return LieAlgebraData(d, tuple(ads), sc)


def _complement_mod(whole: list[Matrix], sub: list[Matrix]) -> list[Matrix]:
    """Elements of `whole` extending a basis of span(sub) to span(whole)."""
    space = Subspace(sub)
    return [m for m in whole if space.add(m)]


# -- unipotent radical ------------------------------------------------------------------


def unipotent_radical(g: LieAlgebraData) -> list[Matrix]:
    """Intersection of g with the trace radical of its associative envelope.

    The envelope is generated without adjoining an identity; in
    characteristic zero its trace radical equals its nilpotent Jacobson
    radical, which collects exactly the elements acting nilpotently on
    every composition factor of the natural module.
    """
    _require_exact(g.basis, "unipotent_radical")
    if g.dim == 0:
        return []
    env_space = Subspace(g.basis)
    env = env_space.matrices()
    while True:
        size = len(env_space)
        for a in env:
            for b in env:
                env_space.add(a @ b)
        if len(env_space) == size:
            break
        env = env_space.matrices()
    m = len(env)
    gram = [[(env[i] @ env[j]).trace() for i in range(m)] for j in range(m)]
    rad_env = []
    for v in exact_nullspace(gram):
        acc = Matrix.zero(g.ambient)
        for i, c in enumerate(v):
            if c != 0:
                acc = acc + env[i].scale(c)
        rad_env.append(acc)
    out = intersect(rad_env, list(g.basis))
    _check_unipotent_radical(g, out)
    return out


def _check_unipotent_radical(g: LieAlgebraData, out: list[Matrix]):
    for u in out:
        if not u.is_nilpotent():
            raise PostconditionFailed("unipotent radical contains a non-nilpotent element")
    out_space = Subspace(out)
    for b in g.basis:
        for u in out:
            if not in_span(bracket(b, u), out_space):
                raise PostconditionFailed("unipotent radical is not an ideal")
    rad = Subspace(radical(g))
    for u in out:
        if not in_span(u, rad):
            raise PostconditionFailed("unipotent radical is not inside the radical")


# -- reductive complement -------------------------------------------------------------


def levi_complement(g: LieAlgebraData) -> LeviDecomp:
    """Reductive complement to the unipotent radical.

    Starts from any vector-space complement and corrects it stage by stage
    along the lower central series of the unipotent radical; each stage
    solves the linear system that pushes the bracket defects one stage
    deeper.
    """
    _require_exact(g.basis, "levi_complement")
    unip = unipotent_radical(g)
    if not unip:
        decomp = LeviDecomp(tuple(g.basis), ())
        _check_levi(g, decomp)
        return decomp
    levi = _complement_mod(list(g.basis), unip)
    chain = series(algebra_from_basis(span_basis(unip)), LOWER_CENTRAL)
    if chain[-1]:
        raise PostconditionFailed("unipotent radical is not nilpotent")
    for stage in range(len(chain) - 1):
        levi = _correct_stage(levi, chain[stage], chain[stage + 1])
    levi_space = Subspace(levi)
    for i in range(len(levi)):
        for j in range(i + 1, len(levi)):
            if not in_span(bracket(levi[i], levi[j]), levi_space):
                raise LiftFailed("complement is not bracket closed after the last stage")
    decomp = LeviDecomp(tuple(levi), tuple(unip))
    _check_levi(g, decomp)
    return decomp


def _correct_stage(levi: list[Matrix], uj: list[Matrix], uj1: list[Matrix]) -> list[Matrix]:
    """One lifting stage: move bracket defects from span(uj) into span(uj1)."""
    w = _complement_mod(uj, uj1)  # basis of uj modulo uj1
    if not w:
        return levi
    p, dl = len(w), len(levi)
    mixed = Subspace(levi + w + uj1)

    def split(m: Matrix) -> tuple[list[Fraction], list[Fraction]]:
        coords = coords_in_span(m, mixed)
        if coords is None:
            raise LiftFailed("bracket defect left the expected filtration stage")
        return coords[:dl], coords[dl:dl + p]

    nunk = dl * p  # unknowns t[i][a]: levi[i] gets + sum_a t[i][a] w[a]
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i in range(dl):
        for j in range(i + 1, dl):
            c, d = split(bracket(levi[i], levi[j]))
            # want: d + [m_i, l_j] + [l_i, m_j] - sum_k c_k m_k = 0 mod span(uj1)
            coeff = [[Fraction(0)] * nunk for _ in range(p)]
            for a in range(p):
                for b_idx, val in enumerate(split(bracket(w[a], levi[j]))[1]):
                    coeff[b_idx][i * p + a] += val
                for b_idx, val in enumerate(split(bracket(levi[i], w[a]))[1]):
                    coeff[b_idx][j * p + a] += val
                for k in range(dl):
                    if c[k] != 0:
                        coeff[a][k * p + a] -= c[k]
            for b_idx in range(p):
                rows.append(coeff[b_idx])
                rhs.append(-d[b_idx])
    if rows:
        sol = exact_solve(rows, rhs)
        if sol is None:
            raise LiftFailed("correction system is inconsistent")
    else:
        sol = [Fraction(0)] * nunk
    out = []
    for i in range(dl):
        m = levi[i]
        for a in range(p):
            if sol[i * p + a] != 0:
                m = m + w[a].scale(sol[i * p + a])
        out.append(m)
    return out


def _check_levi(g: LieAlgebraData, decomp: LeviDecomp):
    levi, unip = list(decomp.levi_basis), list(decomp.unip_basis)
    if span_dim(levi + unip) != g.dim or intersect(levi, unip):
        raise PostconditionFailed("complement and unipotent radical do not split the algebra")
    levi_space, unip_space = Subspace(levi), Subspace(unip)
    for i in range(len(levi)):
        for j in range(i + 1, len(levi)):
            if not in_span(bracket(levi[i], levi[j]), levi_space):
                raise PostconditionFailed("complement is not a subalgebra")
    if levi and not is_reductive(algebra_from_basis(span_basis(levi))):
        raise PostconditionFailed("complement is not reductive")
    for a in levi:
        for b in unip:
            if not in_span(bracket(a, b), unip_space):
                raise PostconditionFailed("unipotent radical is not stable under the complement")


# -- element predicates -------------------------------------------------------------


def is_semisimple_element(x: Matrix, g: LieAlgebraData) -> bool:
    """True when the nilpotent part of x vanishes; x must lie in span(g)."""
    if g.is_exact and x.mode == EXACT:
        if not in_span(x, list(g.basis)):
            raise NotInAlgebra("element is outside the algebra span")
        return additive_jordan(x).u.is_zero()
    if _f_coords(x, list(g.basis)) is None:
        raise NotInAlgebra("element is outside the algebra span at tolerance")
    return additive_jordan(x).u.is_zero()
