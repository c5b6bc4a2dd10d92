"""Matrix Lie algebra structure: closure, series, radical, trace forms,
reductivity, unipotent radical, and reductive complements.

The heavy structure computations (radical, unipotent radical, complement
lifting) are exact-only: rank decisions compound, and the statements being
computed are exact.  Closure, series, structure constants, trace forms and
the reductivity test run one path for both tracks.  Every span question
goes to a ``matrix_core.Subspace`` or, on the float track, a
``FloatSubspace``, whose one residual rule decides rank and membership
alike.  Every trace Gram, natural or Killing, is one product over a stack
of matrices, and g is reductive when its natural Gram is invertible.

The radical is read off the structure constants: [g, g] in coordinates,
paired with the natural Gram.  The postcondition checks run on the matrix
lists they are given, without building a ``LieAlgebraData``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import numpy as np

from ._span import (
    bracket,
    coords_in_span,
    independent_subset,
    intersect,
    span_basis,
    span_dim,
    span_of,
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
    DEFAULT_TOL,
    EXACT,
    FloatSubspace,
    Matrix,
    Subspace,
    _combine,
    _kernel,
    _scaled,
    exact_solve,
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


# -- construction ---------------------------------------------------------------


def _structure_constants(basis: list[Matrix], space: Subspace | FloatSubspace,
                         brackets: dict[tuple[int, int], Matrix] | None = None) -> np.ndarray:
    """sc[i, j, k]: coefficient of basis[k] in [basis[i], basis[j]].

    Coordinates come from ``space``, whose last rank-raising vectors are
    basis; those along its earlier ones, an ideal's, are dropped, so sc is
    taken modulo that ideal.  An exact space gives Fractions, a float one
    least-squares floats.  ``brackets``, when given, holds [basis[i], basis[j]]
    at (i, j) for every i < j, and no pair is bracketed here.
    """
    d, exact = len(basis), isinstance(space, Subspace)
    sc = np.empty((d, d, d), dtype=object if exact else float)
    sc[:] = Fraction(0) if exact else 0.0
    for i, j in combinations(range(d), 2):
        coords = coords_in_span(brackets[i, j] if brackets else bracket(basis[i], basis[j]), space)
        if coords is None:
            raise ValueError("basis is not bracket closed")
        xs, den = coords
        xs = xs[len(xs) - d:]
        if exact:
            for k, x in enumerate(xs):
                if x:
                    sc[i, j, k] = f = Fraction(x, den)
                    sc[j, i, k] = -f
        else:
            sc[i, j] = xs
            sc[j, i] = 0 - sc[i, j]  # not -sc: float zeros stay +0.0, as lstsq gives them
    return sc


def algebra_from_basis(basis: list[Matrix], ambient: int | None = None) -> LieAlgebraData:
    """Wrap a bracket-closed, linearly independent family as a LieAlgebraData."""
    if not basis:
        return LieAlgebraData(ambient or 0, (), np.empty((0, 0, 0), dtype=object))
    space = span_of(basis)
    if len(space) != len(basis):
        raise ValueError("basis is linearly dependent" if isinstance(space, Subspace)
                         else "basis is numerically dependent")
    return LieAlgebraData(basis[0].n, tuple(basis), _structure_constants(list(basis), space))


def lie_closure(generators: list[Matrix], ambient: int | None = None) -> LieAlgebraData:
    """Smallest bracket-closed subspace containing the generators.

    Each round adds the brackets that raise the rank of the span; the rank
    is at most n^2, so the loop ends on both tracks.
    """
    gens = [m for m in generators if not m.is_zero()]
    if not gens:
        return algebra_from_basis([], generators[0].n if generators else ambient)
    space = Subspace() if all(m.mode == EXACT for m in gens) else FloatSubspace()
    basis = independent_subset(gens, space)
    brackets: dict[tuple[int, int], Matrix] = {}  # (i, j): [basis[i], basis[j]], i < j
    done = 0  # every pair within basis[:done] was bracketed in an earlier round
    while True:
        fresh = {(i, j): bracket(basis[i], basis[j])
                 for i in range(len(basis)) for j in range(max(i + 1, done), len(basis))}
        brackets.update(fresh)
        new = [br for br in fresh.values() if not br.is_zero() and space.add(br)]
        if not new:
            break
        done = len(basis)
        basis += new
    # basis is exactly the vectors that raised the rank of space, and every pair is bracketed
    return LieAlgebraData(basis[0].n, tuple(basis), _structure_constants(basis, space, brackets))


# -- series and solvability --------------------------------------------------------


def _series(basis: list[Matrix], kind: str) -> list[list[Matrix]]:
    """Derived or lower central series of span(basis), from basis down to the stable term."""
    chain = [list(basis)]
    while True:
        current = chain[-1]
        left = current if kind == DERIVED else chain[0]
        # [b, a] = -[a, b], so a span of [current, current] needs each unordered pair once
        pairs = combinations(current, 2) if left is current else product(left, current)
        brackets = [bracket(a, b) for a, b in pairs]
        nxt = span_basis([m for m in brackets if not m.is_zero()])
        if len(nxt) >= len(current):
            break
        chain.append(nxt)
        if not nxt:
            break
    return chain


def series(g: LieAlgebraData, kind: str) -> list[list[Matrix]]:
    """Derived or lower central series, from g down to the stable term."""
    if kind not in (DERIVED, LOWER_CENTRAL):
        raise ValueError(f"kind must be {DERIVED!r} or {LOWER_CENTRAL!r}")
    return _series(list(g.basis), kind)


def is_solvable(g: LieAlgebraData) -> bool:
    return not _series(list(g.basis), DERIVED)[-1]


def is_nilpotent(g: LieAlgebraData) -> bool:
    return not _series(list(g.basis), LOWER_CENTRAL)[-1]


def _brackets_inside(pairs, mats: list[Matrix]) -> bool:
    """True when [a, b] lies in span(mats) for every pair (a, b)."""
    space = Subspace(mats)
    return all(bracket(a, b) in space for a, b in pairs)


# -- trace forms ---------------------------------------------------------------------


def _stack(ms: list[Matrix]) -> tuple[np.ndarray, int | None]:
    """ms as a k x n x n array: ints over their common denominator, or floats (None)."""
    if all(m.mode == EXACT for m in ms):
        den = lcm(*(m.ints[1] for m in ms))
        return np.array([nums * (den // d) for nums, d in (m.ints for m in ms)], dtype=object), den
    return np.array([m.float_array() for m in ms]), None


def _gram(stack: np.ndarray, den: int | None, tol: float = DEFAULT_TOL) -> Matrix:
    """Gram tr(A_i A_j) of a k x n x n stack A, ints over den or floats (den None), as one
    product by tr(X Y) = vec(X) . vec(Y^T).  ad_i is sc[i] transposed, so the Killing form
    stacks the structure constants."""
    k, n = stack.shape[:2]
    gram = np.dot(stack.reshape(k, n * n), stack.transpose(0, 2, 1).reshape(k, n * n).T)
    return Matrix(gram, APPROX, tol) if den is None else Matrix.from_ints(gram, den * den)


def trace_form(g: LieAlgebraData, rep: str = NATURAL) -> TraceFormGram:
    """Gram matrix tr(rho(b_i) rho(b_j)); rho = inclusion or adjoint."""
    if rep not in (NATURAL, ADJOINT):
        raise ValueError(f"rep must be {NATURAL!r} or {ADJOINT!r}")
    if g.dim == 0:
        return TraceFormGram(Matrix.exact([]), rep)
    if rep == NATURAL:
        stack, den = _stack(list(g.basis))
    else:
        sc = g.structure_constants
        stack, den = _scaled(sc) if g.is_exact else (sc, None)
    return TraceFormGram(_gram(stack, den, max(b.tol for b in g.basis)), rep)


def is_reductive(g: LieAlgebraData) -> bool:
    """Nondegeneracy of the natural trace form."""
    return trace_form(g, NATURAL).gram.is_invertible()


# -- radical -----------------------------------------------------------------------


def radical(g: LieAlgebraData) -> list[Matrix]:
    """Largest solvable ideal: the trace-form orthocomplement of [g, g].

    Row (i, j) of sc * G, for the structure constants sc and the natural
    Gram G, holds tr([b_i, b_j] b_k); its kernel is the radical.  The
    candidate is certified on matrices by ``_check_radical``.
    """
    _require_exact(g.basis, "radical")
    d = g.dim
    nums, _ = _scaled(g.structure_constants)  # scaling keeps every span and kernel
    if not nums.any():
        return list(g.basis)
    gram, _ = _gram(*_stack(list(g.basis))).ints  # a positive multiple keeps the kernel
    kernel, den = _kernel(np.dot(nums.reshape(d * d, d), gram).tolist())
    rad = [_combine(k, g.basis, g.ambient, den) for k in kernel]
    _check_radical(g, rad)
    return rad


def _check_radical(g: LieAlgebraData, rad: list[Matrix]):
    if not _brackets_inside(product(g.basis, rad), rad):
        raise PostconditionFailed("radical candidate is not an ideal")
    if _series(rad, DERIVED)[-1]:
        raise PostconditionFailed("radical candidate is not solvable")
    # the quotient's structure constants, in a complement drawn from g's basis
    space = Subspace(rad)
    comp = independent_subset(list(g.basis), space)
    try:
        quo = _structure_constants(comp, space)
    except ValueError:
        raise PostconditionFailed("quotient brackets fall outside the algebra") from None
    if comp and not _gram(*_scaled(quo)).is_invertible():
        raise PostconditionFailed("quotient by the radical has degenerate Killing form")


# -- unipotent radical ------------------------------------------------------------------


def unipotent_radical(g: LieAlgebraData) -> list[Matrix]:
    """Intersection of g with the trace radical of its associative envelope.

    The envelope is generated without adjoining an identity: it is the span
    of the words in g's basis, built round by round as b @ w for a basis
    element b and a word w that raised the rank in the round before, until
    a round adds nothing.  In characteristic zero its trace radical equals
    its nilpotent Jacobson radical, which collects exactly the elements
    acting nilpotently on every composition factor of the natural module.
    """
    _require_exact(g.basis, "unipotent_radical")
    if g.dim == 0:
        return []
    env_space = Subspace()
    frontier = [b for b in g.basis if env_space.add(b)]
    while frontier:
        frontier = [w for w in (b @ f for b in g.basis for f in frontier) if env_space.add(w)]
    env = env_space.matrices()
    gram, _ = _gram(*_stack(env)).ints
    rad_env = [_combine(k, env, g.ambient) for k in _kernel(gram.tolist())[0]]
    out = intersect(rad_env, list(g.basis))
    _check_unipotent_radical(g, out)
    return out


def _check_unipotent_radical(g: LieAlgebraData, out: list[Matrix]):
    if not all(u.is_nilpotent() for u in out):
        raise PostconditionFailed("unipotent radical contains a non-nilpotent element")
    if not _brackets_inside(product(g.basis, out), out):
        raise PostconditionFailed("unipotent radical is not an ideal")
    # a solvable ideal lies in the radical, the largest one
    if _series(out, DERIVED)[-1]:
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
    levi = independent_subset(list(g.basis), unip)
    chain = _series(unip, LOWER_CENTRAL)  # unip is a reduced basis already (from intersect)
    if chain[-1]:
        raise PostconditionFailed("unipotent radical is not nilpotent")
    for stage in range(len(chain) - 1):
        levi = _correct_stage(levi, chain[stage], chain[stage + 1])
    decomp = LeviDecomp(tuple(levi), tuple(unip))
    # the check's closure test is the lift's own last test
    _check_levi(g, decomp, LiftFailed("complement is not bracket closed after the last stage"))
    return decomp


def _correct_stage(levi: list[Matrix], uj: list[Matrix], uj1: list[Matrix]) -> list[Matrix]:
    """One lifting stage: move bracket defects from span(uj) into span(uj1).

    With [l_i, l_j] = sum_k c_k l_k + d modulo uj1, each l_i gets
    m_i = sum_a t[i][a] w_a (w: uj modulo uj1) with, for each pair,
    d + [m_i, l_j] + [l_i, m_j] - sum_k c_k m_k = 0 modulo uj1.  The w-part
    of [w_a, l_k] is read once per (a, k); that of [l_k, w_a] is its negative.
    """
    w = independent_subset(uj, uj1)
    p, dl = len(w), len(levi)
    if not w or dl < 2:
        return levi
    mixed = Subspace(levi + w + uj1)

    def split(m: Matrix) -> tuple[list[int], int]:
        coords = coords_in_span(m, mixed)
        if coords is None:
            raise LiftFailed("bracket defect left the expected filtration stage")
        return coords

    # every coordinate over one denominator: levi's, then w's, of [w_a, l_k] and [l_i, l_j]
    wl = [[split(bracket(wa, lk)) for lk in levi] for wa in w]
    ll = [split(bracket(levi[i], levi[j])) for i, j in combinations(range(dl), 2)]
    den = lcm(*(d for _, d in ll), *(d for row in wl for _, d in row))
    x = [[[v * (den // d) for v in xs[dl:dl + p]] for xs, d in row] for row in wl]
    rows: list[list[int]] = []  # unknown t[i][a] in column i * p + a
    rhs: list[int] = []
    for (i, j), (xs, d) in zip(combinations(range(dl), 2), ll):
        c = [v * (den // d) for v in xs]
        for b in range(p):  # the w_b component
            row = [0] * (dl * p)
            for a in range(p):
                row[i * p + a] += x[a][j][b]
                row[j * p + a] -= x[a][i][b]
            for k in range(dl):
                row[k * p + b] -= c[k]
            rows.append(row)
            rhs.append(-c[dl + b])
    sol = exact_solve(rows, rhs)
    if sol is None:
        raise LiftFailed("correction system is inconsistent")
    # m + ..., term by term, keeps each element's own tol
    return [sum((wa.scale(t) for wa, t in zip(w, sol[i * p:(i + 1) * p]) if t), m)
            for i, m in enumerate(levi)]


def _check_levi(g: LieAlgebraData, decomp: LeviDecomp, not_closed: Exception | None = None):
    """Certify a Levi decomposition; ``not_closed`` is raised for an unclosed complement."""
    levi, unip = list(decomp.levi_basis), list(decomp.unip_basis)
    # both lists together form a basis of g
    if len(levi) + len(unip) != g.dim or span_dim(levi + unip) != g.dim:
        raise PostconditionFailed("complement and unipotent radical do not split the algebra")
    if not _brackets_inside(combinations(levi, 2), levi):
        raise not_closed or PostconditionFailed("complement is not a subalgebra")
    if levi and not _gram(*_stack(levi)).is_invertible():
        raise PostconditionFailed("complement is not reductive")
    if not _brackets_inside(product(levi, unip), unip):
        raise PostconditionFailed("unipotent radical is not stable under the complement")


# -- element predicates -------------------------------------------------------------


def is_semisimple_element(x: Matrix, g: LieAlgebraData) -> bool:
    """True when the nilpotent part of x vanishes; x must lie in span(g)."""
    exact = g.is_exact and x.mode == EXACT
    if x not in (Subspace if exact else FloatSubspace)(g.basis):
        raise NotInAlgebra("element is outside the algebra span"
                           + ("" if exact else " at tolerance"))
    return additive_jordan(x).u.is_zero()
