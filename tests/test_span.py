import os
import subprocess
import sys
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gauss_jordan as gj
from integer_form import check_integer_form
from nashkit._span import bracket, eigenspace, intersect, restriction
from nashkit.liealg import ADJOINT, NATURAL, LieAlgebraData, trace_form
from nashkit.matrix_core import (
    FloatSubspace,
    Matrix,
    Subspace,
    exact_nullspace,
    exact_solve,
    float_rank,
    nullspace,
    rational_eigenvalues,
    rref,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# small entries, zero-heavy, so that random families are often dependent
entries = st.one_of(st.just(Fraction(0)),
                    st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3)))


@st.composite
def families(draw, max_vectors=6):
    length = draw(st.integers(1, 5))
    vec = st.lists(entries, min_size=length, max_size=length)
    return draw(st.lists(vec, max_size=max_vectors)), vec


def rank(vecs):
    return len(gj.rref(vecs)[1]) if vecs else 0


@settings(max_examples=80, deadline=None)
@given(families())
def test_echelon_rows_match_rref(data):
    vecs, _ = data
    space = Subspace(vecs)
    red, pivots = gj.rref(vecs) if vecs else ([], [])
    assert space.rows == red[:len(pivots)]
    assert space.pivots == pivots
    assert len(space) == len(pivots)


@settings(max_examples=80, deadline=None)
@given(families().flatmap(lambda fv: st.tuples(st.just(fv[0]), fv[1])))
def test_membership_iff_rank_stays(data):
    vecs, v = data
    assert (v in Subspace(vecs)) == (rank(vecs + [v]) == rank(vecs))


@settings(max_examples=80, deadline=None)
@given(families().flatmap(lambda fv: st.tuples(st.just(fv[0]), fv[1],
                                               st.lists(entries, min_size=len(fv[0]),
                                                        max_size=len(fv[0])))))
def test_coords_rebuild_the_vector(data):
    vecs, v, weights = data
    space = Subspace(vecs)
    combo = [sum((w * x[i] for w, x in zip(weights, vecs)), Fraction(0)) for i in range(len(v))]
    for target in (v, combo):
        coords = space.coords(target)
        cols = [[x[i] for x in vecs] for i in range(len(target))]
        reference = gj.solve(cols, target) if vecs else (
            None if any(target) else [])
        assert coords == reference
        if coords is not None:
            rebuilt = [sum((c * x[i] for c, x in zip(coords, vecs)), Fraction(0))
                       for i in range(len(target))]
            assert rebuilt == target
    assert space.coords(combo) is not None


@settings(max_examples=80, deadline=None)
@given(families(max_vectors=8))
def test_add_picks_what_the_rank_test_picks(data):
    vecs, _ = data
    space = Subspace()
    got = [i for i, v in enumerate(vecs) if space.add(v)]
    picked = []
    for i, v in enumerate(vecs):
        if rank([vecs[j] for j in picked] + [v]) > len(picked):
            picked.append(i)
    assert got == picked


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), entries)
def test_unequal_lengths_raise(a, b, x):
    assume(a != b)
    space = Subspace([[x] * a])
    with pytest.raises(ValueError):
        space.add([x] * b)
    with pytest.raises(ValueError):
        space.coords([x] * b)
    with pytest.raises(ValueError):
        Subspace([Matrix.identity(2), Matrix.identity(3)])


def test_matrices_reshape_the_rows():
    space = Subspace([Matrix.exact([[2, 4], [0, 0]]), Matrix.exact([[1, 2], [0, 1]])])
    assert space.matrices() == [Matrix.exact([[1, 2], [0, 0]]),
                                Matrix.exact([[0, 0], [0, 1]])]


# -- integer kernels: brackets and trace forms against Fraction references --------------

_kernel_entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-10 ** 20, 10 ** 20), st.sampled_from([7, 3 ** 40])),
)


def _matrices(n):
    rows = st.lists(st.lists(_kernel_entries, min_size=n, max_size=n), min_size=n, max_size=n)
    return st.one_of(st.just(Matrix.zero(n)), rows.map(Matrix.exact))


def _fraction_product(a, b):
    return [[sum((a.entry(i, k) * b.entry(k, j) for k in range(a.n)), Fraction(0))
             for j in range(a.n)] for i in range(a.n)]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(_matrices(n), _matrices(n))))
def test_bracket_matches_fraction_products(pair):
    a, b = pair
    out = bracket(a, b)
    check_integer_form(out)
    ab, ba = _fraction_product(a, b), _fraction_product(b, a)
    assert out.rows() == [[x - y for x, y in zip(r, s)] for r, s in zip(ab, ba)]
    assert bracket(a, a).is_zero()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.lists(_matrices(n), min_size=1, max_size=5)))
def test_natural_trace_form_matches_fraction_traces(basis):
    d = len(basis)
    g = LieAlgebraData(basis[0].n, tuple(basis), np.empty((d, d, d), dtype=object))
    gram = trace_form(g, NATURAL).gram
    check_integer_form(gram)
    assert gram.rows() == [[sum((p[i][i] for i in range(x.n)), Fraction(0))
                            for p in (_fraction_product(x, y) for y in basis)] for x in basis]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda d: st.lists(_kernel_entries, min_size=d ** 3, max_size=d ** 3)))
def test_adjoint_trace_form_matches_fraction_sums(flat):
    d = round(len(flat) ** (1 / 3))
    sc = np.array(flat, dtype=object).reshape(d, d, d)
    g = LieAlgebraData(1, tuple(Matrix.zero(1) for _ in range(d)), sc)
    gram = trace_form(g, ADJOINT).gram
    check_integer_form(gram)
    assert gram.rows() == [[sum((sc[i, k, l] * sc[j, l, k] for k in range(d) for l in range(d)),
                                Fraction(0)) for j in range(d)] for i in range(d)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(_matrices(n), max_size=5), _matrices(n), st.lists(_kernel_entries, min_size=5,
                                                               max_size=5))))
def test_subspace_of_matrices_with_large_denominators(data):
    mats, m, weights = data
    vecs = [list(x.vec()) for x in mats]
    space = Subspace(mats)
    red, pivots = gj.rref(vecs) if vecs else ([], [])
    assert space.rows == red[:len(pivots)] and space.pivots == pivots
    for b in space.matrices():
        check_integer_form(b)
    combo = [sum((w * x[i] for w, x in zip(weights, vecs)), Fraction(0)) for i in range(m.n ** 2)]
    for target in (list(m.vec()), combo):
        cols = [[x[i] for x in vecs] for i in range(len(target))]
        reference = gj.solve(cols, target) if vecs else (None if any(target) else [])
        assert space.coords(target) == reference
        assert (target in space) == (reference is not None)
    assert space.coords(m) == space.coords(list(m.vec()))


# -- the elimination readers against the Fraction Gauss-Jordan reference ------------

_ENTRY_KINDS = {
    "small": entries,
    "int": st.integers(-3, 3),
    "large": st.one_of(st.just(Fraction(0)), st.builds(
        Fraction, st.integers(-10 ** 20, 10 ** 20), st.sampled_from([7, 3 ** 40]))),
    "zero": st.just(0),
}


def _fraction_image(z, v):
    return [sum((Fraction(x) * y for x, y in zip(row, v)), Fraction(0)) for row in z]


def _reference_restriction(z, basis):
    cols = [[v[i] for v in basis] for i in range(len(z))]
    coords = [gj.solve(cols, _fraction_image(z, v)) if basis else [] for v in basis]
    return None if None in coords else Matrix.exact(coords).T


def _reference_eigenspace(r, lam, basis):
    shifted = [[x - lam * (i == j) for j, x in enumerate(row)] for i, row in enumerate(r.rows())]
    combos = [[sum((k[a] * basis[a][i] for a in range(len(basis))), Fraction(0))
               for i in range(len(basis[0]))] for k in gj.nullspace(shifted)]
    return gj.span_rows(combos) if combos else []


@st.composite
def _elimination_inputs(draw):
    """Rows of one entry kind (empty, all-zero, tall or wide), a right side, and n x n data."""
    entry = _ENTRY_KINDS[draw(st.sampled_from(sorted(_ENTRY_KINDS)))]
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    x = draw(st.lists(entry, min_size=ncols, max_size=ncols))
    rhs = draw(st.one_of(st.just(_fraction_image(rows, x)),
                         st.lists(entry, min_size=nrows, max_size=nrows)))
    n = draw(st.integers(1, 3))
    square = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    z = draw(square)
    a = draw(st.lists(square, min_size=1, max_size=3))
    b = draw(st.lists(square, max_size=3))
    if draw(st.booleans()):  # a shared direction
        b.append([[p + q for p, q in zip(r, s)] for r, s in zip(a[0], a[-1])])
    vecs = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=n))
    return rows, rhs, z, a, b, vecs, draw(st.booleans())


# numpy int64 rows whose products overflow 64 bits
_INT64_ROWS = [list(np.array([2 ** 62, 3, 1], dtype=np.int64)),
               list(np.array([5, 2 ** 62, 7], dtype=np.int64))]


@settings(max_examples=150, deadline=None)
@given(_elimination_inputs())
@example((_INT64_ROWS, [1, 2], [[1]], [[[1]]], [], [[1]], False))
def test_elimination_readers_match_gauss_jordan(data):
    rows, rhs, z, a, b, vecs, krylov = data
    assert rref(rows) == gj.rref(rows)
    assert exact_nullspace(rows) == gj.nullspace(rows)
    assert exact_solve(rows, rhs) == gj.solve(rows, rhs)
    assert [list(v) for v in nullspace(Matrix.exact(z))] == gj.nullspace(z)

    ma, mb = [Matrix.exact(m) for m in a], [Matrix.exact(m) for m in b]
    va, vb = [list(m.vec()) for m in ma], [list(m.vec()) for m in mb]
    kernel = gj.nullspace([[v[i] for v in va] + [-v[i] for v in vb]
                           for i in range(len(z) ** 2)]) if a and b else []
    common = [[sum((k[j] * va[j][i] for j in range(len(va))), Fraction(0))
               for i in range(len(z) ** 2)] for k in kernel]
    assert [list(m.vec()) for m in intersect(ma, mb)] == (gj.span_rows(common) if common else [])

    # an invariant (Krylov) basis, or the echelon rows of random vectors
    basis = gj.span_rows(vecs) if vecs else []
    if krylov and basis:
        basis = [basis[0]]
        while True:
            image = _fraction_image(z, basis[-1])
            if rank(basis + [image]) == len(basis):
                break
            basis.append(image)
    # restriction and eigenspace work in the basis of the span's primitive int echelon rows
    space = Subspace(basis)
    int_basis = [[x * lcm(*(y.denominator for y in row)) for x in row] for row in space.rows]
    r = restriction(Matrix.exact(z), space)
    assert r == _reference_restriction(z, int_basis)
    if r is not None and r.n:
        for lam in (rational_eigenvalues(r) or []) + [Fraction(0)]:
            assert eigenspace(r, lam, space).rows == _reference_eigenspace(r, lam, int_basis)


_INTERLEAVED_KINDS = dict(_ENTRY_KINDS, int64=st.integers(-2 ** 62, 2 ** 62).map(np.int64))


@st.composite
def _interleaved_steps(draw):
    """A run of ("add", v) and ("query", v) steps on vectors of one entry kind; a vector is
    fresh, a repeat of an earlier one, or a combination of earlier ones."""
    entry = _INTERLEAVED_KINDS[draw(st.sampled_from(sorted(_INTERLEAVED_KINDS)))]
    length = draw(st.integers(1, 5))
    seen, steps = [], []
    for _ in range(draw(st.integers(1, 12))):
        how = draw(st.sampled_from(["fresh", "repeat", "combination"]) if seen else
                   st.just("fresh"))
        if how == "fresh":
            v = draw(st.lists(entry, min_size=length, max_size=length))
        elif how == "repeat":
            v = draw(st.sampled_from(seen))
        else:
            weights = draw(st.lists(entries, min_size=len(seen), max_size=len(seen)))
            v = [sum((w * Fraction(int(x.numerator), int(x.denominator))
                      for w, x in zip(weights, (u[i] for u in seen))), Fraction(0))
                 for i in range(length)]
        seen.append(v)
        steps.append((draw(st.sampled_from(["add", "query"])), v))
    return steps


@settings(max_examples=150, deadline=None)
@given(_interleaved_steps())
def test_coords_between_adds_match_gauss_jordan(steps):
    # coords reuses the inverse of the picked block between adds; every rank-raising
    # add must drop it, or the next coords answers in the old span
    space, added = Subspace(), []
    for kind, v in steps:
        if kind == "add":
            assert space.add(v) == (rank(added + [v]) > rank(added))
            added.append(v)
            continue
        cols = [[x[i] for x in added] for i in range(len(v))]
        reference = gj.solve(cols, v) if added else (None if any(v) else [])
        assert space.coords(v) == reference
        if added:
            assert exact_solve(cols, v) == reference


# -- one Subspace fed every input kind at once ---------------------------------------

_MIXED_ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    st.integers(-2 ** 70, 2 ** 70).map(Fraction),  # beyond 2^64
    st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70), st.sampled_from([2, 7, 3 ** 40])),
)


@st.composite
def _mixed_vectors(draw, n, seen):
    """A length n^2 Fraction vector: dense, sparse (a matrix unit or a mostly-zero row),
    a repeat of an earlier one, or a combination of earlier ones."""
    how = draw(st.sampled_from(["dense", "unit", "sparse", "repeat", "combination"]
                               if seen else ["dense", "unit", "sparse"]))
    if how == "repeat":
        return draw(st.sampled_from(seen))
    if how == "combination":
        weights = draw(st.lists(_MIXED_ENTRIES, min_size=len(seen), max_size=len(seen)))
        return [sum((w * u[i] for w, u in zip(weights, seen)), Fraction(0))
                for i in range(n * n)]
    if how == "dense":
        return draw(st.lists(_MIXED_ENTRIES, min_size=n * n, max_size=n * n))
    v = [Fraction(0)] * (n * n)
    for i in draw(st.lists(st.integers(0, n * n - 1), min_size=1,
                           max_size=1 if how == "unit" else 2)):
        v[i] = draw(_MIXED_ENTRIES.filter(bool))
    return v


def _as_kind(v: list[Fraction], kind: str, n: int):
    """(what the Subspace is fed, the Fraction vector it stands for)."""
    if kind == "matrix":
        return Matrix.exact([v[i * n:(i + 1) * n] for i in range(n)]), v
    if kind == "fraction":
        return list(v), v
    if kind == "object":
        return np.array(v, dtype=object), v
    # an int kind is fed v times the lcm of its denominators
    ints = [int(x * lcm(*(y.denominator for y in v))) for x in v]
    if kind == "int64" and all(abs(x) < 2 ** 63 for x in ints):
        return np.array(ints, dtype=np.int64), [Fraction(x) for x in ints]
    return ints, [Fraction(x) for x in ints]


_KINDS = ["matrix", "fraction", "int", "int64", "object"]


@st.composite
def _mixed_feeds(draw):
    n = draw(st.integers(1, 3))
    values: list[list[Fraction]] = []
    for _ in range(draw(st.integers(1, 7))):
        values.append(draw(_mixed_vectors(n, values)))
    feeds = [_as_kind(v, draw(st.sampled_from(_KINDS)), n) for v in values]
    queries = [_as_kind(draw(_mixed_vectors(n, values)), draw(st.sampled_from(_KINDS)), n)
               for _ in range(3)]
    x = draw(st.lists(_MIXED_ENTRIES, min_size=n * n, max_size=n * n))
    consistent = [sum((a * b for a, b in zip(r, x)), Fraction(0)) for _, r in feeds]
    rhs = draw(st.one_of(st.just(consistent),
                         st.lists(_MIXED_ENTRIES, min_size=len(feeds), max_size=len(feeds))))
    return n, feeds, queries, rhs


def _plain_fractions(xs) -> bool:
    return all(type(x) is Fraction and type(x.numerator) is int and type(x.denominator) is int
               for x in xs)


@settings(max_examples=200, deadline=None)
@given(_mixed_feeds())
@example((2, [_as_kind([Fraction(1), Fraction(1), Fraction(0), Fraction(0)], "int64", 2),
              _as_kind([Fraction(0), Fraction(-1), Fraction(0), Fraction(0)], "int64", 2)],
          [], [Fraction(0), Fraction(0)]))
def test_mixed_input_kinds_match_gauss_jordan(data):
    n, feeds, queries, rhs = data
    fed, refs = [f for f, _ in feeds], [r for _, r in feeds]
    space, added = Subspace(), []
    for f, r in feeds:
        assert space.add(f) == (rank(added + [r]) > rank(added))
        added.append(r)
    red, pivots = gj.rref(refs)
    assert space.rows == red[:len(pivots)] and space.pivots == pivots
    assert all(_plain_fractions(row) for row in space.rows)
    mats = space.matrices()
    assert [list(m.vec()) for m in mats] == red[:len(pivots)]
    assert all(m.n == n and _plain_fractions(m.data.flat) for m in mats)
    cols = [[r[i] for r in refs] for i in range(n * n)]
    for q, target in queries + feeds:
        coords = space.coords(q)
        assert coords == gj.solve(cols, target)
        assert (q in space) == (coords is not None)
        assert coords is None or _plain_fractions(coords)
    # the fed vectors as matrix rows (a Matrix by its entries): a kernel and a solve
    rows = [list(f.vec()) if isinstance(f, Matrix) else f for f in fed]
    kernel = exact_nullspace(rows)
    assert kernel == gj.nullspace(refs) and all(_plain_fractions(v) for v in kernel)
    solution = exact_solve(rows, rhs)
    assert solution == gj.solve(refs, rhs)
    assert solution is None or _plain_fractions(solution)


# -- FloatSubspace: one residual rule for rank and membership ----------------------------

_floats = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, 1e-300, -1e-170, 1e-9, 1.0]))
_floors = st.sampled_from([0.0, 1e-300, 1e-12, 1e-6, 0.5])


@st.composite
def float_feeds(draw):
    """(vectors, floor): raw float arrays, or approx matrices carrying their own tol."""
    if draw(st.booleans()):
        length = draw(st.integers(1, 6))
        vec = st.lists(_floats, min_size=length, max_size=length).map(np.array)
    else:
        n, tol = draw(st.integers(1, 2)), draw(_floors)
        vec = st.lists(_floats, min_size=n * n, max_size=n * n).map(
            lambda xs: Matrix.approx(np.reshape(xs, (n, n)), tol))
    return draw(st.lists(vec, min_size=1, max_size=8)), draw(_floors)


def _flat(v):
    return v.float_array().ravel() if isinstance(v, Matrix) else v


@settings(max_examples=200, deadline=None)
@given(float_feeds())
def test_float_membership_iff_add_keeps_the_rank(data):
    vecs, floor = data
    space = FloatSubspace(tol=floor)
    for v in vecs:
        inside = v in space
        assert space.add(v) == (not inside)
        assert v in space
        assert len(space) <= min(space.length, len(vecs))
    q = space.rows
    assert np.allclose(q @ q.T, np.eye(len(q)), atol=1e-12)
    # what stayed out of the rank lies within the largest tolerance of the span, so
    # the stacked vectors are that close (up to rounding) to rank len(space)
    stacked = np.array([_flat(v) for v in vecs])
    tol = max([space.tol] + [v.abs_tol() for v in vecs if isinstance(v, Matrix)])
    # the SVD runs at unit scale, clear of underflow; floored at tol, so tol / big stays finite
    big = max(np.max(np.abs(stacked)), tol) or 1.0
    slack = np.sqrt(len(vecs)) * tol / big + 1e-12 * np.linalg.norm(stacked / big)
    assert float_rank(stacked / big, slack) <= len(space)


@st.composite
def clear_rank_feeds(draw):
    """Small int vectors, often dependent, at a rounding-sized offset, and a floor well above it."""
    length = draw(st.integers(1, 5))
    vec = st.lists(st.integers(-2, 2), min_size=length, max_size=length)
    vecs = draw(st.lists(vec, min_size=1, max_size=6))
    noise = draw(st.sampled_from([0.0, 1e-15]))
    return [np.array(v, dtype=float) + noise for v in vecs], draw(st.sampled_from([1e-9, 1e-7]))


@settings(max_examples=200, deadline=None)
@given(clear_rank_feeds())
def test_float_rank_matches_singular_values_when_they_are_clear(data):
    vecs, floor = data
    stacked = np.array(vecs)
    s = np.linalg.svd(stacked, compute_uv=False)
    assume(not any(floor / 10 <= x <= 10 * floor for x in s))
    assert len(FloatSubspace(vecs, floor)) == float_rank(stacked, floor)


def test_float_rank_is_the_residual_not_the_smallest_singular_value():
    # (100, 1) is 1 away from the line through (1, 0), above the floor 0.5, so the
    # rank is 2; yet the stacked pair is 0.0099 (its smallest singular value) from
    # a rank-one pair: no rule that sees only residuals reads that
    vecs = [np.array([1.0, 0.0]), np.array([100.0, 1.0])]
    assert len(FloatSubspace(vecs, 0.5)) == 2
    assert float_rank(np.array(vecs), 0.5) == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the norm of 1e300 is rescaled silently
def test_float_rank_stops_at_the_vector_length():
    # a full span holds every vector, whatever its residual; and below any floor,
    # a residual at rounding level counts as 0
    space = FloatSubspace([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert not space.add(np.array([1 / 3, 1 / 7])) and len(space) == 2
    assert np.array([1e300, -1e-300]) in space
    line = FloatSubspace([np.array([1.0, 1.0, 1.0]) / 3])
    assert np.array([1 / 3, 1 / 3, 1 / 3]) * 7 in line and len(line) == 1


def test_float_span_holds_the_subnormal_vectors_it_adds():
    # below the normal range rounding is a fixed step of 5e-324, not a share of the size, so
    # such a vector is projected scaled up by a power of two; unscaled, its residual stayed 5e-324
    for v in (np.array([5e-324] * 3), Matrix.approx([[0.0, 5e-324], [5e-324, 5e-324]], 0.0)):
        space = FloatSubspace()
        assert space.add(v) and v in space and not space.add(v) and len(space) == 1


def test_float_coords_are_least_squares_over_the_rank_raisers():
    a, b = Matrix.approx([[1.0, 2.0], [0.0, 0.0]]), Matrix.approx([[0.0, 1.0], [1.0, 0.0]])
    space = FloatSubspace([a, a.scale(2.0), b])
    assert len(space) == 2
    coords = space.coords(a.scale(3.0) - b)
    assert np.allclose(coords, [3.0, 0.0, -1.0]) and coords[1] == 0.0
    assert space.coords(Matrix.approx([[0.0, 0.0], [0.0, 1.0]])) is None
    assert [m.n for m in space.matrices()] == [2, 2]
    with pytest.raises(ValueError):
        space.add(np.zeros(3))


def test_tracer_self_test_passes():
    # the benchmark's tracer wraps _span and liealg functions by name
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "check_tracer.py")],
                          cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
