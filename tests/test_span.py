import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from integer_form import check_integer_form
from nashkit._span import Subspace, bracket
from nashkit.liealg import ADJOINT, NATURAL, LieAlgebraData, trace_form
from nashkit.matrix_core import Matrix, exact_solve, rref

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
    return len(rref(vecs)[1]) if vecs else 0


@settings(max_examples=80, deadline=None)
@given(families())
def test_echelon_rows_match_rref(data):
    vecs, _ = data
    space = Subspace(vecs)
    red, pivots = rref(vecs) if vecs else ([], [])
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
        reference = exact_solve(cols, target) if vecs else (
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
    red, pivots = rref(vecs) if vecs else ([], [])
    assert space.rows == red[:len(pivots)] and space.pivots == pivots
    for b in space.matrices():
        check_integer_form(b)
    combo = [sum((w * x[i] for w, x in zip(weights, vecs)), Fraction(0)) for i in range(m.n ** 2)]
    for target in (list(m.vec()), combo):
        cols = [[x[i] for x in vecs] for i in range(len(target))]
        reference = exact_solve(cols, target) if vecs else (None if any(target) else [])
        assert space.coords(target) == reference
        assert (target in space) == (reference is not None)
    assert space.coords(m) == space.coords(list(m.vec()))


def test_tracer_self_test_passes():
    # the benchmark's tracer wraps _span and liealg functions by name
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "check_tracer.py")],
                          cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
