import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nashkit._span import Subspace
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


def test_tracer_self_test_passes():
    # the benchmark's tracer wraps _span and liealg functions by name
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "check_tracer.py")],
                          cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
