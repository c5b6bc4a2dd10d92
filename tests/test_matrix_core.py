from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashkit.errors import ClusterAmbiguity, NotInvertible, ZeroPolynomial
from nashkit.matrix_core import (
    Matrix,
    Polynomial,
    char_poly,
    irreducible_factors,
    matrix_from_json,
    matrix_to_json,
    nullspace,
    spectrum,
    squarefree_part,
)


def test_char_poly_zero_matrix():
    assert char_poly(Matrix.zero(2)) == Polynomial.of([0, 0, 1])


def test_char_poly_triangular():
    # product of diagonal factors: (t-2)^2
    assert char_poly(Matrix.exact([[2, 1], [0, 2]])) == Polynomial.of([4, -4, 1])


def test_char_poly_rotation_by_two():
    # det(tI - m) expanded by hand: t^2 + 4
    assert char_poly(Matrix.exact([[0, -2], [2, 0]])) == Polynomial.of([4, 0, 1])


def test_squarefree_part():
    assert squarefree_part(Polynomial.of([4, -4, 1])) == Polynomial.of([-2, 1])
    assert squarefree_part(Polynomial.of([4, 0, 1])) == Polynomial.of([4, 0, 1])
    assert squarefree_part(Polynomial.of([0, 0, 0, 1])) == Polynomial.of([0, 1])
    with pytest.raises(ZeroPolynomial):
        squarefree_part(Polynomial.of([]))


def test_nullspace_examples():
    assert nullspace(Matrix.identity(2)) == []
    (v,) = nullspace(Matrix.exact([[0, 1], [0, 0]]))
    assert list(v) == [Fraction(1), Fraction(0)]
    (w,) = nullspace(Matrix.exact([[1, 1], [1, 1]]))
    # proportional to (1, -1)
    assert w[0] == -w[1] and w[0] != 0


def test_nullspace_vectors_annihilated():
    m = Matrix.exact([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    for v in nullspace(m):
        image = [sum(m.entry(i, j) * v[j] for j in range(3)) for i in range(3)]
        assert all(x == 0 for x in image)


def test_nullspace_approx_tolerance():
    m = Matrix.approx([[1.0, 1.0], [1.0, 1.0 + 1e-12]])
    (v,) = nullspace(m)
    assert np.linalg.norm(m.data @ v) <= 1e-6


def test_spectrum_examples():
    s = spectrum(Matrix.diagonal([2, Fraction(1, 2)]))
    assert s.clusters == ((0.5 + 0j, 1), (2 + 0j, 1))
    s2 = spectrum(Matrix.exact([[0, -1], [1, 0]]))
    assert s2.clusters == ((-1j, 1), (1j, 1))
    s3 = spectrum(Matrix.exact([[2, 1], [0, 2]]))
    assert s3.clusters == ((2 + 0j, 2),)


def test_spectrum_multiplicities_sum():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = Matrix.exact(rng.integers(-4, 5, size=(4, 4)).tolist())
        assert spectrum(m).total() == 4


def test_spectrum_cluster_ambiguity():
    # gap sits between one and two merge radii: unreliable, must be flagged
    m = Matrix.approx([[1.0, 0.0], [0.0, 1.0 + 4e-8]], tol=1e-8)
    with pytest.raises(ClusterAmbiguity):
        spectrum(m)


def test_spectrum_approx_merges_close_values():
    m = Matrix.approx([[1.0, 0.0], [0.0, 1.0 + 1e-12]])
    ((center, mult),) = spectrum(m).clusters
    assert mult == 2 and abs(center - 1.0) < 1e-9


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=9, max_size=9))
def test_char_poly_conjugation_invariant(entries):
    m = Matrix.exact([entries[0:3], entries[3:6], entries[6:9]])
    g = Matrix.exact([[1, 1, 0], [0, 1, 2], [0, 0, 1]])  # unimodular
    assert char_poly(g @ m @ g.inv()) == char_poly(m)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=2, max_size=7))
def test_squarefree_part_is_squarefree_and_root_preserving(coeffs):
    p = Polynomial.of(coeffs)
    if p.is_zero() or p.degree == 0:
        return
    f = squarefree_part(p)
    # no repeated factor survives: gcd(f, f') is constant
    assert f.gcd(f.derivative()).degree == 0
    # f divides p and has the same roots: the squarefree part of p*f is f again
    _, rem = p.divmod(f)
    assert rem.is_zero()
    assert squarefree_part(p * f) == f


def test_polynomial_division_roundtrip():
    a = Polynomial.of([1, 2, 0, 1])
    b = Polynomial.of([-1, 1])
    q, r = a.divmod(b)
    assert q * b + r == a


def test_irreducible_factors_quartic():
    p = Polynomial.of([2, 0, 4, 0, 1])  # irreducible over the rationals
    assert irreducible_factors(p) == [(p, 1)]
    sq = Polynomial.of([-2, 1]) * Polynomial.of([-2, 1]) * Polynomial.of([1, 1])
    facts = irreducible_factors(sq)
    assert (Polynomial.of([-2, 1]), 2) in facts and (Polynomial.of([1, 1]), 1) in facts


def test_matrix_modes_and_promotion():
    e = Matrix.exact([[1, 0], [0, 1]])
    a = Matrix.approx([[1.0, 0.0], [0.0, 1.0]])
    assert (e + a).mode == "approx"
    assert (e @ e).mode == "exact"
    assert e.inv() == e
    with pytest.raises(NotInvertible):
        Matrix.exact([[1, 1], [1, 1]]).inv()


def test_matrix_json_roundtrip():
    m = Matrix.exact([[Fraction(1, 2), 3], [-2, Fraction(5, 7)]])
    assert matrix_from_json(matrix_to_json(m)) == m
    a = Matrix.approx([[0.5, -1.25], [3.0, 2.0]])
    back = matrix_from_json(matrix_to_json(a))
    assert back.mode == "approx" and np.allclose(back.data, a.data)
    assert matrix_to_json(m)["entries"][0][0] == "1/2"


def test_matrix_json_rejects_garbage():
    with pytest.raises(ValueError):
        matrix_from_json({"entries": [[1]]})
    with pytest.raises(ValueError):
        matrix_from_json({"mode": "weird", "entries": [[1]]})


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_norm_survives_overflowing_squares():
    m = Matrix.approx([[1e200, 1.0], [0.0, 1e200]])
    assert np.isclose(m.norm(), np.sqrt(2.0) * 1e200)
    assert np.isfinite(m.abs_tol())
    assert m.is_invertible()
    small = Matrix.approx([[3.0, 0.0], [4.0, 0.0]])
    assert small.norm() == 5.0


def test_exact_json_rejects_zero_denominator_and_booleans():
    with pytest.raises(ValueError):
        matrix_from_json({"mode": "exact", "entries": [["1/0"]]})
    with pytest.raises(TypeError):
        matrix_from_json({"mode": "exact", "entries": [[True]]})
    assert matrix_from_json({"mode": "exact", "entries": [[2]]}) == Matrix.exact([["2"]])


@pytest.mark.parametrize("m", [Matrix.exact([[1, 2], [3, 4]]), Matrix.diagonal([1, 2]),
                               Matrix.identity(2), Matrix.zero(2),
                               Matrix.approx([[1.0, 2.0], [3.0, 4.0]])])
def test_matrix_data_is_read_only(m):
    with pytest.raises(ValueError):
        m.data[0, 0] = 7
    with pytest.raises(ValueError):
        m.vec()[0] = 7
