from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from nashkit.errors import (
    NotExponentialElement,
    NotHyperbolic,
    NotNilpotent,
    NotUnipotent,
)
from nashkit.explog import (
    exp_hyperbolic,
    exp_nilpotent,
    log_exponential,
    log_hyperbolic,
    log_unipotent,
    matrix_exp,
)
from nashkit.matrix_core import APPROX, Matrix
from nashkit.selftest import strict_upper_fixtures


def test_exp_nilpotent_examples():
    assert exp_nilpotent(Matrix.exact([[0, 1], [0, 0]])) == Matrix.exact([[1, 1], [0, 1]])
    assert exp_nilpotent(Matrix.zero(3)) == Matrix.identity(3)
    a, b, c = Fraction(2), Fraction(-3), Fraction(1, 2)
    x = Matrix.exact([[0, a, c], [0, 0, b], [0, 0, 0]])
    # three-term series expanded symbolically
    assert exp_nilpotent(x) == Matrix.exact(
        [[1, a, c + a * b / 2], [0, 1, b], [0, 0, 1]])


def test_exp_nilpotent_rejects_non_nilpotent():
    with pytest.raises(NotNilpotent):
        exp_nilpotent(Matrix.identity(2))


def test_log_unipotent_examples():
    assert log_unipotent(Matrix.exact([[1, 1], [0, 1]])) == Matrix.exact([[0, 1], [0, 0]])
    assert log_unipotent(Matrix.identity(3)).is_zero()
    with pytest.raises(NotUnipotent):
        log_unipotent(Matrix.diagonal([2, 1]))


def test_exact_roundtrips_on_fixture_corpus():
    for x in strict_upper_fixtures():
        u = exp_nilpotent(x)
        assert log_unipotent(u) == x
        assert exp_nilpotent(log_unipotent(u)) == u


def test_hyperbolic_examples():
    l = log_hyperbolic(Matrix.diagonal([2, Fraction(1, 2)]))
    assert abs(l.entry(0, 0) - np.log(2)) <= 1e-12
    assert abs(l.entry(1, 1) + np.log(2)) <= 1e-12
    assert abs(l.entry(0, 1)) <= 1e-12
    # both maps always return float, also at the exact zero and identity
    assert exp_hyperbolic(Matrix.zero(2)) == Matrix.identity(2, APPROX)
    assert log_hyperbolic(Matrix.identity(2)) == Matrix.zero(2, APPROX)
    e = exp_hyperbolic(Matrix.approx([[np.log(4), 0.0], [0.0, 0.0]]))
    assert abs(e.entry(0, 0) - 4.0) <= 1e-12 and abs(e.entry(1, 1) - 1.0) <= 1e-12


def test_hyperbolic_mutually_inverse():
    h = Matrix.exact([[2, 1], [0, 3]])
    assert (exp_hyperbolic(log_hyperbolic(h)) - h.to_approx()).norm() <= 1e-10
    x = Matrix.approx([[0.3, 0.1], [0.1, -0.2]])
    assert (log_hyperbolic(exp_hyperbolic(x)) - x).norm() <= 1e-10


def test_hyperbolic_rejections():
    with pytest.raises(NotHyperbolic):
        log_hyperbolic(Matrix.diagonal([-2, 1]))  # negative spectrum
    with pytest.raises(NotHyperbolic):
        log_hyperbolic(Matrix.exact([[2, 1], [0, 2]]))  # not semisimple
    with pytest.raises(NotHyperbolic):
        exp_hyperbolic(Matrix.exact([[0, -1], [1, 0]]))  # imaginary spectrum


def test_log_exponential_examples():
    x = Matrix.exact([[2, 1], [0, 2]])
    lx = log_exponential(x)
    assert (matrix_exp(lx) - x.to_approx()).norm() <= 1e-10 * (1 + x.norm())
    assert abs(lx.entry(0, 0) - np.log(2)) <= 1e-12
    assert log_exponential(Matrix.identity(4)).is_zero()
    with pytest.raises(NotExponentialElement):
        log_exponential(Matrix.exact([[0, -1], [1, 0]]))


def test_log_exponential_on_triangular_group():
    rng = np.random.default_rng(5)
    pool = [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)]
    for _ in range(20):
        rows = [[Fraction(0)] * 4 for _ in range(4)]
        for i in range(4):
            rows[i][i] = pool[int(rng.integers(0, len(pool)))]
            for j in range(i + 1, 4):
                rows[i][j] = Fraction(int(rng.integers(-2, 3)))
        x = Matrix.exact(rows)
        back = matrix_exp(log_exponential(x))
        assert (back - x.to_approx()).norm() <= 1e-9 * (1 + x.norm())


def test_matrix_exp_matches_scipy():
    rng = np.random.default_rng(41)
    for n in range(1, 7):
        for scale in (1e-3, 1.0, 4.0):
            a = scale * rng.normal(size=(n, n))
            ref = scipy.linalg.expm(a)
            got = matrix_exp(Matrix.approx(a)).data
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
    assert matrix_exp(Matrix.zero(3)) == Matrix.identity(3).to_approx()


def test_nonsymmetric_hyperbolic_maps_match_scipy():
    # P diag(w) P^-1 for a well-conditioned P: semisimple, real spectrum, not symmetric
    rng = np.random.default_rng(43)
    for n in range(2, 7):
        for _ in range(5):
            p = rng.normal(size=(n, n)) + n * np.eye(n)
            w = rng.uniform(-2.0, 2.0, size=n)
            w[-1] = w[0]  # a repeated eigenvalue
            x = p @ np.diag(w) @ np.linalg.inv(p)
            ex = scipy.linalg.expm(x)
            assert np.linalg.norm(exp_hyperbolic(Matrix.approx(x)).data - ex) <= 1e-10 * np.linalg.norm(ex)
            y = p @ np.diag(np.exp(w[:-1].tolist() + [w[-1] + 0.5])) @ np.linalg.inv(p)
            ly = np.real(scipy.linalg.logm(y))
            assert np.linalg.norm(log_hyperbolic(Matrix.approx(y)).data - ly) <= 1e-10 * (1 + np.linalg.norm(ly))
