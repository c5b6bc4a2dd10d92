from fractions import Fraction

import numpy as np
import pytest

from nashkit._span import bracket, in_span
from nashkit.cartan_iwasawa import (
    cartan_split,
    iwasawa_kan,
    maximal_abelian,
    nilpotent_part_n,
    polar_kak,
    restricted_roots,
)
from nashkit.errors import NotAbelian, NotInvertible, NotThetaStable
from nashkit.explog import exp_hyperbolic, matrix_exp
from nashkit.jordan import ALGEBRA, classify
from nashkit.liealg import algebra_from_basis
from nashkit.matrix_core import Matrix
from nashkit.selftest import _sl_n, battery
from nashkit.triangularize import engel_flag


def unit(i, j, n=2):
    rows = [[0] * n for _ in range(n)]
    rows[i][j] = 1
    return Matrix.exact(rows)


@pytest.fixture(scope="module")
def sl2():
    return algebra_from_basis([Matrix.diagonal([1, -1]), unit(0, 1), unit(1, 0)])


def test_cartan_split_sl2(sl2):
    cs = cartan_split(sl2)
    assert len(cs.k_basis) == 1 and len(cs.p_basis) == 2
    # k is spanned by E - F, p by {H, E + F}
    assert in_span(unit(0, 1) - unit(1, 0), list(cs.k_basis))
    assert in_span(Matrix.diagonal([1, -1]), list(cs.p_basis))
    assert in_span(unit(0, 1) + unit(1, 0), list(cs.p_basis))


def test_cartan_split_extremes():
    bat = battery()
    cs = cartan_split(bat["so3"])
    assert len(cs.k_basis) == 3 and not cs.p_basis
    cs2 = cartan_split(bat["diag2"])
    assert not cs2.k_basis and len(cs2.p_basis) == 2


def test_cartan_split_bracket_relations():
    bat = battery()
    for name in ("sl2", "so3", "gl2", "diag2"):
        g = bat[name]
        cs = cartan_split(g)
        k, p = list(cs.k_basis), list(cs.p_basis)
        for a in k:
            for b in k:
                assert in_span(bracket(a, b), k) or bracket(a, b).is_zero()
            for b in p:
                assert in_span(bracket(a, b), p) or bracket(a, b).is_zero()
        for a in p:
            for b in p:
                assert in_span(bracket(a, b), k) or bracket(a, b).is_zero()


def test_cartan_split_rejects_unstable():
    g = algebra_from_basis([unit(0, 1)])  # span{E} is not transpose-stable
    with pytest.raises(NotThetaStable):
        cartan_split(g)


def test_p_elements_are_hyperbolic(sl2):
    for g in (sl2, _sl_n(3)):
        for m in cartan_split(g).p_basis:
            assert classify(m, ALGEBRA).hyperbolic


def test_maximal_abelian_sl2(sl2):
    a = maximal_abelian(cartan_split(sl2))
    assert len(a) == 1


def test_maximal_abelian_sl3():
    a = maximal_abelian(cartan_split(_sl_n(3)))
    assert len(a) == 2
    assert all(bracket(x, y).is_zero() for x in a for y in a)


def test_maximal_abelian_empty():
    bat = battery()
    assert maximal_abelian(cartan_split(bat["so3"])) == []


def test_maximal_abelian_seed_independent_dimension():
    for g in (sl2_fixture(), _sl_n(3)):
        cs = cartan_split(g)
        dims = {len(maximal_abelian(cs, seed_index=i)) for i in range(len(cs.p_basis))}
        assert len(dims) == 1


def sl2_fixture():
    return algebra_from_basis([Matrix.diagonal([1, -1]), unit(0, 1), unit(1, 0)])


def test_restricted_roots_sl2(sl2):
    a = [Matrix.diagonal([1, -1])]
    rd = restricted_roots(sl2, a)
    assert rd.roots == ((Fraction(-2),), (Fraction(2),))
    assert rd.positive == (1,)
    assert len(rd.zero_space) == 1 and in_span(a[0], list(rd.zero_space))
    ((e_neg,), (e_pos,)) = rd.root_spaces
    assert in_span(unit(1, 0), [e_neg]) and in_span(unit(0, 1), [e_pos])


def test_restricted_roots_bracket_eigen_property(sl2):
    a = [Matrix.diagonal([1, -1])]
    rd = restricted_roots(sl2, a)
    for alpha, space in zip(rd.roots, rd.root_spaces):
        for x in space:
            assert bracket(a[0], x) == x.scale(alpha[0])


def test_restricted_roots_sl3_counts():
    g = _sl_n(3)
    a = maximal_abelian(cartan_split(g))
    rd = restricted_roots(g, a)
    assert len(rd.roots) == 6
    assert all(len(s) == 1 for s in rd.root_spaces)
    assert len(rd.zero_space) + sum(len(s) for s in rd.root_spaces) == g.dim
    negs = {tuple(-c for c in alpha) for alpha in rd.roots}
    assert negs == set(rd.roots)
    assert len(rd.positive) == 3


def test_restricted_roots_abelian_input():
    bat = battery()
    g = bat["diag2"]
    rd = restricted_roots(g, list(g.basis))
    assert not rd.roots and len(rd.zero_space) == 2


def test_restricted_roots_rejects_nonabelian(sl2):
    with pytest.raises(NotAbelian):
        restricted_roots(sl2, [unit(0, 1), unit(1, 0)])


def test_nilpotent_part_n(sl2):
    rd = restricted_roots(sl2, [Matrix.diagonal([1, -1])])
    n = nilpotent_part_n(rd)
    assert n.dim == 1 and in_span(unit(0, 1), list(n.basis))
    g3 = _sl_n(3)
    rd3 = restricted_roots(g3, maximal_abelian(cartan_split(g3)))
    n3 = nilpotent_part_n(rd3)
    assert n3.dim == 3
    for b in n3.basis:
        assert (b ** b.n).is_zero()


def test_nilpotent_part_n_of_an_empty_a_keeps_the_size():
    so3 = battery()["so3"]
    a = maximal_abelian(cartan_split(so3))
    assert a == []
    n = nilpotent_part_n(restricted_roots(so3, a))
    empty = algebra_from_basis([], 3)
    assert n.dim == 0 and n.ambient == empty.ambient == 3
    assert engel_flag(n) == engel_flag(empty)


def test_polar_kak_examples():
    k, x = polar_kak(Matrix.diagonal([4, 1]))
    assert (k - Matrix.identity(2).to_approx()).norm() <= 1e-12
    assert abs(x.entry(0, 0) - np.log(4)) <= 1e-12 and abs(x.entry(1, 1)) <= 1e-12

    rot = Matrix.exact([[0, -1], [1, 0]])
    k2, x2 = polar_kak(rot)
    assert (k2 - rot.to_approx()).norm() <= 1e-12 and x2.norm() <= 1e-12

    shear = Matrix.exact([[1, 1], [0, 1]])
    k3, x3 = polar_kak(shear)
    assert (k3 @ k3.T - Matrix.identity(2).to_approx()).norm() <= 1e-12
    assert (x3 - x3.T).norm() <= 1e-12
    recon = k3 @ exp_hyperbolic(x3)
    assert (recon - shear.to_approx()).norm() <= 1e-10


def test_polar_kak_ill_conditioned():
    # cond 1e4: log(x^T x) once failed here, as x^T x has cond 1e8
    k, big_x = polar_kak(Matrix.diagonal([100, 1, Fraction(1, 100)]))
    assert (k - Matrix.identity(3).to_approx()).norm() <= 1e-12
    want = np.diag([np.log(100), 0.0, np.log(0.01)])
    assert np.allclose(big_x.data, want, rtol=0, atol=1e-12)
    rng = np.random.default_rng(31)
    eye = np.eye(3)
    for _ in range(200):
        # an SL3 draw U diag(100, 1, 0.01) V^T, U and V Haar-orthogonal with det 1
        u, v = (np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(2))
        u[:, 0] *= np.sign(np.linalg.det(u))
        v[:, 0] *= np.sign(np.linalg.det(v))
        x = u @ np.diag([100.0, 1.0, 0.01]) @ v.T
        k, big_x = polar_kak(Matrix.approx(x))
        assert np.max(np.abs(k.data.T @ k.data - eye)) <= 1e-12
        assert np.array_equal(big_x.data, big_x.data.T)
        recon = k @ matrix_exp(big_x)
        assert np.linalg.norm(recon.data - x) <= 1e-10 * np.linalg.norm(x)


def test_polar_kak_rejects_singular():
    with pytest.raises(NotInvertible):
        polar_kak(Matrix.exact([[1, 1], [1, 1]]))
    with pytest.raises(NotInvertible):
        polar_kak(Matrix.approx([[1, 1], [1, 1 + 1e-12]]))


def test_polar_kak_takes_one_svd_of_a_float_input(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(*args, **kwargs)

    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", counted)
    polar_kak(Matrix.approx([[2.0, 1.0], [0.5, 3.0]]))
    # the invertibility test reads the singular values of the SVD that gives k and X
    assert calls == [True]


def test_iwasawa_kan_examples():
    t = iwasawa_kan(Matrix.diagonal([2, Fraction(1, 2)]))
    assert (t.k - Matrix.identity(2).to_approx()).norm() <= 1e-12
    assert np.allclose(np.diag(t.a.data), [2.0, 0.5])

    rot = Matrix.exact([[0, -1], [1, 0]])
    t2 = iwasawa_kan(rot)
    assert (t2.k - rot.to_approx()).norm() <= 1e-12
    assert (t2.a - Matrix.identity(2).to_approx()).norm() <= 1e-12

    t3 = iwasawa_kan(Matrix.exact([[1, 0], [1, 1]]))
    s2 = np.sqrt(2.0)
    assert np.allclose(t3.k.data, [[1 / s2, -1 / s2], [1 / s2, 1 / s2]], atol=1e-12)
    assert np.allclose(np.diag(t3.a.data), [s2, 1 / s2], atol=1e-12)
    assert np.allclose(t3.n.data, [[1.0, 0.5], [0.0, 1.0]], atol=1e-12)


def test_iwasawa_kan_uniqueness_by_redecomposition():
    rng = np.random.default_rng(29)
    for _ in range(25):
        a = rng.normal(size=(3, 3))
        if abs(np.linalg.det(a)) < 1e-2:
            continue
        t = iwasawa_kan(Matrix.approx(a))
        t2 = iwasawa_kan(t.k @ t.a @ t.n)
        assert (t2.k - t.k).norm() <= 1e-9
        assert (t2.a - t.a).norm() <= 1e-9
        assert (t2.n - t.n).norm() <= 1e-9


def test_iwasawa_kan_adapted_basis():
    # lower-triangular positive group: adapt by the swap permutation
    x = Matrix.exact([[2, 0], [1, 3]])
    p = Matrix.exact([[0, 1], [1, 0]])
    t = iwasawa_kan(x, adapted_basis=p)
    y = (p.inv() @ x @ p).to_approx()
    assert (t.k @ t.a @ t.n - y).norm() <= 1e-12
    assert abs(t.n.entry(1, 0)) <= 1e-12
