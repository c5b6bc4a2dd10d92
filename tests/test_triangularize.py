from fractions import Fraction

import numpy as np
import pytest

from nashkit.errors import NotNilpotentAlgebra, NotSolvable, NotSplit
from nashkit.liealg import algebra_from_basis, lie_closure
from nashkit.matrix_core import Matrix, Subspace
from nashkit.selftest import SPLIT_SOLVABLE_MEMBERS, battery
from nashkit.triangularize import common_eigenvector, engel_flag, split_triangularize


def unit(i, j, n=3):
    rows = [[0] * n for _ in range(n)]
    rows[i][j] = 1
    return Matrix.exact(rows)


def flag_respected(g, flag, strict=True):
    """b.V_i inside V_{i-1} (strict) or V_i (invariant only), exactly."""
    n = g.ambient
    stages = [[]] + [list(map(list, stage)) for stage in flag.stages]
    for b in g.basis:
        for i in range(1, len(stages)):
            target = stages[i - 1] if strict else stages[i]
            for v in stages[i]:
                image = [sum(b.entry(r, c) * v[c] for c in range(n)) for r in range(n)]
                if any(x != 0 for x in image) and image not in Subspace(target):
                    return False
    return True


def test_engel_flag_strictly_upper():
    g = algebra_from_basis([unit(0, 1), unit(0, 2), unit(1, 2)])
    flag = engel_flag(g)
    assert flag.complete and len(flag.stages) == 3
    assert list(flag.stages[0][0]) == [1, 0, 0]
    assert flag_respected(g, flag, strict=True)


def test_engel_flag_zero_algebra_coordinate_flag():
    g = lie_closure([], ambient=2)
    flag = engel_flag(g)
    assert [list(v) for v in flag.stages[1]] == [[1, 0], [0, 1]]


def test_engel_flag_single_nilpotent():
    g = algebra_from_basis([unit(0, 1, 2)])
    flag = engel_flag(g)
    assert list(flag.stages[0][0]) == [1, 0]


def test_engel_flag_strictly_upper_4x4():
    g = algebra_from_basis([unit(i, j, 4) for i in range(4) for j in range(4) if i < j])
    flag = engel_flag(g)
    assert flag_respected(g, flag, strict=True)


def test_engel_flag_rejects_non_nilpotent():
    with pytest.raises(NotNilpotentAlgebra):
        engel_flag(algebra_from_basis([Matrix.diagonal([1, -1])]))


def test_common_eigenvector_examples():
    ut2 = algebra_from_basis([unit(0, 0, 2), unit(1, 1, 2), unit(0, 1, 2)])
    v, chars = common_eigenvector(ut2)
    assert v == [Fraction(1), Fraction(0)]
    assert chars == [Fraction(1), Fraction(0), Fraction(0)]

    lt2 = algebra_from_basis([unit(0, 0, 2), unit(1, 1, 2), unit(1, 0, 2)])
    v, _ = common_eigenvector(lt2)
    assert v == [Fraction(0), Fraction(1)]

    heis = algebra_from_basis([unit(0, 1), unit(0, 2), unit(1, 2)])
    v, chars = common_eigenvector(heis)
    assert v == [Fraction(1), Fraction(0), Fraction(0)]
    assert all(c == 0 for c in chars)


def test_common_eigenvector_promotes_irrational_eigenvalues():
    # eigenvalues +-sqrt(2): the exact step cannot pick one, so the float track does
    g = algebra_from_basis([Matrix.exact([[0, 2], [1, 0]])])
    v, (lam,) = common_eigenvector(g)
    assert all(isinstance(x, float) for x in v) and abs(abs(lam) - 2 ** 0.5) <= 1e-12
    assert np.linalg.norm(g.basis[0].float_array() @ v - lam * np.array(v)) <= 1e-12


@pytest.mark.parametrize("track", [Matrix.exact, Matrix.approx])
def test_common_eigenvector_rejects_rotations(track):
    with pytest.raises(NotSplit):
        common_eigenvector(algebra_from_basis([track([[0, -1], [1, 0]])]))


def test_common_eigenvector_of_r0_raises():
    with pytest.raises(ValueError, match="R\\^0 has no eigenvector"):
        common_eigenvector(algebra_from_basis([]))


def test_split_triangularize_swaps_lower_triangular():
    lt2 = algebra_from_basis([unit(0, 0, 2), unit(1, 1, 2), unit(1, 0, 2)])
    p, flag = split_triangularize(lt2)
    assert p == Matrix.exact([[0, 1], [1, 0]])
    for b in lt2.basis:
        m = (p.inv() @ b @ p).rows()
        assert m[1][0] == 0
    assert flag.complete


def test_split_triangularize_identity_on_triangular():
    heis = algebra_from_basis([unit(0, 1), unit(0, 2), unit(1, 2)])
    p, _ = split_triangularize(heis)
    assert p == Matrix.identity(3)


def test_split_triangularize_battery():
    bat = battery()
    for name in SPLIT_SOLVABLE_MEMBERS:
        g = bat[name]
        p, flag = split_triangularize(g)
        pinv = p.inv()
        for b in g.basis:
            m = (pinv @ b @ p).rows()
            for i in range(g.ambient):
                for j in range(i):
                    assert m[i][j] == 0, name
        # first stage is a fixed line of the whole algebra
        assert flag_respected(g, flag, strict=False), name


def test_split_triangularize_rejects_rotations():
    for track in (Matrix.exact, Matrix.approx):
        so2 = algebra_from_basis([track([[0, -1], [1, 0]])])
        with pytest.raises(NotSplit):
            split_triangularize(so2)


def test_split_triangularize_rejects_unsolvable():
    sl2 = lie_closure([unit(0, 1, 2), unit(1, 0, 2)])
    with pytest.raises(NotSolvable):
        split_triangularize(sl2)


def test_split_triangularize_promotes_irrational_split():
    g = algebra_from_basis([Matrix.exact([[0, 1], [2, 0]])])  # eigenvalues +-sqrt(2)
    p, _ = split_triangularize(g)
    assert p.mode == "approx"
    m = (p.inv() @ g.basis[0] @ p).data
    assert abs(m[1, 0]) <= 1e-9


def test_split_triangularize_float_lane():
    g = algebra_from_basis([Matrix.approx([[0.0, 0.0], [1.0, 0.5]])])
    p, _ = split_triangularize(g)
    m = (p.inv() @ g.basis[0] @ p).data
    assert abs(m[1, 0]) <= 1e-8


def test_engel_flag_float_lane():
    import numpy as np

    rng = np.random.default_rng(3)
    c = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
    cinv = np.linalg.inv(c)

    def conj(rows):
        return Matrix.approx(c @ np.array(rows, float) @ cinv)

    g = algebra_from_basis([
        conj([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
        conj([[0, 0, 1], [0, 0, 0], [0, 0, 0]]),
        conj([[0, 0, 0], [0, 0, 1], [0, 0, 0]]),
    ])
    flag = engel_flag(g)
    stages = [np.zeros((3, 0))] + [np.array(s, float).T for s in flag.stages]
    for b in g.basis:
        for i in range(1, 4):
            img = b.float_array() @ stages[i]
            prev = stages[i - 1]
            if prev.shape[1] == 0:
                assert np.linalg.norm(img) < 1e-7
            else:
                proj = prev @ np.linalg.lstsq(prev, img, rcond=None)[0]
                assert np.linalg.norm(img - proj) < 1e-7


def test_common_eigenvector_float_lane():
    import numpy as np

    g = algebra_from_basis([Matrix.approx([[1.0, 2.0], [0.0, 3.0]]),
                            Matrix.approx([[0.0, 1.0], [0.0, 0.0]])])
    v, chars = common_eigenvector(g)
    v = np.array(v)
    for b, lam in zip(g.basis, chars):
        assert np.linalg.norm(b.float_array() @ v - lam * v) < 1e-8


def test_diagonal_characters_match_triangular_entries():
    bat = battery()
    g = bat["ut2"]
    p, _ = split_triangularize(g)
    pinv = p.inv()
    for b in g.basis:
        m = (pinv @ b @ p).rows()
        spec_diag = sorted(m[i][i] for i in range(2))
        orig_diag = sorted(b.entry(i, i) for i in range(2))
        assert spec_diag == orig_diag
