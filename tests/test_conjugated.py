"""Battery members conjugated by random unimodular matrices: the structure
computations must produce conjugation-equivariant answers with every kernel
and complement genuinely off the coordinate axes."""

import numpy as np
import pytest

from nashkit.cartan_iwasawa import (
    cartan_split,
    maximal_abelian,
    nilpotent_part_n,
    restricted_roots,
)
from nashkit.liealg import (
    algebra_from_basis,
    is_reductive,
    levi_complement,
    unipotent_radical,
)
from nashkit.matrix_core import Matrix, Subspace
from nashkit.selftest import _random_unimodular, battery
from nashkit.triangularize import engel_flag, split_triangularize


def unit(i, j, n):
    rows = [[0] * n for _ in range(n)]
    rows[i][j] = 1
    return Matrix.exact(rows)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(101)


def conjugated(g, c):
    return algebra_from_basis([c @ b @ c.inv() for b in g.basis])


def test_battery_structure_is_conjugation_invariant(rng):
    bat = battery()
    for name, g in bat.items():
        if g.dim == 0:
            continue
        c = _random_unimodular(rng, g.ambient)
        gc = conjugated(g, c)
        assert is_reductive(gc) == is_reductive(g), name
        assert len(unipotent_radical(gc)) == len(unipotent_radical(g)), name
        assert len(levi_complement(gc).levi_basis) == \
            len(levi_complement(g).levi_basis), name


def test_engel_flag_off_axis(rng):
    heis = algebra_from_basis([unit(0, 1, 3), unit(0, 2, 3), unit(1, 2, 3)])
    for _ in range(4):
        c = _random_unimodular(rng, 3)
        gc = conjugated(heis, c)
        flag = engel_flag(gc)
        stages = [[]] + [list(map(list, s)) for s in flag.stages]
        for b in gc.basis:
            for i in range(1, 4):
                for v in stages[i]:
                    img = [sum(b.entry(r, k) * v[k] for k in range(3))
                           for r in range(3)]
                    assert all(x == 0 for x in img) or img in Subspace(stages[i - 1])


def test_split_triangularize_off_axis(rng):
    ut3 = algebra_from_basis(
        [unit(i, j, 3) for i in range(3) for j in range(3) if i <= j])
    for _ in range(4):
        c = _random_unimodular(rng, 3)
        gc = conjugated(ut3, c)
        p, _ = split_triangularize(gc)
        pinv = p.inv()
        for b in gc.basis:
            m = (pinv @ b @ p).rows()
            for i in range(3):
                for j in range(i):
                    assert m[i][j] == 0


def test_gl2_restricted_roots():
    bat = battery()
    g = bat["gl2"]
    a = maximal_abelian(cartan_split(g))
    assert len(a) == 2
    rd = restricted_roots(g, a)
    assert len(rd.roots) == 2 and len(rd.zero_space) == 2
    assert nilpotent_part_n(rd).dim == 1
