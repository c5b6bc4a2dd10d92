import itertools
from fractions import Fraction
from math import prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from nashkit.errors import IrrationalSpectrum, NotHyperbolic, NotPositiveRational
from nashkit.explog import exp_nilpotent
from nashkit.matrix_core import Matrix, exact_solve
from nashkit.replica import (
    _integer_kernel,
    exponent_lattice,
    hom_space_dimension,
    replica,
    replica_hyperbolic,
    replica_unipotent,
)


def relation_holds(values, vec):
    prod = Fraction(1)
    for v, k in zip(values, vec):
        prod *= Fraction(v) ** k
    return prod == 1


def in_lattice_span(vec, lattice, m):
    if not any(vec):
        return True
    if not lattice:
        return False
    cols = [[Fraction(lattice[j][i]) for j in range(len(lattice))] for i in range(m)]
    return exact_solve(cols, [Fraction(x) for x in vec]) is not None


def test_exponent_lattice_powers_of_two():
    values = [Fraction(2), Fraction(4), Fraction(8)]
    lat = exponent_lattice(values)
    assert len(lat) == 2
    for vec in lat:
        assert relation_holds(values, vec)
    # (1, 1, -1) and (3, 0, -1) are relations; both must lie in the span
    assert in_lattice_span([1, 1, -1], lat, 3)
    assert in_lattice_span([3, 0, -1], lat, 3)
    assert not in_lattice_span([1, 0, 0], lat, 3)


def _factorint_lattice(values):
    """The relation lattice from prime-exponent rows, by sympy's factorint."""
    exps = []
    for v in values:
        fac = dict(sympy.factorint(v.numerator))
        for p, e in sympy.factorint(v.denominator).items():
            fac[p] = fac.get(p, 0) - e
        exps.append(fac)
    primes = sorted({p for fac in exps for p in fac})
    return _integer_kernel([[fac.get(p, 0) for p in primes] for fac in exps], len(values))


# products of small numbers sharing factors, so the coprime base must refine
_smooth = st.lists(st.sampled_from([2, 3, 4, 5, 6, 9, 10, 12, 15, 49, 2 ** 61 - 1]),
                   max_size=4).map(prod)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.builds(Fraction, _smooth, _smooth), max_size=6))
def test_exponent_lattice_matches_factorint(values):
    assert exponent_lattice(values) == _factorint_lattice(values)


def _in_hermite_lattice(v, hermite):
    """Whether v is an integer combination of echelon rows with positive pivots."""
    v = list(v)
    for k in hermite:
        p = next(i for i, x in enumerate(k) if x)
        q, r = divmod(v[p], k[p])
        if r:
            return False
        v = [a - q * b for a, b in zip(v, k)]
    return not any(v)


_exponent_rows = st.tuples(st.integers(1, 4), st.integers(0, 3)).flatmap(
    lambda mw: st.lists(st.lists(st.integers(-4, 4), min_size=mw[1], max_size=mw[1]),
                        min_size=mw[0], max_size=mw[0]))


@settings(max_examples=150, deadline=None)
@given(_exponent_rows)
def test_integer_kernel_is_the_hermite_basis_of_the_relations(rows):
    # checked against its definition, not against another call of it
    m, width = len(rows), len(rows[0])
    kernel = _integer_kernel(rows, m)
    for k in kernel:  # each row is a relation
        assert all(sum(ki * r[c] for ki, r in zip(k, rows)) == 0 for c in range(width))
    pivots = [next(i for i, x in enumerate(k) if x) for k in kernel]
    assert pivots == sorted(set(pivots))  # increasing pivots
    for r, (k, p) in enumerate(zip(kernel, pivots)):
        assert k[p] > 0 and all(0 <= above[p] < k[p] for above in kernel[:r])
    assert len(kernel) == m - (sympy.Matrix(rows).rank() if width else 0)
    for v in itertools.product(range(-3, 4), repeat=m):
        if all(sum(vi * r[c] for vi, r in zip(v, rows)) == 0 for c in range(width)):
            assert _in_hermite_lattice(v, kernel), v


def test_exponent_lattice_independent_primes():
    assert exponent_lattice([Fraction(2), Fraction(3)]) == []


def test_exponent_lattice_trivial_values():
    lat = exponent_lattice([Fraction(1), Fraction(1)])
    assert len(lat) == 2  # the whole integer lattice
    assert in_lattice_span([5, -7], lat, 2)


def test_exponent_lattice_rejects_nonpositive():
    with pytest.raises(NotPositiveRational):
        exponent_lattice([Fraction(-2)])
    with pytest.raises(NotPositiveRational):
        exponent_lattice([Fraction(0)])


def test_exponent_lattice_vectors_primitive():
    import math

    for values in ([Fraction(4), Fraction(16)], [Fraction(8), Fraction(32), Fraction(2)]):
        for vec in exponent_lattice(values):
            assert math.gcd(*[abs(x) for x in vec]) == 1


def test_hom_space_dimension_examples():
    assert hom_space_dimension([Fraction(2), Fraction(4), Fraction(8)]) == 1
    assert hom_space_dimension([Fraction(2), Fraction(3), Fraction(5)]) == 3
    assert hom_space_dimension([]) == 0


def test_replica_hyperbolic_examples():
    d = replica_hyperbolic(Matrix.diagonal([2, 4, 8]))
    assert d.dimension == 1 and len(d.relation_lattice) == 2
    d2 = replica_hyperbolic(Matrix.diagonal([2, 3]))
    assert d2.dimension == 2 and not d2.relation_lattice
    d3 = replica_hyperbolic(Matrix.identity(3))
    assert d3.dimension == 0


def test_replica_membership_relations():
    x = Matrix.diagonal([Fraction(6), Fraction(4), Fraction(9)])
    d = replica_hyperbolic(x)
    assert d.slots == (Fraction(4), Fraction(6), Fraction(9))
    assert d.relation_lattice  # 4 * 9 = 6^2 is a relation
    for vec in d.relation_lattice:
        assert relation_holds(d.slots, vec)


def test_replica_hyperbolic_rejections():
    with pytest.raises(NotHyperbolic):
        replica_hyperbolic(Matrix.exact([[2, 1], [0, 2]]))  # not semisimple
    with pytest.raises(NotHyperbolic):
        replica_hyperbolic(Matrix.exact([[0, -1], [1, 0]]))  # elliptic
    with pytest.raises(IrrationalSpectrum):
        replica_hyperbolic(Matrix.exact([[3, 1], [1, 2]]))  # irrational spectrum
    with pytest.raises(IrrationalSpectrum):
        replica_hyperbolic(Matrix.approx([[2.0, 0.0], [0.0, 3.0]]))  # float input


def test_replica_unipotent_examples():
    d = replica_unipotent(Matrix.exact([[1, 1], [0, 1]]))
    assert d.dimension == 1 and d.generator == Matrix.exact([[0, 1], [0, 0]])
    assert replica_unipotent(Matrix.identity(2)).dimension == 0
    g = Matrix.exact([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    d3 = replica_unipotent(exp_nilpotent(g))
    assert d3.dimension == 1 and d3.generator == g


def test_replica_dispatch():
    assert replica(Matrix.diagonal([2, 4, 8])).kind == "hyperbolic"
    assert replica(Matrix.exact([[1, 1], [0, 1]])).kind == "unipotent"
    assert replica(Matrix.identity(2)).kind == "unipotent"
    with pytest.raises(NotHyperbolic):
        replica(Matrix.exact([[0, -1], [1, 0]]))


@pytest.mark.parametrize("n, matmuls", [(4, 2), (6, 4), (8, 6)])
def test_exact_unipotent_replica_takes_the_log_series_only(monkeypatch, n, matmuls):
    # I + a strictly upper triangular matrix, conjugated by I + the subdiagonal: replica has
    # found chi = (t - 1)^n, so x - I is nilpotent and only the series y, y^2, ... is formed
    u = Matrix.exact([[int(i == j) + (i + j) % 3 * (j > i) + (j == i + 1) for j in range(n)]
                      for i in range(n)])
    c = Matrix.exact([[int(i == j or i == j + 1) for j in range(n)] for i in range(n)])
    x = c @ u @ c.inv()
    calls, matmul = [], Matrix.__matmul__

    def counted(a, b):
        calls.append(a.mode)
        return matmul(a, b)
    monkeypatch.setattr(Matrix, "__matmul__", counted)
    d = replica(x)
    assert calls == ["exact"] * matmuls
    monkeypatch.undo()
    assert d.kind == "unipotent" and d == replica_unipotent(x)  # the checked path agrees
    assert exp_nilpotent(d.generator) == x


def test_minimality_against_brute_force():
    corpora = [
        [Fraction(2), Fraction(4), Fraction(8)],
        [Fraction(2), Fraction(3)],
        [Fraction(6), Fraction(10), Fraction(15)],
        [Fraction(1, 2), Fraction(4)],
        [Fraction(9), Fraction(3), Fraction(27)],
    ]
    for values in corpora:
        lat = [list(v) for v in exponent_lattice(values)]
        m = len(values)
        for vec in itertools.product(range(-6, 7), repeat=m):
            if relation_holds(values, vec):
                assert in_lattice_span(vec, lat, m), (values, vec)


def test_block_doubling_preserves_dimension():
    for diag in ([2, 4, 8], [2, 3], [5, 25]):
        x = Matrix.diagonal(diag)
        doubled = Matrix.diagonal(diag + diag)
        assert replica_hyperbolic(x).dimension == replica_hyperbolic(doubled).dimension


def test_group_algebra_replica_dimensions_agree():
    # when all log-eigenvalue ratios are rational (eigenvalues b^{c_i} for
    # rational c), the log tuple spans a one-dimensional rational space and
    # the group-side replica dimension must agree
    cases = [
        ([Fraction(1), Fraction(2), Fraction(3)], Matrix.diagonal([2, 4, 8])),
        ([Fraction(1), Fraction(1)], Matrix.diagonal([3, 3])),
        ([Fraction(-1), Fraction(2)], Matrix.diagonal([Fraction(1, 5), 25])),
        ([Fraction(0), Fraction(0)], Matrix.identity(2)),
    ]
    for logs, group_elem in cases:
        log_dim = 1 if any(c != 0 for c in logs) else 0
        assert replica_hyperbolic(group_elem).dimension == log_dim
