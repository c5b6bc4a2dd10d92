from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gauss_jordan as gj
from nashkit import liealg
from nashkit._span import bracket, in_span, span_basis, span_dim, span_of
from nashkit.errors import ExactModeRequired, LiftFailed, NotInAlgebra, PostconditionFailed
from nashkit.liealg import (
    ADJOINT,
    DERIVED,
    LOWER_CENTRAL,
    NATURAL,
    LeviDecomp,
    LieAlgebraData,
    algebra_from_basis,
    is_nilpotent,
    is_reductive,
    is_semisimple_element,
    is_solvable,
    levi_complement,
    lie_closure,
    radical,
    series,
    trace_form,
    unipotent_radical,
)
from nashkit.matrix_core import FloatSubspace, Matrix, Subspace
from nashkit.selftest import REDUCTIVE_MEMBERS, _random_unimodular, battery, reductive_corpus


def unit(i, j, n=2):
    rows = [[0] * n for _ in range(n)]
    rows[i][j] = 1
    return Matrix.exact(rows)


@pytest.fixture(scope="module")
def bat():
    return battery()


def test_lie_closure_generates_sl2():
    g = lie_closure([unit(0, 1), unit(1, 0)])
    assert g.dim == 3
    assert in_span(Matrix.diagonal([1, -1]), list(g.basis))


def test_lie_closure_brackets_each_pair_once(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return bracket(a, b)

    monkeypatch.setattr(liealg, "bracket", counted)
    g = lie_closure([unit(0, 1, 3), unit(1, 2, 3), unit(2, 0, 3)])  # sl3, in three rounds
    # a round brackets only the pairs with a member new since the last round, and the
    # structure constants read the brackets the rounds kept, so each pair is bracketed once
    assert g.dim == 8 and len(calls) == g.dim * (g.dim - 1) // 2


def test_lie_closure_trivial_cases():
    assert lie_closure([], ambient=2).dim == 0
    g = lie_closure([Matrix.identity(3)])
    assert g.dim == 1


def test_lie_closure_of_zero_generators_keeps_their_size():
    # all-zero generators span the zero algebra of gl_3, not of gl_0
    from nashkit.triangularize import common_eigenvector, engel_flag, split_triangularize

    closed, empty = lie_closure([Matrix.zero(3)]), algebra_from_basis([], 3)
    assert closed.ambient == empty.ambient == 3 and closed.dim == 0
    assert engel_flag(closed) == engel_flag(empty)
    assert split_triangularize(closed) == split_triangularize(empty)
    assert common_eigenvector(closed) == common_eigenvector(empty)


@pytest.mark.parametrize("tol", [0.0, 1e-300])
def test_float_lie_closure_ends_below_rounding(tol):
    # every rounding residual is above such a tolerance; each round still raises the
    # rank, which stops at n^2, so the closure ends (it once looped forever)
    gens = [[[-2, -0.75, 5 / 3], [0, 7, -4 / 3], [-9, -9, -3]],
            [[-1, -1, -4 / 3], [7, -4, 6], [1 / 3, -1.25, 9]]]
    g = lie_closure([Matrix.approx(m, tol) for m in gens])
    assert g.dim == 9 and g.structure_constants.shape == (9, 9, 9)
    sl2 = [Matrix.approx([[0, 1], [0, 0]], tol), Matrix.approx([[0, 0], [1, 0]], tol)]
    assert lie_closure(sl2).dim == 3
    assert lie_closure([Matrix.approx(np.eye(2), tol)]).dim == 1


def test_structure_constants_match_brackets():
    g = lie_closure([unit(0, 1), unit(1, 0)])
    for i in range(g.dim):
        for j in range(g.dim):
            lhs = bracket(g.basis[i], g.basis[j])
            rhs = Matrix.zero(g.ambient)
            for k in range(g.dim):
                rhs = rhs + g.basis[k].scale(g.structure_constants[i, j, k])
            assert lhs == rhs


def test_series_examples(bat):
    assert not is_solvable(bat["sl2"])
    chain = series(bat["heis3"], LOWER_CENTRAL)
    assert [len(c) for c in chain] == [3, 1, 0]
    assert is_nilpotent(bat["heis3"])
    assert is_solvable(bat["zero"])
    assert is_solvable(bat["ut3"]) and not is_nilpotent(bat["ut3"])
    # derived series of sl2 is constant
    assert [len(c) for c in series(bat["sl2"], DERIVED)] == [3]


def test_radical_examples(bat):
    assert radical(bat["sl2"]) == []
    assert len(radical(bat["ut2"])) == 3
    rad = radical(bat["gl2"])
    assert len(rad) == 1 and in_span(Matrix.identity(2), rad)


def test_trace_form_sl2():
    h, e, f = Matrix.diagonal([1, -1]), unit(0, 1), unit(1, 0)
    g = algebra_from_basis([h, e, f])
    tf = trace_form(g, NATURAL)
    assert tf.gram == Matrix.exact([[2, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert tf.gram.det() == -2
    killing = trace_form(g, ADJOINT).gram
    # Killing form of sl2 is 4x the natural trace form
    assert killing == Matrix.exact([[8, 0, 0], [0, 0, 4], [0, 4, 0]])


def test_trace_form_edge_cases(bat):
    assert trace_form(bat["zero"], NATURAL).gram.n == 0
    nil = algebra_from_basis([unit(0, 1)])
    assert trace_form(nil, NATURAL).gram == Matrix.exact([[0]])


def test_trace_form_congruent_under_rebasing():
    h, e, f = Matrix.diagonal([1, -1]), unit(0, 1), unit(1, 0)
    g = algebra_from_basis([h, e, f])
    s = Matrix.exact([[1, 1, 0], [0, 1, 2], [1, 0, 1]])  # change of basis coords
    new_basis = []
    for j in range(3):
        acc = Matrix.zero(2)
        for i, b in enumerate(g.basis):
            acc = acc + b.scale(s.entry(i, j))
        new_basis.append(acc)
    g2 = algebra_from_basis(new_basis)
    assert trace_form(g2, NATURAL).gram == s.T @ trace_form(g, NATURAL).gram @ s


def test_trace_form_invariant_under_conjugation():
    h, e, f = Matrix.diagonal([1, -1]), unit(0, 1), unit(1, 0)
    g = algebra_from_basis([h, e, f])
    c = Matrix.exact([[2, 1], [1, 1]])
    conj = algebra_from_basis([c @ b @ c.inv() for b in g.basis])
    assert trace_form(conj, NATURAL).gram == trace_form(g, NATURAL).gram


def test_is_reductive_examples(bat):
    assert is_reductive(bat["sl2"])
    assert not is_reductive(bat["ut2"])
    assert is_reductive(bat["zero"])
    assert is_reductive(bat["gl2"]) and is_reductive(bat["so3"])
    assert not is_reductive(bat["heis3"]) and not is_reductive(bat["gl2_semi"])


def test_unipotent_radical_examples(bat):
    ur = unipotent_radical(bat["ut2"])
    assert len(ur) == 1 and in_span(unit(0, 1), ur)
    assert unipotent_radical(bat["sl2"]) == []
    assert len(unipotent_radical(bat["heis3"])) == 3
    assert len(unipotent_radical(bat["gl2_semi"])) == 2


def test_reductivity_cross_oracle(bat):
    for name, g in bat.items():
        assert is_reductive(g) == (unipotent_radical(g) == []), name


def test_radical_contains_unipotent_radical(bat):
    for name, g in bat.items():
        rad = radical(g)
        for u in unipotent_radical(g):
            assert in_span(u, rad), name


def test_levi_examples(bat):
    d = levi_complement(bat["ut2"])
    assert len(d.levi_basis) == 2 and len(d.unip_basis) == 1
    assert all(in_span(b, [unit(0, 0), unit(1, 1)]) for b in d.levi_basis)
    d2 = levi_complement(bat["gl2_semi"])
    assert len(d2.levi_basis) == 4 and len(d2.unip_basis) == 2
    d3 = levi_complement(bat["sl2"])
    assert len(d3.levi_basis) == 3 and not d3.unip_basis


def test_levi_postconditions(bat):
    for name, g in bat.items():
        d = levi_complement(g)
        levi, unip = list(d.levi_basis), list(d.unip_basis)
        assert span_dim(levi + unip) == g.dim, name
        for a in levi:
            for b in levi:
                assert in_span(bracket(a, b), levi), name
            for u in unip:
                assert in_span(bracket(a, u), unip), name
        if levi:
            assert is_reductive(algebra_from_basis(levi)), name


def test_levi_needs_actual_correction():
    # complement seeded from this basis is not a subalgebra: the lift must fix it
    a = Matrix.exact([[1, 0, 0], [0, 0, 0], [0, 0, 0]]) + Matrix.exact(
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    b = Matrix.exact([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    c = Matrix.exact([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    d = Matrix.exact([[0, 0, 0], [0, 1, 0], [0, 0, 0]])
    e13 = Matrix.exact([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    e23 = Matrix.exact([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    g = algebra_from_basis([a, b, c, d, e13, e23])
    decomp = levi_complement(g)
    assert len(decomp.levi_basis) == 4 and len(decomp.unip_basis) == 2


def test_is_semisimple_element_examples():
    h, e, f = Matrix.diagonal([1, -1]), unit(0, 1), unit(1, 0)
    sl2 = algebra_from_basis([h, e, f])
    assert is_semisimple_element(h, sl2)
    assert not is_semisimple_element(e, sl2)
    gl2 = algebra_from_basis([unit(0, 0), unit(0, 1), unit(1, 0), unit(1, 1)])
    assert is_semisimple_element(Matrix.exact([[1, 1], [0, 2]]), gl2)
    with pytest.raises(NotInAlgebra):
        is_semisimple_element(Matrix.identity(2), sl2)


def test_exact_only_operations_reject_floats():
    g = algebra_from_basis([Matrix.approx([[1.0, 0.0], [0.0, -1.0]])])
    with pytest.raises(ExactModeRequired):
        radical(g)
    with pytest.raises(ExactModeRequired):
        unipotent_radical(g)
    with pytest.raises(ExactModeRequired):
        levi_complement(g)


def test_float_track_closure_and_reductivity():
    e = Matrix.approx([[0.0, 1.0], [0.0, 0.0]])
    f = Matrix.approx([[0.0, 0.0], [1.0, 0.0]])
    g = lie_closure([e, f])
    assert g.dim == 3
    assert is_reductive(g)
    assert not is_reductive(lie_closure([e]))


def test_semisimple_density_on_reductive_corpus():
    rng = np.random.default_rng(17)
    for g, x in reductive_corpus(0):
        if is_semisimple_element(x, g):
            continue
        found = False
        for _ in range(100):
            coeffs = [Fraction(int(rng.integers(-999, 1000)), 4_000_000)
                      for _ in range(g.dim)]
            y = x + g.element(coeffs)
            if (y - x).norm() <= 1e-3 and is_semisimple_element(y, g):
                found = True
                break
        assert found


def test_battery_membership(bat):
    assert set(bat) == {"zero", "diag2", "sl2", "so3", "gl2", "ut2", "ut3",
                        "heis3", "gl2_semi"}
    assert all(bat[name].dim > 0 for name in REDUCTIVE_MEMBERS if name != "zero")


# -- each postcondition check fires on a hand-made bad candidate ------------------------


def _gl2():
    return algebra_from_basis([unit(0, 0), unit(0, 1), unit(1, 0), unit(1, 1)])


def _sl2_basis():
    return [Matrix.diagonal([1, -1]), unit(0, 1), unit(1, 0)]


def test_check_radical_fires(bat):
    with pytest.raises(PostconditionFailed, match="^radical candidate is not an ideal$"):
        liealg._check_radical(_gl2(), [unit(0, 1)])
    with pytest.raises(PostconditionFailed, match="^radical candidate is not solvable$"):
        liealg._check_radical(_gl2(), _sl2_basis())
    with pytest.raises(PostconditionFailed,
                       match="^quotient by the radical has degenerate Killing form$"):
        liealg._check_radical(bat["heis3"], [])
    # a basis that is not bracket closed: [E12, E21] = H is outside its span
    open_pair = LieAlgebraData(2, (unit(0, 1), unit(1, 0)), np.zeros((2, 2, 2), dtype=object))
    with pytest.raises(PostconditionFailed, match="^quotient brackets fall outside the algebra$"):
        liealg._check_radical(open_pair, [])


def test_check_unipotent_radical_fires(bat):
    with pytest.raises(PostconditionFailed,
                       match="^unipotent radical contains a non-nilpotent element$"):
        liealg._check_unipotent_radical(_gl2(), [unit(0, 0)])
    with pytest.raises(PostconditionFailed, match="^unipotent radical is not an ideal$"):
        liealg._check_unipotent_radical(_gl2(), [unit(0, 1)])
    # sl2 has a basis of nilpotent matrices ([[1, 1], [-1, -1]] squares to 0); it is an
    # ideal of itself but not solvable, so it is not inside the radical
    nilpotent_basis = [unit(0, 1), unit(1, 0), Matrix.exact([[1, 1], [-1, -1]])]
    with pytest.raises(PostconditionFailed,
                       match="^unipotent radical is not inside the radical$"):
        liealg._check_unipotent_radical(bat["sl2"], nilpotent_basis)


def test_check_levi_fires(bat):
    e = unit
    with pytest.raises(PostconditionFailed,
                       match="^complement and unipotent radical do not split the algebra$"):
        liealg._check_levi(bat["ut2"], LeviDecomp((e(0, 0),), (e(0, 1),)))
    with pytest.raises(PostconditionFailed,
                       match="^complement and unipotent radical do not split the algebra$"):
        liealg._check_levi(bat["ut2"], LeviDecomp((e(0, 0), e(0, 0), e(1, 1)), (e(0, 1),)))
    with pytest.raises(PostconditionFailed, match="^complement is not a subalgebra$"):
        liealg._check_levi(bat["ut2"], LeviDecomp((e(0, 0), e(1, 1) + e(0, 1)), (e(0, 1),)))
    with pytest.raises(PostconditionFailed, match="^complement is not reductive$"):
        liealg._check_levi(bat["heis3"], LeviDecomp((e(0, 1, 3),), (e(0, 2, 3), e(1, 2, 3))))
    # the diagonal is reductive, but [E11, E21 + E11] = -E21 leaves span(E12, E21 + E11)
    with pytest.raises(PostconditionFailed,
                       match="^unipotent radical is not stable under the complement$"):
        liealg._check_levi(_gl2(), LeviDecomp((e(0, 0), e(1, 1)), (e(0, 1), e(1, 0) + e(0, 0))))


def test_levi_closing_check_fires(monkeypatch):
    # the algebra of test_levi_needs_actual_correction, with the correction stages skipped
    rows = [[[1, 0, 1], [0, 0, 0], [0, 0, 0]], [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
            [[0, 0, 0], [1, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
            [[0, 0, 1], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 1], [0, 0, 0]]]
    g = algebra_from_basis([Matrix.exact(r) for r in rows])
    monkeypatch.setattr(liealg, "_correct_stage", lambda levi, uj, uj1: levi)
    with pytest.raises(LiftFailed,
                       match="^complement is not bracket closed after the last stage$"):
        levi_complement(g)


# -- structure constants and the radical against bracket-derived references -----------


@lru_cache(maxsize=None)
def _members():
    return {name: g for name, g in battery().items() if g.dim}


def _reference_structure_constants(basis, exact):
    """Both orders of every pair bracketed and coordinatized on their own.

    Float coordinates are least squares over the basis vectors.
    """
    d = len(basis)
    sc = np.empty((d, d, d), dtype=object if exact else float)
    sc[:] = Fraction(0) if exact else 0.0
    cols = np.array([b.float_array().ravel() for b in basis]).T
    for i in range(d):
        for j in range(d):
            if i != j:
                br = bracket(basis[i], basis[j])
                if exact:
                    sc[i, j] = gj.solve([list(col) for col in zip(*(b.vec() for b in basis))],
                                        list(br.vec()))
                else:
                    sol, *_ = np.linalg.lstsq(cols, br.float_array().ravel(), rcond=None)
                    sc[i, j] = [float(c) for c in sol]
    return sc


def _reference_radical(g):
    """Span of all [b_i, b_j], then the trace pairing with the basis, then its kernel."""
    derived = span_basis([bracket(a, b) for a in g.basis for b in g.basis])
    if not derived:
        return list(g.basis)
    pairing = [[(c @ b).trace() for b in g.basis] for c in derived]
    return [g.element(v) for v in gj.nullspace(pairing)]


_conjugates = st.tuples(st.sampled_from(sorted(_members())), st.integers(0, 2 ** 32 - 1))


def _conjugate_basis(name, seed):
    g = _members()[name]
    c = _random_unimodular(np.random.default_rng(seed), g.ambient)
    return [c @ b @ c.inv() for b in g.basis]


@settings(max_examples=60, deadline=None)
@given(_conjugates)
def test_structure_constants_match_both_orders_reference(member):
    basis = _conjugate_basis(*member)
    got = liealg._structure_constants(basis, Subspace(basis))
    assert (got == _reference_structure_constants(basis, True)).all()
    floats = [b.to_approx() for b in basis]
    got = liealg._structure_constants(floats, FloatSubspace(floats))
    assert got.tobytes() == _reference_structure_constants(floats, False).tobytes()  # bit for bit


def _closure_matches_fresh_structure_constants(gens):
    for mats in (gens, [m.to_approx() for m in gens]):
        g = lie_closure(mats)
        fresh = liealg._structure_constants(list(g.basis), span_of(g.basis))
        if g.is_exact:
            assert (g.structure_constants == fresh).all()
        else:
            assert g.structure_constants.tobytes() == fresh.tobytes()  # bit for bit


def test_closure_structure_constants_match_fresh_brackets_on_the_battery():
    # the brackets the closure kept give what bracketing its basis anew gives
    for g in _members().values():
        _closure_matches_fresh_structure_constants(list(g.basis))


@settings(max_examples=30, deadline=None)
@given(_conjugates)
def test_closure_structure_constants_match_fresh_brackets(member):
    _closure_matches_fresh_structure_constants(_conjugate_basis(*member))


@settings(max_examples=40, deadline=None)
@given(_conjugates)
def test_float_trace_forms_match_the_exact_ones(member):
    basis = _conjugate_basis(*member)
    exact, floats = algebra_from_basis(basis), algebra_from_basis([b.to_approx() for b in basis])
    for rep in (NATURAL, ADJOINT):
        want = trace_form(exact, rep).gram.float_array()
        got = trace_form(floats, rep).gram
        assert got.mode == "approx"
        assert np.max(np.abs(got.data - want)) <= 1e-12 * (1 + np.max(np.abs(want)))
    assert is_reductive(floats) == is_reductive(exact)


@settings(max_examples=60, deadline=None)
@given(_conjugates)
def test_radical_matches_bracket_reference(member):
    g = algebra_from_basis(_conjugate_basis(*member))
    assert radical(g) == _reference_radical(g)


# -- the unipotent radical against an all-pairs envelope reference ---------------------


def _reference_unipotent_radical(basis):
    """Close span(basis) under every product of two elements, then take the trace
    radical of that envelope and meet it with span(basis), on Fraction vectors."""
    n = basis[0].n
    env = span_basis(list(basis))
    while True:
        grown = span_basis(env + [a @ b for a in env for b in env])
        if len(grown) == len(env):
            break
        env = grown
    gram = [[(a @ b).trace() for b in env] for a in env]
    rad_env = [[sum((c * m.vec()[i] for c, m in zip(v, env)), Fraction(0)) for i in range(n * n)]
               for v in gj.nullspace(gram)]
    vb = [list(b.vec()) for b in basis]
    kernel = gj.nullspace([[v[i] for v in rad_env] + [-v[i] for v in vb]
                           for i in range(n * n)]) if rad_env else []
    common = [[sum((k[j] * rad_env[j][i] for j in range(len(rad_env))), Fraction(0))
               for i in range(n * n)] for k in kernel]
    return gj.span_rows(common) if common else []


# the 5-cycle C spans a Lie algebra whose envelope span(C, .., C^5 = I) has no trace
# radical; tr(C^k) = 0 for 0 < k < 5, so an envelope cut before the words of length 4
# has one that meets span(C)
_CYCLE5 = Matrix.exact([[int(j == (i + 1) % 5) for j in range(5)] for i in range(5)])


def _conjugated_cycle(seed):
    c = _random_unimodular(np.random.default_rng(seed), 5)
    return [c @ _CYCLE5 @ c.inv()]


@settings(max_examples=40, deadline=None)
@given(st.one_of(_conjugates.map(lambda member: _conjugate_basis(*member)),
                 st.integers(0, 2 ** 32 - 1).map(_conjugated_cycle)))
@example([_CYCLE5])
def test_unipotent_radical_matches_all_pairs_envelope(basis):
    got = unipotent_radical(algebra_from_basis(basis))
    assert [list(u.vec()) for u in got] == _reference_unipotent_radical(basis)
