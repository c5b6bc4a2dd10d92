from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashkit import jordan
from nashkit.errors import NotAbelian, NotInvertible, PostconditionFailed
from nashkit.explog import matrix_exp
from nashkit.jordan import (
    ALGEBRA,
    GROUP,
    _all_roots_negative,
    _all_roots_positive,
    _all_roots_real,
    _roots_modulus_one,
    _roots_purely_imaginary,
    abelian_ehu_split,
    additive_jordan,
    classify,
    eigenprojections,
    multiplicative_jordan,
    sn_split,
)
from nashkit.matrix_core import (
    FloatSubspace,
    Matrix,
    Polynomial,
    Subspace,
    char_poly,
    rational_eigenvalues,
    squarefree_part,
)


def test_sn_split_examples():
    s, n = sn_split(Matrix.exact([[0, 1], [0, 0]]))
    assert s.is_zero() and n == Matrix.exact([[0, 1], [0, 0]])
    s, n = sn_split(Matrix.exact([[2, 1], [0, 2]]))
    assert s == Matrix.diagonal([2, 2]) and n == Matrix.exact([[0, 1], [0, 0]])
    s, n = sn_split(Matrix.exact([[0, 1], [1, 0]]))
    assert n.is_zero() and s == Matrix.exact([[0, 1], [1, 0]])


def test_sn_split_properties():
    rng = np.random.default_rng(7)
    for _ in range(25):
        t = np.triu(rng.integers(-3, 4, size=(4, 4)))
        p = np.eye(4, dtype=int)
        p[0, 1] = 1
        p[2, 3] = -2
        x = Matrix.exact(p.tolist()) @ Matrix.exact(t.tolist()) @ Matrix.exact(p.tolist()).inv()
        s, n = sn_split(x)
        assert s + n == x
        assert (n ** 4).is_zero()
        assert (s @ n - n @ s).is_zero()
        f = squarefree_part(char_poly(x))
        assert f.eval_matrix(s).is_zero()


def test_additive_jordan_examples():
    t = additive_jordan(Matrix.zero(3))
    assert t.e.is_zero() and t.h.is_zero() and t.u.is_zero()
    t = additive_jordan(Matrix.exact([[2, 1], [0, 2]]))
    assert t.e.is_zero() and t.h == Matrix.diagonal([2, 2])
    assert t.u == Matrix.exact([[0, 1], [0, 0]])
    t = additive_jordan(Matrix.exact([[1, -2], [2, 1]]))
    assert t.e == Matrix.exact([[0, -2], [2, 0]])
    assert t.h == Matrix.diagonal([1, 1]) and t.u.is_zero()


def test_multiplicative_jordan_examples():
    t = multiplicative_jordan(Matrix.identity(2))
    assert t.e == t.h == t.u == Matrix.identity(2)
    t = multiplicative_jordan(Matrix.exact([[2, 1], [0, 2]]))
    assert t.e == Matrix.identity(2)
    assert t.h == Matrix.diagonal([2, 2])
    assert t.u == Matrix.exact([[1, Fraction(1, 2)], [0, 1]])
    t = multiplicative_jordan(Matrix.exact([[0, -2], [2, 0]]))
    assert t.e == Matrix.exact([[0, -1], [1, 0]])
    assert t.h == Matrix.diagonal([2, 2]) and t.u == Matrix.identity(2)


def test_multiplicative_requires_invertible():
    with pytest.raises(NotInvertible):
        multiplicative_jordan(Matrix.exact([[1, 1], [1, 1]]))


def test_negative_eigenvalue_split_exact():
    x = Matrix.diagonal([-3, 2])
    t = multiplicative_jordan(x)
    assert t.e == Matrix.diagonal([-1, 1])
    assert t.h == Matrix.diagonal([3, 2])
    assert t.e @ t.h @ t.u == x


def test_reconstruction_and_commutation_float():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.normal(size=(4, 4))
        if abs(np.linalg.det(a)) < 1e-2:
            continue
        x = Matrix.approx(a)
        t = multiplicative_jordan(x)
        scale = 1e-9 * (1 + x.norm())
        assert (t.e @ t.h @ t.u - x).norm() <= scale
        assert (t.e @ t.h - t.h @ t.e).norm() <= scale
        assert (t.e @ t.u - t.u @ t.e).norm() <= scale
        assert (t.h @ t.u - t.u @ t.h).norm() <= scale


def test_uniqueness_brute_force_2x2():
    # commutant of a non-scalar 2x2 is spanned by {I, x}; search all triples
    # with h = aI + bx over a small rational grid for valid factorizations
    grid = sorted({Fraction(n, d) for n in range(-12, 13) for d in (1, 2, 5)})
    ident = Matrix.identity(2)
    for x in (Matrix.exact([[0, -2], [2, 0]]),
              Matrix.exact([[2, 1], [0, 2]]),
              Matrix.diagonal([-3, 2])):
        t = multiplicative_jordan(x)
        found = []
        for a, b in product(grid, grid):
            h = ident.scale(a) + x.scale(b)
            if not h.is_invertible() or not classify(h, GROUP).hyperbolic:
                continue
            rest = x @ h.inv()  # e * u, still a polynomial in x
            tr = multiplicative_jordan(rest)
            if not (tr.h == ident):
                continue
            e, u = tr.e, tr.u
            if e @ h @ u == x and classify(e, GROUP).elliptic \
                    and classify(u, GROUP).unipotent:
                found.append((e, h, u))
        assert any(e == t.e and h == t.h and u == t.u for e, h, u in found)
        hs = {tuple(tuple(r) for r in h.rows()) for _, h, _ in found}
        assert len(hs) == 1  # the hyperbolic part is unique on the grid


def test_classify_examples():
    c = classify(Matrix.identity(2), GROUP)
    assert (c.elliptic, c.hyperbolic, c.unipotent, c.semisimple, c.exponential) == (
        True, True, True, True, True)
    c = classify(Matrix.exact([[0, -1], [1, 0]]), GROUP)
    assert c.elliptic and c.semisimple
    assert not (c.hyperbolic or c.unipotent or c.exponential)
    c = classify(Matrix.diagonal([2, Fraction(1, 2)]), GROUP)
    assert c.hyperbolic and c.semisimple and c.exponential
    assert not (c.elliptic or c.unipotent)


def test_classify_algebra_setting():
    c = classify(Matrix.zero(2), ALGEBRA)
    assert c.elliptic and c.hyperbolic and c.unipotent and c.semisimple and c.exponential
    c = classify(Matrix.exact([[0, 1], [0, 0]]), ALGEBRA)
    assert c.unipotent and c.exponential and not c.semisimple
    c = classify(Matrix.exact([[0, -1], [1, 0]]), ALGEBRA)
    assert c.elliptic and c.semisimple and not c.exponential


def test_classify_parts_of_decomposition():
    rng = np.random.default_rng(23)
    for _ in range(10):
        m = Matrix.exact(rng.integers(-3, 4, size=(3, 3)).tolist())
        if not m.is_invertible():
            continue
        t = multiplicative_jordan(m)
        assert classify(t.e, GROUP).elliptic
        assert classify(t.h, GROUP).hyperbolic
        assert classify(t.u, GROUP).unipotent


def test_functoriality_conjugation_exact():
    x = Matrix.exact([[2, 1], [0, 3]])
    g = Matrix.exact([[1, 1], [1, 2]])
    tx = multiplicative_jordan(x)
    ty = multiplicative_jordan(g @ x @ g.inv())
    assert ty.e == g @ tx.e @ g.inv()
    assert ty.h == g @ tx.h @ g.inv()
    assert ty.u == g @ tx.u @ g.inv()


def test_functoriality_block_doubling():
    x = Matrix.exact([[0, -2], [2, 0]])
    tx = multiplicative_jordan(x)
    rows = [[0] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            rows[i][j] = x.entry(i, j)
            rows[i + 2][j + 2] = x.entry(i, j)
    doubled = Matrix.exact(rows)
    td = multiplicative_jordan(doubled)
    for part, dpart in zip(tx.parts(), td.parts()):
        for i in range(2):
            for j in range(2):
                assert dpart.entry(i, j) == part.entry(i, j)
                assert dpart.entry(i + 2, j + 2) == part.entry(i, j)
                assert dpart.entry(i, j + 2) == 0


def test_exp_of_parts_lands_in_group_class():
    x = Matrix.exact([[1, -2], [2, 1]])
    t = additive_jordan(x)
    assert classify(matrix_exp(t.e), GROUP).elliptic
    assert classify(matrix_exp(t.h), GROUP).hyperbolic
    assert classify(matrix_exp(t.u), GROUP).unipotent


def test_abelian_ehu_split_examples():
    rot = Matrix.exact([[0, -1], [1, 0]])
    two_i = Matrix.diagonal([2, 2])
    e_b, h_b, u_b = abelian_ehu_split([rot, two_i])
    assert len(e_b) == 1 and len(h_b) == 1 and not u_b
    e_b, h_b, u_b = abelian_ehu_split([Matrix.exact([[0, 1], [0, 0]])])
    assert not e_b and not h_b and len(u_b) == 1
    assert abelian_ehu_split([]) == ([], [], [])


@pytest.mark.parametrize("rows, dims", [
    ([[2, 1], [0, 2]], (0, 1, 1)),  # h = 2 I and u = E12: the parts leave the input's span
    ([[1, -1], [1, 1]], (1, 1, 0)),  # e = a rotation generator, h = I
])
@pytest.mark.parametrize("track", ["exact", "approx"])
def test_abelian_split_of_one_element_holds_its_parts(rows, dims, track):
    x = Matrix.exact(rows) if track == "exact" else Matrix.approx(rows)
    bases = abelian_ehu_split([x])
    assert tuple(map(len, bases)) == dims
    assert all(b.mode == x.mode for basis in bases for b in basis)
    e, h, u = additive_jordan(x).parts()
    for part, basis in zip((e, h, u), bases):
        assert part.is_zero() or part in (Subspace if track == "exact" else FloatSubspace)(basis)


def test_abelian_split_rejects_overlapping_parts(monkeypatch):
    # parts whose spans overlap (here e = h) fail the dimension count that proves the sum direct
    def overlapping(x):
        t = additive_jordan(x)
        return jordan.JordanTriple(t.h, t.h, t.u, t.flavor)

    monkeypatch.setattr(jordan, "additive_jordan", overlapping)
    with pytest.raises(PostconditionFailed, match="do not split the input"):
        abelian_ehu_split([Matrix.diagonal([2, 2])])
    with pytest.raises(PostconditionFailed, match="do not split the input"):
        abelian_ehu_split([Matrix.approx([[2, 0], [0, 2]])])


def test_abelian_split_rejects_noncommuting():
    with pytest.raises(NotAbelian):
        abelian_ehu_split([Matrix.exact([[0, 1], [0, 0]]),
                           Matrix.exact([[0, 0], [1, 0]])])


def test_silent_promotion_on_irrational_modulus():
    # eigenvalues 1 +/- sqrt(2): positive/negative pair forces the float track
    x = Matrix.exact([[1, 1], [2, 1]])
    t = multiplicative_jordan(x)
    assert t.h.mode == "approx"
    assert (t.e @ t.h @ t.u - x.to_approx()).norm() <= 1e-9 * (1 + x.norm())


# -- root predicates on the squarefree part against a per-factor reference ---------------


_T = Polynomial.of([0, 1])
_SPECIAL = [
    _T, Polynomial.of([-1, 1]), Polynomial.of([1, 1]),
    Polynomial.of([1, 1, 1, 1, 1]),  # Phi_5
    Polynomial.of([1, -1, 1, -1, 1]),  # Phi_10
    Polynomial.of([1, -1, -1, -1, 1]),  # Salem: two real roots, two on the circle
]
_rat = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
_factor = st.one_of(
    st.sampled_from(_SPECIAL),
    _rat.map(lambda a: Polynomial.of([-a, 1])),
    st.tuples(_rat, _rat).map(lambda cb: Polynomial.of([cb[0], cb[1], 1])),  # real or complex
    _rat.filter(lambda b: abs(b) < 2).map(lambda b: Polynomial.of([1, b, 1])),  # modulus one
    _rat.map(lambda c: Polynomial.of([c, 0, 1])),  # even: t^2 + c
    st.tuples(_rat, _rat).map(lambda cb: Polynomial.of([cb[0], 0, cb[1], 0, 1])),  # r(t^2)
)
_products = st.lists(st.tuples(_factor, st.integers(1, 3)), min_size=1, max_size=3)


def _product(factors) -> Polynomial:
    p = Polynomial.of([1])
    for q, e in factors:
        for _ in range(e):
            p = p * q
    return p


def _companion(p: Polynomial) -> Matrix:
    """Companion matrix of the monic p; its characteristic and minimal polynomials are p."""
    d = p.degree
    rows = [[Fraction(int(i == j + 1)) for j in range(d)] for i in range(d)]
    for i in range(d):
        rows[i][d - 1] = -p.coeffs[i]
    return Matrix.exact(rows)


def _reference(p: Polynomial) -> dict:
    """The predicates decided factor by factor over sympy's factorization, on 40-digit roots."""
    import sympy

    _, factors = p.to_sympy().factor_list()
    ref = {"real": True, "positive": True, "negative": True, "circle": True,
           "imaginary": True, "squarefree": all(e == 1 for _, e in factors)}
    monic = [Polynomial.from_sympy(q).monic() for q, _ in factors]
    ref["irreducible"] = sorted(monic, key=lambda q: (q.degree, q.coeffs))
    for q, _ in factors:
        for z in q.nroots(n=40, maxsteps=200):
            re, im = sympy.re(z), sympy.im(z)
            real = bool(abs(im) < 1e-30)
            ref["real"] &= real
            ref["positive"] &= real and bool(re > 1e-30)
            ref["negative"] &= real and bool(re < -1e-30)
            ref["circle"] &= bool(abs(sympy.sqrt(re ** 2 + im ** 2) - 1) < 1e-30)
            ref["imaginary"] &= bool(abs(re) < 1e-30)
    linear = [q for q in monic if q.degree == 1]
    ref["rational"] = sorted(-q.coeffs[0] for q in linear) if len(linear) == len(monic) else None
    return ref


@settings(max_examples=200, deadline=None)
@given(_products)
def test_squarefree_predicates_match_per_factor_reference(factors):
    p = _product(factors)
    f = squarefree_part(p)
    ref = _reference(p)
    assert _all_roots_real(f) == ref["real"]
    assert _all_roots_positive(f) == ref["positive"]
    assert _all_roots_negative(f) == ref["negative"]
    assert _roots_modulus_one(f) == ref["circle"]
    assert _roots_purely_imaginary(f) == ref["imaginary"]
    if p.degree > 10:  # keeps the companion matrices small
        return
    x = _companion(p)
    assert rational_eigenvalues(x) == ref["rational"]
    semisimple = ref["squarefree"]  # the minimal polynomial of x is p
    c = classify(x, ALGEBRA)
    assert (c.elliptic, c.hyperbolic, c.unipotent, c.semisimple, c.exponential) == (
        semisimple and ref["imaginary"], semisimple and ref["real"],
        ref["irreducible"] == [_T], semisimple, ref["real"])
    if p.coeffs[0] == 0:
        with pytest.raises(NotInvertible):
            classify(x, GROUP)
        return
    c = classify(x, GROUP)
    assert (c.elliptic, c.hyperbolic, c.unipotent, c.semisimple, c.exponential) == (
        semisimple and ref["circle"], semisimple and ref["positive"],
        ref["irreducible"] == [Polynomial.of([-1, 1])], semisimple, ref["positive"])


@pytest.mark.parametrize("f, circle, imaginary", [
    (Polynomial.of([-1, 0, 1]), True, False),  # t^2 - 1: both roots +-1
    (Polynomial.of([-1, 1]) * Polynomial.of([1, 0, 1]), True, False),  # (t - 1)(t^2 + 1)
    (Polynomial.of([1, 1]) * Polynomial.of([1, -1, 1]), True, False),  # (t + 1)(t^2 - t + 1)
    (Polynomial.of([2, 1, 1]), False, False),  # |z|^2 = 2, not palindromic
    (Polynomial.of([1, -1, -1, -1, 1]), False, False),  # Salem, palindromic
    (_T * Polynomial.of([1, 0, 1]) * Polynomial.of([4, 0, 1]), False, True),
    (Polynomial.of([2, 0, 1]) * Polynomial.of([-1, 0, 1]), False, False),  # even, roots +-1 real
])
def test_squarefree_predicate_examples(f, circle, imaginary):
    assert _roots_modulus_one(f) == circle
    assert _roots_purely_imaginary(f) == imaginary


# -- sn_split on Jordan blocks and eigenprojections ---------------------------------


def _unimodular(n: int, seed: int) -> Matrix:
    rng = np.random.default_rng(seed)
    rows = np.eye(n, dtype=int)
    for _ in range(3 * n):
        i, j = rng.choice(n, size=2, replace=False)
        rows[i] += int(rng.integers(-2, 3)) * rows[j]
    return Matrix.exact(rows.tolist())


def _block_diag(blocks: list[list[list]]) -> list[list]:
    n = sum(len(b) for b in blocks)
    rows = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[at + i][at:at + len(b)] = [Fraction(v) for v in row]
        at += len(b)
    return rows


def _jordan_blocks(spec):
    """(x, s): a block diagonal of Jordan blocks and its semisimple part.

    Each (d, k) in spec is a block with k copies of the 1x1 or 2x2 block d
    on its diagonal and identities above them.
    """
    xs, ss = [], []
    for d, k in spec:
        d = np.array(d, dtype=object)
        s = np.kron(np.eye(k, dtype=int), d)
        xs.append(s + np.kron(np.eye(k, k=1, dtype=int), np.eye(len(d), dtype=int)))
        ss.append(s)
    return _block_diag(xs), _block_diag(ss)


@pytest.mark.parametrize("spec", [
    [([[2]], 6)],
    [([[0]], 6)],
    [([[Fraction(-1, 2)]], 5), ([[3]], 1)],
    [([[1]], 3), ([[2]], 3)],
    [([[1]], 4), ([[1]], 2)],
    [([[1, -2], [2, 1]], 3)],
    [([[0, -1], [1, 0]], 2), ([[2]], 2)],
])
def test_sn_split_on_conjugated_jordan_blocks(spec):
    x, s_ref = _jordan_blocks(spec)
    c = _unimodular(len(x), 11)
    x = c @ Matrix.exact(x) @ c.inv()
    s, n = sn_split(x)
    assert s == c @ Matrix.exact(s_ref) @ c.inv()
    assert n == x - s and (n ** x.n).is_zero()


@pytest.mark.parametrize("factors", [
    [Polynomial.of([-2, 1]), Polynomial.of([1, 0, 1]), Polynomial.of([-2, 0, 1])],
    [Polynomial.of([1, 1, 1, 1, 1]), Polynomial.of([Fraction(1, 2), 1]), _T,
     Polynomial.of([-3, 1]), Polynomial.of([5, -2, 1])],
    [Polynomial.of([1, 1, 1, 1, 1])],
])
def test_eigenprojections_split_the_identity(factors):
    x = Matrix.exact(_block_diag([_companion(q).rows() for q in factors]))
    c = _unimodular(x.n, 5)
    s = c @ x @ c.inv()
    projs = eigenprojections(s, factors)
    total = Matrix.zero(s.n)
    for q, p in zip(factors, projs):
        assert p @ p == p and p @ s == s @ p
        assert (q.eval_matrix(s) @ p).is_zero()
        assert p.trace() == q.degree  # the rank of the projection onto ker q(s)
        total = total + p
    assert total == Matrix.identity(s.n)


@pytest.mark.parametrize("factors", [
    [Polynomial.of([-2, 1]), Polynomial.of([-2, 1])],  # not coprime: B has a repeated column
    [Polynomial.of([-2, 1])],  # t - 3 dropped: the product does not kill s, B is not square
])
def test_eigenprojections_reject_kernels_that_do_not_split(factors):
    with pytest.raises(PostconditionFailed):
        eigenprojections(Matrix.exact([[2, 1], [0, 3]]), factors)


# -- edge sizes: 0 x 0 is invertible, unipotent and nilpotent, vacuously, on both tracks --------


@pytest.mark.parametrize("n", [0, 1])
def test_edge_sizes_give_one_answer_on_both_tracks(n):
    from nashkit.explog import exp_hyperbolic, log_hyperbolic

    # s, n, additive e h u, multiplicative e h u, exp and log of x = [[3]] or the 0 x 0 matrix
    want = np.array([3, 0, 0, 3, 0, 1, 3, 1, np.exp(3), np.log(3)])[:, None, None] * np.ones((n, n))
    vacuous = n == 0
    for x in (Matrix.exact([[3]] if n else []), Matrix.approx(np.full((n, n), 3.0))):
        parts = [*sn_split(x), *additive_jordan(x).parts(), *multiplicative_jordan(x).parts(),
                 exp_hyperbolic(x), log_hyperbolic(x)]
        np.testing.assert_allclose([p.float_array() for p in parts], want, atol=1e-12)
        for setting in (GROUP, ALGEBRA):
            c = classify(x, setting)
            assert (c.elliptic, c.hyperbolic, c.unipotent, c.semisimple, c.exponential) == (
                vacuous, True, vacuous, True, True)
        assert x.is_invertible() and (x.inv() @ x).close_to(Matrix.identity(n, x.mode))
        assert x.is_nilpotent() == vacuous
        if n == 0:
            assert eigenprojections(x, []) == []
        else:
            with pytest.raises(PostconditionFailed):
                eigenprojections(x, [])


# -- branches that no other test reaches -----------------------------------------------------


def test_classify_float_non_semisimple():
    c = classify(Matrix.approx([[1.0, 1.0], [0.0, 1.0]]), GROUP)
    assert not c.semisimple and c.unipotent


def test_irrational_modulus_promotes_to_float():
    # eigenvalues +-i / sqrt(2): on no rational circle, so e and h leave the exact track
    x = Matrix.exact([[0, -1], [Fraction(1, 2), 0]])
    t = multiplicative_jordan(x)
    assert t.e.mode == t.h.mode == "approx"
    assert (t.e @ t.h @ t.u).close_to(x.to_approx())
    np.testing.assert_allclose(t.h.float_array(), np.sqrt(0.5) * np.eye(2), atol=1e-12)


# -- the exact plan: the weights of each part on the roots of one irreducible factor ----------


@pytest.mark.parametrize("coeffs, real_part, modulus_phase", [
    ([-2, 1], ((1, 0),), ((1, 0), (0, 1))),  # t - 2
    ([3, 1], ((1, 0),), ((-1, 0), (0, -1))),  # t + 3
    ([-2, 0, 1], ((1, 0),), None),  # t^2 - 2: roots +-sqrt(2), of both signs
    ([5, -2, 1], ((0, 1),), None),  # t^2 - 2t + 5: roots 1 +- 2i, modulus sqrt(5)
    ([4, 0, 1], ((0, 0),), ((0, 2), (Fraction(1, 2), 0))),  # t^2 + 4: roots +-2i, modulus 2
    ([2, 0, 1], ((0, 0),), None),  # t^2 + 2: modulus sqrt(2)
    ([1, 0, 0, 0, 1], None, None),  # t^4 + 1: roots (+-1 +- i) / sqrt(2)
])
def test_exact_plan_rules(coeffs, real_part, modulus_phase):
    q = Polynomial.of(coeffs)
    assert jordan._real_part(q) == real_part
    assert jordan._modulus_phase(q) == modulus_phase


@pytest.mark.parametrize("decompose", [additive_jordan, multiplicative_jordan])
def test_one_promoting_factor_sends_the_input_to_floats(decompose):
    # chi = (t - 2)^2 (t^4 + 1): t - 2 has rational weights, t^4 + 1 has none for either rule
    block = _companion(Polynomial.of([1, 0, 0, 0, 1])).rows()
    x = Matrix.exact([[2, 1, 0, 0, 0, 0], [0, 2, 0, 0, 0, 0]]
                     + [[0, 0, *row] for row in block])
    t = decompose(x)
    assert [p.mode for p in t.parts()] == ["approx"] * 3
    whole = t.e @ t.h @ t.u if decompose is multiplicative_jordan else t.e + t.h + t.u
    assert whole.close_to(x.to_approx())
    np.testing.assert_allclose(t.u.float_array()[:2, :2],
                               [[0, 1], [0, 0]] if decompose is additive_jordan else
                               [[1, 0.5], [0, 1]], atol=1e-12)


def test_multiplicative_float_one_cluster():
    t = multiplicative_jordan(Matrix.approx([[2.0, 1.0], [0.0, 2.0]]))
    np.testing.assert_allclose(t.e.float_array(), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(t.h.float_array(), 2 * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(t.u.float_array(), [[1.0, 0.5], [0.0, 1.0]], atol=1e-12)
