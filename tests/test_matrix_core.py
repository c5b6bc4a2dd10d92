from fractions import Fraction
from math import gcd

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from integer_form import check_integer_form
from nashkit.errors import (
    ClusterAmbiguity,
    NotInvertible,
    NumericalFailure,
    PostconditionFailed,
    ZeroPolynomial,
)
from nashkit.liealg import algebra_from_basis
from nashkit.matrix_core import (
    APPROX,
    Matrix,
    _check_reassembly,
    char_poly,
    matrix_from_json,
    matrix_to_json,
    nullspace,
    spectrum,
)
from nashkit.polynomial import Polynomial, count_real_roots, irreducible_factors, squarefree_part


def test_char_poly_zero_matrix():
    assert char_poly(Matrix.zero(2)) == Polynomial.of([0, 0, 1])


def test_char_poly_triangular():
    # product of diagonal factors: (t-2)^2
    assert char_poly(Matrix.exact([[2, 1], [0, 2]])) == Polynomial.of([4, -4, 1])


def test_char_poly_rotation_by_two():
    # det(tI - m) expanded by hand: t^2 + 4
    assert char_poly(Matrix.exact([[0, -2], [2, 0]])) == Polynomial.of([4, 0, 1])


def test_squarefree_part():
    for p, f in (([4, -4, 1], [-2, 1]), ([4, 0, 1], [4, 0, 1]), ([0, 0, 0, 1], [0, 1])):
        part = squarefree_part(Polynomial.of(p))
        assert part == Polynomial.of(f)
        # it carries int forms, which stay out of the hash
        assert hash(part) == hash(Polynomial.of(f))
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
    s4 = spectrum(Matrix.exact([[0, 2], [1, 0]]))  # an irrational real quadratic factor
    np.testing.assert_allclose(s4.values(), [-np.sqrt(2), np.sqrt(2)])


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


def test_float_matrix_takes_its_float64_array_and_is_its_own_approx():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    m = Matrix(a, "approx")
    assert m.data is a and not a.flags.writeable
    assert m.to_approx() is m and m.to_approx(m.tol) is m
    assert m.to_approx(1e-3).tol == 1e-3 and m.to_approx(1e-3) == m
    assert Matrix(np.array([[1, 2], [3, 4]]), "approx").data.dtype == np.float64


def test_reassembly_check_bounds_each_entry_by_the_size_of_the_input():
    a = np.array([[3.0, 0.0], [0.0, 4.0]])  # ||a|| = 5, so the bound at tol 1e-3 is 6e-3
    _check_reassembly(a + 5e-3, a, 1e-3, "unused")
    with pytest.raises(PostconditionFailed, match="parts fail"):
        _check_reassembly(a + np.array([[0.0, 7e-3], [0.0, 0.0]]), a, 1e-3, "parts fail")
    # a difference out of the float range fails as a float Matrix of it would
    with pytest.raises(NumericalFailure, match="left the float range"):
        _check_reassembly(np.array([[np.inf, 0.0], [0.0, 4.0]]), a, 1e-3, "")


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


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the overflowing sum is rescaled silently
def test_norm_survives_overflowing_squares():
    m = Matrix.approx([[1e200, 1.0], [0.0, 1e200]])
    assert np.isclose(m.norm(), np.sqrt(2.0) * 1e200)
    assert np.isfinite(m.abs_tol())
    assert m.is_invertible()
    small = Matrix.approx([[3.0, 0.0], [4.0, 0.0]])
    assert small.norm() == 5.0


@pytest.mark.parametrize("x", [float("inf"), float("-inf"), float("nan")])
def test_exact_rejects_non_finite_numbers(x):
    with pytest.raises(ValueError):
        matrix_from_json({"mode": "exact", "entries": [[x]]})


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


# -- scaled-integer kernels against plain Fraction references ------------------------

_fractions = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-10 ** 20, 10 ** 20),
              st.sampled_from([2 ** 61 - 1, 10 ** 12 + 39, 3 ** 40])),
)


@st.composite
def _exact_matrices(draw, n=None):
    n = draw(st.integers(0, 6)) if n is None else n
    if draw(st.integers(0, 9)) == 0:
        return Matrix.zero(n)
    rows = [[draw(_fractions) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.integers(0, 4)) == 0:
        rows[-1] = [2 * x for x in rows[0]]  # singular
    return Matrix.exact(rows)


def _reduced_fractions(m: Matrix) -> bool:
    return m.data.dtype == object and all(
        type(x) is Fraction and x.denominator > 0 and gcd(x.numerator, x.denominator) == 1
        for x in m.data.flat)


def _sympy(m: Matrix):
    return sympy.Matrix(m.n, m.n, [sympy.Rational(x.numerator, x.denominator) for x in m.vec()])


def _from_sympy(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(_exact_matrices(n), _exact_matrices(n))))
def test_matmul_matches_fraction_dot(pair):
    a, b = pair
    out = a @ b
    assert _reduced_fractions(out)
    assert out.rows() == [list(r) for r in np.dot(a.data, b.data)]


@settings(max_examples=60, deadline=None)
@given(_exact_matrices(), st.lists(_fractions, max_size=6), st.booleans())
def test_eval_matrix_matches_fraction_horner(m, coeffs, approx):
    p = Polynomial.of(coeffs)
    if approx:  # the float branch against a Horner loop of Matrix steps, bit for bit
        m = m.to_approx()
        acc = Matrix.zero(m.n, APPROX, m.tol)
        ident = Matrix.identity(m.n, APPROX, m.tol)
        for c in reversed(p.coeffs):
            acc = acc @ m + ident.scale(c)
        out = p.eval_matrix(m)
        assert out.mode == APPROX and out.tol == m.tol
        assert out.data.tobytes() == acc.data.tobytes()
        return
    acc = Matrix.zero(m.n).data
    eye = Matrix.identity(m.n).data
    for c in reversed(p.coeffs):
        acc = np.dot(acc, m.data) + eye * c
    out = p.eval_matrix(m)
    assert _reduced_fractions(out)
    assert out.rows() == [list(r) for r in acc]


@settings(max_examples=60, deadline=None)
@given(st.one_of(_exact_matrices(), _exact_matrices().map(Matrix.to_approx)))
def test_char_poly_int_form_matches_the_one_built_from_its_coefficients(m):
    # char_poly hands over its Faddeev-LeVerrier ints; Polynomial builds them from Fractions
    p = char_poly(m)
    assert p.ints == Polynomial(p.coeffs).ints


@settings(max_examples=60, deadline=None)
@given(_exact_matrices())
def test_char_poly_matches_sympy(m):
    expected = [_from_sympy(c) for c in _sympy(m).charpoly().all_coeffs()]
    p = char_poly(m)
    assert all(type(c) is Fraction for c in p.coeffs)
    assert list(reversed(p.coeffs)) == expected
    # the float track lifts its entries to exact rationals and runs the same kernel
    lifted = Matrix.exact([[Fraction(float(x)) for x in row] for row in m.rows()])
    assert char_poly(m.to_approx()) == char_poly(lifted)


@settings(max_examples=60, deadline=None)
@given(_exact_matrices())
def test_det_and_inv_match_sympy(m):
    ref = _sympy(m)
    det = m.det()
    assert type(det) is Fraction and det == _from_sympy(ref.det())
    if det == 0:
        with pytest.raises(NotInvertible):
            m.inv()
        return
    inv = m.inv()
    assert _reduced_fractions(inv)
    assert inv.vec().tolist() == [_from_sympy(x) for x in ref.inv()]


# -- the stored integer form ------------------------------------------------------------


def _fraction_add(a, b, sign):
    return [[x + sign * y for x, y in zip(ra, rb)] for ra, rb in zip(a.rows(), b.rows())]


_small_pairs = st.integers(0, 5).flatmap(
    lambda n: st.tuples(_exact_matrices(n), _exact_matrices(n)))


@settings(max_examples=80, deadline=None)
@given(_small_pairs)
def test_sum_and_difference_match_fractions(pair):
    a, b = pair
    for out in (a + b, a - b, a + a, a - a):
        check_integer_form(out)
    assert (a + b).rows() == _fraction_add(a, b, 1)
    assert (a - b).rows() == _fraction_add(a, b, -1)
    assert (a - a).is_zero() and (a - a).ints[1] == 1
    assert (-a).rows() == [[-x for x in r] for r in a.rows()]
    check_integer_form(-a)


@settings(max_examples=80, deadline=None)
@given(_small_pairs, st.one_of(_fractions, st.integers(-10 ** 15, 10 ** 15)))
def test_scale_trace_transpose_match_fractions(pair, c):
    a, b = pair
    for out in (a.scale(c), a.T, a @ b, Matrix.identity(a.n), Matrix.zero(a.n)):
        check_integer_form(out)
    assert a.scale(c).rows() == [[x * c for x in r] for r in a.rows()]
    assert a.T.rows() == [list(r) for r in zip(*a.rows())]
    tr = a.trace()
    assert type(tr) is Fraction and tr == sum((a.entry(i, i) for i in range(a.n)), Fraction(0))


@settings(max_examples=60, deadline=None)
@given(_small_pairs, st.sampled_from([np.int8, np.int32, np.int64, np.uint64]),
       st.integers(0, 2 ** 62))
def test_exact_scale_by_a_numpy_integer_stays_exact(pair, kind, c):
    # a numpy integer is an exact rational, as _as_fraction reads it; a float
    # product would round 2**62 * 1/3 and the like
    a, _ = pair
    c = kind(c % (int(np.iinfo(kind).max) + 1))
    out = a.scale(c)
    assert out.mode == "exact" and out == a.scale(Fraction(int(c)))
    assert all(type(x) is Fraction and type(x.numerator) is int for x in out.data.flat)
    check_integer_form(out)


def test_algebra_element_with_numpy_coefficients_stays_exact():
    basis = [Matrix.diagonal([1, -1]), Matrix.exact([[0, 1], [0, 0]]),
             Matrix.exact([[0, 0], [1, 0]])]
    g = algebra_from_basis(basis)
    got = g.element(np.array([1, 2, 2 ** 62]))
    assert got.mode == "exact" and got == Matrix.exact([[1, 2], [2 ** 62, -1]])


@settings(max_examples=60, deadline=None)
@given(_exact_matrices())
def test_kernel_outputs_agree_with_entry_built_matrices(m):
    check_integer_form(m)
    for out in (m @ m, Polynomial.of([1, -2, 3]).eval_matrix(m), m ** 3):
        check_integer_form(out)
    if m.det() != 0:
        check_integer_form(m.inv())


# -- count_real_roots on linear factors ----------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.builds(Fraction, st.integers(-30, 30), st.integers(1, 7)),
       st.builds(Fraction, st.integers(-30, 30).filter(bool), st.integers(1, 7)),
       st.sampled_from(["none", "root", "below", "above"]),
       st.sampled_from(["none", "root", "below", "above"]),
       st.builds(Fraction, st.integers(1, 20), st.integers(1, 5)))
def test_linear_count_real_roots_matches_sympy(c0, c1, lo_kind, hi_kind, gap):
    p = Polynomial.of([c0, c1])
    root = -c0 / c1
    pick = {"none": None, "root": root, "below": root - gap, "above": root + gap}
    lo, hi = pick[lo_kind], pick[hi_kind]
    assume(lo is None or hi is None or lo <= hi)
    assert count_real_roots(p, lo, hi) == _sympy_count(p, lo, hi)


# -- irreducible_factors and count_real_roots against sympy --------------------------


def _sympy_factors(p: Polynomial) -> list[tuple[Polynomial, int]]:
    _, factors = p.to_sympy().factor_list()
    out = [(Polynomial.from_sympy(q).monic(), int(e)) for q, e in factors]
    return sorted(out, key=lambda fe: (fe[0].degree, fe[0].coeffs))


def _sympy_count(p: Polynomial, lo, hi) -> int:
    sp_lo = -sympy.oo if lo is None else sympy.Rational(lo.numerator, lo.denominator)
    sp_hi = sympy.oo if hi is None else sympy.Rational(hi.numerator, hi.denominator)
    return int(p.to_sympy().count_roots(sp_lo, sp_hi))


_nonzero = _fractions.filter(bool)


@st.composite
def _factored_polynomials(draw, max_degree):
    """(product, its rational roots): a constant times random rational factors of
    degree 1-4 with multiplicities 1-3, sometimes with a root at 0."""
    p = Polynomial.of([draw(_nonzero)])
    roots = []
    for _ in range(draw(st.integers(0, 3))):
        deg = draw(st.integers(1, 4))
        q = Polynomial.of([draw(_fractions) for _ in range(deg)] + [draw(_nonzero)])
        e = draw(st.integers(1, 3))
        if p.degree + e * deg > max_degree:
            continue
        if deg == 1:
            roots.append(-q.coeffs[0] / q.coeffs[1])
        for _ in range(e):
            p = p * q
    if p.degree < max_degree and draw(st.booleans()):
        p = p * Polynomial.of([0, 1])
        roots.append(Fraction(0))
    return p, roots


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.lists(_fractions, max_size=8).map(Polynomial.of),
                 _factored_polynomials(max_degree=8).map(lambda case: case[0])))
def test_polynomial_ints_contract(p):
    if p.is_zero():
        assert p.ints == ()
        return
    q = Polynomial.of(p.coeffs)
    q.sturm  # q now holds both int forms
    # a squarefree part is handed its forms rather than building them
    for poly in (p, q, squarefree_part(p)):
        ints, lead = poly.ints, poly.coeffs[-1]
        assert gcd(*ints) == 1  # primitive
        assert (ints[-1] > 0) == (lead > 0)
        c = ints[-1] / lead
        assert [Fraction(x) for x in ints] == [c * a for a in poly.coeffs]
        # the forms are no part of the value
        plain = Polynomial.of(poly.coeffs)
        assert poly == plain and hash(poly) == hash(plain) and repr(poly) == repr(plain)


@settings(max_examples=150, deadline=None)
@given(_factored_polynomials(max_degree=16))
def test_irreducible_factors_match_sympy(case):
    p, _ = case
    expected = _sympy_factors(p)
    assert irreducible_factors(p) == expected
    # the squarefree part factors on the int forms it carries from p
    assert irreducible_factors(squarefree_part(p)) == [(q, 1) for q, _ in expected]


def _swinnerton_dyer(k: int) -> Polynomial:
    """The minimal polynomial of sqrt(2) + sqrt(3) + ... over the first k primes:
    irreducible of degree 2^k, and a product of factors of degree <= 2 mod every prime."""
    t = sympy.Symbol("t")
    alpha = sum(sympy.sqrt(q) for q in sympy.primerange(2, sympy.prime(k) + 1))
    return Polynomial.from_sympy(sympy.Poly(sympy.minimal_polynomial(alpha, t), t, domain="QQ"))


@pytest.mark.parametrize("k", [3, 4])
def test_irreducible_factors_swinnerton_dyer(k):
    sd = _swinnerton_dyer(k)
    assert sd.degree == 2 ** k
    assert irreducible_factors(sd) == [(sd.monic(), 1)]
    # shifted and scaled, times a quadratic that also splits mod some primes
    p = sd.compose_shift(Fraction(1, 3)) * Polynomial.of([-7, 0, 5])
    assert irreducible_factors(p) == _sympy_factors(p)


_quadratics = st.builds(lambda b, c: Polynomial.of([c, b, 1]),
                        st.integers(-6, 6), st.integers(-6, 6)) | st.builds(
    lambda a, b, c: Polynomial.of([c, b, a]), st.sampled_from([2, 3, 9, 35]),
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 5)), st.integers(1, 30))


@settings(max_examples=60, deadline=None)
@given(st.lists(_quadratics, min_size=2, max_size=6))
def test_irreducible_factors_products_of_quadratics(qs):
    p = Polynomial.of([1])
    for q in qs:
        p = p * q
    assert irreducible_factors(p) == _sympy_factors(p)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 30), min_size=1, max_size=4),
       st.lists(st.integers(1, 2), min_size=4, max_size=4))
def test_irreducible_factors_cyclotomic_products(ns, exps):
    t = sympy.Symbol("t")
    p = Polynomial.of([1])
    for n, e in zip(ns, exps):
        phi = Polynomial.from_sympy(sympy.Poly(sympy.cyclotomic_poly(n, t), t, domain="QQ"))
        for _ in range(e):
            p = p * phi
    assume(p.degree <= 48)
    assert irreducible_factors(p) == _sympy_factors(p)


_huge = st.builds(Fraction, st.integers(-3 ** 40, 3 ** 40), st.sampled_from([1, 2, 3 ** 17, 3 ** 40]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(_huge, min_size=2, max_size=4), min_size=2, max_size=3),
       st.sampled_from([1, 3 ** 40, Fraction(1, 3 ** 40)]))
def test_irreducible_factors_huge_coefficients(factors, scale):
    # leading coefficients and denominators up to 3^40 (each factor's leading
    # coefficient is its constant term): a large Hensel bound, and factors whose
    # coefficients come near it
    p = Polynomial.of([scale])
    for cs in factors:
        q = Polynomial.of(cs + [cs[0] or 1])
        p = p * q
    assert irreducible_factors(p) == _sympy_factors(p)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=3, max_size=4),
       st.lists(st.integers(-4, 4), min_size=1, max_size=5), st.integers(1, 3))
def test_irreducible_factors_skip_bad_primes(h, k, lead):
    # for M = 3 5 7 11 13, g = h^2 + M k is a square mod every prime dividing M, and
    # M^lead t^(deg g + 1) + g has a leading coefficient they divide: those primes
    # must be skipped
    big = 3 * 5 * 7 * 11 * 13
    hp = Polynomial.of(h + [1])
    g = hp * hp + Polynomial.of([big * c for c in k])
    for p in (g, g * Polynomial.of([1, 1, 1]), Polynomial.of([0] * (g.degree + 1) + [big ** lead]) + g):
        assert irreducible_factors(p) == _sympy_factors(p)


def test_irreducible_factors_selftest_char_polys():
    # every characteristic polynomial of selftest criterion 1 (jordan_reconstruction) at seed 0
    from nashkit.selftest import _random_invertible, _rng

    rng = _rng(0, 1)
    for _ in range(500):
        p = char_poly(_random_invertible(rng, 4))
        assert irreducible_factors(p) == _sympy_factors(p)


def test_degree_sets_certify_irreducibility_without_a_lift(monkeypatch):
    # allowed factor degrees mod 3, 5 and 11 are {2, 3, 4}, {2, 4} and {3}: no single prime
    # proves this sextic irreducible, but the intersection of the three is empty
    import nashkit.polynomial as poly

    p = Polynomial.of([3, -1, 3, -2, -3, -3, 1])
    assert _sympy_factors(p) == [(p, 1)]
    lifts, hensel = [], poly._hensel
    monkeypatch.setattr(poly, "_hensel", lambda *args: lifts.append(args) or hensel(*args))
    assert irreducible_factors(p) == [(p, 1)]
    assert lifts == []


@settings(max_examples=60, deadline=None)
@given(st.lists(_fractions, max_size=8), _fractions)
def test_compose_shift_matches_the_expanded_powers(coeffs, a):
    p = Polynomial.of(coeffs)
    expected, power = Polynomial.of([]), Polynomial.of([1])
    for c in p.coeffs:  # sum of c_k (t + a)^k
        expected = expected + power.scale(c)
        power = power * Polynomial.of([a, 1])
    assert p.compose_shift(a) == expected


@settings(max_examples=200, deadline=None)
@given(_factored_polynomials(max_degree=8), st.data())
def test_count_real_roots_matches_sympy(case, data):
    p, roots = case
    point = st.one_of(st.none(), _fractions, *([st.sampled_from(roots)] if roots else []))
    lo, hi = data.draw(point), data.draw(point)
    if data.draw(st.booleans()):
        hi = lo  # the closed interval of one point
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    expected = _sympy_count(p, lo, hi)
    assert count_real_roots(p, lo, hi) == expected
    # the squarefree part counts on the Sturm sequence it carries from p
    assert count_real_roots(squarefree_part(p), lo, hi) == expected


def test_count_real_roots_examples():
    p = Polynomial.of([-1, 0, 1]) * Polynomial.of([-1, 0, 1])  # (t^2 - 1)^2
    assert count_real_roots(p) == 2
    assert count_real_roots(p, Fraction(1), Fraction(1)) == 1
    assert count_real_roots(p, Fraction(-1), Fraction(1)) == 2
    assert count_real_roots(p, Fraction(1, 2), Fraction(1)) == 1
    assert count_real_roots(p, None, Fraction(-1)) == 1
    assert count_real_roots(Polynomial.of([1, 0, 1])) == 0
    assert count_real_roots(Polynomial.of([3])) == 0


def test_irreducible_factors_examples():
    t = Polynomial.of([0, 1])
    assert irreducible_factors(Polynomial.of([5])) == []
    assert irreducible_factors(t * t * t) == [(t, 3)]
    cubic = Polynomial.of([-2, 0, 0, 1])  # t^3 - 2 has no rational root
    half = Polynomial.of([Fraction(-1, 2), 1])
    assert irreducible_factors(cubic * cubic * half.scale(6)) == [(half, 1), (cubic, 2)]
    # the root 1000 is near the Cauchy bound 1 + 1000 of t^3 - 1000 t^2 + t - 1000, so the
    # lift must reach a modulus above twice it
    big, quad = Polynomial.of([-1000, 1]), Polynomial.of([1, 0, 1])
    assert irreducible_factors(big * quad) == [(big, 1), (quad, 1)]
    with pytest.raises(ZeroPolynomial):
        irreducible_factors(Polynomial.of([]))


def test_exact_constructors_keep_tol():
    tol = 1e-3
    built = [Matrix.identity(2, tol=tol), Matrix.zero(2, tol=tol), Matrix.diagonal([1, 2], tol=tol),
             Matrix.exact([[1, 2], [3, 4]], tol=tol),
             matrix_from_json({"mode": "exact", "entries": [["1", "2"], ["3", "4"]]}, tol=tol)]
    assert all(m.mode == "exact" and m.tol == tol for m in built)
    assert (Matrix.exact([[1, 1], [0, 1]], tol=tol) ** 3).tol == tol
