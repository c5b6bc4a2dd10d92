"""Exact univariate polynomials over the rationals, and every root question asked of them.

``Polynomial`` arithmetic stays on ``Fraction``; its int forms, each built once, are ``ints``,
the primitive int multiple, and ``sturm``, the Sturm sequence on Python ints (exact int
division, no ``Fraction`` Euclid) divided by gcd(p, p'), led by the squarefree part, which
inherits both.  Exact ``eval_matrix`` reads ``ints`` and builds its result with the matrix
type's own constructors, so this module needs no ``matrix_core``.  Rational roots (p-adic
lifting), factors and squarefree parts read only the head of the Sturm sequence; its tail is
divided when a real-root count first reads it.  The root predicates hold for a product
exactly when they hold for each factor, so they are decided on the squarefree part by Sturm
counts, unfactored, the unit circle through the Cayley map onto the imaginary axis.  Only a
Jordan plan (``jordan``'s exact ``multiplicative_jordan`` and ``additive_jordan``) and exact
``spectrum`` call ``irreducible_factors``: rational roots, then Zassenhaus's method (factoring
mod a prime, Musser's degree-set test, a Hensel lift and recombination) from degree 4.
The library never imports sympy; only ``Polynomial.to_sympy`` and ``from_sympy`` need it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, isfinite, isqrt, lcm
from typing import Iterable, Sequence

import numpy as np

from .errors import ZeroPolynomial


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError(f"cannot interpret {x!r} as an exact rational")
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, float):
        if not isfinite(x):
            raise ValueError(f"{x!r} is not a finite number")
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"{x!r} has a zero denominator") from None
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial with exact rational coefficients.

    Coefficients are stored lowest degree first; the leading coefficient is
    nonzero unless the polynomial is zero.  The int forms ``ints`` and
    ``sturm`` (with the remainders and the head it is built from) are built
    on first access and stay out of ``==``/``hash``/``repr``.
    """

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def of(coeffs: Iterable) -> "Polynomial":
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return Polynomial(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Polynomial.of([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + Polynomial.of([-c for c in other.coeffs])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero() or other.is_zero():
            return Polynomial.of([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial.of(out)

    def scale(self, c) -> "Polynomial":
        c = _as_fraction(c)
        return Polynomial.of([c * x for x in self.coeffs])

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        r, d, lead = list(self.coeffs), other.degree, other.coeffs[-1]
        q = [Fraction(0)] * max(0, len(r) - d)
        for k in range(len(q) - 1, -1, -1):  # cancel the coefficient of t^(k+d)
            c = q[k] = r[k + d] / lead
            for i, x in enumerate(other.coeffs):
                r[k + i] -= c * x
        return Polynomial.of(q), Polynomial.of(r[:d])

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[1]

    def derivative(self) -> "Polynomial":
        return Polynomial.of([k * c for k, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Polynomial":
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial has no monic form")
        lead = self.coeffs[-1]
        return Polynomial.of([c / lead for c in self.coeffs])

    def gcd(self, other: "Polynomial") -> "Polynomial":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    @cached_property
    def ints(self) -> tuple[int, ...]:
        """The primitive int multiple c * coeffs with c > 0 (lowest degree first); () for 0."""
        scale = lcm(*[c.denominator for c in self.coeffs])
        ints = [c.numerator * (scale // c.denominator) for c in self.coeffs]
        g = gcd(*ints)
        return tuple(x // g for x in ints)

    @cached_property
    def _remainders(self) -> tuple[tuple[int, ...], ...]:
        """p_0 = p != 0, p_1 = p', p_(i+1) = -(p_(i-1) mod p_i), up to p_k != 0.

        Each p_i is primitive on ints and a positive multiple of the rational
        one (pseudo-remainders divided by their content keep the ints small
        where ``Fraction`` remainders grow).  p_k is gcd(p, p') times a constant.
        """
        seq = [self.ints]
        b = [k * c for k, c in enumerate(seq[0])][1:]  # p' on ints, then made primitive
        content = gcd(*b)
        b = [c // content for c in b]
        while b:
            seq.append(b)
            b = _neg_prem(seq[-2], b)
        return tuple(map(tuple, seq))

    @cached_property
    def _sturm_head(self) -> tuple[int, ...]:
        """s_0 = p_0 / p_k: +-the primitive squarefree part of p, all that factoring reads."""
        seq = self._remainders
        return seq[0] if len(seq[-1]) == 1 else tuple(_exact_quotient(seq[0], seq[-1]))

    @cached_property
    def sturm(self) -> tuple[tuple[int, ...], ...]:
        """s_i = p_i / p_k over the remainders p_i: a Sturm sequence of s_0.

        Only root counts read the tail, so it is divided by gcd(p, p') on
        first access and the head ``_sturm_head`` on its own.
        """
        seq = self._remainders
        if len(seq[-1]) == 1:
            return seq
        return (self._sturm_head, *(tuple(_exact_quotient(s, seq[-1])) for s in seq[1:]))

    def eval_matrix(self, m: Matrix) -> Matrix:
        """p(m), built with the constructors of type(m) on m's track."""
        if not m.is_exact:
            return type(m)(_horner_float([float(c) for c in self.coeffs], m._data), m.mode, m.tol)
        # p = (a/b) sum_k i_k t^k for a/b = lead/i_deg, i = ints, so p(N/d) = (sum_k a i_k
        # d^(deg-k) N^k) / (b d^deg), the sum by integer Horner steps, the first a scaling
        if self.is_zero():
            return type(m).zero(m.n, m.mode, m.tol)
        nums, d = m.ints
        lead = self.coeffs[-1]
        cs = [lead.numerator * c * d ** k for k, c in enumerate(reversed(self.ints))]
        diag = np.arange(m.n)
        acc = np.zeros((m.n, m.n), dtype=object) if len(cs) == 1 else nums * cs[0]
        for c in cs[1:-1]:
            acc[diag, diag] += c
            acc = np.dot(acc, nums)
        acc[diag, diag] += cs[-1]
        return type(m).from_ints(acc, self.ints[-1] * lead.denominator * d ** self.degree, m.tol)

    def compose_shift(self, a: Fraction) -> "Polynomial":
        """Coefficients of p(t + a): a Taylor shift by repeated Horner steps."""
        a, cs = _as_fraction(a), list(self.coeffs)
        for i in range(len(cs) - 1):
            for j in range(len(cs) - 2, i - 1, -1):
                cs[j] += a * cs[j + 1]
        return Polynomial.of(cs)

    def is_even(self) -> bool:
        return all(c == 0 for c in self.coeffs[1::2])

    def even_part_in_square(self) -> "Polynomial":
        """For an even polynomial p, the r with r(t^2) = p(t)."""
        if not self.is_even():
            raise ValueError("polynomial is not even")
        return Polynomial.of(self.coeffs[0::2])

    def to_sympy(self):
        """This polynomial as a ``sympy.Poly`` in t over QQ; needs sympy installed."""
        import sympy  # loaded on first use only: it costs about 0.45 s to import

        return sympy.Poly(list(reversed(self.coeffs)), sympy.Symbol("t"), domain="QQ")

    @staticmethod
    def from_sympy(p) -> "Polynomial":
        """The polynomial of a ``sympy.Poly`` with rational coefficients; needs sympy installed."""
        cs = [Fraction(c.p, c.q) for c in reversed(p.all_coeffs())]
        return Polynomial.of(cs)

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self.coeffs]})"


def _neg_prem(a: list[int], b: list[int]) -> list[int]:
    """A primitive int polynomial that is a positive multiple of -(a mod b).

    Pseudo-division: each step scales the remainder by lc(b) before it
    cancels the leading term, so after e steps it is lc(b)^e * (a mod b).
    """
    r, lead, e = list(a), b[-1], 0
    while len(r) >= len(b):
        f, k = r[-1], len(r) - len(b)
        r = [lead * x for x in r]
        for i, c in enumerate(b):
            r[k + i] -= f * c
        e += 1
        while r and r[-1] == 0:
            r.pop()
    if not r:
        return r
    sign = -1 if lead < 0 and e % 2 else 1
    g = gcd(*r)
    return [-sign * x // g for x in r]


def _exact_quotient(a: list[int], b: list[int]) -> list[int] | None:
    """a / b for int polynomials (lowest degree first), b primitive; None unless b divides a.

    By Gauss's lemma a b that divides a over the rationals divides it over
    the ints, so each step of the long division must divide exactly.
    """
    r, lead, top = list(a), b[-1], len(b) - 1
    q = [0] * (len(a) - top)
    for k in range(len(q) - 1, -1, -1):
        q[k], rem = divmod(r[k + top], lead)
        if rem:
            return None
        for i, x in enumerate(b):
            r[k + i] -= q[k] * x
    return q if q and not any(r) else None


def squarefree_part(p: Polynomial) -> Polynomial:
    """p / gcd(p, p'), monic; it carries its int form, +-``p._sturm_head``, and p's remainders,
    whose Sturm sequence is one of the squarefree part too."""
    if p.is_zero():
        raise ZeroPolynomial("squarefree part of the zero polynomial")
    f = p._sturm_head
    out = Polynomial.of([Fraction(c, f[-1]) for c in f])
    object.__setattr__(out, "ints", f if f[-1] > 0 else tuple(-c for c in f))
    object.__setattr__(out, "_remainders", p._remainders)
    object.__setattr__(out, "_sturm_head", f)
    return out


def _horner(cs: list[int], x: int, m: int = 0) -> int:
    """The int polynomial cs (lowest degree first) at x, reduced mod m when m > 0."""
    v = 0
    for c in reversed(cs):
        v = v * x + c
        if m:
            v %= m
    return v


def _horner_float(coeffs: Sequence[float], a: np.ndarray) -> np.ndarray:
    """The polynomial coeffs (lowest degree first) at the float matrix a, by Horner steps."""
    acc = np.zeros_like(a)
    eye = np.eye(a.shape[0])
    for c in reversed(coeffs):
        acc = acc @ a + c * eye
    return acc


def _primes():
    """2, 3, 5, 7, ... by trial division."""
    p = 2
    while True:
        if all(p % d for d in range(2, isqrt(p) + 1)):
            yield p
        p += 1


def _integer_roots(q: list[int]) -> list[int]:
    """Integer roots of a monic squarefree int polynomial (lowest degree first).

    Loos, "Computing rational zeros of integral polynomials by p-adic
    expansion" (1983): at the first prime p where every root of q mod p is
    simple (true wherever q mod p is squarefree, so at all but finitely many
    p), each integer root reduces to one of the roots mod p found by trying
    all p residues, and Newton's step r <- r - q(r)/q'(r) lifts that root
    uniquely from mod m to mod m^2.  Once m exceeds twice the Cauchy bound
    1 + max|q_i| on the roots, the residue of the lift nearest 0 is the
    integer root if there is one; an exact evaluation keeps it or drops it.
    """
    dq = [i * c for i, c in enumerate(q)][1:]
    for p in _primes():
        residues = [r for r in range(p) if _horner(q, r, p) == 0]
        if all(_horner(dq, r, p) for r in residues):
            break
    bound = 2 * (1 + max(abs(c) for c in q[:-1]))
    roots = []
    for r in residues:
        m = p
        while m <= bound:
            m *= m
            r = (r - _horner(q, r, m) * pow(_horner(dq, r, m), -1, m)) % m
        if r > m // 2:
            r -= m
        if _horner(q, r) == 0:
            roots.append(r)
    return roots


def _rational_roots(f: list[int]) -> list[Fraction]:
    """Rational roots of a squarefree int polynomial f (lowest degree first) of degree n.

    For L = lc(f), q(s) = L^(n-1) f(s/L) is monic with int coefficients, so
    its rational roots are integers, and they are L times those of f.
    """
    n, lead = len(f) - 1, f[-1]
    q = [c * lead ** (n - 1 - i) for i, c in enumerate(f[:-1])] + [1]
    return [Fraction(s, lead) for s in _integer_roots(q)] if n > 0 else []


# -- int polynomials mod m (over Z for m = 0), lowest degree first, no zero top; Zassenhaus


def _trim(a: list[int], m: int) -> list[int]:
    """a mod m (over Z for m = 0, as in ``_horner``), without zero top coefficients."""
    a = [x % m for x in a] if m else list(a)
    while a and not a[-1]:
        a.pop()
    return a


def _padd(a: list[int], b: list[int], m: int, c: int = 1) -> list[int]:
    """a + c * b mod m."""
    a = a + [0] * (len(b) - len(a))
    return _trim([x + c * y for x, y in zip(a, b)] + a[len(b):], m)


def _pmul(a: list[int], b: list[int], m: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            out[j] += x * y
    return _trim(out, m)


def _pdivmod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b, whose leading coefficient is a unit mod m."""
    r, top, inv = list(a), len(b) - 1, pow(b[-1], -1, m)
    q = [0] * max(0, len(a) - top)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + top] * inv % m
        for i, x in enumerate(b, k):
            r[i] -= c * x
    return q, _trim(r[:top], m)


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd over Z/p, p prime."""
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    return _pdivmod(a, [a[-1]], p)[0]


def _ppow(a: list[int], e: int, f: list[int], m: int) -> list[int]:
    """a^e mod (f, m) for e >= 1, by squaring."""
    if e == 1:
        return _pdivmod(a, f, m)[1]
    h = _ppow(a, e // 2, f, m)
    h = _pdivmod(_pmul(h, h, m), f, m)[1]
    return _pdivmod(_pmul(h, a, m), f, m)[1] if e % 2 else h


def _ddf(f: list[int], p: int) -> list[tuple[int, list[int]]]:
    """Distinct-degree factorization of a monic squarefree f over Z/p: (d, product of its
    degree-d factors) for each d that occurs (Cantor and Zassenhaus 1981)."""
    out, h, d = [], [0, 1], 0
    while 2 * (d + 1) < len(f):  # h = x^(p^d) mod f
        d += 1
        h = _ppow(h, p, f, p) if d > 1 else _pdivmod([0] * p + [1], f, p)[1]
        g = _pgcd(f, _padd(h, [0, 1], p, -1), p)
        if len(g) > 1:
            out.append((d, g))
            f = _pdivmod(f, g, p)[0]
    return out + [(len(f) - 1, f)] * (len(f) > 1)


def _edf(f: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """The monic degree-d factors over Z/p, p odd, of their product f (equal-degree split)."""
    while len(f) - 1 > d:
        a = _trim([rng.randrange(p) for _ in range(len(f) - 1)], p)
        g = _pgcd(f, _padd(_ppow(a, (p ** d - 1) // 2, f, p), [1], p, -1), p)
        if 1 < len(g) < len(f):
            return _edf(g, d, p, rng) + _edf(_pdivmod(f, g, p)[0], d, p, rng)
    return [f]


def _hensel(f: list[int], us: list[list[int]], p: int, top: int) -> list[list[int]]:
    """Monic lifts mod top = p^(2^k) of the monic factors us of f mod p, f squarefree mod p.

    Each factor h is lifted alone, with g = f div h and s = 1/g mod h: a
    step from mod m to mod m^2 divides f = g h + e, so e = 0 mod m, and adds
    s e mod h to h; Newton's s <- s (2 - s g) mod h keeps s good enough (von
    zur Gathen and Gerhard, Modern Computer Algebra, section 15.4).
    """
    out = []
    for h in us:
        # extended Euclid: rows (r, s) with s g = r mod (h, p), down to a constant r
        (r0, s0), (r1, s1) = (h, []), (_pdivmod(_pdivmod(f, h, p)[0], h, p)[1], [1])
        while r1:
            q, r = _pdivmod(r0, r1, p)
            (r0, s0), (r1, s1) = (r1, s1), (r, _padd(s0, _pmul(q, s1, p), p, -1))
        s, m = _pdivmod(s0, r0, p)[0], p
        while m < top:
            m *= m
            g, e = _pdivmod(f, h, m)
            if m > p * p:  # s from the Euclid is good mod p, enough for the first step
                s = _pdivmod(_pmul(s, _padd([2], _pmul(s, g, m), m, -1), m), h, m)[1]
            h = _padd(h, _pdivmod(_pmul(s, e, m), h, m)[1], m)
        out.append(h)
    return out


def _zassenhaus(g: list[int]) -> list[list[int]]:
    """Irreducible factors (primitive, lc > 0) of a squarefree primitive int g of degree n
    >= 4 with lc(g) > 0 and no rational root.

    Musser (1978): a factor's degree is a sum of degrees of the factors mod
    each good prime p (odd, not dividing lc(g), g squarefree mod p), so the
    allowed degrees are the intersection of those subset sums over up to
    three primes, 1 and n - 1 excluded; an empty set proves g
    irreducible.  Else the factors mod the prime with the fewest are lifted
    past twice lc(g) times Mignotte's bound 2^n ||g||_2 on the coefficients
    of a factor, and subsets of allowed degree are recombined, smallest
    first: lc(g) times their product in symmetric residues, made primitive,
    is a factor when it divides g exactly.
    """
    n = len(g) - 1
    allowed, best, primes = sum(1 << d for d in range(2, n - 1)), None, 3
    for p in (q for q in _primes() if q > 2 and g[-1] % q):
        f = _pdivmod(_trim(g, p), [g[-1]], p)[0]
        if len(_pgcd(f, _trim([i * c for i, c in enumerate(f)][1:], p), p)) > 1:
            continue  # g is not squarefree mod p
        split, sums = _ddf(f, p), 1
        for d, fd in split:
            for _ in range((len(fd) - 1) // d):
                sums |= sums << d
        if not (allowed := allowed & sums):
            return [g]
        count = sum((len(fd) - 1) // d for d, fd in split)
        if best is None or count < best[0]:
            best = (count, p, split)
        primes -= 1
        if not primes or best[0] <= 2:  # two factors leave one candidate: lift them
            break
    _, p, split = best
    rng = random.Random(0)  # a fixed seed: the factorization is deterministic
    us = [u for d, fd in split for u in _edf(fd, d, p, rng)]
    bound, m = 2 * g[-1] * 2 ** n * (isqrt(sum(c * c for c in g)) + 1), p
    while m <= bound:
        m *= m
    us, out, size = _hensel(g, us, p, m), [], 1
    while 2 * size <= len(us):
        for subset in combinations(range(len(us)), size):
            if allowed >> sum(len(us[i]) - 1 for i in subset) & 1:
                c = [g[-1]]
                for i in subset:
                    c = _pmul(c, us[i], m)
                c = [x - m if 2 * x > m else x for x in c]
                c = [x // gcd(*c) for x in c]
                if c[0] and g[0] % c[0] == 0 and (q := _exact_quotient(g, c)):
                    out.append(c)
                    g, us = q, [u for i, u in enumerate(us) if i not in subset]
                    break
        else:
            size += 1
    return out + [g]


def irreducible_factors(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Monic irreducible factors over the rationals with multiplicities.

    Sorted by (degree, coeffs).  The work runs on int forms: each rational
    root a/b of the squarefree part f = ``p._sturm_head`` divides out b t - a,
    and the rest of f is irreducible up to degree 3 and factored by
    ``_zassenhaus`` from degree 4.  Multiplicities come from exact division
    of ``p.ints``, needed only when deg f < deg p.
    """
    if p.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    f = p._sturm_head
    repeated = len(f) < len(p.coeffs)
    f, factors = [c if f[-1] > 0 else -c for c in f], []
    for r in _rational_roots(f):
        factors.append([-r.numerator, r.denominator])
        f = _exact_quotient(f, factors[-1])
    if len(f) > 1:  # no rational root: irreducible up to degree 3
        factors += _zassenhaus(f) if len(f) > 4 else [f]
    out, rest = [], p.ints
    for q in factors:
        e = 1
        if repeated:  # divide the factors out of p
            e = 0
            while quot := _exact_quotient(rest, q):
                e, rest = e + 1, quot
        out.append((Polynomial.of([Fraction(c, q[-1]) for c in q]), e))
    out.sort(key=lambda fe: (fe[0].degree, fe[0].coeffs))
    return out


def _sign_at(cs: list[int], x: Fraction) -> int:
    """Sign of the int polynomial cs at x = a/b: of b^deg * cs(a/b), by Horner on ints."""
    a, b = x.numerator, x.denominator
    v, bk = 0, 1
    for c in reversed(cs):
        v = v * a + c * bk
        bk *= b
    return (v > 0) - (v < 0)


def count_real_roots(p: Polynomial, lo=None, hi=None) -> int:
    """Number of distinct real roots in [lo, hi] (endpoints included; None = unbounded), lo <= hi.

    Sturm's theorem: the remainder sequence p_k of p ends in g = gcd(p, p'),
    and ``p.sturm``, s_k = p_k / g, is a Sturm sequence of the squarefree
    part s_0.  Its number of sign changes V(x) drops by one exactly as x
    passes a root, and at a root equals its value just right of it, so
    V(lo) - V(hi) counts the roots in (lo, hi]; a root at lo is added.  At
    an unbounded end the leading terms give the signs.  Like sympy's
    ``count_roots``, a constant polynomial has no roots.
    """
    if p.degree == 1:  # the root -c0/c1 is read off
        root = -p.coeffs[0] / p.coeffs[1]
        return int((lo is None or lo <= root) and (hi is None or root <= hi))
    if p.degree < 1:
        return 0

    def signs(x, end: int) -> list[int]:
        if x is None:  # x = end * infinity: the leading term's sign
            return [(1 if s[-1] > 0 else -1) * end ** (len(s) - 1) for s in p.sturm]
        return [_sign_at(s, x) for s in p.sturm]

    def changes(sg: list[int]) -> int:
        sg = [v for v in sg if v]
        return sum(u != v for u, v in zip(sg, sg[1:]))

    at_lo = signs(lo, -1)
    return changes(at_lo) - changes(signs(hi, 1)) + (at_lo[0] == 0)


def _distinct_rational_roots(p: Polynomial) -> list[Fraction] | None:
    """Distinct roots of p != 0, ascending; None unless all are rational."""
    f = squarefree_part(p)
    roots = _rational_roots(f.ints)
    return sorted(roots) if len(roots) == f.degree else None


# -- root predicates on a squarefree polynomial ------------------------------------


def _all_roots_real(f: Polynomial, lo=None, hi=None) -> bool:
    """All roots of the squarefree f real and in [lo, hi] (None: unbounded)."""
    return count_real_roots(f, lo, hi) == f.degree


def _all_roots_positive(f: Polynomial) -> bool:
    return f.coeffs[0] != 0 and _all_roots_real(f, Fraction(0))


def _all_roots_negative(f: Polynomial) -> bool:
    return f.coeffs[0] != 0 and _all_roots_real(f, None, Fraction(0))


def _roots_purely_imaginary(f: Polynomial) -> bool:
    """All roots of the squarefree f on the imaginary axis (0 included)."""
    a = f.ints[1:] if f.ints[0] == 0 else f.ints  # strip the root 0
    # an even f = r(t^2): the roots of r are the squares of those of f, all real < 0
    return not any(a[1::2]) and _all_roots_negative(Polynomial.of(a[0::2]))


def _roots_modulus_one(f: Polynomial) -> bool:
    """All roots of the squarefree f on the unit circle: the Cayley map w = (z - 1)/(z + 1)
    takes the circle onto the imaginary axis and -1 to infinity, and g(w) = (1 - w)^d
    f((1 + w)/(1 - w)), d = deg f, has g(1) = 2^d lc(f) != 0, so its roots are the images
    of the roots of f other than -1, each simple."""
    g, down = [], [1]
    for c in reversed(f.ints):  # g <- g (1 + w) + f_k (1 - w)^(d - k), k = d, ..., 0
        g = _padd(_pmul(g, [1, 1], 0), down, 0, c)
        down = _pmul(down, [1, -1], 0)
    return _roots_purely_imaginary(Polynomial.of(g))
