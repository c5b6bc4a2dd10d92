"""Reference elimination for the tests: plain Gauss-Jordan on Fraction lists.

The library answers every rank, kernel and solve question with its integer
echelon ``Subspace``; these textbook versions share none of its code, so
the tests compare the two.
"""

from fractions import Fraction


def rref(rows):
    """Reduced row echelon form over the rationals; returns (rows, pivot cols)."""
    # int(): numpy integer entries would wrap on overflow inside a Fraction
    m = [[Fraction(int(x.numerator), int(x.denominator)) for x in r] for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def nullspace(rows):
    """Basis of the right kernel: one vector per free column, 1 there."""
    ncols = len(rows[0]) if rows else 0
    red, pivots = rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(rows, rhs):
    """The solution of A x = b with free variables 0, or None if inconsistent."""
    ncols = len(rows[0]) if rows else 0
    red, pivots = rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def span_rows(vecs):
    """The nonzero rows of the reduced echelon form of the span."""
    red, pivots = rref(vecs)
    return red[:len(pivots)]
