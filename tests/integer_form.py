"""Shared check for the scaled-integer form that exact matrices carry."""

from fractions import Fraction
from math import gcd

from nashkit.matrix_core import Matrix, _scaled


def check_integer_form(m: Matrix):
    """m.ints is reduced, matches data, and m compares and hashes as Matrix.exact does."""
    nums, d = m.ints
    assert type(d) is int and d > 0
    assert all(type(p) is int for p in nums.flat)
    assert gcd(d, *nums.flat) == 1
    rebuilt, rd = _scaled(m.data)
    assert rd == d and rebuilt.tolist() == nums.tolist()
    assert all(type(x) is Fraction and gcd(x.numerator, x.denominator) == 1 for x in m.data.flat)
    ref = Matrix.exact(m.rows())
    assert m == ref and ref == m and hash(m) == hash(ref)
