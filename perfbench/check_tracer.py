"""Self-test of the tracer: its wrappers must see calls made through
``from``-imported names, and uninstalling must restore the library.

Run from the repository root: ``python3 perfbench/check_tracer.py``.
Exits 1 and names the failed expectation when one does not hold.
"""

from __future__ import annotations

import importlib
import os
import sys
from fractions import Fraction


def run_checks() -> list[str]:
    import inputs
    from tracer import Tracer

    liealg = importlib.import_module("nashkit.liealg")
    jordan = importlib.import_module("nashkit.jordan")
    matrix_core = importlib.import_module("nashkit.matrix_core")
    Matrix = matrix_core.Matrix
    originals = (jordan.char_poly, Matrix.__matmul__, liealg._check_levi)
    problems = []

    ut3 = liealg.algebra_from_basis(
        [Matrix.exact(inputs.unit(i, j, 3)) for i in range(3) for j in range(3) if i <= j])
    tracer = Tracer()
    tracer.install()
    try:
        liealg.levi_complement(ut3)
    finally:
        tracer.uninstall()
    if not tracer.self_s["liealg.check"] > 0:
        problems.append("levi_complement(ut3) recorded no liealg.check self time")
    if not tracer.calls["_span.coords_in_span"] > 0:
        problems.append("levi_complement(ut3) recorded no _span.coords_in_span calls")

    g = inputs.rng(0, 1)
    diag = [Fraction(v) for v in (2, 2, -1, 3)]
    x = Matrix.exact(inputs.conjugate(g, inputs.triangular(g, 4, diag)))
    tracer.reset()
    tracer.install()
    try:
        jordan.multiplicative_jordan(x)
    finally:
        tracer.uninstall()
    if tracer.calls["matrix_core.char_poly"] < 2:
        problems.append("exact 4x4 multiplicative_jordan recorded fewer than two char_poly calls")
    if tracer.calls["matrix_core.matmul_exact"] == 0:
        problems.append("exact 4x4 multiplicative_jordan recorded no exact matmul")

    if (jordan.char_poly, Matrix.__matmul__, liealg._check_levi) != originals:
        problems.append("uninstall did not restore the library functions")
    return problems


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    found = run_checks()
    for p in found:
        print(f"FAIL {p}")
    print("tracer self-test:", "failed" if found else "passed")
    sys.exit(1 if found else 0)
