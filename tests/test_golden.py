"""Golden CLI output: byte-identical stdout for a fixed set of CLI calls.

The cases cover exact calls, float copies of the Lie-algebra calls, and
calls that end in an error exit.  ``tests/data/golden_cli.json`` holds, per
case, the argv, the input JSON, the stdout of in-process ``cli.main`` and
its exit code.  The inputs are stored, not rebuilt, so the file pins the
output of the code that wrote it.  Regenerate it (only when an output change
is intended, or to add cases) with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os

import numpy as np
import pytest

from nashkit import cli
from nashkit.matrix_core import Matrix, matrix_to_json

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden_cli.json")


def _load_cases():
    if __name__ == "__main__":  # regenerating: the file may not exist yet
        return []
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", _load_cases(), ids=lambda c: c["name"])
def test_cli_output_is_byte_identical(case, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(case["input"]))
    code = cli.main(case["argv"] + [str(path)])
    assert capsys.readouterr().out == case["stdout"]
    assert code == case["code"]


# -- regeneration ------------------------------------------------------------------


def _unit(i, j, n):
    rows = [[0] * n for _ in range(n)]
    rows[i][j] = 1
    return Matrix.exact(rows)


def _block(a, b):
    """Block-diagonal direct sum of two exact matrices."""
    n = a.n + b.n
    rows = [[0] * n for _ in range(n)]
    for i in range(a.n):
        rows[i][:a.n] = a.rows()[i]
    for i in range(b.n):
        rows[a.n + i][a.n:] = b.rows()[i]
    return Matrix.exact(rows)


def _companion(low):
    """Companion matrix of the monic polynomial t^n + low[n-1] t^(n-1) + ... + low[0]."""
    n = len(low)
    rows = [[int(i == j + 1) for j in range(n)] for i in range(n)]
    for i in range(n):
        rows[i][n - 1] = -low[i]
    return Matrix.exact(rows)


def _unimodular(n, seed):
    rng = np.random.Generator(np.random.Philox(key=[seed, 7]))
    rows = Matrix.identity(n).rows()
    for _ in range(3 * n):
        i, j = (int(k) for k in rng.integers(0, n, size=2))
        if i != j:
            c = int(rng.integers(-2, 3))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return Matrix.exact(rows)


def _generators(mats):
    return {"generators": [matrix_to_json(m) for m in mats]}


def _inputs():
    e = _unit
    zero2 = Matrix.zero(2)
    sl2 = [Matrix.diagonal([1, -1]), e(0, 1, 2), e(1, 0, 2)]
    ut2 = [e(0, 0, 2), e(1, 1, 2), e(0, 1, 2)]
    algebras = {
        "ut4": [e(i, i, 4) for i in range(4)] + [e(i, i + 1, 4) for i in range(3)],
        "gl2_semi": [e(0, 0, 3), e(0, 1, 3), e(1, 0, 3), e(1, 1, 3), e(0, 2, 3)],
        "sl2_ut2": [_block(m, zero2) for m in sl2] + [_block(zero2, m) for m in ut2],
    }
    flags = {
        "engel_n4": ("engel", [e(i, i + 1, 4) for i in range(3)]),
        "split_ut3": ("split", [e(i, i, 3) for i in range(3)] + [e(0, 1, 3), e(1, 2, 3)]),
    }
    for seed, name in enumerate(list(algebras)):
        c = _unimodular(algebras[name][0].n, seed)
        algebras[name + "_conj"] = [c @ m @ c.inv() for m in algebras[name]]
    for seed, name in enumerate(list(flags)):
        op, gens = flags[name]
        c = _unimodular(gens[0].n, 10 + seed)
        flags[name + "_conj"] = (op, [c @ m @ c.inv() for m in gens])
    cases = []
    for name, gens in algebras.items():
        for op in ("close", "radical", "levi"):
            cases.append((f"lie_{op}_{name}", ["lie", op], _generators(gens)))
    for name, (op, gens) in flags.items():
        cases.append((f"flag_{name}", ["flag", op], _generators(gens)))
    sl3 = [Matrix.diagonal([1, -1, 0]), Matrix.diagonal([0, 1, -1])]
    sl3 += [e(i, j, 3) for i in range(3) for j in range(3) if i != j]
    for op in ("split", "roots"):
        cases.append((f"cartan_{op}_sl3", ["cartan", op],
                      {"basis": [matrix_to_json(m) for m in sl3]}))
    rotation_jordan = _block(Matrix.exact([[0, -2], [2, 0]]), Matrix.exact([[3, 1], [0, 3]]))
    mixed = _block(Matrix.exact([[1, 1], [0, 1]]), Matrix.exact([["-1/2", 0], [1, "-1/2"]]))
    irrational = _block(Matrix.exact([[2, 1], [1, 1]]), Matrix.exact([[0, -1], [1, 0]]))
    c = _unimodular(4, 20)
    elements = {name: c @ m @ c.inv() for name, m in
                (("rot_jordan", rotation_jordan), ("mixed", mixed), ("irrational", irrational))}
    for name, m in elements.items():
        for mode in ("mul", "add"):
            cases.append((f"jordan_{mode}_{name}", ["jordan", "--mode", mode], matrix_to_json(m)))
        for setting in ("group", "algebra"):
            cases.append((f"classify_{setting}_{name}", ["classify", "--setting", setting],
                          matrix_to_json(m)))
    # spectra that the squarefree-part predicates decide without factoring
    rot = Matrix.exact([["3/5", "-4/5"], ["4/5", "3/5"]])
    spectral = {
        "signs_rotation": _block(Matrix.diagonal([-1, 1]), rot),
        "imag_zero": _block(Matrix.zero(1), _block(Matrix.exact([[0, -1], [1, 0]]),
                                                    Matrix.exact([[0, -2], [2, 0]]))),
        "repeated_complex": Matrix.exact([[1, -2, 1, 0], [2, 1, 0, 1],  # (t^2 - 2t + 5)^2
                                          [0, 0, 1, -2], [0, 0, 2, 1]]),
    }
    for name, m in spectral.items():
        c = _unimodular(m.n, 21)
        spectral[name] = c @ m @ c.inv()
    spectral["phi10"] = _companion([1, -1, 1, -1])  # t^4 - t^3 + t^2 - t + 1
    spectral["salem"] = _companion([1, -1, -1, -1])  # t^4 - t^3 - t^2 - t + 1
    for name, m in spectral.items():
        for argv in (["jordan", "--mode", "mul"],
                     ["jordan", "--mode", "add", "--setting", "algebra"],
                     ["classify", "--setting", "group"], ["classify", "--setting", "algebra"]):
            cases.append((f"{argv[0]}_{argv[2]}_{name}", argv, matrix_to_json(m)))
    # the other lie operations, on the exact algebras and on float copies of them
    lie_ops = {
        "series_derived": ["series", "--kind", "derived"],
        "series_lower_central": ["series", "--kind", "lower-central"],
        "trace_form_natural": ["trace-form", "--rep", "natural"],
        "trace_form_adjoint": ["trace-form", "--rep", "adjoint"],
        "reductive": ["reductive"],
        "unipotent_radical": ["unipotent-radical"],
    }
    approx = {name + "_approx": [m.to_approx() for m in gens] for name, gens in algebras.items()}
    for name, gens in {**algebras, **approx}.items():
        for op, argv in lie_ops.items():
            cases.append((f"lie_{op}_{name}", ["lie"] + argv, _generators(gens)))
    # replicas: relation lattices of rational hyperbolic elements, and a unipotent one
    replicas = {
        "diag_2_4_8": Matrix.diagonal([2, 4, 8]),
        "diag_2_3_6": Matrix.diagonal([2, 3, 6]),
        "diag_half_2_3_6": Matrix.diagonal(["1/2", 2, 3, 6]),
        "unipotent": Matrix.exact([[1, 2, -1], [0, 1, 3], [0, 0, 1]]),
    }
    for seed, (name, m) in enumerate(replicas.items()):
        c = _unimodular(m.n, 30 + seed)
        cases.append((f"replica_{name}", ["replica"], matrix_to_json(c @ m @ c.inv())))
    # Engel and split flags on a nilpotent and a split solvable algebra, and conjugates
    flag_algebras = {"heis3": [e(0, 1, 3), e(1, 2, 3), e(0, 2, 3)], "ut4": algebras["ut4"]}
    for seed, name in enumerate(list(flag_algebras)):
        c = _unimodular(flag_algebras[name][0].n, 40 + seed)
        flag_algebras[name + "_conj"] = [c @ m @ c.inv() for m in flag_algebras[name]]
    for name, gens in flag_algebras.items():
        for op in ("engel", "split"):
            cases.append((f"flag_{op}_{name}", ["flag", op], _generators(gens)))
    # restricted roots of split sl2 and sl4
    for n in (2, 4):
        sl = [Matrix.diagonal([int(k == i) - int(k == i + 1) for k in range(n)])
              for i in range(n - 1)]
        sl += [e(i, j, n) for i in range(n) for j in range(n) if i != j]
        cases.append((f"cartan_roots_sl{n}", ["cartan", "roots"],
                      {"basis": [matrix_to_json(m) for m in sl]}))
    return cases


def _regenerate():
    import contextlib
    import io
    import tempfile

    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, obj in _inputs():
            path = os.path.join(tmp, "input.json")
            with open(path, "w") as fh:
                json.dump(obj, fh)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv + [path])
            out.append({"name": name, "argv": argv, "input": obj,
                        "stdout": buf.getvalue(), "code": code})
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:  # one case per line
        fh.write("[\n" + ",\n".join(json.dumps(case) for case in out) + "\n]\n")


if __name__ == "__main__":
    _regenerate()
