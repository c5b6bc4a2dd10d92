import contextlib
import io
import json
import signal
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

CLI = [sys.executable, "-m", "nashkit.cli"]


def run_cli(args, cwd=None):
    proc = subprocess.run(CLI + args, capture_output=True, text=True, cwd=cwd)
    return proc.returncode, proc.stdout, proc.stderr


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def identity_json(tmp_path):
    return write(tmp_path, "identity.json",
                 {"mode": "exact", "entries": [["1", "0"], ["0", "1"]]})


@pytest.fixture
def sl2_json(tmp_path):
    return write(tmp_path, "sl2.json", {"basis": [
        {"mode": "exact", "entries": [["1", "0"], ["0", "-1"]]},
        {"mode": "exact", "entries": [["0", "1"], ["0", "0"]]},
        {"mode": "exact", "entries": [["0", "0"], ["1", "0"]]},
    ]})


def test_jordan_identity(identity_json):
    code, out, _ = run_cli(["jordan", "--mode", "mul", identity_json])
    assert code == 0
    doc = json.loads(out)
    ident = {"mode": "exact", "entries": [["1/1", "0/1"], ["0/1", "1/1"]]}
    assert doc["e"] == doc["h"] == doc["u"] == ident
    assert doc["class"]["unipotent"] and doc["class"]["elliptic"]


def test_lie_reductive_sl2(sl2_json):
    code, out, _ = run_cli(["lie", "reductive", sl2_json])
    assert code == 0 and json.loads(out) == {"reductive": True}


def test_kan_singular_exit_three(tmp_path):
    path = write(tmp_path, "sing.json",
                 {"mode": "exact", "entries": [["1", "1"], ["1", "1"]]})
    code, out, _ = run_cli(["cartan", "kan", path])
    assert code == 3
    assert json.loads(out)["error"] == "NotInvertible"


def test_malformed_input_exit_two(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json at all")
    code, out, _ = run_cli(["jordan", str(path)])
    assert code == 2
    assert json.loads(out)["error"] == "MalformedInput"
    path2 = write(tmp_path, "schema.json", {"rows": [[1]]})
    code2, out2, _ = run_cli(["classify", path2])
    assert code2 == 2
    zero_den = write(tmp_path, "zero_den.json", {"mode": "exact", "entries": [["1/0"]]})
    boolean = write(tmp_path, "bool.json", {"mode": "exact", "entries": [[True]]})
    infinite = write(tmp_path, "inf.json", {"mode": "exact", "entries": [[float("-inf")]]})
    mixed = write(tmp_path, "mixed.json", {"generators": [
        {"mode": "exact", "entries": [["1", "0"], ["0", "0"]]},
        {"mode": "exact", "entries": [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]},
    ]})
    for args in (["classify", zero_den], ["classify", boolean], ["classify", infinite],
                 ["lie", "close", mixed]):
        code3, out3, err3 = run_cli(args)
        assert code3 == 2, (args, out3, err3)
        assert json.loads(out3)["error"] == "MalformedInput"


@pytest.mark.parametrize("entries", [[["1e400"]], [["1e400", "1"], ["0", "1"]]])
def test_exact_entries_beyond_float_range(tmp_path, capsys, entries):
    from nashkit.cli import main

    path = write(tmp_path, "big.json", {"mode": "exact", "entries": entries})
    big = f"{10 ** 400}/1"
    assert main(["classify", path]) == 0
    assert json.loads(capsys.readouterr().out)["hyperbolic"] is True
    for mode in ("mul", "add"):
        assert main(["jordan", "--mode", mode, path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(doc[k]["mode"] == "exact" for k in "ehu")
        assert doc["h"]["entries"][0][0] == big
    # the hyperbolic logarithm is a float computation: out of range is malformed input
    assert main(["explog", "log", "--domain", "exponential", path]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "MalformedInput"


def test_import_leaves_scipy_unloaded():
    code = "import sys, nashkit.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _codes_and_loaded(calls, module):
    """Run main(argv) for each argv of calls in one fresh process: the exit codes, and
    whether module was loaded, as that process prints them."""
    code = ("import contextlib, io, json, sys\n"
            "from nashkit.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(codes, sys.argv[2] in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(calls), module],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_float_calls_leave_scipy_unloaded(tmp_path):
    # scipy is a test and benchmark oracle only: no float route of the library loads it
    kak = write(tmp_path, "kak.json", {"mode": "approx", "entries": [[2.0, 1.0], [0.5, 3.0]]})
    # semisimple with eigenvalues 1 and 2, not symmetric
    hyp = write(tmp_path, "hyp.json", {"mode": "approx", "entries": [[1.0, 0.7], [0.0, 2.0]]})
    calls = [["cartan", "kak", kak], ["explog", "exp", "--domain", "hyperbolic", hyp],
             ["explog", "log", "--domain", "hyperbolic", hyp], ["--seed", "0", "selftest"]]
    assert _codes_and_loaded(calls, "scipy") == f"{[0] * len(calls)} False"


def test_exact_calls_leave_sympy_unloaded(tmp_path):
    code = "import sys, nashkit.cli; print('sympy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    # distinct rational, irrational cubic and rotation-block spectra
    tri = write(tmp_path, "tri.json", {"mode": "exact", "entries": [
        ["2", "1", "0"], ["0", "3", "1/2"], ["0", "0", "4"]]})
    cubic = write(tmp_path, "cubic.json", {"mode": "exact", "entries": [
        ["0", "0", "2"], ["1", "0", "0"], ["0", "1", "0"]]})
    rot = write(tmp_path, "rot.json", {"mode": "exact", "entries": [
        ["0", "-2", "0"], ["2", "0", "0"], ["1", "0", "3"]]})
    # char poly (t^2 + 1)(t^2 + 4): no rational root, squarefree part of degree 4
    quartic = write(tmp_path, "quartic.json", {"mode": "exact", "entries": [
        ["0", "-1", "0", "0"], ["1", "0", "1", "0"], ["0", "0", "0", "-2"], ["0", "0", "2", "0"]]})
    # an exact random 6x6 invertible whose char poly has an irreducible factor of degree >= 4
    from nashkit.matrix_core import char_poly, irreducible_factors, matrix_to_json
    from nashkit.selftest import _random_invertible, _rng

    x = _random_invertible(_rng(0, 99), 6)
    assert max(q.degree for q, _ in irreducible_factors(char_poly(x))) >= 4
    six = write(tmp_path, "six.json", matrix_to_json(x))
    calls = [["jordan", tri], ["jordan", "--mode", "add", cubic], ["jordan", rot],
             ["classify", cubic], ["classify", "--setting", "algebra", rot], ["replica", tri],
             ["classify", quartic], ["classify", "--setting", "algebra", quartic],
             ["snsplit", quartic], ["jordan", quartic], ["jordan", "--mode", "add", quartic],
             ["jordan", six], ["--seed", "0", "selftest"]]
    assert _codes_and_loaded(calls, "sympy") == f"{[0] * len(calls)} False"


def test_overflowing_float_input_prints_no_warning(tmp_path):
    path = write(tmp_path, "big.json", {"mode": "approx", "entries": [[1e200, 1], [0, 1e200]]})
    code, out, err = run_cli(["jordan", path])
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "e": {"mode": "approx", "entries": [[1.0, 0.0], [0.0, 1.0]]},
        "h": {"mode": "approx", "entries": [[1e200, 0.0], [0.0, 1e200]]},
        "u": {"mode": "approx", "entries": [[1.0, 0.0], [0.0, 1.0]]},
        "class": {"elliptic": False, "hyperbolic": True, "unipotent": False,
                  "semisimple": True, "exponential": True},
    }


def test_underflowing_float_input_prints_no_warning(tmp_path):
    # the smaller singular value is far below 1e-154, so x^T x would underflow; the SVD
    # polar factor never forms it: k swaps the coordinates and X_00 = log(_TINY)
    path = write(tmp_path, "tiny.json", {"mode": "approx", "entries": [[0, 1], [_TINY, 0]]})
    code, out, err = run_cli(["--exact", "cartan", "kak", path])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert np.allclose(doc["k"]["entries"], [[0, 1], [1, 0]], rtol=0, atol=1e-12)
    assert np.allclose(doc["X"]["entries"], [[np.log(_TINY), 0], [0, 0]], rtol=1e-15, atol=1e-12)


def test_cluster_ambiguity_exit_four(tmp_path):
    path = write(tmp_path, "close.json",
                 {"mode": "approx", "entries": [[1.0, 0.0], [0.0, 1.00000004]]})
    code, out, _ = run_cli(["classify", path])
    assert code == 4
    assert json.loads(out)["error"] == "ClusterAmbiguity"


def test_snsplit_and_roundtrip(tmp_path):
    path = write(tmp_path, "m.json",
                 {"mode": "exact", "entries": [["2", "1"], ["0", "2"]]})
    code, out, _ = run_cli(["snsplit", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["s"]["entries"] == [["2/1", "0/1"], ["0/1", "2/1"]]
    assert doc["n"]["entries"] == [["0/1", "1/1"], ["0/1", "0/1"]]
    # every matrix in the output re-parses under the schema
    from nashkit.matrix_core import matrix_from_json

    for key in ("s", "n"):
        matrix_from_json(doc[key])


def test_explog_cli(tmp_path):
    path = write(tmp_path, "n.json",
                 {"mode": "exact", "entries": [["0", "1"], ["0", "0"]]})
    code, out, _ = run_cli(["explog", "exp", "--domain", "nilpotent", path])
    assert code == 0
    assert json.loads(out)["result"]["entries"] == [["1/1", "1/1"], ["0/1", "1/1"]]
    code2, out2, _ = run_cli(["explog", "log", "--domain", "hyperbolic", path])
    assert code2 == 3  # nilpotent input is not hyperbolic


def test_flag_cli(tmp_path):
    path = write(tmp_path, "heis.json", {"basis": [
        {"mode": "exact", "entries": [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]]},
        {"mode": "exact", "entries": [["0", "0", "1"], ["0", "0", "0"], ["0", "0", "0"]]},
        {"mode": "exact", "entries": [["0", "0", "0"], ["0", "0", "1"], ["0", "0", "0"]]},
    ]})
    code, out, _ = run_cli(["flag", "engel", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["flag"]["complete"] and len(doc["flag"]["stages"]) == 3
    code2, out2, _ = run_cli(["flag", "split", path])
    assert code2 == 0
    assert json.loads(out2)["change_of_basis"]["entries"][0][0] == "1/1"


def test_replica_cli(tmp_path):
    path = write(tmp_path, "d.json", {"mode": "exact", "entries": [
        ["2", "0", "0"], ["0", "4", "0"], ["0", "0", "8"]]})
    code, out, _ = run_cli(["replica", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "hyperbolic" and doc["dimension"] == 1
    assert len(doc["lattice"]) == 2


def test_cartan_roots_cli(sl2_json):
    code, out, _ = run_cli(["cartan", "roots", sl2_json])
    assert code == 0
    doc = json.loads(out)
    assert doc["roots"] == [["-2/1"], ["2/1"]]
    assert doc["zero_space_dim"] == 1


def test_approx_flag_converts_track(tmp_path):
    path = write(tmp_path, "m.json",
                 {"mode": "exact", "entries": [["2", "0"], ["0", "3"]]})
    code, out, _ = run_cli(["--approx", "snsplit", path])
    assert code == 0
    assert json.loads(out)["s"]["mode"] == "approx"


def test_lie_cli_surfaces(tmp_path):
    ut2 = write(tmp_path, "ut2.json", {"basis": [
        {"mode": "exact", "entries": [["1", "0"], ["0", "0"]]},
        {"mode": "exact", "entries": [["0", "0"], ["0", "1"]]},
        {"mode": "exact", "entries": [["0", "1"], ["0", "0"]]},
    ]})
    code, out, _ = run_cli(["lie", "series", "--kind", "lower-central", ut2])
    assert code == 0
    chain = json.loads(out)["chain"]
    assert [len(stage) for stage in chain] == [3, 1]
    code, out, _ = run_cli(["lie", "trace-form", "--rep", "natural", ut2])
    assert code == 0
    assert json.loads(out)["gram"]["entries"][0][0] == "1/1"
    code, out, _ = run_cli(["lie", "unipotent-radical", ut2])
    assert code == 0 and len(json.loads(out)["unipotent_radical"]) == 1
    code, out, _ = run_cli(["lie", "levi", ut2])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["levi"]) == 2 and len(doc["unipotent_radical"]) == 1
    code, out, _ = run_cli(["lie", "radical", ut2])
    assert code == 0 and len(json.loads(out)["radical"]) == 3


def test_lie_closure_from_generators(tmp_path):
    gens = write(tmp_path, "gen.json", {"generators": [
        {"mode": "exact", "entries": [["0", "1"], ["0", "0"]]},
        {"mode": "exact", "entries": [["0", "0"], ["1", "0"]]},
    ]})
    code, out, _ = run_cli(["lie", "close", gens])
    assert code == 0 and json.loads(out)["dim"] == 3


def test_cartan_split_cli(sl2_json):
    code, out, _ = run_cli(["cartan", "split", sl2_json])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["k"]) == 1 and len(doc["p"]) == 2


def test_cartan_kan_adapted_cli(tmp_path):
    lt = write(tmp_path, "lt.json", {"basis": [
        {"mode": "exact", "entries": [["1", "0"], ["0", "0"]]},
        {"mode": "exact", "entries": [["0", "0"], ["0", "1"]]},
        {"mode": "exact", "entries": [["0", "0"], ["1", "0"]]},
    ]})
    x = write(tmp_path, "x.json",
              {"mode": "exact", "entries": [["2", "0"], ["1", "3"]]})
    code, out, _ = run_cli(["cartan", "kan", "--algebra", lt, x])
    assert code == 0
    doc = json.loads(out)
    # the adapted basis swaps coordinates, so n is upper-triangular
    assert abs(doc["n"]["entries"][1][0]) <= 1e-12


@pytest.mark.parametrize("track", [[], ["--approx"]])
def test_cartan_kan_algebra_of_another_size_exit_two(tmp_path, capsys, track):
    from nashkit.cli import main

    a3 = write(tmp_path, "a3.json", {"basis": [
        {"mode": "exact", "entries": [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]},
        {"mode": "exact", "entries": [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]]},
    ]})
    x = write(tmp_path, "x.json", {"mode": "approx", "entries": [[2.0, 0.0], [1.0, 3.0]]})
    assert main(track + ["cartan", "kan", "--algebra", a3, x]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "MalformedInput"


def test_cartan_kak_rejects_an_algebra_before_computing(tmp_path, capsys, monkeypatch):
    from nashkit import cli

    def never(*args, **kwargs):
        raise AssertionError("kak --algebra computed something")

    monkeypatch.setattr(cli, "split_triangularize", never)
    monkeypatch.setattr(cli, "polar_kak", never)
    so2 = write(tmp_path, "so2.json", {"basis": [{"mode": "exact", "entries": [[0, -1], [1, 0]]}]})
    x = write(tmp_path, "x.json", {"mode": "exact", "entries": [["2", "0"], ["1", "3"]]})
    assert cli.main(["cartan", "kak", "--algebra", so2, x]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "MalformedInput" and "kan only" in out["detail"]


@pytest.mark.parametrize("argv", [["--tol", "abc", "classify", "{m}"], ["bogus"], [],
                                  ["lie", "bogus", "{m}"], ["--seed", "x", "selftest"]])
def test_argv_the_parser_rejects_ends_in_json(tmp_path, argv):
    m = write(tmp_path, "m.json", {"mode": "exact", "entries": [["1", "0"], ["0", "1"]]})
    code, out, err = run_cli([a.format(m=m) for a in argv])
    assert code == 2 and json.loads(out)["error"] == "MalformedInput"
    assert "usage" not in err


def test_help_prints_usage_and_exits_zero():
    code, out, _ = run_cli(["--help"])
    assert code == 0 and out.startswith("usage: nashkit")


def test_jordan_additive_algebra_cli(tmp_path):
    path = write(tmp_path, "m.json",
                 {"mode": "exact", "entries": [["1", "-2"], ["2", "1"]]})
    code, out, _ = run_cli(["jordan", "--mode", "add", "--setting", "algebra", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["h"]["entries"] == [["1/1", "0/1"], ["0/1", "1/1"]]
    assert doc["e"]["entries"] == [["0/1", "-2/1"], ["2/1", "0/1"]]
    assert doc["class"]["semisimple"] and not doc["class"]["exponential"]


def test_selftest_cli_deterministic_and_green():
    code1, out1, _ = run_cli(["--seed", "1", "selftest"])
    code2, out2, _ = run_cli(["--seed", "1", "selftest"])
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical reports for a fixed seed
    doc = json.loads(out1)
    assert doc["all_passed"] and len(doc["results"]) == 12


def test_selftest_report_matches_the_committed_one(capsys):
    from pathlib import Path

    from nashkit.cli import main

    assert main(["--seed", "0", "selftest"]) == 0
    want = Path(__file__).parent / "data" / "selftest_seed0.txt"
    assert capsys.readouterr().out == want.read_text()


def test_tol_env_override(tmp_path, monkeypatch):
    path = write(tmp_path, "close.json",
                 {"mode": "approx", "entries": [[1.0, 0.0], [0.0, 1.00000004]]})
    env_code, _, _ = run_cli(["classify", path])
    assert env_code == 4  # ambiguous at the default tolerance
    import os
    import subprocess as sp

    env = dict(os.environ, NASHKIT_TOL="1e-12")
    proc = sp.run(CLI + ["classify", path], capture_output=True, text=True, env=env)
    assert proc.returncode == 0  # fine at a tighter tolerance


def test_tol_env_not_a_number_exit_two(tmp_path, capsys, monkeypatch):
    from nashkit.cli import main

    monkeypatch.setenv("NASHKIT_TOL", "abc")
    path = write(tmp_path, "x.json", {"mode": "exact", "entries": [["2", "1"], ["0", "3"]]})
    assert main(["classify", path]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "MalformedInput"


# -- input fuzzing: every input ends in JSON on stdout and exit 0, 2, 3 or 4 -------------

_TINY = 2.190906124428017e-234
_FUZZ_FINDINGS = [  # inputs that ended in a traceback, or were accepted, before they were handled
    # exactly invertible, singular in floats once promoted
    (["--exact", "jordan"], {"mode": "approx", "entries": [[0, 1], [_TINY, 1]]},
     3, "NotInvertible"),
    # x^T x overflows, and an eigenvalue of x^T x underflows to 0.0; the SVD polar factor
    # forms neither, and the replies hold the factors to 12 decimals
    (["cartan", "kak"], {"mode": "approx", "entries": [[6.899029938689414e283]]},
     0, {"k": {"mode": "approx", "entries": [[1.0]]},
         "X": {"mode": "approx", "entries": [[round(np.log(6.899029938689414e283), 12)]]}}),
    (["--exact", "cartan", "kak"], {"mode": "approx", "entries": [[0, 1], [_TINY, 0]]},
     0, {"k": {"mode": "approx", "entries": [[0.0, 1.0], [1.0, 0.0]]},
         "X": {"mode": "approx", "entries": [[round(np.log(_TINY), 12), 0.0], [0.0, 0.0]]}}),
    # an ambient size that is not an int
    (["flag", "engel"], {"basis": [], "ambient": "x"}, 2, "MalformedInput"),
    # an ambient size other than the matrices' size
    (["flag", "split"], {"basis": [{"mode": "exact", "entries": [[1, 0], [0, 2]]}], "ambient": 5},
     2, "MalformedInput"),
    # at tol 0 an eigenvalue of 0.0, or a vanishing LU pivot, got past the singular-value test
    (["--tol", "0", "jordan"], {"mode": "approx", "entries": [[1, 1], [1.0, 1.0]]},
     3, "NotInvertible"),
    (["--tol=1e-300", "jordan"], {"mode": "approx", "entries": [[-7.583759826295733, 5.738608933449143],
                                                               [-7.583759826295733, 5.738608933449143]]},
     3, "NotInvertible"),
    # a float bracket closure whose membership and rank tests disagreed looped forever, then
    # failed; with one residual rule it settles: two generic 2 x 2 generators span gl2 ...
    (["--tol", "0.5", "lie", "close"], {"generators": [
        {"mode": "approx", "entries": [[-1.8039522160855288, 7], [-3, -6]]},
        {"mode": "exact", "entries": [[-5, 0], [7, "-9/3"]]}]}, 0, {"dim": 4}),
    # ... and at tol 0 these two close to gl3, which is not solvable
    (["--tol", "0", "--approx", "flag", "split"], {"generators": [
        {"mode": "exact", "entries": [[-2, "-3/4", "5/3"], [0, 7, "-4/3"], [-9, -9, -3]]},
        {"mode": "exact", "entries": [[-1, -1, "-4/3"], [7, -4, 6], ["1/3", "-5/4", 9]]}]},
     3, "NotSolvable"),
    # irrational eigenvalues send the split to the float track, where the basis is dependent at tol 1
    (["--tol", "1", "flag", "split"], {"basis": [{"mode": "exact", "entries": [[2, 1], [1, 1]]}]},
     4, "NumericalFailure"),
    # a tolerance below 0, or not finite: -1 made every predicate false, nan raised NotInvertible
    *[(["--tol", tol, "--approx", "jordan"], {"mode": "exact", "entries": [[2, 1], [0, 3]]},
       2, "MalformedInput") for tol in ("-1", "nan", "inf")],
    # a float Killing Gram whose sums overflow: the entries of sl2 scaled by 9e153 are finite,
    # and so are its structure constants, but tr(ad_i ad_j) is not
    (["lie", "trace-form", "--rep", "adjoint"], {"basis": [
        {"mode": "approx", "entries": [[9e153, 0], [0, -9e153]]},
        {"mode": "approx", "entries": [[0, 9e153], [0, 0]]},
        {"mode": "approx", "entries": [[0, 0], [9e153, 0]]}]}, 4, "NumericalFailure"),
]


@pytest.mark.parametrize("argv, doc, exit_code, reply", _FUZZ_FINDINGS)
def test_fuzz_findings_end_in_json(tmp_path, capsys, argv, doc, exit_code, reply):
    # reply: the error name, or entries the reply must hold, its floats rounded to 12 decimals
    from nashkit.cli import main

    assert main(argv + [write(tmp_path, "in.json", doc)]) == exit_code
    out = json.loads(capsys.readouterr().out, parse_float=lambda v: round(float(v), 12))
    want = {"error": reply} if isinstance(reply, str) else reply
    assert {k: out.get(k) for k in want} == want


@pytest.mark.parametrize("command", ["engel", "split"])
def test_flag_of_zero_generators_matches_the_empty_basis(tmp_path, capsys, command):
    from nashkit.cli import main

    zero = {"mode": "exact", "entries": [["0", "0"], ["0", "0"]]}
    outs = []
    for doc in ({"generators": [zero]}, {"basis": [], "ambient": 2}):
        assert main(["flag", command, write(tmp_path, "in.json", doc)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["flag"]["complete"]


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_split_flag_of_a_large_norm_element(tmp_path, capsys, mode):
    # real distinct eigenvalues, so a split flag exists; the rank tests on
    # unit rows once compared against a tolerance that grows with the norm
    from nashkit.cli import main

    b = [[-2.0935988701599332e16, -2], [2, -2]]
    doc = {"basis": [{"mode": mode, "entries": b}]}
    assert main(["flag", "split", write(tmp_path, "in.json", doc)]) == 0
    out = json.loads(capsys.readouterr().out)
    p = np.array(out["change_of_basis"]["entries"], dtype=float)
    conj = np.linalg.solve(p, np.array(b) @ p)
    assert abs(conj[1, 0]) <= 1e-8 * np.linalg.norm(b)
    stages = out["flag"]["stages"]
    assert out["flag"]["complete"] and [len(stage) for stage in stages] == [1, 2]
    np.testing.assert_allclose(stages[0][0], p[:, 0])


_clean_exact = st.one_of(
    st.integers(-9, 9),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-9, 9), st.integers(1, 4)),
)
_clean_approx = st.one_of(st.integers(-9, 9), st.floats(-10, 10, allow_nan=False))
_any_entry = st.one_of(
    _clean_exact,
    st.integers(-10 ** 30, 10 ** 30),
    st.floats(),  # inf and nan included
    st.booleans(),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-50, 50), st.integers(-3, 3)),
    st.sampled_from(["1e400", "1e-400", "-1.5e3", "abc", "", " 2 ", "1/2/3", "0x10"]),
    st.none(),
    st.just([]),
    st.just({"p": 1}),
)
_MATRIX_COMMANDS = [
    ["jordan"], ["jordan", "--mode", "add", "--setting", "algebra"], ["snsplit"],
    ["classify"], ["classify", "--setting", "algebra"],
    ["explog", "exp", "--domain", "nilpotent"], ["explog", "exp", "--domain", "hyperbolic"],
    ["explog", "log", "--domain", "hyperbolic"], ["explog", "log", "--domain", "exponential"],
    ["explog", "log", "--domain", "nilpotent"], ["replica"], ["cartan", "kak"], ["cartan", "kan"],
]
_ALGEBRA_COMMANDS = [["lie", "close"], ["lie", "radical"], ["lie", "levi"], ["flag", "engel"],
                     ["flag", "split"], ["cartan", "split"], ["cartan", "roots"]]


@st.composite
def _matrix_json(draw, n):
    mode = draw(st.sampled_from(["exact", "approx"]))
    kind = draw(st.sampled_from(["clean", "clean", "any"]))
    entry = {"exact": _clean_exact, "approx": _clean_approx}[mode] if kind == "clean" else _any_entry
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.integers(0, 9)) == 0:
        rows[-1] = rows[-1][:-1]  # ragged
    return {"mode": mode, "entries": rows}


@st.composite
def _algebra_json(draw, n):
    doc = {draw(st.sampled_from(["generators", "basis"])):
           draw(st.lists(_matrix_json(n), max_size=2))}
    if draw(st.booleans()):  # no large int: an empty basis of a valid size n builds n x n flags
        doc["ambient"] = draw(st.one_of(
            st.integers(-1, 3), st.booleans(), st.floats(), st.text(max_size=3), st.none(),
            st.lists(st.integers(-1, 3), max_size=2)))
    return doc


@st.composite
def _cli_calls(draw):
    """(argv without the input file, input doc, the --algebra doc or None)."""
    n = draw(st.integers(1, 3))
    track = draw(st.sampled_from([[], ["--exact"], ["--approx"]]))
    if draw(st.integers(0, 3)) == 0:  # valid, 0, negative, nan or inf
        tol = draw(st.one_of(st.sampled_from([1e-8, 1e-12, 0.0, -1.0, -1e-300, "nan", "inf"]),
                             st.floats(-1, 1)))
        track = [f"--tol={tol}"] + track  # one token: argparse reads "-1e-300" as an option
    kind = draw(st.sampled_from(["matrix", "algebra", "kan"]))
    if kind == "matrix":
        return track + draw(st.sampled_from(_MATRIX_COMMANDS)), draw(_matrix_json(n)), None
    if kind == "kan":  # the algebra's size is drawn apart from the input's
        algebra = draw(st.integers(1, 3).flatmap(_algebra_json))
        return track + ["cartan", "kan"], draw(_matrix_json(n)), algebra
    return track + draw(st.sampled_from(_ALGEBRA_COMMANDS)), draw(_algebra_json(n)), None


class _Stalled(Exception):
    """A fuzzed CLI call ran past its wall-clock limit."""


@contextlib.contextmanager
def _wall_clock_limit(argv, doc, seconds=120):
    """Fail the example with its argv and input document after ``seconds``, well before
    ``faulthandler_timeout`` (300 s), so hypothesis reports, shrinks and stores a stalling input."""
    def stalled(signum, frame):
        raise _Stalled(f"no reply after {seconds} s: argv {argv!r}, input {json.dumps(doc)}")

    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=400, deadline=None)
@given(_cli_calls())
def test_cli_fuzzed_inputs_end_in_json(tmp_path_factory, call):
    from nashkit.cli import main

    argv, doc, algebra = call
    folder = tmp_path_factory.mktemp("fuzz")
    path = folder / "input.json"
    path.write_text(json.dumps(doc))
    if algebra is not None:
        (folder / "algebra.json").write_text(json.dumps(algebra))
        argv = argv + ["--algebra", str(folder / "algebra.json")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            _wall_clock_limit(argv, {"input": doc, "algebra": algebra}):
        code = main(argv + [str(path)])  # an uncaught exception fails the test here
    assert code in (0, 2, 3, 4), (argv, doc, out.getvalue())
    json.loads(out.getvalue())
    assert "Traceback" not in err.getvalue()


# every argv, accepted by the parser or not, ends in one JSON reply (selftest, which runs
# the battery, and --help, which prints usage and exits 0, are left out)
_TOKENS = ["jordan", "snsplit", "classify", "explog", "lie", "flag", "cartan", "replica",
           "bogus", "--exact", "--approx", "--tol", "--seed", "--json", "--mode", "--setting",
           "--domain", "--kind", "--rep", "--algebra", "--bogus", "mul", "add", "group",
           "algebra", "exp", "log", "nilpotent", "close", "series", "levi", "engel", "split",
           "kak", "kan", "natural", "0", "1e-8", "abc", "-1", "{matrix}", "{algebra}", "{missing}"]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS), max_size=6))
def test_any_argv_ends_in_one_json_reply(tmp_path_factory, tokens):
    from nashkit.cli import main

    folder = tmp_path_factory.mktemp("argv")
    matrix = {"mode": "exact", "entries": [[2, 1], [0, 2]]}
    algebra = {"generators": [{"mode": "exact", "entries": [["0", "1"], ["0", "0"]]}]}
    paths = {"matrix": write(folder, "m.json", matrix), "algebra": write(folder, "a.json", algebra),
             "missing": str(folder / "missing.json")}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            _wall_clock_limit(tokens, {"matrix": matrix, "algebra": algebra}):
        code = main([t.format(**paths) for t in tokens])
    assert code in (0, 2, 3, 4), (tokens, out.getvalue())
    assert len(out.getvalue().splitlines()) == 1 and json.loads(out.getvalue()) is not None
    assert not err.getvalue()
