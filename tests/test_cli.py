import json
import subprocess
import sys

import pytest

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
    mixed = write(tmp_path, "mixed.json", {"generators": [
        {"mode": "exact", "entries": [["1", "0"], ["0", "0"]]},
        {"mode": "exact", "entries": [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]},
    ]})
    for args in (["classify", zero_den], ["classify", boolean], ["lie", "close", mixed]):
        code3, out3, err3 = run_cli(args)
        assert code3 == 2, (args, out3, err3)
        assert json.loads(out3)["error"] == "MalformedInput"


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
