"""The four workloads: seeded inputs, the calls made on them, and their checks.

A workload is a list of ``Op``s, one pass.  The timed loop cycles through the
pass, one call at a time (a closed loop with one caller).  Each ``call``
looks the library function up on its module when it runs, so the tracer's
wrappers see top-level calls as well as internal ones.  Each ``check`` runs
outside the timed region and raises ``oracle.CheckFailed`` (or anything
else) when the result is wrong.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import inputs
import oracle
from oracle import require


@dataclass
class Op:
    label: str  # "<function>/<size>/<input kind>"; the warm-up runs one op per function
    call: Callable[[], object]
    check: Callable[[object], None]
    argv: list[str] | None = None  # cli ops: the nashkit command line

    @property
    def function(self) -> str:
        return self.label.split("/")[0]


def _modules(*names):
    """nashkit submodules by name (the package re-exports some names, e.g. ``replica``)."""
    return [importlib.import_module(f"nashkit.{name}") for name in names]


def interleave(groups: list[list[Op]]) -> list[Op]:
    """Round-robin merge, so that any prefix of a pass mixes every size."""
    out = []
    for i in range(max(len(g) for g in groups)):
        out.extend(g[i] for g in groups if i < len(g))
    return out


# -- elements ---------------------------------------------------------------------------


def _semisimple_flag(x, memo: dict) -> bool:
    if "ss" not in memo:
        memo["ss"] = oracle.squarefree_kills(x, x)
    return memo["ss"]


def _check_sn(x):
    def check(res):
        s, n = res
        if s.mode == "exact":
            oracle.check_sn_exact(x, oracle.rows_of(s), oracle.rows_of(n))
        else:
            oracle.check_sn_float(np.array(x, dtype=float), s, n)
    return check


def _check_triple(x, multiplicative: bool):
    def check(t):
        if all(m.mode == "exact" for m in t.parts()):
            oracle.check_triple_exact(x, *(oracle.rows_of(m) for m in t.parts()), multiplicative)
        else:
            oracle.check_triple_float(x, t, multiplicative)
    return check


def _check_classify(x, setting: str, memo: dict):
    n = len(x)
    shifted = oracle.sub(x, oracle.eye(n)) if setting == "group" else x

    def check(c):
        require(c.unipotent == oracle.is_zero(oracle.power(shifted, n)), "unipotent flag is wrong")
        require(c.semisimple == _semisimple_flag(x, memo), "semisimple flag is wrong")
    return check


def elements_ops(seed: int) -> list[Op]:
    explog, jordan, replica = _modules("explog", "jordan", "replica")
    from nashkit.matrix_core import Matrix

    per_size = []
    for n in inputs.ELEMENT_SIZES:
        data = inputs.element_inputs(seed, n)
        ops = []
        for kind in ("tri", "rot", "rand"):
            for idx, x in enumerate(data[kind]):
                m, memo, tag = Matrix.exact(x), {}, f"n{n}/{kind}{idx}"
                ops += [
                    Op(f"sn_split/{tag}", lambda m=m: jordan.sn_split(m), _check_sn(x)),
                    Op(f"multiplicative_jordan/{tag}", lambda m=m: jordan.multiplicative_jordan(m),
                       _check_triple(x, True)),
                    Op(f"additive_jordan/{tag}", lambda m=m: jordan.additive_jordan(m),
                       _check_triple(x, False)),
                    Op(f"classify_group/{tag}", lambda m=m: jordan.classify(m, jordan.GROUP),
                       _check_classify(x, "group", memo)),
                    Op(f"classify_algebra/{tag}", lambda m=m: jordan.classify(m, jordan.ALGEBRA),
                       _check_classify(x, "algebra", memo)),
                ]
        nil, uni, expo = data["nilpotent"], data["unipotent"], data["exponential"]
        hyp, hyp_values = data["hyperbolic"]
        mn, mu, me, mh = (Matrix.exact(a) for a in (nil, uni, expo, hyp))

        def check_equal(want):
            return lambda res: require(oracle.rows_of(res) == want, "series value is wrong")

        def check_replica_u(res, uni=uni):
            require(res.kind == "unipotent" and res.dimension == 1, "unipotent replica is wrong")
            require(oracle.rows_of(res.generator) == oracle.log_series(uni), "generator is wrong")

        ops += [
            Op(f"exp_nilpotent/n{n}", lambda mn=mn: explog.exp_nilpotent(mn),
               check_equal(oracle.exp_series(nil))),
            Op(f"log_unipotent/n{n}", lambda mu=mu: explog.log_unipotent(mu),
               check_equal(oracle.log_series(uni))),
            Op(f"log_exponential/n{n}", lambda me=me: explog.log_exponential(me),
               lambda res, expo=expo: oracle.check_exp_close(res, expo)),
            Op(f"replica_hyperbolic/n{n}", lambda mh=mh: replica.replica(mh),
               lambda res, v=hyp_values: oracle.check_replica_hyperbolic(res, v)),
            Op(f"replica_unipotent/n{n}", lambda mu=mu: replica.replica(mu), check_replica_u),
        ]
        per_size.append(ops)
    return interleave(per_size)


# -- algebras ------------------------------------------------------------------------------


def _algebra_ops(name: str, basis, gens, facts) -> list[Op]:
    cartan_iwasawa, liealg, triangularize = _modules("cartan_iwasawa", "liealg", "triangularize")
    from nashkit.matrix_core import Matrix

    g = liealg.algebra_from_basis([Matrix.exact(b) for b in basis])
    gen_mats = [Matrix.exact(m) for m in gens]
    n = len(basis[0])

    def check_closure(res):
        got = oracle.basis_rows(res.basis)
        oracle.check_subalgebra(got, facts["dim"])
        vecs = [oracle.flat(b) for b in got]
        require(all(oracle.in_span(oracle.flat(m), vecs) for m in gens), "a generator is outside")

    def check_radical(res):
        rad = oracle.basis_rows(res)
        require(len(rad) == facts["rad"], "radical has the wrong dimension")
        oracle.check_ideal(basis, rad)
        require(not rad or oracle.derived_dims(rad)[-1] == 0, "radical is not solvable")

    def check_unip(res):
        unip = oracle.basis_rows(res)
        require(len(unip) == facts["unip"], "unipotent radical has the wrong dimension")
        require(all(oracle.is_zero(oracle.power(u, n)) for u in unip), "non-nilpotent element")
        oracle.check_ideal(basis, unip)

    def check_levi(res):
        unip = oracle.basis_rows(res.unip_basis)
        require(len(unip) == facts["unip"], "unipotent radical has the wrong dimension")
        oracle.check_levi(basis, oracle.basis_rows(res.levi_basis), unip)

    def check_split(res):
        p, flag = res
        require(flag.complete and len(flag.stages) == n, "flag is not complete")
        if p.mode == "exact":
            oracle.check_triangularizes(basis, oracle.rows_of(p))
        else:
            pf = p.float_array()
            for b in basis:
                m = np.linalg.solve(pf, np.array(b, dtype=float)) @ pf
                require(np.max(np.abs(np.tril(m, -1))) <= 1e-9, "conjugate is not upper-triangular")

    def cartan_chain():
        split = cartan_iwasawa.cartan_split(g)
        a = cartan_iwasawa.maximal_abelian(split)
        return split, a, cartan_iwasawa.restricted_roots(g, a)

    def check_cartan(res):
        split, a, rd = res
        k, p = oracle.basis_rows(split.k_basis), oracle.basis_rows(split.p_basis)
        require(len(k) + len(p) == facts["dim"]
                and oracle.rank([oracle.flat(m) for m in k + p]) == facts["dim"], "k + p != g")
        a_rows = oracle.basis_rows(a)
        require(all(oracle.is_zero(oracle.bracket(x, y)) for x in a_rows for y in a_rows),
                "a is not abelian")
        total = len(rd.zero_space) + sum(len(s) for s in rd.root_spaces)
        require(total == facts["dim"], "root-space dimensions do not sum to dim g")

    tag = f"{name}/d{facts['dim']}"
    ops = [
        Op(f"lie_closure/{tag}", lambda: liealg.lie_closure(gen_mats), check_closure),
        Op(f"series_derived/{tag}", lambda: liealg.series(g, liealg.DERIVED),
           lambda res: oracle.check_series(basis, oracle.basis_rows_chain(res), True)),
        Op(f"series_lower_central/{tag}", lambda: liealg.series(g, liealg.LOWER_CENTRAL),
           lambda res: oracle.check_series(basis, oracle.basis_rows_chain(res), False)),
        Op(f"radical/{tag}", lambda: liealg.radical(g), check_radical),
        Op(f"unipotent_radical/{tag}", lambda: liealg.unipotent_radical(g), check_unip),
        Op(f"levi_complement/{tag}", lambda: liealg.levi_complement(g), check_levi),
        Op(f"is_reductive/{tag}", lambda: liealg.is_reductive(g),
           lambda res: require(res == (facts["unip"] == 0), "reductivity is wrong")),
    ]
    if facts["nilpotent"]:
        ops.append(Op(f"engel_flag/{tag}", lambda: triangularize.engel_flag(g),
                      lambda res: oracle.check_engel(basis, res, n)))
    if facts["split"]:
        ops.append(Op(f"split_triangularize/{tag}", lambda: triangularize.split_triangularize(g),
                      check_split))
    if facts["stable"]:
        ops.append(Op(f"cartan_roots/{tag}", cartan_chain, check_cartan))
    return ops


def algebras_ops(seed: int) -> list[Op]:
    catalog = inputs.algebra_catalog()
    g = inputs.rng(seed, 300)
    members = []
    for name, (basis, gens, facts) in catalog.items():
        members.append(_algebra_ops(name, basis, gens, facts))
    for name in inputs.CONJUGATED_ALGEBRAS:
        basis, gens, facts = catalog[name]
        family = inputs.conjugate_family(g, basis + gens)
        members.append(_algebra_ops(f"{name}~", family[:len(basis)], family[len(basis):], facts))
    return interleave(members)


# -- float ----------------------------------------------------------------------------------


def _check_classify_float(a: np.ndarray, setting: str):
    w = np.linalg.eigvals(a)
    real = bool(np.all(np.abs(w.imag) < 1e-9))
    hyperbolic = real and (setting == "algebra" or bool(np.all(w.real > 0)))

    def check(c):
        require(c.semisimple, "separated spectrum reported non-semisimple")
        require(c.hyperbolic == hyperbolic, "hyperbolic flag is wrong")
    return check


def _float_algebra_ops(name: str, basis, gens, facts) -> list[Op]:
    liealg, triangularize = _modules("liealg", "triangularize")
    from nashkit.matrix_core import Matrix

    fb = [np.array(b, dtype=float) for b in basis]
    g = liealg.algebra_from_basis([Matrix.approx(b) for b in fb])
    gen_mats = [Matrix.approx(np.array(m, dtype=float)) for m in gens]
    flat = np.array([b.ravel() for b in fb]).T

    def check_closure(res):
        require(res.dim == facts["dim"], "closure has the wrong dimension")
        got = np.array([b.float_array().ravel() for b in res.basis]).T
        sol, *_ = np.linalg.lstsq(got, flat, rcond=None)
        require(np.linalg.norm(got @ sol - flat) <= 1e-9, "closure misses a basis element")

    def check_gram(res):
        want = np.array([[np.trace(a @ b) for b in fb] for a in fb])
        require(np.linalg.norm(res.gram.float_array() - want) <= 1e-9, "trace form is wrong")

    def check_engel(flag):
        n = len(fb[0])
        require(flag.complete and len(flag.stages) == n, "flag is not complete")
        for i, stage in enumerate(flag.stages):
            vs = np.array(stage, dtype=float).T
            prev = vs[:, :i]
            for b in fb:
                img = b @ vs[:, i]
                if i == 0:
                    require(np.linalg.norm(img) <= 1e-9, "b V_1 != 0")
                else:
                    sol, *_ = np.linalg.lstsq(prev, img, rcond=None)
                    require(np.linalg.norm(prev @ sol - img) <= 1e-9, "b V_i escapes V_(i-1)")

    tag = f"{name}/d{facts['dim']}/float"
    ops = [
        Op(f"lie_closure_float/{tag}", lambda: liealg.lie_closure(gen_mats), check_closure),
        Op(f"trace_form_float/{tag}", lambda: liealg.trace_form(g), check_gram),
        Op(f"is_reductive_float/{tag}", lambda: liealg.is_reductive(g),
           lambda res: require(res == (facts["unip"] == 0), "reductivity is wrong")),
    ]
    if facts["nilpotent"]:
        ops.append(Op(f"engel_flag_float/{tag}", lambda: triangularize.engel_flag(g), check_engel))
    return ops


FLOAT_ALGEBRAS = ("sl2", "so3", "gl2", "ut3", "n3", "n4")


def float_ops(seed: int) -> list[Op]:
    import scipy.linalg

    cartan_iwasawa, explog, jordan = _modules("cartan_iwasawa", "explog", "jordan")
    from nashkit.matrix_core import Matrix

    per_size = []
    for n in inputs.FLOAT_SIZES:
        data = inputs.float_inputs(seed, n)
        ops = []
        for kind in ("sl", "diag"):
            for idx, a in enumerate(data[kind]):
                m, tag = Matrix.approx(a), f"n{n}/{kind}{idx}"
                ops += [
                    Op(f"multiplicative_jordan/{tag}", lambda m=m: jordan.multiplicative_jordan(m),
                       lambda t, a=a: oracle.check_triple_float(a, t, True)),
                    Op(f"additive_jordan/{tag}", lambda m=m: jordan.additive_jordan(m),
                       lambda t, a=a: oracle.check_triple_float(a, t, False)),
                    Op(f"sn_split/{tag}", lambda m=m: jordan.sn_split(m),
                       lambda r, a=a: oracle.check_sn_float(a, *r)),
                    Op(f"classify_group/{tag}", lambda m=m: jordan.classify(m, jordan.GROUP),
                       _check_classify_float(a, "group")),
                    Op(f"classify_algebra/{tag}", lambda m=m: jordan.classify(m, jordan.ALGEBRA),
                       _check_classify_float(a, "algebra")),
                    Op(f"polar_kak/{tag}", lambda m=m: cartan_iwasawa.polar_kak(m),
                       lambda r, a=a: oracle.check_kak(a, *r)),
                    Op(f"iwasawa_kan/{tag}", lambda m=m: cartan_iwasawa.iwasawa_kan(m),
                       lambda t, a=a: oracle.check_kan(a, t)),
                ]
        sym = data["sym"]
        spd = data["sl"][0].T @ data["sl"][0]
        msym, mspd = Matrix.approx(sym), Matrix.approx(spd)
        exp_ref = scipy.linalg.expm(sym)
        ops += [
            Op(f"exp_hyperbolic/n{n}", lambda msym=msym: explog.exp_hyperbolic(msym),
               lambda r, exp_ref=exp_ref: oracle.check_close_float(r, exp_ref)),
            Op(f"log_hyperbolic/n{n}", lambda mspd=mspd: explog.log_hyperbolic(mspd),
               lambda r, spd=spd: oracle.check_exp_close(r, spd)),
        ]
        per_size.append(ops)
    catalog = inputs.algebra_catalog()
    per_size += [_float_algebra_ops(name, *catalog[name]) for name in FLOAT_ALGEBRAS]
    return interleave(per_size)


# -- cli --------------------------------------------------------------------------------------


def _exact_json(rows) -> dict:
    entries = [[f"{x.numerator}/{x.denominator}" for x in r] for r in rows]
    return {"mode": "exact", "entries": entries}


def _approx_json(a: np.ndarray) -> dict:
    return {"mode": "approx", "entries": [[float(x) for x in r] for r in a]}


def cli_cases(seed: int) -> list[tuple[str, list, dict]]:
    """(label, argv with {file} placeholders, {file: JSON}); small seeded inputs."""
    g = inputs.rng(seed, 400)
    cat = inputs.algebra_catalog()

    def conjugated(mats):
        return [_exact_json(m) for m in inputs.conjugate_family(g, mats)]

    def plain(name):
        return [_exact_json(m) for m in cat[name][0]]

    diag = [Fraction(v) for v in ("2", "2", "-1", "1/2")]
    tri3 = _exact_json(inputs.conjugate(g, inputs.triangular(g, 3, diag[:3])))
    tri4 = _exact_json(inputs.conjugate(g, inputs.triangular(g, 4, diag)))
    rand3 = _exact_json(inputs.random_invertible(g, 3))
    expo3 = _exact_json(inputs.conjugate(g, inputs.triangular(g, 3, [Fraction(v) for v in
                                                                     ("1/2", "2", "2")])))
    hyp = [Fraction(2), Fraction(3), Fraction(4)]
    hyp3 = _exact_json(inputs.conjugate(g, inputs.diagonal(hyp)))
    sl3a, sl3b = _approx_json(inputs.sl_draw(g, 3)), _approx_json(inputs.sl_draw(g, 3))
    return [
        ("jordan_mul", ["jordan", "--mode", "mul", "{x}"], {"x": tri3}),
        ("snsplit", ["snsplit", "{x}"], {"x": tri4}),
        ("classify", ["classify", "--setting", "group", "{x}"], {"x": rand3}),
        ("explog_log", ["explog", "log", "--domain", "exponential", "{x}"], {"x": expo3}),
        ("lie_close", ["lie", "close", "{a}"], {"a": {"generators": conjugated(cat["sl3"][1])}}),
        ("lie_radical", ["lie", "radical", "{a}"],
         {"a": {"basis": conjugated(cat["gl2_semi"][0])}}),
        ("lie_levi", ["lie", "levi", "{a}"], {"a": {"basis": conjugated(cat["ut3"][0])}}),
        ("flag_engel", ["flag", "engel", "{a}"], {"a": {"basis": conjugated(cat["n4"][0])}}),
        ("flag_split", ["flag", "split", "{a}"], {"a": {"basis": conjugated(cat["ut3"][0])}}),
        ("cartan_split", ["cartan", "split", "{a}"], {"a": {"basis": plain("so4")}}),
        ("cartan_roots", ["cartan", "roots", "{a}"], {"a": {"basis": plain("sl3")}}),
        ("cartan_kak", ["cartan", "kak", "{x}"], {"x": sl3a}),
        ("cartan_kan", ["cartan", "kan", "{x}"], {"x": sl3b}),
        ("replica", ["replica", "{x}"], {"x": hyp3}),
    ]


def cli_main_inprocess(argv: list[str]) -> tuple[int, str]:
    """``nashkit.cli.main(argv)`` in this process, with stdout captured."""
    from nashkit import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def cli_ops(seed: int, root: str, workdir: str) -> list[Op]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    ops = []
    for label, argv, files in cli_cases(seed):
        paths = {}
        for key, obj in files.items():
            paths[key] = os.path.join(workdir, f"{label}_{key}.json")
            with open(paths[key], "w") as fh:
                json.dump(obj, fh)
        argv = [paths[a[1:-1]] if a.startswith("{") else a for a in argv]
        cmd = [sys.executable, "-m", "nashkit.cli", *argv]
        memo: dict = {}

        def call(cmd=cmd):
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=root, env=env,
                                  timeout=120)
            return proc.returncode, proc.stdout, proc.stderr

        def check(res, argv=argv, memo=memo):
            code, out, err = res
            require(code == 0, f"exit code {code}: {out.strip()[:200]} {err.strip()[-200:]}")
            require("Traceback" not in err, "traceback on stderr")
            if "want" not in memo:
                memo["want"] = cli_main_inprocess(argv)
            want_code, want_out = memo["want"]
            require(want_code == 0, "in-process run failed")
            require(json.loads(out) == json.loads(want_out),
                    "stdout differs from the in-process result")

        ops.append(Op(f"cli/{label}", call, check, argv))
    return ops
