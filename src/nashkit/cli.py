"""Command-line surface: stable JSON in, stable JSON out.

Exit codes: 0 success, 2 malformed input (an argv that the parser rejects
included), 3 precondition violation, 4 numerical failure or broken internal
postcondition.  Matrices travel as
{"mode": "exact"|"approx", "entries": [[...]]} with exact entries "p/q";
algebras as {"generators": [...]} or {"basis": [...]}.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from math import isfinite

import numpy as np

from . import selftest as selftest_mod
from .cartan_iwasawa import cartan_split, iwasawa_kan, maximal_abelian, polar_kak, restricted_roots
from .errors import NashkitError
from .explog import (
    exp_hyperbolic,
    exp_nilpotent,
    log_exponential,
    log_hyperbolic,
    log_unipotent,
)
from .jordan import (
    ALGEBRA,
    GROUP,
    additive_jordan,
    classify,
    multiplicative_jordan,
    sn_split,
)
from .liealg import (
    ADJOINT,
    DERIVED,
    LOWER_CENTRAL,
    NATURAL,
    algebra_from_basis,
    is_reductive,
    levi_complement,
    lie_closure,
    radical,
    series,
    trace_form,
    unipotent_radical,
)
from .matrix_core import (
    DEFAULT_TOL,
    EXACT,
    Matrix,
    fraction_to_str,
    matrix_from_json,
    matrix_to_json,
)
from .replica import replica
from .triangularize import engel_flag, split_triangularize

EXIT_MALFORMED = 2


class MalformedInput(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """A rejected argv ends in a MalformedInput reply; subparsers share the class."""

    def error(self, message):
        raise MalformedInput(message)


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedInput(f"cannot read {path}: {exc}")


def _coerce_track(m: Matrix, args) -> Matrix:
    if args.numeric == "approx" and m.mode == EXACT:
        return m.to_approx(args.tol)
    if args.numeric == "exact" and m.mode != EXACT:
        return Matrix.exact([[Fraction(float(x)) for x in row] for row in m.data], m.tol)
    return m


def _load_matrix(path: str, args) -> Matrix:
    try:
        m = matrix_from_json(_load_json(path), tol=args.tol)
    except (ValueError, TypeError) as exc:
        raise MalformedInput(str(exc))
    return _coerce_track(m, args)


def _load_algebra(path: str, args):
    obj = _load_json(path)
    if not isinstance(obj, dict) or not ({"generators", "basis"} & set(obj)):
        raise MalformedInput("algebra JSON needs 'generators' or 'basis'")
    key = "generators" if "generators" in obj else "basis"
    try:
        mats = [matrix_from_json(mj, tol=args.tol) for mj in obj[key]]
    except (ValueError, TypeError) as exc:
        raise MalformedInput(str(exc))
    mats = [_coerce_track(m, args) for m in mats]
    ambient = obj.get("ambient")
    if "ambient" in obj and (type(ambient) is not int or ambient < 0
                             or any(m.n != ambient for m in mats)):
        raise MalformedInput("'ambient' must be an int >= 0, the size of the matrices")
    try:
        if key == "generators":
            return lie_closure(mats, ambient=ambient)
        return algebra_from_basis(mats, ambient=ambient)
    except ValueError as exc:
        raise MalformedInput(str(exc))


def _wire(obj):
    """A reply of library values as JSON values: matrices in the wire format, fractions as "p/q"."""
    if isinstance(obj, Matrix):
        return matrix_to_json(obj)
    if isinstance(obj, Fraction):
        return fraction_to_str(obj)
    if isinstance(obj, dict):
        return {k: _wire(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_wire(v) for v in obj]
    return obj  # a numpy float64 is a float, and json writes it as one


def _emit(obj) -> int:
    json.dump(_wire(obj), sys.stdout, indent=None, separators=(",", ":"))
    sys.stdout.write("\n")
    return 0


# -- command handlers ----------------------------------------------------------


def _cmd_jordan(args) -> int:
    x = _load_matrix(args.input, args)
    triple = multiplicative_jordan(x) if args.mode == "mul" else additive_jordan(x)
    cls = classify(x, args.setting)
    return _emit({"e": triple.e, "h": triple.h, "u": triple.u, "class": cls.as_dict()})


def _cmd_snsplit(args) -> int:
    s, n = sn_split(_load_matrix(args.input, args))
    return _emit({"s": s, "n": n})


def _cmd_classify(args) -> int:
    return _emit(classify(_load_matrix(args.input, args), args.setting).as_dict())


def _cmd_explog(args) -> int:
    x = _load_matrix(args.input, args)
    table = {
        ("exp", "nilpotent"): exp_nilpotent,
        ("log", "nilpotent"): log_unipotent,
        ("exp", "hyperbolic"): exp_hyperbolic,
        ("log", "hyperbolic"): log_hyperbolic,
        ("log", "exponential"): log_exponential,
    }
    if (args.direction, args.domain) == ("exp", "exponential"):
        raise MalformedInput("exp on the exponential locus is the plain matrix "
                             "exponential; use --domain nilpotent or hyperbolic")
    return _emit({"result": table[(args.direction, args.domain)](x)})


def _cmd_lie(args) -> int:
    g = _load_algebra(args.input, args)
    if args.op == "close":
        return _emit({"dim": g.dim, "basis": g.basis})
    if args.op == "series":
        kind = DERIVED if args.kind == "derived" else LOWER_CENTRAL
        return _emit({"kind": args.kind, "chain": series(g, kind)})
    if args.op == "radical":
        return _emit({"radical": radical(g)})
    if args.op == "trace-form":
        return _emit({"rep": args.rep, "gram": trace_form(g, args.rep).gram})
    if args.op == "reductive":
        return _emit({"reductive": is_reductive(g)})
    if args.op == "unipotent-radical":
        return _emit({"unipotent_radical": unipotent_radical(g)})
    decomp = levi_complement(g)
    return _emit({"levi": decomp.levi_basis, "unipotent_radical": decomp.unip_basis})


def _flag_json(flag) -> dict:
    return {"complete": flag.complete, "stages": flag.stages}


def _cmd_flag(args) -> int:
    g = _load_algebra(args.input, args)
    if args.op == "engel":
        return _emit({"flag": _flag_json(engel_flag(g))})
    p, flag = split_triangularize(g)
    return _emit({"change_of_basis": p, "flag": _flag_json(flag)})


def _cmd_cartan(args) -> int:
    if args.op in ("split", "roots"):
        g = _load_algebra(args.input, args)
        split = cartan_split(g)
        if args.op == "split":
            return _emit({"k": split.k_basis, "p": split.p_basis})
        a = maximal_abelian(split)
        rd = restricted_roots(g, a)
        return _emit({"a": rd.a_basis, "roots": rd.roots, "positive": rd.positive,
                      "root_space_dims": [len(s) for s in rd.root_spaces],
                      "zero_space_dim": len(rd.zero_space)})
    if args.op == "kak" and args.algebra:
        raise MalformedInput("--algebra applies to kan only; kak takes no adapted basis")
    x = _load_matrix(args.input, args)
    adapted = None
    if args.algebra:
        g = _load_algebra(args.algebra, args)
        if g.ambient != x.n:
            raise MalformedInput(f"--algebra acts on size {g.ambient}, the input has size {x.n}")
        adapted, _ = split_triangularize(g)
    if args.op == "kak":
        k, big_x = polar_kak(x)
        return _emit({"k": k, "X": big_x})
    triple = iwasawa_kan(x, adapted_basis=adapted)
    return _emit({"k": triple.k, "a": triple.a, "n": triple.n})


def _cmd_replica(args) -> int:
    datum = replica(_load_matrix(args.input, args))
    out = {"kind": datum.kind, "dimension": datum.dimension}
    if datum.relation_lattice is not None:
        out["lattice"] = datum.relation_lattice
        out["slots"] = datum.slots
    if datum.generator is not None:
        out["generator"] = datum.generator
    return _emit(out)


def _cmd_selftest(args) -> int:
    results = selftest_mod.run_all(args.seed)
    report = {
        "seed": args.seed,
        "results": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                    for r in results],
        "all_passed": all(r.passed for r in results),
    }
    _emit(report)
    return 0 if report["all_passed"] else 1


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nashkit",
        description="Structure decompositions of real matrix groups and Lie algebras",
    )
    parser.add_argument("--exact", dest="numeric", action="store_const", const="exact",
                        help="force inputs onto the exact rational track")
    parser.add_argument("--approx", dest="numeric", action="store_const", const="approx",
                        help="force inputs onto the float track")
    parser.add_argument("--tol", type=float, default=None,
                        help="relative tolerance for the float track")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    parser.add_argument("--json", action="store_true", help="JSON output (the default)")
    parser.set_defaults(numeric=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jordan", help="elliptic/hyperbolic/unipotent decomposition")
    p.add_argument("--mode", choices=("mul", "add"), default="mul")
    p.add_argument("--setting", choices=(GROUP, ALGEBRA), default=GROUP)
    p.add_argument("input")
    p.set_defaults(func=_cmd_jordan)

    p = sub.add_parser("snsplit", help="semisimple + nilpotent splitting")
    p.add_argument("input")
    p.set_defaults(func=_cmd_snsplit)

    p = sub.add_parser("classify", help="element classification predicates")
    p.add_argument("--setting", choices=(GROUP, ALGEBRA), default=GROUP)
    p.add_argument("input")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("explog", help="exp/log on nilpotent, hyperbolic, exponential loci")
    p.add_argument("direction", choices=("exp", "log"))
    p.add_argument("--domain", choices=("nilpotent", "hyperbolic", "exponential"),
                   required=True)
    p.add_argument("input")
    p.set_defaults(func=_cmd_explog)

    p = sub.add_parser("lie", help="Lie algebra structure computations")
    p.add_argument("op", choices=("close", "series", "radical", "trace-form",
                                  "reductive", "unipotent-radical", "levi"))
    p.add_argument("--kind", choices=("derived", "lower-central"), default="derived")
    p.add_argument("--rep", choices=(NATURAL, ADJOINT), default=NATURAL)
    p.add_argument("input")
    p.set_defaults(func=_cmd_lie)

    p = sub.add_parser("flag", help="Engel flags and split triangularization")
    p.add_argument("op", choices=("engel", "split"))
    p.add_argument("input")
    p.set_defaults(func=_cmd_flag)

    p = sub.add_parser("cartan", help="involution split, roots, KAK, KAN")
    p.add_argument("op", choices=("split", "roots", "kak", "kan"))
    p.add_argument("--algebra", default=None,
                   help="algebra JSON for an adapted basis (kan only)")
    p.add_argument("input")
    p.set_defaults(func=_cmd_cartan)

    p = sub.add_parser("replica", help="smallest closed subgroup through an element")
    p.add_argument("input")
    p.set_defaults(func=_cmd_replica)

    p = sub.add_parser("selftest", help="run the acceptance battery")
    p.set_defaults(func=_cmd_selftest)

    return parser


def _tolerance(tol: float | None) -> float:
    """--tol, else a nonempty NASHKIT_TOL, else the default; finite and >= 0."""
    if tol is None:
        env = os.environ.get("NASHKIT_TOL")
        try:
            tol = float(env) if env else DEFAULT_TOL
        except ValueError:
            raise MalformedInput(f"NASHKIT_TOL={env!r} is not a number") from None
    if not (isfinite(tol) and tol >= 0):
        raise MalformedInput(f"the tolerance must be finite and >= 0, not {tol!r}")
    return tol


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.tol = _tolerance(args.tol)
        # float steps on entries near the ends of the float range overflow to
        # inf, or divide by an underflowed 0 into inf and nan; they are handled
        # where they occur (see Matrix.norm) or end in a NumericalFailure, so
        # numpy's warnings add nothing
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return args.func(args)
    except MalformedInput as exc:
        _emit({"error": "MalformedInput", "detail": str(exc)})
        return EXIT_MALFORMED
    except OverflowError as exc:  # an exact entry beyond the float range met a float step
        _emit({"error": "MalformedInput", "detail": f"entry out of float range: {exc}"})
        return EXIT_MALFORMED
    except NashkitError as exc:
        _emit({"error": exc.code, "detail": str(exc)})
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
