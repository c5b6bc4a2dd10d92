"""nashkit benchmark: one seeded workload, closed loop, one caller.

Usage, from the repository root:

    python3 perfbench/run.py --workload elements --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the separate traced run that gives the per-layer metrics.  Human-readable
lines come first, then one ``{"report": ...}`` line (environment, tail
percentile, failures, output digest), and the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.  See perfbench/README.md.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import fields, is_dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("cli", "elements", "algebras", "float")
# op_tail_s percentile per workload, one step below the highest of
# 50/75/90/95/99/99.9 that leaves ten samples beyond it at a 20 s run on 2
# cores.  That highest one is set by the stalls of a few calls and measures
# the machine: on float, p99.9 lies inside the slowest op's own stalls (0.09 of
# one op's weight beyond it); on elements and algebras, p95 has 12 to 19
# samples beyond it.  One step lower leaves 17 to 360.  A cli run holds 14 to
# 19 subprocess calls, too few for any percentile above the median.
TAIL_PCT = {"cli": 50, "elements": 90, "algebras": 90, "float": 99}
SETUP_REPEATS = 3  # setup_s is the median of this run's set-up and fresh probes


def fail_setup(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# -- canonical outputs ----------------------------------------------------------------


def canonical(obj, floats: list):
    """JSON-able form of any library result; appends to ``floats`` if one is inexact."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, float):
        floats.append(1)
        return repr(float(obj))
    if hasattr(obj, "shape") and hasattr(obj, "tolist"):
        return canonical(obj.tolist(), floats)
    if type(obj).__name__ == "Matrix":
        return {"mode": obj.mode, "entries": canonical(obj.data, floats)}
    if is_dataclass(obj):
        out = {"type": type(obj).__name__}
        out.update((f.name, canonical(getattr(obj, f.name), floats)) for f in fields(obj))
        return out
    if isinstance(obj, dict):
        return {str(k): canonical(v, floats) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [canonical(v, floats) for v in obj]
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def canonical_text(res, workload: str) -> tuple[str, bool]:
    """(canonical JSON, True if the output is exact-track only)."""
    floats: list = []
    if workload == "cli":
        res = json.loads(res[1])
    text = json.dumps(canonical(res, floats), sort_keys=True, separators=(",", ":"))
    return text, not floats


class Verifier:
    """Checks every op: the first result of each op by the oracle, later
    results of the same op by equality with that first (checked) output."""

    def __init__(self, ops, workload: str):
        self.ops, self.workload = ops, workload
        self.first: dict[int, tuple[str, bool]] = {}
        self.attempted = self.failed = 0
        self.failures: list[str] = []

    def note_failure(self, label: str, why: str):
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{label}: {why}")

    def consume(self, batch):
        for k, res, err in batch:
            self.attempted += 1
            op = self.ops[k]
            if err is not None:
                self.note_failure(op.label, f"raised {type(err).__name__}: {err}")
                continue
            try:
                text, exact = canonical_text(res, self.workload)
                if k not in self.first:
                    op.check(res)
                    self.first[k] = (text, exact)
                elif self.first[k][0] != text:
                    raise AssertionError("output differs from the checked first call")
            except Exception as exc:  # any wrong or unreadable output is a failed op
                self.note_failure(op.label, f"{type(exc).__name__}: {exc}")

    def complete(self):
        """Run, untimed, any op the timed phase never reached, so all are checked."""
        missing = [k for k in range(len(self.ops)) if k not in self.first]
        self.consume([call(self.ops, k) for k in missing])

    def digest(self) -> tuple[str, int]:
        texts = [self.first[k][0] for k in sorted(self.first) if self.first[k][1]]
        return hashlib.sha256("\n".join(texts).encode()).hexdigest(), len(texts)


def call(ops, k):
    try:
        return k, ops[k].call(), None
    except Exception as exc:  # recorded as a failed op
        return k, None, exc


# -- set-up ------------------------------------------------------------------------------


def build(workload: str, seed: int, workdir: str):
    sys.path.insert(0, SRC)
    import workloads

    if workload == "cli":
        ops = workloads.cli_ops(seed, ROOT, workdir)
    else:
        builders = {"elements": workloads.elements_ops, "algebras": workloads.algebras_ops,
                    "float": workloads.float_ops}
        ops = builders[workload](seed)
        import nashkit

        if os.path.dirname(os.path.abspath(nashkit.__file__)) != os.path.join(SRC, "nashkit"):
            fail_setup(f"nashkit was imported from {nashkit.__file__}, not from {SRC}")
    return ops


def warm_up(ops, verifier: Verifier):
    """One untimed call of each function (its first op, so the smallest input)."""
    seen = set()
    for k, op in enumerate(ops):
        if op.function not in seen:
            seen.add(op.function)
            _, _, err = call(ops, k)
            if err is not None:
                verifier.note_failure(op.label, f"warm-up raised {type(err).__name__}: {err}")


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh process running this workload's set-up only."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
         "--setup-probe"], capture_output=True, text=True, cwd=ROOT, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


# -- timed phases ----------------------------------------------------------------------------


def run_pass(ops, budget: float | None = None):
    """Call ops in order; stop early once ``budget`` seconds have passed."""
    batch, samples = [], []
    start = time.perf_counter()
    for k in range(len(ops)):
        t = time.perf_counter()
        batch.append(call(ops, k))
        now = time.perf_counter()
        samples.append(now - t)
        if budget is not None and now - start >= budget:
            break
    return batch, samples, time.perf_counter() - start


def timed_phase(ops, seconds: float, verifier: Verifier):
    """Closed loop over passes for ``seconds`` of timed wall time, and at least one
    whole pass; outputs are verified between passes, off the clock.

    Returns the call times grouped by op, and the timed wall time."""
    by_op, wall = defaultdict(list), 0.0
    while wall < seconds:
        batch, samples, dt = run_pass(ops, seconds - wall if by_op else None)
        for (k, _, _), t in zip(batch, samples):
            by_op[k].append(t)
        wall += dt
        verifier.consume(batch)
    return by_op, wall


def op_percentile(by_op: dict, pct: float) -> float:
    """Percentile of call times with every op of the pass weighted equally.

    A run usually ends inside a pass, so some ops ran once more than others;
    weighting each op's calls by 1/count keeps the statistic from depending
    on where the run stopped.
    """
    pairs = sorted((t, 1.0 / len(ts)) for ts in by_op.values() for t in ts)
    target, acc = pct / 100.0 * len(by_op), 0.0
    for t, w in pairs:
        acc += w
        if acc >= target - 1e-9:
            return t
    return pairs[-1][0]


# -- environment -------------------------------------------------------------------------------


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy
    import sympy

    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "sympy": sympy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(), "seed": seed, "commit": git_commit(),
    }


# -- traced run ------------------------------------------------------------------------------


def import_timings() -> dict:
    """Fresh-process import of nashkit.cli: wall time, and the numpy/sympy/scipy split."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", "import nashkit.cli"]
    walls = []
    for _ in range(3):
        t = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, env=env, timeout=120)
        walls.append(time.perf_counter() - t)
    out = subprocess.run([sys.executable, "-X", "importtime", *cmd[1:]], check=True, cwd=ROOT,
                         env=env, capture_output=True, text=True, timeout=120)
    return {"cli.import_s": statistics.median(walls), **parse_importtime(out.stderr)}


def parse_importtime(text: str) -> dict:
    """Cumulative import time of numpy, sympy and scipy, counting each
    outermost import of the package (a submodule's line covers its parents)."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, int(cum), name.strip()))
    totals = {}
    for pkg in ("numpy", "sympy", "scipy"):
        total, covered_depth = 0, None
        # post-order: a parent's line follows its children, at a smaller depth
        for depth, cum, name in reversed(rows):
            if covered_depth is not None and depth > covered_depth:
                continue
            covered_depth = None
            if name == pkg or name.startswith(pkg + "."):
                total += cum
                covered_depth = depth
        totals[f"cli.import.{pkg}_s"] = total / 1e6
    return totals


def traced_run(workload: str, ops, seconds: float, verifier: Verifier):
    """Untraced and traced passes in turn; per-layer metrics are per pass."""
    import check_tracer
    import oracle
    import tracer as tracer_mod
    import workloads

    for problem in check_tracer.run_checks():
        verifier.note_failure("tracer self-test", problem)
    subprocess_ops = ops
    if workload == "cli":
        # the per-layer split of a CLI call comes from cli.main in this process
        def inprocess(argv):
            code, out = workloads.cli_main_inprocess(argv)
            return code, out, ""
        ops = [workloads.Op(op.label, (lambda a=op.argv: inprocess(a)), op.check, op.argv)
               for op in ops]
        verifier.ops = ops
    tracer = tracer_mod.Tracer()
    passes, wall_plain, wall_traced, plain_samples = 0, 0.0, 0.0, []
    while passes == 0 or wall_plain + wall_traced < seconds:
        # alternate which of the pair runs first, so drift favours neither
        for traced in ((False, True) if passes % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                batch, samples, dt = run_pass(ops)
            finally:
                tracer.uninstall()
            verifier.consume(batch)
            if traced:
                wall_traced += dt
            else:
                wall_plain += dt
                plain_samples += samples
        passes += 1

    metrics = {}
    for name in tracer_mod.SPANS:
        metrics[f"{name}.calls"] = (tracer.calls[name] / passes, "count")
        metrics[f"{name}.self_s"] = (tracer.self_s[name] / passes, "s")
    ex_in = tracer.jordan_exact_in
    metrics["jordan.promoted_share"] = (tracer.jordan_promoted / ex_in if ex_in else 0.0, "ratio")
    rad = tracer.group_s["radicals"]
    metrics["liealg.check_share"] = (tracer.group_s["check"] / rad if rad else 0.0, "ratio")
    gained = sum(dim - generator_rank(gens, oracle) for gens, dim in tracer.closures)
    br = tracer.closure_brackets
    metrics["liealg.closure_useful_share"] = (gained / br if br else 0.0, "ratio")
    metrics["trace.overhead_share"] = (1.0 - wall_plain / wall_traced, "ratio")

    for name, value in import_timings().items():
        metrics[name] = (value, "s")
    main_s, import_share, cli_p50 = 0.0, 0.0, None
    if workload == "cli":
        main_s = statistics.median(plain_samples)
        batch, samples, _ = run_pass(subprocess_ops[:5])
        verifier.consume(batch)
        cli_p50 = statistics.median(samples)
        import_share = metrics["cli.import_s"][0] / cli_p50
    metrics["cli.main_s"] = (main_s, "s")
    metrics["cli.import_share"] = (import_share, "ratio")
    extra = {"passes": passes, "ops_per_s_untraced": passes * len(ops) / wall_plain,
             "ops_per_s_traced": passes * len(ops) / wall_traced,
             "layer_check": layer_check(workload, metrics,
                                        {k: v / passes for k, v in tracer.charged_s.items()})}
    if cli_p50 is not None:
        extra["cli_subprocess_p50_s"] = cli_p50
    return metrics, extra


def generator_rank(gens, oracle) -> int:
    nonzero = [g for g in gens if not g.is_zero()]
    if not nonzero:
        return 0
    if all(g.mode == "exact" for g in nonzero):
        return oracle.rank([oracle.flat(oracle.rows_of(g)) for g in nonzero])
    import numpy as np

    rows = np.array([g.float_array().ravel() for g in nonzero])
    return int(np.linalg.matrix_rank(rows, tol=max(g.abs_tol() for g in nonzero)))


def layer_check(workload: str, metrics: dict, charged: dict) -> dict:
    """Does the traced run confirm the layer this workload is meant to stress?

    For elements and algebras two readings are reported: by self time as the
    spans record it, and with matrix_core kernel time charged to the layer that
    called the kernel; ``holds`` is the charged reading.
    """
    def self_time(*prefixes):
        return sum(v for k, (v, _) in metrics.items()
                   if k.endswith(".self_s") and k.startswith(prefixes))

    out = {}
    if workload == "cli":
        out["rule"] = "cli.import_share >= 0.5"
        out["holds"] = metrics["cli.import_share"][0] >= 0.5
    elif workload == "float":
        exact = metrics["matrix_core.matmul_exact.calls"][0]
        total = exact + metrics["matrix_core.matmul_approx.calls"][0]
        out["rule"] = "matmul_exact.calls <= 1% of all matmul calls"
        out["holds"] = exact <= 0.01 * total
    else:
        kernel_self = self_time("matrix_core.", "jordan.")
        algebra_self = self_time("_span.", "liealg.")
        kernel = charged.get("matrix_core", 0.0) + charged.get("jordan", 0.0)
        algebra = charged.get("_span", 0.0) + charged.get("liealg", 0.0)
        wanted = (lambda a, b: a > b) if workload == "elements" else (lambda a, b: b > a)
        out["rule"] = ("matrix_core + jordan " + (">" if workload == "elements" else "<")
                       + " _span + liealg")
        out.update({
            "self_s": {"matrix_core+jordan": kernel_self, "_span+liealg": algebra_self},
            "self_holds": wanted(kernel_self, algebra_self),
            "charged_s": {"matrix_core+jordan": kernel, "_span+liealg": algebra},
            "holds": wanted(kernel, algebra),
        })
    out["holds"] = bool(out["holds"])
    return out


# -- main ------------------------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "nashkit", "__init__.py")):
        fail_setup(f"no nashkit sources under {SRC}")

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        ops = build(args.workload, args.seed, workdir)
        verifier = Verifier(ops, args.workload)
        warm_up(ops, verifier)
        setup_s = time.perf_counter() - PROCESS_START
        if args.setup_probe:
            print(repr(setup_s))
            return
        report = {"workload": args.workload, "env": environment(args.seed)}
        if args.trace:
            metrics, extra = traced_run(args.workload, ops, args.seconds, verifier)
            report.update(extra)
        else:
            by_op, wall = timed_phase(ops, args.seconds, verifier)
            rss = resource.getrusage(
                resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF)
            setups = [setup_s] + [setup_probe(args.workload, args.seed)
                                  for _ in range(SETUP_REPEATS - 1)]
            samples = [t for ts in by_op.values() for t in ts]
            pct = TAIL_PCT[args.workload]
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "ops_per_s": (len(samples) / wall, "1/s"),
                "op_p50_s": (op_percentile(by_op, 50), "s"),
                "op_tail_s": (op_percentile(by_op, pct), "s"),
                "peak_rss_mb": (rss.ru_maxrss / 1024.0, "MB"),
            }
            report.update({
                "ops_timed": len(samples), "timed_wall_s": wall, "tail_percentile": pct,
                "samples_beyond_tail": sum(1 for v in samples if v > metrics["op_tail_s"][0]),
                "setup_runs_s": setups,
            })
        verifier.complete()
        digest, n_exact = verifier.digest()
        failed_share = verifier.failed / max(verifier.attempted, 1)
        report.update({"attempted": verifier.attempted, "failed": verifier.failed,
                       "failed_share": failed_share, "failures": verifier.failures,
                       "exact_output_digest": digest, "exact_outputs_digested": n_exact})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_share {failed_share:.6g} ratio")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": verifier.failed == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
