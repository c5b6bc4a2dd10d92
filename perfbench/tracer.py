"""Per-layer spans recorded from outside the library.

``Tracer.install()`` replaces each traced function with a wrapper at every
module attribute that binds it (``char_poly`` is bound in ``matrix_core``,
``jordan``, ``explog``, ``cartan_iwasawa`` and ``replica``), so calls made
through ``from``-imported names are caught too.  Spans nest: a span's self
time is its duration minus the time of the spans it encloses.  Nothing is
recorded while the wrappers are not installed, and ``uninstall()`` puts the
original functions back.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# module-level functions traced as "<module>.<function>"
FUNCTIONS = tuple(f"{module}.{fn}" for module, fns in (
    ("matrix_core", "rref exact_solve exact_nullspace char_poly squarefree_part "
                    "irreducible_factors count_real_roots spectrum float_rank nullspace"),
    ("_span", "bracket span_basis coords_in_span intersect span_dim independent_subset"),
    ("jordan", "sn_split multiplicative_jordan additive_jordan classify eigenprojections"),
    ("explog", "exp_nilpotent log_unipotent exp_hyperbolic log_hyperbolic log_exponential"),
    ("liealg", "algebra_from_basis lie_closure series trace_form is_reductive radical "
               "unipotent_radical levi_complement"),
    ("triangularize", "engel_flag split_triangularize common_eigenvector algebra_from_float"),
    ("cartan_iwasawa", "cartan_split maximal_abelian restricted_roots nilpotent_part_n "
                       "polar_kak iwasawa_kan"),
    ("replica", "exponent_lattice hom_space_dimension replica replica_hyperbolic "
                "replica_unipotent"),
) for fn in fns.split())
# one span for the three postcondition checks, timed apart from what they check
CHECK_SPAN = "liealg.check"
CHECK_FUNCTIONS = ("_check_radical", "_check_unipotent_radical", "_check_levi")
# Matrix methods, traced separately; matmul is split by operand mode
METHOD_SPANS = ("matrix_core.matmul_exact", "matrix_core.matmul_approx",
                "matrix_core.det_inv", "matrix_core.float_array")
SCIPY_SPAN = "explog.scipy_expm_logm"
SPANS = ("matrix_core.matmul_exact", "matrix_core.matmul_approx",
                "matrix_core.det_inv", "matrix_core.float_array")
SCIPY_SPAN = "explog.scipy_expm_logm"
SPANS = FUNCTIONS + (CHECK_SPAN,) + METHOD_SPANS + (SCIPY_SPAN,)

# outermost-inclusive time is kept for these groups (for liealg.check_share)
GROUPS = {
    "liealg.check": "check",
    "liealg.radical": "radicals",
    "liealg.unipotent_radical": "radicals",
    "liealg.levi_complement": "radicals",
}
_KERNEL_MODULES = ("_span.", "matrix_core.")


class Tracer:
    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.group_s: dict[str, float] = defaultdict(float)
        # self time by layer, with matrix_core kernels charged to the layer that called them
        self.charged_s: dict[str, float] = defaultdict(float)
        self.jordan_exact_in = 0
        self.jordan_promoted = 0
        self.closure_brackets = 0
        self.closures: list[tuple[list, int]] = []  # (generators, closure dim)
        self._stack: list[list] = []  # [span name, time of enclosed spans]

    # -- recording ------------------------------------------------------------------

    def run(self, name: str, fn, args, kwargs):
        frame = [name, 0.0]
        stack = self._stack
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - start
            stack.pop()
            self.calls[name] += 1
            self_t = dt - frame[1]
            self.self_s[name] += self_t
            layer = name.split(".", 1)[0]
            if layer == "matrix_core":
                layer = next((f[0].split(".", 1)[0] for f in reversed(stack)
                              if not f[0].startswith("matrix_core.")), layer)
            self.charged_s[layer] += self_t
            if stack:
                stack[-1][1] += dt
            group = GROUPS.get(name)
            if group and not any(GROUPS.get(f[0]) == group for f in stack):
                self.group_s[group] += dt

    def _innermost_algorithm(self) -> str | None:
        for name, _ in reversed(self._stack):
            if not name.startswith(_KERNEL_MODULES):
                return name
        return None

    def _wrap(self, name: str, fn):
        tracer = self
        if name in ("jordan.multiplicative_jordan", "jordan.additive_jordan"):
            def wrapper(*args, **kwargs):
                out = tracer.run(name, fn, args, kwargs)
                if args[0].mode == "exact":
                    tracer.jordan_exact_in += 1
                    tracer.jordan_promoted += out.e.mode != "exact"
                return out
        elif name == "_span.bracket":
            def wrapper(*args, **kwargs):
                if tracer._innermost_algorithm() == "liealg.lie_closure":
                    tracer.closure_brackets += 1
                return tracer.run(name, fn, args, kwargs)
        elif name == "liealg.lie_closure":
            def wrapper(*args, **kwargs):
                out = tracer.run(name, fn, args, kwargs)
                tracer.closures.append((list(args[0]), out.dim))
                return out
        else:
            def wrapper(*args, **kwargs):
                return tracer.run(name, fn, args, kwargs)
        return wrapper

    # -- installing ----------------------------------------------------------------

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import scipy.linalg

        mc = importlib.import_module("nashkit.matrix_core")
        modules = [m for k, m in list(sys.modules.items())
                   if k == "nashkit" or k.startswith("nashkit.")]
        targets = [(name, *name.split(".")) for name in FUNCTIONS]
        targets += [(CHECK_SPAN, "liealg", attr) for attr in CHECK_FUNCTIONS]
        for name, mod_name, attr in targets:
            orig = getattr(importlib.import_module(f"nashkit.{mod_name}"), attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, wrapper)
        matrix = mc.Matrix
        matmul, det, inv, float_array = (matrix.__matmul__, matrix.det, matrix.inv,
                                         matrix.float_array)
        tracer = self

        def traced_matmul(a, b):
            exact = a.mode == "exact" and b.mode == "exact"
            name = "matrix_core.matmul_exact" if exact else "matrix_core.matmul_approx"
            return tracer.run(name, matmul, (a, b), {})

        self._patch(matrix, "__matmul__", traced_matmul)
        self._patch(matrix, "det", lambda m: tracer.run("matrix_core.det_inv", det, (m,), {}))
        self._patch(matrix, "inv", lambda m: tracer.run("matrix_core.det_inv", inv, (m,), {}))
        self._patch(matrix, "float_array",
                    lambda m: tracer.run("matrix_core.float_array", float_array, (m,), {}))
        for attr in ("expm", "logm"):
            self._patch(scipy.linalg, attr, self._wrap(SCIPY_SPAN, getattr(scipy.linalg, attr)))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)
