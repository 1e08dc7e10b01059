"""Per-layer tracing by wrappers that the benchmark installs at run time.

`from .linalg import kernel` copies a binding into every importing module,
so a function is replaced at every module attribute of the package that
binds it, and methods on their class; `Tracer.installed` restores the
originals on exit.  Each wrapped call records a span (id, parent id, name,
start, end) in memory.  The per-layer metrics are derived from the spans
after the pass.  cProfile is not used: its cost on every Python call
inflates this exact-arithmetic code several-fold and shifts the shares.

A span's name is `<layer>.<function>`, where the layer is the module of
`src/lielike` that defines the function.  A function's `_s` metric is the
total time of its spans (none of the traced functions calls itself); a
`verify.<stage>_s` metric counts only the calls `run_verify` makes itself.
A layer's self time is the time of its spans minus the time of their child
spans; time in functions that are not wrapped counts towards the nearest
wrapped caller.  Span times are scaled like every other time (speed.py).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name): functions whose calls are recorded as spans
SPANNED = (
    ("cli", "main", "cli.main"),
    ("serialize", "instance_from_json", "serialize.parse"),
    ("serialize", "dumps", "serialize.dump"),
    ("serialize", "result_to_json", "serialize.result_to_json"),
    ("serialize", "vector_to_json", "serialize.vector_to_json"),
    ("verify", "run_verify", "verify.run_verify"),
    ("generate", "generate", "generate.instance"),
    ("algebra", "check_algebra", "algebra.check_algebra"),
    ("algebra", "is_solvable", "algebra.is_solvable"),
    ("algebra", "derived_series", "algebra.derived_series"),
    ("algebra", "bracket", "algebra.bracket"),
    ("algebra", "split_codim1", "algebra.split_codim1"),
    ("algebra", "restrict_algebra", "algebra.restrict_algebra"),
    ("modules", "check_module", "modules.check_module"),
    ("modules", "check_derived_identities", "modules.check_derived_identities"),
    ("modules", "plus_annihilator", "modules.plus_annihilator"),
    ("modules", "is_submodule", "modules.is_submodule"),
    ("modules", "restrict_module", "modules.restrict_module"),
    ("modules", "_linear_combination", "modules.linear_combination"),
    ("solver", "solve", "solver.solve"),
    ("solver", "oracle_solve", "solver.oracle_solve"),
    ("solver", "verify_weight", "solver.verify_weight"),
    ("solver", "weight_space", "solver.weight_space"),
    ("linalg", "Matrix.__matmul__", "linalg.matmul"),
    ("linalg", "Subspace.intersect", "linalg.intersect"),
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "kernel", "linalg.kernel"),
    ("linalg", "det", "linalg.det"),
    ("linalg", "charpoly", "linalg.charpoly"),
    ("linalg", "rational_roots", "linalg.rational_roots"),
    ("linalg", "rational_eigenvalues", "linalg.rational_eigenvalues"),
    ("linalg", "eigenspace", "linalg.eigenspace"),
    ("linalg", "restrict_operator", "linalg.restrict_operator"),
    ("linalg", "joint_eigenspace", "linalg.joint_eigenspace"),
    ("linalg", "joint_eigenvector", "linalg.joint_eigenvector"),
)

# functions too small and too frequent for a span: calls are only counted
COUNTED = (("linalg", "vec", "linalg.vec"),)

# stage of run_verify -> the functions it calls for that stage
VERIFY_STAGES = {
    "verify.algebra_axioms_s": ("algebra.check_algebra",),
    "verify.solvable_s": ("algebra.is_solvable",),
    "verify.module_axioms_s": ("modules.check_module",),
    "verify.derived_identities_s": ("modules.check_derived_identities",),
    "verify.annihilator_s": ("modules.plus_annihilator", "modules.is_submodule"),
    "verify.solve_s": ("solver.solve",),
    "verify.oracle_s": ("solver.oracle_solve",),
}

CS, AS, SW = "corpus-small", "axioms-square", "spectral-wide"
ALL = (CS, AS, SW)

# (metric, unit, better, end-to-end metric it should move, workloads where
# it should move it and where it must be nonzero)
LAYER_METRICS = (
    ("cli.self_s", "s", "lower", "op_p50_ms", (CS,)),
    ("serialize.parse_s", "s", "lower", "op_p50_ms", (CS,)),
    ("serialize.dump_s", "s", "lower", "op_p50_ms", (CS,)),
    ("verify.algebra_axioms_s", "s", "lower", "wall_s", (AS,)),
    ("verify.module_axioms_s", "s", "lower", "wall_s", (AS,)),
    ("verify.derived_identities_s", "s", "lower", "wall_s", (AS,)),
    ("verify.solvable_s", "s", "lower", "op_p50_ms", (CS,)),
    ("verify.annihilator_s", "s", "lower", "op_p50_ms", (CS,)),
    ("verify.solve_s", "s", "lower", "wall_s", (SW,)),
    ("verify.oracle_s", "s", "lower", "wall_s", (SW,)),
    ("algebra.bracket.calls", "count", "lower", "wall_s", (AS,)),
    ("algebra.bracket_s", "s", "lower", "wall_s", (AS,)),
    ("algebra.derived_series.calls", "count", "lower", "op_p50_ms", (CS, SW)),
    ("modules.plus_annihilator.calls", "count", "lower", "op_p50_ms", (CS, SW)),
    ("modules.linear_combination.calls", "count", "lower", "wall_s", (AS,)),
    ("modules.linear_combination_s", "s", "lower", "wall_s", (AS,)),
    ("modules.matmul_distinct_ratio", "ratio", "higher", "wall_s", (AS,)),
    ("solver.levels", "count", "lower", "wall_s", (SW,)),
    ("solver.weight_space.calls", "count", "lower", "wall_s", (SW,)),
    ("solver.weight_space_s", "s", "lower", "wall_s", (SW,)),
    ("solver.joint_eigenspace.calls", "count", "lower", "wall_s", (SW,)),
    ("solver.joint_eigenspace_s", "s", "lower", "wall_s", (SW,)),
    ("linalg.charpoly.calls", "count", "lower", "wall_s", (SW, CS)),
    ("linalg.charpoly_s", "s", "lower", "wall_s", (SW, CS)),
    ("linalg.det.calls", "count", "lower", "wall_s", (SW, CS)),
    ("linalg.det_s", "s", "lower", "wall_s", (SW, CS)),
    ("linalg.rational_roots.calls", "count", "lower", "wall_s", (SW,)),
    ("linalg.rational_roots_s", "s", "lower", "wall_s", (SW,)),
    ("linalg.matmul.calls", "count", "lower", "wall_s", (AS,)),
    ("linalg.matmul_s", "s", "lower", "wall_s", (AS,)),
    ("linalg.vec.calls", "count", "lower", "wall_s", (AS,)),
    ("linalg.rref.calls", "count", "lower", "wall_s", (SW,)),
    ("linalg.rref_s", "s", "lower", "wall_s", (SW,)),
    ("linalg.kernel.calls", "count", "lower", "wall_s", (SW,)),
    ("linalg.intersect.calls", "count", "lower", "wall_s", (SW,)),
    *((f"{layer}.self_s", "s", "lower", "wall_s", ALL)
      for layer in ("serialize", "verify", "algebra", "modules", "solver", "linalg")),
    ("generate.instance_s", "s", "lower", "setup_s", ALL),
    ("trace.overhead_ratio", "ratio", "lower", "", ALL),
)


class Tracer:
    """Spans and counts of the program's calls while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self._stack = [0]  # ids of the open spans; 0 is the root
        self._ids = itertools.count(1)
        self._pairs: set | None = None
        self.missing: list[str] = []  # span names whose function is gone

    def _span(self, name, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, name, fn):
        counts, span = self.counts, self._span(name, fn)
        if name == "modules.check_module":
            # distinct (left, right) operand pairs of the products it takes;
            # ids are stable because the operands are the module's matrices
            @functools.wraps(fn)
            def check_module(*args, **kwargs):
                outer, self._pairs = self._pairs, set()
                try:
                    return span(*args, **kwargs)
                finally:
                    counts["check_module.distinct_pairs"] += len(self._pairs)
                    self._pairs = outer

            return check_module
        if name == "linalg.matmul":
            @functools.wraps(fn)
            def matmul(a, b):
                if self._pairs is not None:
                    self._pairs.add((id(a), id(b)))
                    counts["check_module.matmul"] += 1
                return span(a, b)

            return matmul
        return span

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function at each of its bindings, then restore."""
        package = {
            name: mod for name, mod in sys.modules.items()
            if name == "lielike" or name.startswith("lielike.")
        }
        undo = []
        try:
            for entries, make in ((SPANNED, self._wrap), (COUNTED, self._count)):
                for module, attr, name in entries:
                    owner = package.get(f"lielike.{module}")
                    targets = list(package.values())
                    if "." in attr:
                        cls_name, attr = attr.split(".")
                        owner = getattr(owner, cls_name, None)
                        targets = [owner]
                    original = vars(owner).get(attr) if owner else None
                    if original is None:  # renamed or removed by the program
                        self.missing.append(name)
                        continue
                    wrapper = make(name, original)
                    for target in targets:
                        for key, value in list(vars(target).items()):
                            if value is original:
                                setattr(target, key, wrapper)
                                undo.append((target, key, original))
            yield self
        finally:
            for target, key, original in reversed(undo):
                setattr(target, key, original)

    def overrun(self, start: int, t0: float, t1: float) -> bool:
        """Whether a span recorded since index `start` lies outside [t0, t1]."""
        return any(s[3] < t0 or s[4] > t1 for s in self.spans[start:])

    def layer_metrics(self, scales=((0, 1.0),)):
        """Every per-layer metric except the overhead ratio, and the span
        totals by name as (self s, calls, total s, name), most self time first.

        `scales` lists (index of the first span of an operation, the
        operation's time scale); span times are multiplied by the scale.
        """
        names = {sid: name for sid, _, name, *_ in self.spans}
        parents = {sid: parent for sid, parent, *_ in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, t0, t1 in self.spans:
            child_time[parent] += t1 - t0
        calls: Counter = Counter()
        inclusive: dict[str, float] = defaultdict(float)
        name_self: dict[str, float] = defaultdict(float)
        stages: dict[str, float] = defaultdict(float)
        stage_of = {fn: m for m, fns in VERIFY_STAGES.items() for fn in fns}
        levels = op = 0
        for index, (sid, parent, name, t0, t1) in enumerate(self.spans):
            while op + 1 < len(scales) and index >= scales[op + 1][0]:
                op += 1
            scale = scales[op][1]
            calls[name] += 1
            inclusive[name] += (t1 - t0) * scale
            name_self[name] += (t1 - t0 - child_time[sid]) * scale
            if name in stage_of and names.get(parent) == "verify.run_verify":
                stages[stage_of[name]] += (t1 - t0) * scale
            if name == "algebra.split_codim1":
                up = parent
                while up and names[up] != "solver.solve":
                    up = parents[up]
                levels += bool(up)
        layer_self: dict[str, float] = defaultdict(float)
        for name, seconds in name_self.items():
            layer_self[name.split(".")[0]] += seconds
        matmuls = self.counts["check_module.matmul"]
        out = {m: stages[m] for m in VERIFY_STAGES}
        out.update({
            "modules.matmul_distinct_ratio": (
                self.counts["check_module.distinct_pairs"] / matmuls if matmuls else 0.0
            ),
            "solver.levels": levels,
            "solver.joint_eigenspace.calls": calls["linalg.joint_eigenspace"],
            "solver.joint_eigenspace_s": inclusive["linalg.joint_eigenspace"],
            "linalg.vec.calls": self.counts["linalg.vec"],
        })
        for metric in (m for m, *_ in LAYER_METRICS if m not in out):
            layer, _, rest = metric.partition(".")
            if layer == "trace":
                continue
            if rest == "self_s":
                out[metric] = layer_self[layer]
            elif rest.endswith(".calls"):
                out[metric] = calls[f"{layer}.{rest[:-len('.calls')]}"]
            elif rest.endswith("_s"):
                out[metric] = inclusive[f"{layer}.{rest[:-2]}"]
        table = sorted(((name_self[n], calls[n], inclusive[n], n) for n in calls),
                       reverse=True)
        return out, table
