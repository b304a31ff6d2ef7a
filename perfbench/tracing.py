"""Span recording around the public functions of every ``ciplan`` module, from
outside the program, and the per-layer metrics computed from the spans.

Module-level public functions and ``FcsTree`` methods get a span: its name,
start, end, parent span and the workload-run id.  Public methods of the other
classes (``DecPomdpModel.joint_action_index``, ``Prescription.act``, label
lookups) and generator functions are hot leaves, or return before their work
is done, so they are only counted.  A name bound elsewhere with
``from .x import y`` is rebound in every module that holds it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import statistics
import time
from collections import Counter, defaultdict

LAYERS = ("model", "generate", "histories", "exact_dp", "belief", "compression",
          "approx_dp", "verify", "cli")
SPANNED_CLASSES = {"histories.FcsTree"}


def _labels(pc) -> int:
    return sum(len(pc.alphabet(n, t)) for t in range(1, pc.horizon + 1)
               for n in range(pc.num_agents))


def _common_labels(cc) -> int:
    return sum(len(cc.alphabet(t)) for t in range(1, cc.horizon + 1))


def _q_evals(table) -> int:
    return sum(len(e.q_values) for e in table.entries.values())


class Tracer:
    """Installs span recorders into the ``ciplan`` modules and aggregates them.

    Aggregates are per workload run (one pass, or the set-up) and are reset
    by :meth:`begin`; spans are kept in memory only while ``keep_spans`` is
    set and are written out by the caller at the end of the benchmark.
    """

    def __init__(self):
        self.run_id = ""
        self.keep_spans = False
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._stack: list[list] = []  # [span id, name, time covered by children]
        self._undo: list[tuple] = []
        self.begin("")

    # -- recording ---------------------------------------------------------

    def begin(self, run_id: str) -> None:
        self.run_id = run_id
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.active: Counter = Counter()
        self.counters: defaultdict = defaultdict(float)
        self.expanded: dict = {}  # tree -> set of (node seq, prescription key)
        self.nodes: dict = {}  # tree -> set of node seqs returned

    def _open(self, name: str) -> list:
        frame = [next(self._ids), name, 0.0]
        self._stack.append(frame)
        self.active[name] += 1
        return frame

    def _close(self, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        name = frame[1]
        self.active[name] -= 1
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - frame[2]
        if not self.active[name]:  # outermost of a recursion: no double count
            self.total_s[name] += duration
        if self.keep_spans:
            self.spans.append((self.run_id, frame[0], parent[0] if parent else None,
                               name, start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, start, time.perf_counter())

    def _spanned(self, name: str, fn):
        observe = OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(tracer, args, kwargs, result)
                return result
            finally:
                tracer._close(frame, start, time.perf_counter())

        return wrapper

    def _counted(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {short: importlib.import_module(f"ciplan.{short}") for short in LAYERS}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    if inspect.isgeneratorfunction(obj):
                        wrappers[obj] = self._counted(name, obj)
                    else:
                        wrappers[obj] = self._spanned(name, obj)
                elif inspect.isclass(obj):
                    cls_name = f"{short}.{attr}"
                    for meth_name, meth in list(vars(obj).items()):
                        if meth_name.startswith("_") or not inspect.isfunction(meth):
                            continue
                        name = f"{cls_name}.{meth_name}"
                        if cls_name in SPANNED_CLASSES and not inspect.isgeneratorfunction(meth):
                            wrapper = self._spanned(name, meth)
                        else:
                            wrapper = self._counted(name, meth)
                        self._undo.append((obj, meth_name, meth))
                        setattr(obj, meth_name, wrapper)
        for mod in [*modules.values(), importlib.import_module("ciplan")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- per-layer metrics -------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the current run; ``wall_s`` is its traced time."""
        aggregates = {"calls": self.calls, "total_s": self.total_s, "self_s": self.self_s}
        out = {metric: float(aggregates[kind].get(name, 0))
               for metric, (kind, name) in SPAN_METRICS.items()}
        expand_calls = self.calls.get("histories.FcsTree.expand", 0)
        misses = sum(len(s) for s in self.expanded.values())
        out["histories.expand.misses"] = float(misses)
        out["histories.expand.hit_ratio"] = 1.0 - misses / expand_calls if expand_calls else 0.0
        out["histories.nodes"] = float(sum(len(s) for s in self.nodes.values()))
        for metric in COUNTER_METRICS:
            out[metric] = float(self.counters.get(metric, 0))
        solve_s = self.total_s.get("exact_dp.generic_solve", 0.0)
        out["exact_dp.q_evals_per_s"] = out["exact_dp.q_evals"] / solve_s if solve_s else 0.0
        out["histories.expand.self_share"] = out["histories.expand.self_s"] / wall_s
        out["exact_dp.generic_solve.self_share"] = out["exact_dp.generic_solve.self_s"] / wall_s
        ranked = [name for name, _s in self.top_self(len(self.self_s))]
        greedy = "compression.build_greedy"
        out["compression.build_greedy.self_rank"] = float(
            ranked.index(greedy) + 1 if greedy in ranked else 0)
        return out

    def top_self(self, k: int = 5) -> list[tuple[str, float]]:
        return sorted(self.self_s.items(), key=lambda kv: kv[1], reverse=True)[:k]


# metric -> (aggregate, span name)
SPAN_METRICS = {
    "model.joint_action_index.calls": ("calls", "model.DecPomdpModel.joint_action_index"),
    "histories.Prescription.act.calls": ("calls", "histories.Prescription.act"),
    "model.iter_joint_obs.calls": ("calls", "model.DecPomdpModel.iter_joint_obs"),
    "model.load_model.calls": ("calls", "model.load_model"),
    "model.load_model.total_s": ("total_s", "model.load_model"),
    "histories.expand.calls": ("calls", "histories.FcsTree.expand"),
    "histories.expand.self_s": ("self_s", "histories.FcsTree.expand"),
    "histories.enumerate_prescriptions.calls": ("calls", "histories.enumerate_prescriptions"),
    "histories.enumerate_prescriptions.self_s": ("self_s", "histories.enumerate_prescriptions"),
    "histories.agent_domains.self_s": ("self_s", "histories.FcsTree.agent_domains"),
    "histories.reachable_fps.self_s": ("self_s", "histories.FcsTree.reachable_fps"),
    "histories.level_nodes.self_s": ("self_s", "histories.level_nodes"),
    "exact_dp.generic_solve.self_s": ("self_s", "exact_dp.generic_solve"),
    "exact_dp.brute_force_value.total_s": ("total_s", "exact_dp.brute_force_value"),
    "exact_dp.supervisor_q.calls": ("calls", "exact_dp.supervisor_q"),
    "exact_dp.supervisor_q.total_s": ("total_s", "exact_dp.supervisor_q"),
    "belief.solve_bcs_fps.total_s": ("total_s", "belief.solve_bcs_fps"),
    "belief.compute_bcs.calls": ("calls", "belief.compute_bcs"),
    "belief.compute_bcs.self_s": ("self_s", "belief.compute_bcs"),
    "belief.verify_propositions.total_s": ("total_s", "belief.verify_propositions"),
    "belief.check_spi.total_s": ("total_s", "belief.check_spi"),
    "belief.solve_bcs_spi.total_s": ("total_s", "belief.solve_bcs_spi"),
    "compression.build_greedy.total_s": ("total_s", "compression.build_greedy"),
    "compression.build_exact_private.total_s": ("total_s", "compression.build_exact_private"),
    "compression.build_common_greedy.total_s": ("total_s", "compression.build_common_greedy"),
    "compression.measure_private.total_s": ("total_s", "compression.measure_private"),
    "compression.measure_common.total_s": ("total_s", "compression.measure_common"),
    "compression.check_recursive.total_s": ("total_s", "compression.check_recursive"),
    "compression.compressed_prescriptions.calls": (
        "calls", "compression.compressed_prescriptions"),
    "approx_dp.solve_fcs_asps.total_s": ("total_s", "approx_dp.solve_fcs_asps"),
    "approx_dp.solve_ascs_asps.total_s": ("total_s", "approx_dp.solve_ascs_asps"),
    "verify.verify_gaps.total_s": ("total_s", "verify.verify_gaps"),
    "verify.verify_gaps.self_s": ("self_s", "verify.verify_gaps"),
    "verify.check_lemmas.total_s": ("total_s", "verify.check_lemmas"),
}

# Counters the observers below fill from the functions' arguments and results.
COUNTER_METRICS = (
    "histories.prescriptions",
    "exact_dp.q_evals",
    "exact_dp.value_entries",
    "approx_dp.q_evals",
    "compression.exact_private_labels",
    "compression.private_labels",
    "compression.common_labels",
    "compression.eps_p",
    "compression.delta_p",
    "compression.eps_c",
    "compression.delta_c",
    "verify.gap_rows",
    "verify.gap_failures",
)


def _observe_expand(tracer, args, kwargs, result):
    tree, node, gamma = args
    tracer.expanded.setdefault(tree, set()).add((node.seq, gamma.key))
    tracer.nodes.setdefault(tree, set()).update(child.seq for _o0, child, _p in result)


def _observe_roots(tracer, args, kwargs, result):
    tracer.nodes.setdefault(args[0], set()).update(node.seq for _o0, node, _p in result)


def _observe_prescriptions(tracer, args, kwargs, result):
    tracer.counters["histories.prescriptions"] += len(result)


def _observe_solve(tracer, args, kwargs, result):
    tracer.counters["exact_dp.q_evals"] += _q_evals(result[0])
    tracer.counters["exact_dp.value_entries"] += len(result[0].entries)


def _observe_approx(tracer, args, kwargs, result):
    tracer.counters["approx_dp.q_evals"] += _q_evals(result[0])


def _observe_greedy(tracer, args, kwargs, result):
    tols = [*args[1:3], kwargs.get("tol_r", 0.0), kwargs.get("tol_o", 0.0)]
    key = "compression.private_labels" if any(tols) else "compression.exact_private_labels"
    tracer.counters[key] = _labels(result)


def _observe_common(tracer, args, kwargs, result):
    tracer.counters["compression.common_labels"] = _common_labels(result)


def _observe_measure_private(tracer, args, kwargs, result):
    tracer.counters["compression.eps_p"] = result.eps_p
    tracer.counters["compression.delta_p"] = result.delta_p


def _observe_measure_common(tracer, args, kwargs, result):
    tracer.counters["compression.eps_c"] = result.eps_c
    tracer.counters["compression.delta_c"] = result.delta_c


def _observe_gaps(tracer, args, kwargs, result):
    tracer.counters["verify.gap_rows"] += len(result.rows)
    tracer.counters["verify.gap_failures"] += sum(not r.passed for r in result.rows)


OBSERVERS = {
    "histories.FcsTree.expand": _observe_expand,
    "histories.FcsTree.roots": _observe_roots,
    "histories.enumerate_prescriptions": _observe_prescriptions,
    "exact_dp.generic_solve": _observe_solve,
    "approx_dp.solve_fcs_asps": _observe_approx,
    "approx_dp.solve_ascs_asps": _observe_approx,
    "compression.build_greedy": _observe_greedy,
    "compression.build_common_greedy": _observe_common,
    "compression.measure_private": _observe_measure_private,
    "compression.measure_common": _observe_measure_common,
    "verify.verify_gaps": _observe_gaps,
}


def median_metrics(per_run: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(run[k] for run in per_run) for k in per_run[0]}
