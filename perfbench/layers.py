"""Per-layer attribution: wrap the public functions of each module.

A :class:`LayerTrace` patches the public entry points of the layers the
workloads cross (the REST router, the service's telemetry, the modeler,
the journal, the enforcer, the planner and its library, metadata and
estimators, the cluster loop and container scheduler, and MuSQLE).  Each
timed wrapper records a span — name, start, end, parent span and run id —
in memory and adds to the layer's call count and busy time; the metadata
wrappers only count calls, because they run hundreds of thousands of
times per plan.  Nothing in ``src/`` changes: the patches live here and
are removed by :meth:`LayerTrace.uninstall`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

from perfbench.harness import LAYER_UNITS

#: (span name, module, class, method, mode).  The layer of a span is its
#: name without the last dotted part.  ``timed`` wrappers record spans;
#: ``counted`` wrappers only count outermost calls.
TARGETS = (
    ("api.rest.handle", "repro.api.rest", "IResServer", "handle", "timed"),
    ("core.refinement.observe", "repro.core.refinement", "ModelRefiner",
     "observe", "timed"),
    ("core.modeler.train", "repro.core.modeler", "Modeler", "train", "timed"),
    ("core.modeler.predict", "repro.core.modeler", "OperatorModel",
     "estimate", "counted"),
    ("execution.journal.append", "repro.execution.journal", "RunJournal",
     "append", "timed"),
    ("execution.enforcer.execute", "repro.execution.enforcer",
     "WorkflowExecutor", "execute", "timed"),
    ("obs.telemetry.accounts", "repro.obs.accounting", "TenantAccounts",
     "record", "timed"),
    ("obs.telemetry.slo", "repro.obs.slo", "SLOTracker", "record_run",
     "timed"),
    ("core.planner.plan", "repro.core.planner", "Planner", "plan", "timed"),
    ("core.plancache.get", "repro.core.plancache", "PlanCache", "get",
     "counted"),
    ("core.library.candidates", "repro.core.library", "OperatorLibrary",
     "candidates", "timed"),
    ("core.metadata.matches", "repro.core.metadata", "MetadataTree",
     "matches", "counted"),
    ("core.metadata.consistent_with", "repro.core.metadata", "MetadataTree",
     "consistent_with", "counted"),
    ("core.metadata.copy", "repro.core.metadata", "MetadataTree", "copy",
     "counted"),
    ("core.estimators.oracle", "repro.core.estimators", "OracleEstimator",
     "operator_metrics", "timed"),
    ("core.estimators.models", "repro.core.estimators",
     "ModelBackedEstimator", "operator_metrics", "timed"),
    ("core.estimators.move", "repro.core.estimators", "_EstimatorBase",
     "move_metrics", "timed"),
    ("core.estimators.static", "repro.core.planner", "MetadataCostEstimator",
     "operator_metrics", "timed"),
    ("core.estimators.static_move", "repro.core.planner",
     "MetadataCostEstimator", "move_metrics", "timed"),
    ("execution.cluster.drain", "repro.execution.cluster", "ClusterScheduler",
     "run_until_idle", "timed"),
    ("engines.containers.allocate", "repro.engines.containers",
     "ContainerScheduler", "allocate", "timed"),
    ("musqle.optimizer.optimize", "repro.musqle.system", "MuSQLE",
     "optimize", "timed"),
    ("musqle.system.execute", "repro.musqle.system", "MuSQLE", "execute",
     "timed"),
)


def layer_of(name: str) -> str:
    """The layer a span name belongs to (its dotted prefix)."""
    return name.rsplit(".", 1)[0]


class LayerTrace:
    """Installs the layer wrappers and accumulates what they record.

    Wrappers pass straight through while :attr:`enabled` is False, so a
    workload can interleave untraced and traced work in one process.
    """

    def __init__(self) -> None:
        self.enabled = False
        #: fallback run id for spans outside a service run (batch units)
        self.unit = ""
        #: (span id, parent span id, name, start, end, run id)
        self.spans: list[tuple[int, int, str, float, float, str]] = []
        self.calls: Counter[str] = Counter()
        #: calls that returned instead of raising
        self.returned: Counter[str] = Counter()
        #: inclusive seconds per layer, outermost call per thread only
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.retries = 0
        self.replans = 0
        self.plancache_hits = 0
        #: fitted models by id (held, so no id is reused), and the ids of
        #: those later read by a prediction
        self.fits: dict[int, object] = {}
        self.consumed: set[int] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[type, str, object]] = []

    # -- installation -------------------------------------------------------
    def install(self) -> "LayerTrace":
        """Patch every target; returns self."""
        for name, module, cls_name, method, mode in TARGETS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[method]
            wrap = self._timed if mode == "timed" else self._counted
            setattr(cls, method, wrap(name, original))
            self._patched.append((cls, method, original))
        return self

    def uninstall(self) -> None:
        """Restore the original functions."""
        for cls, method, original in reversed(self._patched):
            setattr(cls, method, original)
        self._patched.clear()

    def __enter__(self) -> "LayerTrace":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # -- wrappers -------------------------------------------------------------
    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.depth = Counter()
        return local

    def _timed(self, name: str, fn):
        trace = self
        layer = layer_of(name)
        from repro.obs.context import current_run_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not trace.enabled:
                return fn(*args, **kwargs)
            local = trace._thread_state()
            stack, depth = local.stack, local.depth
            parent = stack[-1] if stack else 0
            span_id = next(trace._ids)
            stack.append(span_id)
            outermost = depth[layer] == 0
            depth[layer] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                depth[layer] -= 1
                stack.pop()
                run_id = current_run_id() or trace.unit
                with trace._lock:
                    trace.spans.append(
                        (span_id, parent, name, start, end, run_id))
                    trace.calls[name] += 1
                    if outermost:
                        trace.busy[layer] += end - start
            with trace._lock:
                trace.returned[name] += 1
                trace._observe(name, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        trace = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not trace.enabled:
                return fn(*args, **kwargs)
            depth = trace._thread_state().depth
            if depth[name]:
                return fn(*args, **kwargs)  # recursive call: count entry only
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[name] -= 1
            with trace._lock:
                trace.calls[name] += 1
                if name == "core.modeler.predict":
                    trace.consumed.add(id(args[0]))
                elif name == "core.plancache.get" and result is not None:
                    trace.plancache_hits += 1
            return result

        return wrapper

    def _observe(self, name: str, result) -> None:
        """Pick counts out of a traced call's result (lock held)."""
        if name == "execution.enforcer.execute":
            self.retries += result.retries
            self.replans += result.replans
        elif name == "core.modeler.train" and result is not None:
            self.fits[id(result)] = result

    # -- reporting ------------------------------------------------------------
    def busy_of(self, layer: str) -> float:
        """Inclusive seconds in a layer, outermost calls only."""
        with self._lock:
            return self.busy.get(layer, 0.0)

    def fits_consumed_ratio(self) -> float:
        """Fits later read by a prediction, over all fits (0 with no fits)."""
        with self._lock:
            if not self.fits:
                return 0.0
            return len(self.fits.keys() & self.consumed) / len(self.fits)

    def self_times(self) -> dict[str, float]:
        """Seconds per layer not covered by that span's child spans."""
        with self._lock:
            spans = list(self.spans)
        child_time: defaultdict[int, float] = defaultdict(float)
        for _sid, parent, _name, start, end, _run in spans:
            if parent:
                child_time[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for sid, _parent, name, start, end, _run in spans:
            out[layer_of(name)] += (end - start) - child_time.get(sid, 0.0)
        return dict(sorted(out.items()))

    def write(self, path: Path) -> None:
        """Write the spans and the per-layer self times as one JSON file."""
        with self._lock:
            spans = list(self.spans)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["id", "parent", "name", "start", "end", "run"],
            "spans": spans,
            "selfSeconds": self.self_times(),
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))


def layer_metrics(trace: LayerTrace, units: int, extra: dict[str, float],
                  overhead_share: float) -> dict[str, float]:
    """Every per-layer metric, per work unit, from one traced run.

    ``extra`` carries what the workload measures itself (service records,
    ``OptimizerStats``, the cluster snapshot); layers the workload bypasses
    read 0.
    """
    def per(value: float) -> float:
        return value / units

    calls = trace.calls
    estimator_calls = sum(n for name, n in calls.items()
                          if layer_of(name) == "core.estimators")
    executions = calls["execution.enforcer.execute"]
    lookups = calls["core.plancache.get"]
    allocations = calls["engines.containers.allocate"]
    grants = trace.returned["engines.containers.allocate"]
    metrics = {name: 0.0 for name in LAYER_UNITS}
    metrics.update({
        "api.rest.handle_busy_s": per(trace.busy_of("api.rest")),
        "core.refinement.observe_calls": per(calls["core.refinement.observe"]),
        "core.modeler.train_calls": per(calls["core.modeler.train"]),
        "core.modeler.train_busy_s": per(trace.busy_of("core.modeler")),
        "core.modeler.fits_consumed_ratio": trace.fits_consumed_ratio(),
        "execution.journal.append_calls": per(
            calls["execution.journal.append"]),
        "execution.journal.append_busy_s": per(
            trace.busy_of("execution.journal")),
        "execution.journal.records_per_run": (
            calls["execution.journal.append"] / executions
            if executions else 0.0),
        "execution.enforcer.execute_busy_s": per(
            trace.busy_of("execution.enforcer")),
        "execution.enforcer.retries": per(trace.retries),
        "execution.enforcer.replans": per(trace.replans),
        "obs.telemetry_busy_s": per(trace.busy_of("obs.telemetry")),
        "core.planner.plan_calls": per(calls["core.planner.plan"]),
        "core.planner.plan_busy_s": per(trace.busy_of("core.planner")),
        "core.plancache.hit_ratio": (
            trace.plancache_hits / lookups if lookups else 0.0),
        "core.library.candidates_calls": per(
            calls["core.library.candidates"]),
        "core.library.candidates_busy_s": per(trace.busy_of("core.library")),
        "core.metadata.matches_calls": per(calls["core.metadata.matches"]),
        "core.metadata.consistent_with_calls": per(
            calls["core.metadata.consistent_with"]),
        "core.metadata.copy_calls": per(calls["core.metadata.copy"]),
        "core.estimators.calls": per(estimator_calls),
        "core.estimators.busy_s": per(trace.busy_of("core.estimators")),
        "execution.cluster.drain_busy_s": per(
            trace.busy_of("execution.cluster")),
        "engines.containers.allocate_calls": per(allocations),
        "engines.containers.grants": per(grants),
        "engines.containers.grant_ratio": (
            grants / allocations if allocations else 0.0),
        "engines.containers.allocate_busy_s": per(
            trace.busy_of("engines.containers")),
        "musqle.system.execute_busy_s": per(trace.busy_of("musqle.system")),
    })
    metrics.update(extra)
    metrics["trace.overhead_share"] = overhead_share
    unknown = set(metrics) - set(LAYER_UNITS)
    if unknown:
        raise KeyError(f"unknown per-layer metrics {sorted(unknown)}")
    return metrics
