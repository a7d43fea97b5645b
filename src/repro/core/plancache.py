"""Plan cache — memoized DP planning for recurring and replanned workflows.

Every ``Planner.plan`` call recomputes the full dpTable, yet production
traffic is dominated by *recurring* workflows (identical submissions) and
*replans* (same workflow, fewer engines).  The cache keys a finished
:class:`~repro.core.workflow.MaterializedPlan` by a stable digest of every
input the DP actually depends on:

- the workflow structure (datasets with their full meta-data trees and
  materialized flags, operators with their meta-data, the wiring edges and
  the target),
- the ``materialized_results`` carried into a replan,
- the ``available_engines`` restriction (``None`` — unrestricted — is a
  distinct key from any concrete frozenset),
- the optimization policy (:meth:`OptimizationPolicy.cache_token`),
- the planner's own knobs (``allow_moves``/``use_index``/... plus estimator
  identity), passed in as an opaque ``planner_token``,
- the library ``epoch`` (bumped by every ``add``/``remove``) and the cache's
  ``model_epoch`` (bumped by model refits and drift alarms).

Because the epochs are part of the key, invalidation is cheap and exact: a
library or model change makes every old key unreachable.  The attached
listeners additionally *clear* the store so stale entries do not linger
until LRU pressure evicts them.

A hit returns the cached plan object itself (plans are treated as immutable
by the executor).  Note that its ``.workflow`` attribute references the
workflow instance of the *first* call; callers that rebuild structurally
identical workflows per submission still get a correct plan — the enforcer
walks the plan's steps, not the plan's workflow object.
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable, Hashable

from repro.analysis.runtime_check import (
    LockLike,
    make_rlock,
    note_access,
    register_shared,
)
from repro.core.dataset import Dataset
from repro.core.workflow import AbstractWorkflow, MaterializedPlan
from repro.obs.logging import get_logger
from repro.obs.metrics import REGISTRY

if TYPE_CHECKING:  # imported for annotations only; avoids import cycles
    from repro.core.library import OperatorLibrary
    from repro.core.policy import OptimizationPolicy
    from repro.core.refinement import ModelRefiner
    from repro.obs.drift import DriftAlarm, DriftDetector

_LOG = get_logger("plancache")
_HITS = REGISTRY.counter(
    "ires_plancache_hits_total",
    "plan() calls served from the plan cache",
)
_MISSES = REGISTRY.counter(
    "ires_plancache_misses_total",
    "plan() calls that fell through to the DP",
)
_EVICTIONS = REGISTRY.counter(
    "ires_plancache_evictions_total",
    "Cached plans dropped by LRU capacity or TTL expiry",
    labels=("reason",),
)
_INVALIDATIONS = REGISTRY.counter(
    "ires_plancache_invalidations_total",
    "Cache invalidations by trigger (library_epoch / model_refit / "
    "drift_alarm / api / explicit)",
    labels=("reason",),
)

#: cache-key stand-in for "no engine restriction" (``available_engines=None``)
_ALL_ENGINES = "<all>"


def _metadata_token(dataset: Dataset) -> tuple[Hashable, ...]:
    """Hashable identity of one dataset: name, materialized flag, all leaves.

    The *full* leaf set (not just ``signature()``) because move costs read
    ``Optimization.size`` and execution paths live under ``Execution.*``.
    """
    return (dataset.name, dataset.materialized,
            tuple(dataset.metadata.leaves()))


def workflow_digest(workflow: AbstractWorkflow) -> str:
    """Stable hex digest of everything the DP reads from the workflow."""
    hasher = hashlib.sha256()
    hasher.update(repr((workflow.name, workflow.target)).encode())
    for name in sorted(workflow.datasets):
        hasher.update(repr(("D", _metadata_token(workflow.datasets[name]))).encode())
    for name in sorted(workflow.operators):
        op = workflow.operators[name]
        hasher.update(repr((
            "O", name, tuple(op.metadata.leaves()),
            tuple(workflow.op_inputs[name]), tuple(workflow.op_outputs[name]),
        )).encode())
    return hasher.hexdigest()


def _materialized_token(
    materialized_results: dict[str, Dataset] | None,
) -> tuple[Hashable, ...]:
    """Hashable identity of a replan's already-computed intermediates."""
    if not materialized_results:
        return ()
    return tuple(sorted(
        _metadata_token(ds) for ds in materialized_results.values()
    ))


class PlanCache:  # thread-shared
    """LRU + TTL cache of finished plans, invalidated by epoch bumps.

    Reachable from every service worker thread at once: lookups mutate LRU
    order and TTL expiry deletes entries, so the store, the hit/miss/eviction
    counters and the model epoch all live under one reentrant lock
    (reentrant because ``bump_model_epoch`` calls ``invalidate`` and both
    take it).
    """

    def __init__(
        self,
        capacity: int = 128,
        ttl_seconds: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._lock: LockLike = make_rlock("plancache")
        self._entries: "OrderedDict[tuple, tuple[float, MaterializedPlan]]" = (
            OrderedDict()  # guarded-by: _lock
        )
        #: bumped by model refits / drift alarms; part of every key
        self.model_epoch = 0  # guarded-by: _lock
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self.evictions = 0  # guarded-by: _lock
        self.invalidations = 0  # guarded-by: _lock
        register_shared(self, "core:plancache", self._lock)

    # -- key construction ---------------------------------------------------
    def key(
        self,
        workflow: AbstractWorkflow,
        *,
        library_epoch: int,
        available_engines: set[str] | None = None,
        materialized_results: dict[str, Dataset] | None = None,
        policy: "OptimizationPolicy | None" = None,
        planner_token: tuple[Hashable, ...] = (),
    ) -> tuple:
        """The full cache key for one ``plan()`` call's inputs."""
        engines: Hashable = (
            _ALL_ENGINES if available_engines is None
            else frozenset(available_engines)
        )
        policy_token: Hashable = (
            policy.cache_token() if policy is not None else ()
        )
        return (
            workflow_digest(workflow),
            _materialized_token(materialized_results),
            engines,
            policy_token,
            planner_token,
            int(library_epoch),
            self._model_epoch_snapshot(),
        )

    def _model_epoch_snapshot(self) -> int:
        with self._lock:
            return self.model_epoch

    # -- store --------------------------------------------------------------
    def get(self, key: tuple) -> MaterializedPlan | None:
        """Look a plan up; counts a hit or a miss, expires TTL'd entries."""
        expired = False
        with self._lock:
            note_access(self, "get")
            record = self._entries.get(key)
            if record is not None and self.ttl_seconds is not None:
                inserted_at = record[0]
                if self._clock() - inserted_at > self.ttl_seconds:
                    del self._entries[key]
                    self.evictions += 1
                    expired = True
                    record = None
            if record is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
        # metric increments happen outside the lock: the registry has its
        # own guard and keeping it out of this critical section keeps the
        # lock-order graph a tree (plancache -> metrics only)
        if expired:
            _EVICTIONS.inc(reason="ttl")
        if record is None:
            _MISSES.inc()
            return None
        _HITS.inc()
        return record[1]

    def put(self, key: tuple, plan: MaterializedPlan) -> None:
        """Store a freshly computed plan, evicting LRU entries over capacity."""
        evicted = 0
        with self._lock:
            note_access(self, "put")
            self._entries[key] = (self._clock(), plan)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                evicted += 1
        for _ in range(evicted):
            _EVICTIONS.inc(reason="capacity")

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- invalidation -------------------------------------------------------
    def invalidate(self, reason: str = "explicit", *, force: bool = False) -> int:
        """Drop every cached plan; returns how many were dropped.

        The invalidation event is counted only when something was actually
        dropped (or ``force=True`` — the explicit API paths always count),
        so wiring the cache up before bulk-loading a library does not inflate
        the metric with no-op bumps.
        """
        with self._lock:
            note_access(self, "invalidate")
            dropped = len(self._entries)
            self._entries.clear()
            counted = bool(dropped or force)
            if counted:
                self.invalidations += 1
        if counted:
            _INVALIDATIONS.inc(reason=reason)
        if dropped:
            _LOG.info("plancache_invalidated", reason=reason, dropped=dropped)
        return dropped

    def bump_model_epoch(self, reason: str = "model_refit") -> None:
        """Model outputs changed: new epoch (new keys) + drop old entries."""
        with self._lock:
            note_access(self, "bump_model_epoch")
            self.model_epoch += 1
            self.invalidate(reason=reason)

    # -- hook wiring --------------------------------------------------------
    def attach_library(self, library: "OperatorLibrary") -> "PlanCache":
        """Invalidate on every library ``add``/``remove`` (epoch bump)."""
        library.listeners.append(self._on_library_change)
        return self

    def attach_refiner(self, refiner: "ModelRefiner") -> "PlanCache":
        """Bump the model epoch whenever a pair's model is about to change:
        it fell due for a refit, or a drift refit or flush retrained it."""
        refiner.listeners.append(self._on_refit)
        return self

    def attach_drift(self, drift: "DriftDetector") -> "PlanCache":
        """Bump the model epoch on drift alarms (profiles shifted underneath)."""
        drift.hooks.append(self._on_drift)
        return self

    def _on_library_change(self, epoch: int) -> None:
        self.invalidate(reason="library_epoch")

    def _on_refit(self, algorithm: str, engine: str) -> None:
        self.bump_model_epoch(reason="model_refit")

    def _on_drift(self, alarm: "DriftAlarm") -> None:
        self.bump_model_epoch(reason="drift_alarm")

    # -- introspection ------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Counters + configuration, one consistent snapshot under the lock
        (as served by ``GET /plancache``)."""
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "ttlSeconds": self.ttl_seconds,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "modelEpoch": self.model_epoch,
            }

    def __repr__(self) -> str:
        with self._lock:
            return (f"PlanCache(size={len(self._entries)}, hits={self.hits}, "
                    f"misses={self.misses})")
