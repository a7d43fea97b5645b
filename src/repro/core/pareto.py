"""Pareto-frontier workflow planning — the §2.2.3 extension.

The paper's planner optimizes a single scalarized metric and notes: "We are
currently investigating methods for optimizing multiple dimensions of
performance metrics, such as finding Pareto frontier execution plans."
This module implements that extension: the dpTable keeps, per dataset
format, the set of *mutually non-dominated* plans over a metric vector
(execution time, monetary cost, ...), and the planner returns the whole
frontier at the target so the user can pick a trade-off after the fact.

Frontier sizes are bounded (``max_frontier``) by thinning evenly along the
first metric, which keeps the DP polynomial while preserving the extremes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.dataset import Dataset
from repro.core.library import OperatorLibrary
from repro.core.operators import MaterializedOperator
from repro.core.planner import (
    CostEstimator,
    PlanningError,
    _DynamicProgram,
    _Entry,
)
from repro.core.provenance import PlanProvenance
from repro.core.workflow import AbstractWorkflow, MaterializedPlan, PlanStep

INFEASIBLE = float("inf")


def dominates(a: tuple[float, ...], b: tuple[float, ...]) -> bool:
    """Pareto dominance for minimization."""
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def prune_frontier(entries: list["_ParetoEntry"], max_size: int) -> list["_ParetoEntry"]:
    """Drop dominated entries; thin to ``max_size`` along the first metric."""
    entries = sorted(entries, key=lambda e: e.metrics)
    kept: list[_ParetoEntry] = []
    for entry in entries:
        if any(dominates(other.metrics, entry.metrics) for other in kept):
            continue
        kept = [k for k in kept if not dominates(entry.metrics, k.metrics)]
        kept.append(entry)
    kept.sort(key=lambda e: e.metrics[0])
    if len(kept) <= max_size:
        return kept
    # keep the extremes, thin evenly in between
    idx = np.linspace(0, len(kept) - 1, max_size).round().astype(int)
    return [kept[i] for i in sorted(set(idx.tolist()))]


class _ParetoEntry(_Entry):
    """One frontier point: a dataset format, a metric vector, a plan DAG."""

    __slots__ = ()

    @property
    def metrics(self) -> tuple[float, ...]:
        """The metric vector (the entry's cost)."""
        return self.cost


class ParetoPlan(MaterializedPlan):
    """A frontier plan annotated with its full metric vector."""

    def __init__(self, workflow: AbstractWorkflow, steps: list[PlanStep],
                 metrics: dict[str, float]) -> None:
        super().__init__(workflow, steps, cost=next(iter(metrics.values())))
        self.metrics = metrics


class ParetoPlanner(_DynamicProgram):
    """Multi-objective variant of Algorithm 1 returning a plan frontier.

    It runs the planner's DP; only what a dpTable slot keeps differs: the
    frontier of entries per dataset signature instead of the cheapest one,
    and the product of input choices instead of the best per input.
    """

    def __init__(
        self,
        library: OperatorLibrary,
        estimator: CostEstimator | None = None,
        metrics: Sequence[str] = ("execTime", "cost"),
        max_frontier: int = 16,
        allow_moves: bool = True,
    ) -> None:
        if len(metrics) < 2:
            raise ValueError("Pareto planning needs at least two metrics")
        super().__init__(library, estimator, allow_moves)
        self.metrics = tuple(metrics)
        self.max_frontier = max_frontier
        self._zeros = tuple(0.0 for _ in self.metrics)

    # -- public ----------------------------------------------------------
    def plan_frontier(
        self,
        workflow: AbstractWorkflow,
        available_engines: set[str] | None = None,
    ) -> list[ParetoPlan]:
        """All Pareto-optimal plans for the workflow's target dataset."""
        workflow.validate()
        dp = self._seed(workflow, {})
        self._expand(dp, workflow, available_engines, {})
        target_slots = dp.get(workflow.target)
        if not target_slots:
            raise PlanningError(
                f"no feasible plan produces target {workflow.target!r}")
        frontier = prune_frontier(
            [e for entries in target_slots.values() for e in entries],
            self.max_frontier,
        )
        plans = []
        for entry in frontier:
            metrics = dict(zip(self.metrics, entry.metrics))
            plans.append(ParetoPlan(workflow, entry.collect_steps(), metrics))
        return plans

    # -- cost algebra: metric vectors ------------------------------------
    def _price(self, metrics: dict[str, float]) -> tuple[float, ...] | None:
        values = tuple(float(metrics.get(m, INFEASIBLE)) for m in self.metrics)
        if any(v == INFEASIBLE for v in values):
            return None
        return values

    def _add(self, a: tuple[float, ...], b: tuple[float, ...]) -> tuple[float, ...]:
        return tuple(x + y for x, y in zip(a, b))

    def _estimate(self, cost: tuple[float, ...]) -> float:
        return cost[0]

    def _origin(self, dataset: Dataset) -> list[_ParetoEntry]:
        return [_ParetoEntry(dataset, self._zeros)]

    def _consider(
        self,
        dp: dict[str, dict[tuple, list[_ParetoEntry]]],
        workflow: AbstractWorkflow,
        abstract_name: str,
        mat_op: MaterializedOperator,
        in_names: list[str],
        out_names: list[str],
        prov: PlanProvenance | None = None,
    ) -> None:
        # frontier of input combinations, built incrementally with pruning;
        # a combination is an entry without a dataset whose parents are the
        # chosen inputs
        combos = [_ParetoEntry(None, self._zeros)]  # type: ignore[arg-type]
        for i, in_name in enumerate(in_names):
            slots = dp.get(in_name)
            if not slots:
                return
            options = prune_frontier(list(self._options(
                (e for entries in slots.values() for e in entries), mat_op,
                mat_op.input_spec(i))), self.max_frontier)
            if not options:
                return
            # prune combined partial vectors to keep the product bounded
            combos = prune_frontier([
                _ParetoEntry(None, self._add(combo.metrics, opt.metrics),  # type: ignore[arg-type]
                             None, combo.parents + (opt,))
                for combo in combos
                for opt in options
            ], self.max_frontier)

        for combo in combos:
            input_datasets = [p.dataset for p in combo.parents]
            metrics = self.estimator.operator_metrics(mat_op, input_datasets)
            op_vec = self._price(metrics)
            if op_vec is None:
                continue
            total = self._add(combo.metrics, op_vec)
            step = self._step(workflow, abstract_name, mat_op, input_datasets,
                              out_names, metrics, op_vec)
            for out_ds in step.outputs:
                slot = dp.setdefault(out_ds.name, {})
                key = out_ds.signature()
                slot[key] = prune_frontier(
                    slot.get(key, []) + [
                        _ParetoEntry(out_ds, total, step, combo.parents)],
                    self.max_frontier)
