"""The IReS multi-engine workflow planner — Algorithm 1 of the paper.

A dynamic-programming optimizer over the abstract workflow DAG.  The
``dpTable`` keeps, for every intermediate dataset node, the best plan *per
distinct dataset format/location*, which is what enables hybrid multi-engine
plans (an entry left on engine A may lose locally but win globally once the
downstream operator runs on A).  Move/transform operators are synthesized
where consecutive operators disagree on formats or stores.

Entries form a parent-linked DAG instead of carrying full step lists; the
winning plan is assembled once at the end by a topological walk, which keeps
planning linear in plan size (the Figure 14/15 experiments run workflows of
up to 1000 nodes).

Worst-case complexity is ``O(op · m² · k)`` for ``op`` abstract operators,
``m`` matching implementations each and ``k`` inputs per operator.
"""

from __future__ import annotations

import time
from typing import Any, Iterable, Iterator, Protocol, Sequence

from repro.core.dataset import Dataset
from repro.core.library import MatchStats, MatchTotals, OperatorLibrary
from repro.core.metadata import MetadataTree
from repro.core.operators import MaterializedOperator, MoveOperator
from repro.core.plancache import PlanCache
from repro.core.policy import OptimizationPolicy
from repro.core.provenance import (
    REASON_COST_INFEASIBLE,
    REASON_INPUT_UNPRODUCIBLE,
    REASON_NO_COMPATIBLE_INPUT,
    CandidateRecord,
    PlanProvenance,
)
from repro.core.workflow import AbstractWorkflow, MaterializedPlan, PlanStep
from repro.obs.context import current_run_id
from repro.obs.logging import get_logger
from repro.obs.metrics import REGISTRY
from repro.obs.tracing import NULL_TRACER, Span, Tracer

INFEASIBLE = float("inf")

_LOG = get_logger("planner")
_PLANS = REGISTRY.counter(
    "ires_planner_plans_total",
    "Planning passes by outcome (ok / infeasible)",
    labels=("status", "run_id"),
)
_PLAN_SECONDS = REGISTRY.histogram(
    "ires_planner_wall_seconds",
    "Wall-clock time of one planning pass",
)
_DP_ENTRIES = REGISTRY.gauge(
    "ires_planner_dp_entries",
    "dpTable entries (dataset x format/engine) of the last planning pass",
)
_EXPANSIONS = REGISTRY.counter(
    "ires_planner_expansions_total",
    "Abstract-operator DP expansions performed",
)
_PREFLIGHTS = REGISTRY.counter(
    "ires_planner_preflight_total",
    "Pre-flight lint gates by outcome (ok / failed)",
    labels=("status",),
)


class PlanningError(RuntimeError):
    """No feasible execution plan exists for the workflow."""


class CostEstimator(Protocol):
    """What the planner needs from the modeling layer (or ground truth)."""

    def operator_metrics(
        self, operator: MaterializedOperator, inputs: Sequence[Dataset]
    ) -> dict[str, float]:
        """Estimated metrics (execTime, cost, ...) of running the operator."""
        ...

    def move_metrics(
        self, dataset: Dataset, src_store: str | None, dst_store: str | None
    ) -> dict[str, float]:
        """Estimated metrics of moving/transforming a dataset between stores."""
        ...

    def output_size(
        self, operator: MaterializedOperator, inputs: Sequence[Dataset]
    ) -> float:
        """Estimated size (bytes) of the operator's output dataset."""
        ...

    def output_count(
        self, operator: MaterializedOperator, inputs: Sequence[Dataset]
    ) -> float:
        """Estimated cardinality (items) of the operator's output dataset."""
        ...


class MetadataCostEstimator:
    """Fallback estimator reading static costs from operator descriptions.

    Mirrors the deliverable's LineCount example where the description file
    carries ``Optimization.execTime=1.0`` / ``Optimization.cost=1.0``
    (a ``UserFunction`` model).  Move cost is proportional to data size.
    """

    def __init__(self, move_bandwidth: float = 100e6) -> None:
        self.move_bandwidth = move_bandwidth

    def operator_metrics(self, operator: MaterializedOperator,
                         inputs: Sequence[Dataset]) -> dict[str, float]:
        """Static ``Optimization.execTime``/``cost`` from the description."""
        return {
            "execTime": operator.metadata.get_float("Optimization.execTime", 1.0),
            "cost": operator.metadata.get_float("Optimization.cost", 1.0),
        }

    def move_metrics(self, dataset: Dataset, src_store: str | None,
                     dst_store: str | None) -> dict[str, float]:
        """Move time = bytes / bandwidth."""
        seconds = dataset.size / self.move_bandwidth
        return {"execTime": seconds, "cost": seconds}

    def output_size(self, operator: MaterializedOperator,
                    inputs: Sequence[Dataset]) -> float:
        """Output bytes default to the sum of input bytes."""
        return sum(d.size for d in inputs)

    def output_count(self, operator: MaterializedOperator,
                     inputs: Sequence[Dataset]) -> float:
        """Output cardinality defaults to the sum of input counts."""
        return sum(d.count for d in inputs)


class _Entry:
    """One dpTable record: a dataset in a concrete format plus how to get it.

    ``cost`` is what the planner accumulates along the plan: a scalar for
    :class:`Planner`, a metric vector for the Pareto planner.  ``step`` is
    the final step producing the dataset (None for materialized sources);
    ``parents`` are the entries whose plans feed it.  The full plan is
    reconstructed by walking this DAG.
    """

    __slots__ = ("dataset", "cost", "step", "parents", "constraints")

    def __init__(
        self,
        dataset: Dataset,
        cost: Any,
        step: PlanStep | None = None,
        parents: tuple["_Entry", ...] = (),
    ) -> None:
        self.dataset = dataset
        self.cost = cost
        self.step = step
        self.parents = parents
        # the _options inner loop checks this node against every candidate's
        # input spec; resolving it once here keeps the per-candidate cost to
        # a single consistent_with walk (the Pareto planner's partial input
        # combinations carry no dataset)
        self.constraints = (None if dataset is None
                            else dataset.metadata.node("Constraints"))

    def collect_steps(self) -> list[PlanStep]:
        """Topologically ordered, deduplicated steps of this entry's plan."""
        seen: set[int] = set()
        ordered: list[PlanStep] = []

        def visit(entry: "_Entry") -> None:
            if id(entry) in seen:
                return
            seen.add(id(entry))
            for parent in entry.parents:
                visit(parent)
            if entry.step is not None:
                ordered.append(entry.step)

        visit(self)
        # a step may be shared by several entries; dedupe while keeping order
        unique: list[PlanStep] = []
        emitted: set[int] = set()
        for step in ordered:
            if id(step) not in emitted:
                emitted.add(id(step))
                unique.append(step)
        return unique


class _DynamicProgram:
    """The parts of Algorithm 1 that :class:`Planner` and the Pareto planner
    share: dpTable seeding, the topological expansion, input resolution
    with move synthesis, and step construction.

    The defaults accumulate a scalar cost.  A subclass decides how metrics
    price an entry (:meth:`_price`), and what one dpTable slot keeps
    (:meth:`_origin` seeds it, :meth:`_consider` updates it).
    """

    use_index = True
    tracer: Tracer = NULL_TRACER

    def __init__(self, library: OperatorLibrary,
                 estimator: CostEstimator | None, allow_moves: bool) -> None:
        self.library = library
        self.estimator = estimator if estimator is not None else MetadataCostEstimator()
        self.allow_moves = allow_moves
        self._move_ops: dict[tuple, MoveOperator] = {}

    # -- cost algebra (scalar by default) --------------------------------
    def _price(self, metrics: dict[str, float]) -> Any:
        """An entry cost for these metrics, or None when infeasible."""
        raise NotImplementedError

    def _add(self, a: Any, b: Any) -> Any:
        return a + b

    def _estimate(self, cost: Any) -> float:
        """The ``estimated_cost`` a step of this cost reports."""
        return cost

    def _origin(self, dataset: Dataset) -> Any:
        """The dpTable slot value of a materialized input."""
        return _Entry(dataset, 0.0)

    def _consider(self, dp: dict, workflow: AbstractWorkflow,
                  abstract_name: str, mat_op: MaterializedOperator,
                  in_names: list[str], out_names: list[str],
                  prov: PlanProvenance | None = None) -> None:
        """Evaluate one materialized candidate (inner loop of Algorithm 1)."""
        raise NotImplementedError

    # -- Algorithm 1 -----------------------------------------------------
    def _seed(self, workflow: AbstractWorkflow,
              materialized_results: dict[str, Dataset]) -> dict[str, dict]:
        """Initialize the dpTable with materialized inputs (lines 5-10)."""
        dp: dict[str, dict] = {}
        for name, dataset in workflow.datasets.items():
            if name in materialized_results:
                dataset = materialized_results[name]
            elif not dataset.materialized:
                continue
            dp[name] = {dataset.signature(): self._origin(dataset)}
        return dp

    def _expand(self, dp: dict[str, dict], workflow: AbstractWorkflow,
                available_engines: set[str] | None,
                materialized_results: dict[str, Dataset],
                prov: PlanProvenance | None = None) -> int:
        """Expand every operator in DAG topological order (line 11 onwards).

        Returns the number of abstract operators expanded.
        """
        tracer = self.tracer
        expansions = 0
        totals = MatchTotals()
        for abstract_op in workflow.topological_operators():
            in_names = workflow.op_inputs[abstract_op.name]
            out_names = workflow.op_outputs[abstract_op.name]
            if all(n in materialized_results for n in out_names):
                continue  # already computed before a failure; nothing to plan
            expansions += 1
            if not tracer.enabled:
                matches = self.library.find_materialized(
                    abstract_op, available_engines, use_index=self.use_index,
                    totals=totals,
                )
                for mat_op in matches:
                    self._consider(dp, workflow, abstract_op.name, mat_op,
                                   in_names, out_names, prov)
                continue
            stats = MatchStats()
            with tracer.span(f"expand:{abstract_op.name}", category="planner",
                             operator=abstract_op.name) as op_span:
                matches = self.library.find_materialized(
                    abstract_op, available_engines, use_index=self.use_index,
                    stats=stats, totals=totals,
                )
                for mat_op in matches:
                    self._consider(dp, workflow, abstract_op.name, mat_op,
                                   in_names, out_names, prov)
                op_span.set_attribute("candidates_matched", stats.matched)
                op_span.set_attribute("pruned_by_index", stats.pruned_by_index)
                op_span.set_attribute("engine_filtered", stats.engine_filtered)
                op_span.set_attribute("tree_rejected", stats.tree_rejected)
                op_span.set_attribute("dp_datasets", len(dp))
        totals.flush()
        _EXPANSIONS.inc(expansions)
        return expansions

    def _options(self, entries: Iterable[_Entry], mat_op: MaterializedOperator,
                 spec: MetadataTree) -> Iterator[_Entry]:
        """Every way to feed an input with this ``spec`` from dpTable
        entries: an entry as-is, or through a synthesized move."""
        for entry in entries:
            if entry.constraints is None or spec.consistent_with(entry.constraints):
                yield entry
            elif self.allow_moves:
                moved = self._move(entry, mat_op, spec)
                if moved is not None:
                    yield moved

    def _step(self, workflow: AbstractWorkflow, abstract_name: str,
              mat_op: MaterializedOperator, input_datasets: list[Dataset],
              out_names: list[str], metrics: dict[str, float],
              cost: Any) -> PlanStep:
        """The step running ``mat_op``, with output datasets sized by the
        estimator and annotated with the operator's output specs."""
        outputs = []
        out_size = self.estimator.output_size(mat_op, input_datasets)
        out_count = self.estimator.output_count(mat_op, input_datasets)
        for i, out_name in enumerate(out_names):
            out_ds = mat_op.output_for(workflow.datasets[out_name], i)
            out_ds.size = out_size
            out_ds.count = out_count
            outputs.append(out_ds)
        return PlanStep(
            operator=mat_op,
            inputs=tuple(input_datasets),
            outputs=tuple(outputs),
            estimated_cost=self._estimate(cost),
            abstract_name=abstract_name,
            predicted=metrics,
        )

    def _move_operator(self, src_store: str | None, dst_store: str | None,
                       src_fmt: str | None,
                       dst_fmt: str | None) -> MoveOperator:
        key = (src_store, dst_store, src_fmt, dst_fmt)
        op = self._move_ops.get(key)
        if op is None:
            op = MoveOperator(src_store or "unknown", dst_store or "unknown",
                              src_fmt, dst_fmt)
            self._move_ops[key] = op
        return op

    def _move(self, entry: _Entry, mat_op: MaterializedOperator,
              spec: MetadataTree) -> _Entry | None:
        """``checkMove``/``moveCost`` of Algorithm 1: synthesize a transfer.

        Builds a move/transform step converting the dpTable entry's dataset
        to the format required by ``spec`` (the candidate's input spec, looked
        up once by the caller).  Returns None if the move is impossible
        (estimator returned infinity) or pointless (the input spec imposes no
        constraints to convert to).

        The moved dataset needs no re-check against ``spec``: every spec
        leaf is written onto it, so the two agree on every shared leaf, and
        a leaf-versus-subtree clash raises inside ``MetadataTree.set``.
        """
        if spec.is_leaf:
            return None  # nothing known to convert to; mismatch is structural
        src = entry.dataset
        src_store = src.store
        dst_store = spec.get("Engine.FS") or spec.get("Engine") or mat_op.engine
        metrics = self.estimator.move_metrics(src, src_store, dst_store)
        move_cost = self._price(metrics)
        if move_cost is None:
            return None
        moved = Dataset(src.name, src.metadata.copy())
        for path, value in spec.leaves():
            moved.metadata.set(f"Constraints.{path}", value)
        step = PlanStep(
            operator=self._move_operator(src_store, dst_store, src.fmt, moved.fmt),
            inputs=(src,),
            outputs=(moved,),
            estimated_cost=self._estimate(move_cost),
            predicted=metrics,
        )
        # the moved entry is of the source entry's kind (scalar or Pareto)
        return type(entry)(moved, self._add(entry.cost, move_cost), step,
                           (entry,))


class Planner(_DynamicProgram):
    """Dynamic-programming workflow planner (Algorithm 1)."""

    def __init__(
        self,
        library: OperatorLibrary,
        estimator: CostEstimator | None = None,
        policy: OptimizationPolicy | None = None,
        allow_moves: bool = True,
        use_index: bool = True,
        single_entry_dp: bool = False,
        tracer: Tracer | None = None,
        preflight: bool = False,
        record_provenance: bool = False,
        plan_cache: PlanCache | None = None,
    ) -> None:
        super().__init__(library, estimator, allow_moves)
        self.policy = policy if policy is not None else OptimizationPolicy.min_exec_time()
        self.use_index = use_index
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: opt-in pre-flight: run the match + dataflow lint passes before
        #: planning and raise one aggregated LintFailure listing every
        #: defect, instead of whatever mid-plan error the first one causes
        self.preflight = preflight
        #: ablation switch: keep only ONE best entry per dataset node instead
        #: of one per format/engine (loses hybrid plans; see DESIGN.md §5).
        self.single_entry_dp = single_entry_dp
        #: opt-in: capture every _consider comparison into a PlanProvenance
        #: (the ``ires explain`` data source); off by default — the NULL path
        #: must stay inside the obs overhead budget
        self.record_provenance = record_provenance
        #: provenance of the most recent plan() call (None until recorded)
        self.last_provenance: PlanProvenance | None = None
        #: memoized finished plans keyed on every input the DP depends on;
        #: None disables caching entirely
        self.plan_cache = plan_cache
        #: True when the most recent plan() was served from the cache
        self.last_plan_cached = False

    def _cache_token(self) -> tuple:
        """The planner knobs that change plan outcomes, for the cache key.

        The estimator enters by identity: its internal state (profiles,
        trained models) is keyed separately through the library/model epochs.
        """
        return (self.allow_moves, self.use_index, self.single_entry_dp,
                type(self.estimator).__name__, id(self.estimator))

    # -- public API ---------------------------------------------------------
    def plan(
        self,
        workflow: AbstractWorkflow,
        available_engines: set[str] | None = None,
        materialized_results: dict[str, Dataset] | None = None,
    ) -> MaterializedPlan:
        """Find the optimal materialized plan for an abstract workflow.

        ``available_engines`` excludes implementations on unavailable engines
        (used during fault-tolerant replanning, §2.3).  ``materialized_results``
        maps intermediate dataset names to already-computed results, which
        enter the dpTable at zero cost so replanning reuses them.

        With ``preflight=True`` the workflow is statically analyzed first
        and a :class:`~repro.analysis.diagnostics.LintFailure` aggregating
        every defect is raised before any DP work happens.
        """
        if self.preflight:
            self._preflight(workflow, available_engines)
        self.last_plan_cached = False
        cache = self.plan_cache
        key: tuple | None = None
        wall_start = time.perf_counter()
        # provenance-recording runs bypass the cache: a hit would leave
        # last_provenance stale (describing some earlier DP pass)
        if cache is not None and not self.record_provenance:
            key = cache.key(
                workflow,
                library_epoch=self.library.epoch,
                available_engines=available_engines,
                materialized_results=materialized_results,
                policy=self.policy,
                planner_token=self._cache_token(),
            )
            hit = cache.get(key)
            if hit is not None:
                self.last_plan_cached = True
                wall = time.perf_counter() - wall_start
                _PLANS.inc(status="ok", run_id=current_run_id() or "")
                _PLAN_SECONDS.observe(wall)
                _LOG.info("plan_ready", workflow=workflow.name,
                          steps=len(hit.steps), cost=round(hit.cost, 4),
                          wall_seconds=round(wall, 6), cached=True)
                return hit
        tracer = self.tracer
        try:
            with tracer.span(f"plan:{workflow.name}", category="planner",
                             workflow=workflow.name) as span:
                plan = self._plan_inner(
                    workflow, available_engines, materialized_results, tracer,
                    span,
                )
        except PlanningError:
            wall = time.perf_counter() - wall_start
            _PLANS.inc(status="infeasible", run_id=current_run_id() or "")
            _PLAN_SECONDS.observe(wall)
            _LOG.warning("plan_infeasible", workflow=workflow.name,
                         wall_seconds=round(wall, 6))
            raise
        wall = time.perf_counter() - wall_start
        _PLANS.inc(status="ok", run_id=current_run_id() or "")
        _PLAN_SECONDS.observe(wall)
        if tracer.enabled:
            span.set_attribute("steps", len(plan.steps))
            span.set_attribute("cost", plan.cost)
        _LOG.info("plan_ready", workflow=workflow.name,
                  steps=len(plan.steps), cost=round(plan.cost, 4),
                  wall_seconds=round(wall, 6), cached=False)
        if cache is not None and key is not None:
            cache.put(key, plan)
        return plan

    def _preflight(
        self,
        workflow: AbstractWorkflow,
        available_engines: set[str] | None,
    ) -> None:
        """Gate planning on the match + dataflow lint passes.

        Imports lazily: the analysis package sits above core in the import
        graph, so a module-level import here would be cyclic.
        """
        from repro.analysis.diagnostics import LintFailure
        from repro.analysis.lint import preflight_workflow

        collector = preflight_workflow(self.library, workflow,
                                       available_engines)
        if collector.has_errors:
            _PREFLIGHTS.inc(status="failed")
            _LOG.warning("preflight_failed", workflow=workflow.name,
                         errors=len(collector.errors()),
                         codes=",".join(collector.codes()))
            raise LintFailure(collector, context=f"workflow {workflow.name!r}")
        _PREFLIGHTS.inc(status="ok")

    def _plan_inner(
        self,
        workflow: AbstractWorkflow,
        available_engines: set[str] | None,
        materialized_results: dict[str, Dataset] | None,
        tracer: Tracer,
        span: Span,
    ) -> MaterializedPlan:
        workflow.validate()
        materialized_results = materialized_results or {}
        prov = PlanProvenance(workflow.name) if self.record_provenance else None
        if self.record_provenance:
            self.last_provenance = prov

        dp = self._seed(workflow, materialized_results)
        if workflow.target in dp:
            # the target is materialized (or, on a replan, was computed
            # before the failure): nothing is left to plan
            return MaterializedPlan(workflow, [], 0.0)
        expansions = self._expand(dp, workflow, available_engines,
                                  materialized_results, prov)

        target_entries = dp.get(workflow.target)
        dp_entries = sum(len(entries) for entries in dp.values())
        _DP_ENTRIES.set(dp_entries)
        if tracer.enabled:
            span.set_attribute("expansions", expansions)
            span.set_attribute("dp_entries", dp_entries)
        if not target_entries:
            raise PlanningError(
                f"no feasible plan produces target {workflow.target!r} "
                f"(available engines: {sorted(available_engines) if available_engines else 'all'})"
            )
        best = min(target_entries.values(), key=lambda e: e.cost)
        plan = MaterializedPlan(workflow, best.collect_steps(), best.cost)
        if prov is not None:
            prov.finalize(plan)
        return plan

    # -- internals ---------------------------------------------------------
    def _price(self, metrics: dict[str, float]) -> float | None:
        cost = self.policy.scalarize(metrics)
        return None if cost == INFEASIBLE else cost

    def _consider(
        self,
        dp: dict[str, dict[tuple, _Entry]],
        workflow: AbstractWorkflow,
        abstract_name: str,
        mat_op: MaterializedOperator,
        in_names: list[str],
        out_names: list[str],
        prov: PlanProvenance | None = None,
    ) -> None:
        """Evaluate one materialized candidate (inner loop of Algorithm 1)."""
        input_cost = 0.0
        input_entries: list[_Entry] = []
        for i, in_name in enumerate(in_names):
            entries = dp.get(in_name)
            if not entries:
                if prov is not None:
                    prov.note(self._candidate(
                        abstract_name, mat_op, REASON_INPUT_UNPRODUCIBLE))
                return  # input not producible -> operator infeasible
            # one spec lookup per input, not one per dpTable entry
            best: _Entry | None = None
            for option in self._options(entries.values(), mat_op,
                                        mat_op.input_spec(i)):
                if best is None or option.cost < best.cost:
                    best = option
            if best is None:
                if prov is not None:
                    prov.note(self._candidate(
                        abstract_name, mat_op, REASON_NO_COMPATIBLE_INPUT))
                return
            input_cost += best.cost
            input_entries.append(best)

        input_datasets = [e.dataset for e in input_entries]
        metrics = self.estimator.operator_metrics(mat_op, input_datasets)
        operator_cost = self._price(metrics)
        if operator_cost is None:
            if prov is not None:
                prov.note(self._candidate(
                    abstract_name, mat_op, REASON_COST_INFEASIBLE))
            return
        total_cost = input_cost + operator_cost
        if prov is not None:
            prov.note(CandidateRecord(
                abstract=abstract_name,
                operator=mat_op.name,
                algorithm=mat_op.algorithm,
                engine=mat_op.engine or "",
                feasible=True,
                operator_cost=operator_cost,
                total_cost=total_cost,
                predicted=metrics,
            ))

        step = self._step(workflow, abstract_name, mat_op, input_datasets,
                          out_names, metrics, operator_cost)
        parents = tuple(input_entries)
        for out_ds in step.outputs:
            slot = dp.setdefault(out_ds.name, {})
            key = ("__single__",) if self.single_entry_dp else out_ds.signature()
            current = slot.get(key)
            if current is None or total_cost < current.cost:
                slot[key] = _Entry(out_ds, total_cost, step, parents)

    def _candidate(self, abstract_name: str, mat_op: MaterializedOperator,
                   reason: str) -> CandidateRecord:
        """An infeasible-candidate provenance record."""
        return CandidateRecord(
            abstract=abstract_name,
            operator=mat_op.name,
            algorithm=mat_op.algorithm,
            engine=mat_op.engine or "",
            feasible=False,
            reason=reason,
        )
