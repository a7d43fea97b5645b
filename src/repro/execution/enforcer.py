"""The enforcer: executes materialized plans over the (simulated) cluster.

Translates plan steps into engine executions and data movements, monitors
service availability in real time, and — on failure — replans the remaining
workflow (D3.3 §2.3).  Two replanning strategies are implemented for the
§4.5 evaluation:

- ``IRES_REPLAN`` keeps materialized intermediate results and replans only
  the remainder of the workflow;
- ``TRIVIAL_REPLAN`` discards intermediates and reschedules the whole
  workflow from scratch.

Planning/replanning time is measured in *real* wall-clock (it is our code
running); engine work — including retry backoffs, partial work done before
a failure was detected, and straggler slowdowns — is charged to the
simulated clock.

Transient faults (flaky RPCs, stragglers, crash-after-partial-work) are
retried in place with backoff before any replanning happens; engines that
keep failing trip a per-engine circuit breaker, and the open set is
subtracted from the available engines during (re)planning so the planner
routes around sick engines until their breaker half-opens again (see
:mod:`repro.execution.resilience`).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.dataset import Dataset
from repro.core.estimators import monetary_cost, resources_for, workload_from_inputs
from repro.core.planner import Planner, PlanningError
from repro.core.workflow import AbstractWorkflow, MaterializedPlan, PlanStep
from repro.engines.errors import (
    EngineError,
    EngineUnavailableError,
    StepTimeoutError,
    TransientEngineError,
)
from repro.engines.faults import FaultInjector, TransientOutcome
from repro.engines.monitoring import MetricRecord
from repro.engines.profiles import Resources
from repro.engines.registry import MultiEngineCloud
from repro.execution.journal import (
    PLAN_CHOSEN,
    REPLAN,
    RUN_ADMITTED,
    RUN_FINISHED,
    RUN_RESUMED,
    STEP_FINISHED,
    STEP_STARTED,
    RecoveredRun,
    RunJournal,
    dataset_payload,
    journal_path,
    plan_payload,
    recover,
)
from repro.execution.resilience import (
    ResilienceManager,
    RunCancelled,
    RunControl,
    RunDeadlineExceeded,
)
from repro.obs.accuracy import NULL_LEDGER, AccuracyLedger
from repro.obs.context import (
    bind_run_id,
    current_run_id,
    current_tenant,
    new_run_id,
)
from repro.obs.drift import DriftDetector
from repro.obs.logging import get_logger
from repro.obs.metrics import REGISTRY
from repro.obs.tracing import NULL_TRACER, Tracer

IRES_REPLAN = "IResReplan"
TRIVIAL_REPLAN = "TrivialReplan"

_LOG = get_logger("executor")
_RUNS = REGISTRY.counter(
    "ires_executor_runs_total",
    "Workflow executions by outcome",
    labels=("status", "run_id"),
)
_STEPS = REGISTRY.counter(
    "ires_executor_steps_total",
    "Enforced plan steps by engine and outcome",
    labels=("engine", "status", "run_id"),
)
_STEP_SECONDS = REGISTRY.histogram(
    "ires_executor_step_sim_seconds",
    "Simulated seconds charged per enforced step",
    labels=("engine",),
)
_REPLANS = REGISTRY.counter(
    "ires_executor_replans_total",
    "Replanning passes triggered by step failures",
    labels=("run_id",),
)

#: simulated seconds to notice a failed submission (health probe round-trip);
#: failures are never free on the simulated clock.
FAILURE_DETECTION_SECONDS = 1.0


class ExecutionFailed(RuntimeError):
    """The workflow could not be completed (replanning exhausted)."""


@dataclass
class StepExecution:
    """Outcome of one enforced plan step."""

    step: PlanStep
    engine: str
    sim_seconds: float
    started_at: float
    success: bool
    error: str | None = None
    attempt: int = 1  # 1 = first try; >1 = a resilience-layer retry
    #: engine cores the step ran with (0 for data moves) — the accounting
    #: layer charges engine-core-seconds = sim_seconds * cores per tenant
    cores: int = 0


@dataclass
class ExecutionReport:
    """Everything the §4 experiments measure about one workflow run."""

    workflow: str
    strategy: str
    succeeded: bool
    sim_time: float
    run_id: str = ""
    planning_seconds: list[float] = field(default_factory=list)
    plans: list[MaterializedPlan] = field(default_factory=list)
    executions: list[StepExecution] = field(default_factory=list)
    replans: int = 0
    failures: list[str] = field(default_factory=list)
    retries: int = 0  # transient failures absorbed without replanning
    #: steps seeded from a recovered journal instead of being re-executed
    recovered_steps: int = 0
    #: planning passes (initial or replan) served from the plan cache
    cached_plans: int = 0
    #: PlanProvenance per planning pass (only with record_provenance planners)
    provenances: list = field(default_factory=list)

    @property
    def initial_planning_seconds(self) -> float:
        """Wall-clock of the first (pre-failure) planning pass."""
        return self.planning_seconds[0] if self.planning_seconds else 0.0

    @property
    def critical_path_seconds(self) -> float:
        """Makespan if independent steps had run concurrently.

        The enforcer charges the simulated clock serially, but the plan's
        dataflow admits parallelism (e.g. the relational workflow's q1 and
        q2 touch disjoint stores).  This walks the successful executions,
        starting each step after the producers of its inputs finished, and
        returns the resulting critical-path length.
        """
        finish_by_dataset: dict[str, float] = {}
        makespan = 0.0
        for execution in self.executions:
            if not execution.success:
                continue
            step = execution.step
            start = max(
                (finish_by_dataset.get(d.name, 0.0) for d in step.inputs),
                default=0.0,
            )
            finish = start + execution.sim_seconds
            for out in step.outputs:
                finish_by_dataset[out.name] = finish
            makespan = max(makespan, finish)
        return makespan

    @property
    def replanning_seconds(self) -> float:
        """Wall-clock summed over all replanning passes."""
        return sum(self.planning_seconds[1:])

    def engines_used(self) -> list[str]:
        """Engine of every successful step, in execution order."""
        return [e.engine for e in self.executions if e.success]


def hdfs_path(path: str | None) -> str | None:
    """Normalize an ``hdfs://…`` URI to the SimHDFS namespace path.

    Both ``hdfs:///p`` and ``hdfs://namenode/p`` resolve to ``/p`` (any
    authority component is dropped — there is a single simulated namenode).
    """
    if not path or not path.startswith("hdfs://"):
        return None
    rest = path[len("hdfs://"):]
    if not rest.startswith("/"):  # authority present: hdfs://host/path
        _, _, rest = rest.partition("/")
        rest = "/" + rest
    return rest


class WorkflowExecutor:
    """Runs abstract workflows end-to-end: plan → enforce → replan on failure.

    When a materialized operator carries an ``impl`` callable and its input
    datasets resolve to real HDFS payloads, the executor runs the
    implementation and stores the genuine artifact back into HDFS — timing
    always comes from the engine's performance profile (the data plane and
    the cost plane are decoupled, like a scheduler driving real jobs).
    """

    def __init__(
        self,
        cloud: MultiEngineCloud,
        planner: Planner,
        fault_injector: FaultInjector | None = None,
        strategy: str = IRES_REPLAN,
        max_replans: int = 8,
        health_checks: bool = True,
        resilience: ResilienceManager | None = None,
        failure_detection_seconds: float = FAILURE_DETECTION_SECONDS,
        tracer: Tracer | None = None,
        ledger: AccuracyLedger | None = None,
        drift: DriftDetector | None = None,
        journal_dir: str | Path | None = None,
        journal_fsync: bool = True,
        crash_after_steps: int | None = None,
    ) -> None:
        if strategy not in (IRES_REPLAN, TRIVIAL_REPLAN):
            raise ValueError(f"unknown replanning strategy {strategy!r}")
        self.cloud = cloud
        self.planner = planner
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.ledger = ledger if ledger is not None else NULL_LEDGER
        self.drift = drift
        if drift is not None and drift.observe not in self.ledger.listeners:
            self.ledger.listeners.append(drift.observe)
        #: run_id -> provenances of that run's planning passes (newest-last,
        #: bounded; the ``GET /explain/{run_id}`` data source)
        self.explains: "OrderedDict[str, list]" = OrderedDict()
        self.max_explains = 64
        self.fault_injector = fault_injector
        self.strategy = strategy
        self.max_replans = max_replans
        self.health_checks = health_checks
        self.resilience = (
            resilience if resilience is not None
            else ResilienceManager(collector=cloud.collector)
        )
        self.failure_detection_seconds = failure_detection_seconds
        #: when set, every run write-ahead journals its state under this
        #: directory (one ``<run_id>.jsonl`` per run) and becomes resumable
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        self.journal_fsync = journal_fsync
        #: crash-test hook: SIGKILL the process after journaling N steps
        self.crash_after_steps = crash_after_steps

    # -- public -------------------------------------------------------------
    def execute(
        self,
        workflow: AbstractWorkflow,
        cache=None,
        *,
        run_id: str | None = None,
        control: RunControl | None = None,
        resume_from: RecoveredRun | None = None,
    ) -> ExecutionReport:
        """Plan, enforce and (on failures) replan one workflow.

        ``cache`` (a :class:`~repro.execution.cache.ResultCache`) enables
        cross-execution reuse: steps whose computation the cache has already
        seen enter planning as materialized results, so only the new suffix
        of the workflow runs.

        ``control`` wires in cooperative cancellation and a wall-clock
        deadline (checked at step boundaries and inside retry loops);
        ``resume_from`` seeds the run with a recovered journal's completed
        steps, so only the unfinished suffix is planned and executed.
        When ``journal_dir`` is configured, every state change is
        write-ahead journaled and the run survives a scheduler crash.
        """
        if run_id is None:
            run_id = resume_from.run_id if resume_from is not None else new_run_id()
        journal = self._open_journal(run_id)
        tenant = current_tenant() or ""
        with bind_run_id(run_id):
            with self.tracer.span(
                f"execute:{workflow.name}", category="executor",
                workflow=workflow.name, strategy=self.strategy,
                tenant=tenant,
            ) as span:
                if journal is not None:
                    if resume_from is not None:
                        journal.append(
                            RUN_RESUMED, workflow=workflow.name,
                            recoveredSteps=len(resume_from.finished_steps),
                            tenant=tenant)
                    else:
                        journal.append(RUN_ADMITTED, workflow=workflow.name,
                                       strategy=self.strategy, tenant=tenant)
                try:
                    report = self._execute_inner(
                        workflow, cache, run_id, journal=journal,
                        control=control, resume_from=resume_from)
                except (RunCancelled, RunDeadlineExceeded) as exc:
                    state = ("cancelled" if isinstance(exc, RunCancelled)
                             else "deadline")
                    _RUNS.inc(status=state, run_id=run_id)
                    _LOG.warning("run_stopped", workflow=workflow.name,
                                 state=state, error=str(exc))
                    self._close_journal(journal, state, error=str(exc))
                    raise
                except KeyboardInterrupt:
                    # SIGINT: journal a resumable state before propagating
                    _RUNS.inc(status="interrupted", run_id=run_id)
                    _LOG.warning("run_interrupted", workflow=workflow.name)
                    self._close_journal(journal, "interrupted",
                                        error="SIGINT")
                    raise
                except Exception as exc:
                    _RUNS.inc(status="failed", run_id=run_id)
                    _LOG.error("run_failed", workflow=workflow.name,
                               error=str(exc))
                    self._close_journal(journal, "failed", error=str(exc))
                    raise
                if self.tracer.enabled:
                    span.set_attribute("replans", report.replans)
                    span.set_attribute("retries", report.retries)
                    span.set_attribute("sim_time", report.sim_time)
        if journal is not None:
            journal.append(RUN_FINISHED, state="succeeded",
                           simTime=report.sim_time, replans=report.replans,
                           retries=report.retries,
                           steps=len(report.executions),
                           recoveredSteps=report.recovered_steps)
            journal.close()
        _RUNS.inc(status="ok", run_id=run_id)
        _LOG.info("run_finished", workflow=workflow.name,
                  sim_time=report.sim_time, replans=report.replans,
                  retries=report.retries, steps=len(report.executions))
        return report

    def resume(
        self,
        workflow: AbstractWorkflow,
        recovered: RecoveredRun | str | Path,
        cache=None,
        control: RunControl | None = None,
    ) -> ExecutionReport:
        """Resume a journaled run: replay its journal, run only the rest.

        ``recovered`` is a :class:`RecoveredRun` (or a journal path to
        recover from).  Completed steps enter planning as materialized
        results — they are never re-executed — and the journal is appended
        in place, preserving the full run history across the crash.
        """
        if not isinstance(recovered, RecoveredRun):
            recovered = recover(recovered)
        return self.execute(workflow, cache, run_id=recovered.run_id,
                            control=control, resume_from=recovered)

    def _open_journal(self, run_id: str) -> RunJournal | None:
        if self.journal_dir is None:
            return None
        return RunJournal(journal_path(self.journal_dir, run_id),
                          run_id=run_id, fsync=self.journal_fsync,
                          crash_after_steps=self.crash_after_steps)

    @staticmethod
    def _close_journal(journal: RunJournal | None, state: str,
                       error: str = "") -> None:
        if journal is None:
            return
        journal.append(RUN_FINISHED, state=state, error=error)
        journal.close()

    def _execute_inner(
        self, workflow: AbstractWorkflow, cache, run_id: str,
        journal: RunJournal | None = None,
        control: RunControl | None = None,
        resume_from: RecoveredRun | None = None,
    ) -> ExecutionReport:
        report = ExecutionReport(
            workflow=workflow.name, strategy=self.strategy, succeeded=False,
            sim_time=0.0, run_id=run_id,
        )
        sim_start = self.cloud.clock.now
        completed: dict[str, Dataset] = {}
        if resume_from is not None:
            completed.update(resume_from.completed)
            report.recovered_steps = len(resume_from.finished_steps)
        if cache is not None:
            # probe with a throwaway plan, then replan around the cached prefix
            probe = self._plan(workflow, completed, report)
            completed.update(cache.seed_completed(probe.steps))
            report.plans.clear()
            report.planning_seconds.clear()
            report.provenances.clear()
            report.cached_plans = 0
            if report.run_id in self.explains:
                self.explains[report.run_id].clear()
        #: dataset name -> HDFS path of its real artifact (the data plane)
        payload_paths: dict[str, str] = {}
        for dataset in workflow.datasets.values():
            path = hdfs_path(dataset.path)
            if path is not None:
                payload_paths[dataset.name] = path
        plan = self._plan(workflow, completed, report, journal=journal)
        steps = list(plan.steps)
        cursor = 0
        while cursor < len(steps):
            if control is not None:
                control.check()
            step = steps[cursor]
            if self.fault_injector is not None and step.abstract_name:
                self.fault_injector.on_operator_start(step.abstract_name)
            if self.health_checks:
                self.cloud.cluster.run_health_checks()
            if journal is not None:
                journal.append(
                    STEP_STARTED, index=cursor,
                    abstract=step.abstract_name, operator=step.operator.name,
                    engine="move" if step.is_move else (step.engine or ""),
                    simStart=self.cloud.clock.now)
            try:
                self._enforce_with_resilience(step, report, payload_paths,
                                              workflow.name, control=control)
            except EngineError as exc:
                if journal is not None:
                    journal.append(
                        STEP_FINISHED, index=cursor, success=False,
                        abstract=step.abstract_name,
                        operator=step.operator.name,
                        engine="move" if step.is_move else (step.engine or ""),
                        error=str(exc))
                report.failures.append(f"{step.operator.name}@{step.engine}: {exc}")
                if report.replans >= self.max_replans:
                    raise ExecutionFailed(
                        f"workflow {workflow.name!r} failed after "
                        f"{report.replans} replans"
                    ) from exc
                report.replans += 1
                _REPLANS.inc(run_id=run_id)
                _LOG.warning("replanning", workflow=workflow.name,
                             strategy=self.strategy, replan=report.replans,
                             failed_step=step.operator.name,
                             engine=step.engine)
                if self.strategy == TRIVIAL_REPLAN:
                    completed.clear()
                if journal is not None:
                    journal.append(REPLAN, reason="failure",
                                   replan=report.replans,
                                   failedStep=step.operator.name,
                                   engine=step.engine or "")
                plan = self._plan(workflow, completed, report, journal=journal)
                steps = list(plan.steps)
                cursor = 0
                continue
            for out in step.outputs:
                done = Dataset(out.name, out.metadata.copy(), materialized=True)
                completed[out.name] = done
                if out.store == "HDFS" and getattr(self.cloud, "hdfs", None):
                    self.cloud.hdfs.put(
                        f"/intermediates/{workflow.name}/{out.name}",
                        out.size, overwrite=True)
            if journal is not None:
                execution = report.executions[-1] if report.executions else None
                journal.append(
                    STEP_FINISHED, index=cursor, success=True,
                    abstract=step.abstract_name, operator=step.operator.name,
                    engine="move" if step.is_move else (step.engine or ""),
                    simSeconds=execution.sim_seconds if execution else 0.0,
                    attempt=execution.attempt if execution else 1,
                    outputs=[dataset_payload(completed[out.name])
                             for out in step.outputs])
            if cache is not None:
                cache.store(step)
            cursor += 1
            if (self.drift is not None and cursor < len(steps)
                    and self.drift.take_replan_hint()
                    and report.replans < self.max_replans):
                # a drift alarm asked for fresh plans: the remaining steps
                # were costed by a model we now know to be wrong
                report.replans += 1
                _REPLANS.inc(run_id=run_id)
                _LOG.info("drift_replan", workflow=workflow.name,
                          completed_steps=cursor)
                if journal is not None:
                    journal.append(REPLAN, reason="drift",
                                   replan=report.replans,
                                   completedSteps=cursor)
                plan = self._plan(workflow, completed, report, journal=journal)
                steps = list(plan.steps)
                cursor = 0
        report.succeeded = True
        report.sim_time = self.cloud.clock.now - sim_start
        return report

    # -- internals -----------------------------------------------------------
    def _plan(
        self,
        workflow: AbstractWorkflow,
        completed: dict[str, Dataset],
        report: ExecutionReport,
        journal: RunJournal | None = None,
    ) -> MaterializedPlan:
        available = self.cloud.available_engines()
        open_set: set[str] = set()
        if self.resilience is not None:
            open_set = self.resilience.open_engines(self.cloud.clock.now)
            available = available - open_set
        wall_start = time.perf_counter()
        try:
            plan = self.planner.plan(
                workflow,
                available_engines=available | {"move"},
                materialized_results=dict(completed),
            )
        except PlanningError as exc:
            if not open_set:
                raise ExecutionFailed(str(exc)) from exc
            # Routing around every open breaker left no feasible plan; force
            # the sick engines into half-open probes and plan over them.
            try:
                plan = self.planner.plan(
                    workflow,
                    available_engines=self.cloud.available_engines() | {"move"},
                    materialized_results=dict(completed),
                )
            except PlanningError as exc2:
                raise ExecutionFailed(str(exc2)) from exc2
            self.resilience.on_breaker_override(self.cloud.clock.now, open_set)
        report.planning_seconds.append(time.perf_counter() - wall_start)
        report.plans.append(plan)
        if getattr(self.planner, "last_plan_cached", False):
            report.cached_plans += 1
        if journal is not None:
            from repro.core.plancache import workflow_digest

            library = getattr(self.planner, "library", None)
            plan_cache = getattr(self.planner, "plan_cache", None)
            journal.append(PLAN_CHOSEN, **plan_payload(
                plan,
                digest=workflow_digest(workflow),
                library_epoch=getattr(library, "epoch", None),
                model_epoch=getattr(plan_cache, "model_epoch", None),
                planning_seconds=report.planning_seconds[-1],
                cached=bool(getattr(self.planner, "last_plan_cached", False)),
            ))
        prov = getattr(self.planner, "last_provenance", None)
        if self.planner.record_provenance and prov is not None:
            report.provenances.append(prov)
            run_id = report.run_id or current_run_id() or ""
            slot = self.explains.setdefault(run_id, [])
            slot.append(prov)
            while len(self.explains) > self.max_explains:
                self.explains.popitem(last=False)
        return plan

    def explain_report(self, run_id: str | None = None) -> dict | None:
        """The explain report of one run (newest when ``run_id`` is None).

        Serializes every planning pass of the run via
        :meth:`~repro.core.provenance.PlanProvenance.explain`, annotated
        with the ledger's current model-error statistics.  Returns None
        when the run is unknown or provenance recording was off.
        """
        if run_id is None:
            if not self.explains:
                return None
            run_id = next(reversed(self.explains))
        provenances = self.explains.get(run_id)
        if not provenances:
            return None
        ledger = self.ledger if self.ledger.enabled else None
        return {
            "run_id": run_id,
            "plans": [p.explain(ledger=ledger) for p in provenances],
        }

    def _enforce_with_resilience(
        self,
        step: PlanStep,
        report: ExecutionReport,
        payload_paths: dict[str, str],
        workflow_name: str,
        control: RunControl | None = None,
    ) -> None:
        """Enforce one step, absorbing transient faults with retries.

        Transient failures (:class:`TransientEngineError`, including step
        timeouts) are retried in place up to the retry policy's budget, with
        exponential backoff charged to the simulated clock.  Every failure
        feeds the engine's circuit breaker; permanent errors — and transient
        ones once retries are exhausted or the breaker opens — propagate to
        the replanning loop in :meth:`execute`.  ``control`` is checked
        before every attempt, so cancellation and deadlines cut retry loops
        short instead of waiting out the backoff budget.
        """
        # both read operator meta-data: look them up once for the span and
        # the retry loop alike
        is_move = step.is_move
        engine_name = "move" if is_move else (step.engine or "")
        if not self.tracer.enabled:
            self._run_step_resilient(step, is_move, engine_name, report,
                                     payload_paths, workflow_name, None,
                                     control)
            return
        with self.tracer.span(
            f"step:{step.operator.name}", category="executor",
            operator=step.operator.name,
            engine=engine_name,
            abstract=step.abstract_name or "",
            inputs=[d.name for d in step.inputs],
            outputs=[d.name for d in step.outputs],
        ) as span:
            self._run_step_resilient(step, is_move, engine_name, report,
                                     payload_paths, workflow_name, span,
                                     control)

    def _run_step_resilient(
        self, step, is_move, engine_name, report, payload_paths,
        workflow_name, span, control=None
    ) -> None:
        resilience = self.resilience
        if resilience is None or is_move:
            self._enforce_step(step, report, payload_paths, workflow_name)
            if span is not None and report.executions:
                span.set_attribute(
                    "sim_seconds", report.executions[-1].sim_seconds)
            return
        policy = resilience.retry_policy
        attempt = 0
        while True:
            attempt += 1
            if control is not None:
                # cancellation / deadline preempts further (re)tries
                control.check()
            if not resilience.allow(engine_name, self.cloud.clock.now):
                if span is not None:
                    span.add_event("breaker_open", engine=engine_name)
                raise EngineUnavailableError(
                    f"circuit breaker open for engine {engine_name!r}"
                )
            try:
                self._enforce_step(step, report, payload_paths, workflow_name,
                                   attempt=attempt)
            except TransientEngineError as exc:
                now = self.cloud.clock.now
                resilience.on_failure(engine_name, now, exc)
                if attempt >= policy.max_attempts:
                    raise
                if not resilience.allow(engine_name, now):
                    if span is not None:
                        span.add_event("breaker_open", engine=engine_name)
                    raise
                backoff = policy.backoff_seconds(
                    attempt, salt=f"{step.operator.name}@{engine_name}")
                self.cloud.clock.advance(backoff)
                resilience.on_retry(engine_name, self.cloud.clock.now,
                                    attempt, backoff)
                report.retries += 1
                if span is not None:
                    span.add_event("retry", engine=engine_name,
                                   attempt=attempt, backoff_seconds=backoff,
                                   error=str(exc))
            except EngineError as exc:
                resilience.on_failure(engine_name, self.cloud.clock.now, exc)
                raise
            else:
                resilience.on_success(engine_name, self.cloud.clock.now)
                if span is not None:
                    span.set_attribute("attempts", attempt)
                    if report.executions:
                        span.set_attribute(
                            "sim_seconds", report.executions[-1].sim_seconds)
                return

    def _enforce_step(
        self,
        step: PlanStep,
        report: ExecutionReport,
        payload_paths: dict[str, str] | None = None,
        workflow_name: str = "",
        attempt: int = 1,
    ) -> None:
        payload_paths = payload_paths if payload_paths is not None else {}
        started = self.cloud.clock.now
        if step.is_move:
            src = step.inputs[0].store
            dst = step.outputs[0].store
            seconds = self.cloud.move(step.inputs[0].size, src, dst)
            report.executions.append(
                StepExecution(step, "move", seconds, started, success=True)
            )
            _STEPS.inc(engine="move", status="ok",
                       run_id=current_run_id() or "")
            _STEP_SECONDS.observe(seconds, engine="move")
            if self.ledger.enabled:
                self.ledger.record_step(
                    run_id=report.run_id or current_run_id() or "",
                    workflow=workflow_name,
                    step=step.operator.name,
                    operator="move",
                    engine="move",
                    predicted=step.predicted,
                    actual={"execTime": seconds},
                    at=started,
                    index=len(report.executions) - 1,
                    attempt=attempt,
                )
            return
        engine = self.cloud.engines.get(step.engine or "")
        if engine is None:
            raise EngineUnavailableError(f"engine {step.engine!r} is not deployed")
        workload = workload_from_inputs(step.operator, step.inputs)
        if step.resources:
            resources = Resources(
                cores=int(step.resources.get("cores", 4)),
                memory_gb=float(step.resources.get("memory_gb", 8.0)),
            )
        else:
            resources = resources_for(step.operator, self.cloud)
        outcome = (
            self.fault_injector.transient_outcome(engine.name)
            if self.fault_injector is not None else TransientOutcome()
        )
        estimate = self._safe_estimate(engine, step, workload, resources)
        if outcome.fails:
            # A transient crash partway through: the work done before the
            # failure was detected is real and stays on the simulated clock.
            partial = (estimate or 0.0) * outcome.work_fraction * outcome.slowdown
            self._fail_step(step, report, engine.name, workload, resources,
                            partial, started, attempt,
                            f"transient fault on {engine.name} after "
                            f"{outcome.work_fraction:.0%} of the work")
            raise TransientEngineError(
                f"transient fault on engine {engine.name} while running "
                f"{step.operator.name}"
            )
        deadline = (
            self.resilience.timeout_for(estimate)
            if self.resilience is not None else None
        )
        projected = (estimate or 0.0) * outcome.slowdown
        if deadline is not None and estimate is not None and projected > deadline:
            # A straggler: we wait until the deadline, then kill the attempt.
            self._fail_step(step, report, engine.name, workload, resources,
                            deadline, started, attempt,
                            f"step exceeded its {deadline:.1f}s deadline "
                            f"(projected {projected:.1f}s)")
            raise StepTimeoutError(
                f"{step.operator.name} on {engine.name} exceeded its "
                f"{deadline:.1f}s deadline"
            )
        impl, impl_input = self._data_plane_inputs(step, payload_paths)
        try:
            result = engine.execute(
                step.operator.algorithm,
                workload,
                resources=resources,
                operator_name=step.operator.name,
                impl=impl,
                impl_input=impl_input,
            )
        except EngineError as exc:
            # Noticing a failed submission costs a health-probe round-trip.
            detect = self.failure_detection_seconds
            self.cloud.clock.advance(detect)
            report.executions.append(
                StepExecution(step, engine.name, detect, started, success=False,
                              error=str(exc), attempt=attempt,
                              cores=resources.cores)
            )
            _STEPS.inc(engine=engine.name, status="failed",
                       run_id=current_run_id() or "")
            _STEP_SECONDS.observe(detect, engine=engine.name)
            raise
        sim_seconds = result.record.exec_time * outcome.slowdown
        if outcome.slowdown > 1.0:
            # the straggler's extra time is charged by the enforcer
            self.cloud.clock.advance(
                result.record.exec_time * (outcome.slowdown - 1.0))
        if result.output is not None and getattr(self.cloud, "hdfs", None):
            for out in step.outputs:
                path = f"/artifacts/{workflow_name}/{out.name}"
                self.cloud.hdfs.put(path, out.size, payload=result.output,
                                    overwrite=True)
                payload_paths[out.name] = path
        report.executions.append(
            StepExecution(step, engine.name, sim_seconds, started,
                          success=True, attempt=attempt, cores=resources.cores)
        )
        _STEPS.inc(engine=engine.name, status="ok",
                   run_id=current_run_id() or "")
        _STEP_SECONDS.observe(sim_seconds, engine=engine.name)
        if self.ledger.enabled:
            self.ledger.record_step(
                run_id=report.run_id or current_run_id() or "",
                workflow=workflow_name,
                step=step.operator.name,
                operator=step.operator.algorithm,
                engine=engine.name,
                predicted=step.predicted,
                actual={
                    "execTime": sim_seconds,
                    "cost": monetary_cost(resources, sim_seconds),
                },
                at=started,
                index=len(report.executions) - 1,
                attempt=attempt,
            )

    def _safe_estimate(self, engine, step, workload, resources) -> float | None:
        """Noise-free runtime estimate, or None when the profile can't say."""
        try:
            return engine.true_seconds(step.operator.algorithm, workload,
                                       resources)
        except (EngineError, KeyError):
            return None

    def _fail_step(
        self, step, report, engine_name, workload, resources,
        sim_seconds, started, attempt, error,
    ) -> None:
        """Charge a failed attempt to the clock and both record stores."""
        if sim_seconds > 0:
            self.cloud.clock.advance(sim_seconds)
        self.cloud.collector.record(MetricRecord(
            operator=step.operator.name,
            algorithm=step.operator.algorithm,
            engine=engine_name,
            exec_time=sim_seconds,
            started_at=started,
            success=False,
            error=error,
            input_size=workload.size_gb * 1e9,
            input_count=workload.count,
            cores=resources.cores,
            memory_gb=resources.memory_gb,
            params=dict(workload.params),
        ))
        report.executions.append(
            StepExecution(step, engine_name, sim_seconds, started,
                          success=False, error=error, attempt=attempt,
                          cores=resources.cores)
        )
        _STEPS.inc(engine=engine_name, status="failed",
                   run_id=current_run_id() or "")
        _STEP_SECONDS.observe(sim_seconds, engine=engine_name)

    def _data_plane_inputs(self, step: PlanStep, payload_paths: dict[str, str]):
        """Resolve the real input artifacts for an operator's ``impl``.

        Returns ``(impl, payload)`` — the single payload when the operator
        has one input, a list when it has several — or ``(None, None)`` when
        the operator has no implementation or some input has no artifact.
        """
        impl = getattr(step.operator, "impl", None)
        hdfs = getattr(self.cloud, "hdfs", None)
        if impl is None or hdfs is None:
            return None, None
        payloads = []
        for dataset in step.inputs:
            path = payload_paths.get(dataset.name) or hdfs_path(dataset.path)
            if path is None or not hdfs.exists(path):
                return None, None
            payload = hdfs.get(path)
            if payload is None:
                return None, None
            payloads.append(payload)
        if not payloads:
            return None, None
        return impl, payloads[0] if len(payloads) == 1 else payloads
