"""The IReS platform facade — the library's main entry point.

Wires together the architecture of Figure 1: the interface layer (meta-data
framework, parser), the optimizer layer (profiler/modeler, model refinement,
planner, resource provisioning) and the executor layer (enforcer, execution
monitor) over the multi-engine cloud.

Typical use::

    ires = IReS()
    ires.register_operator(MaterializedOperator("TF_IDF_spark", {...}))
    ires.register_abstract(AbstractOperator("tfidf", {...}))
    ires.register_dataset(Dataset("docs", {...}, materialized=True))
    wf = ires.workflow_from_graph("text", ["docs,tfidf,0", "tfidf,d1,0", "d1,$$target"])
    report = ires.execute(wf)
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.core.dataset import Dataset
from repro.core.estimators import ModelBackedEstimator, OracleEstimator
from repro.core.library import OperatorLibrary
from repro.core.modeler import Modeler
from repro.core.operators import AbstractOperator, MaterializedOperator
from repro.core.plancache import PlanCache
from repro.core.planner import Planner
from repro.core.policy import OptimizationPolicy
from repro.core.profiler import Profiler, ProfileSpec
from repro.engines.monitoring import MetricRecord
from repro.core.provisioning import (
    ProvisioningResult,
    ResourceProvisioner,
    TimeFunction,
)
from repro.core.refinement import ModelRefiner
from repro.core.workflow import AbstractWorkflow, MaterializedPlan
from repro.engines.faults import FaultInjector
from repro.engines.registry import MultiEngineCloud, build_default_cloud
from repro.execution.enforcer import ExecutionReport, IRES_REPLAN, WorkflowExecutor
from repro.execution.resilience import ResilienceManager
from repro.obs.accuracy import AccuracyLedger
from repro.obs.drift import DriftDetector
from repro.obs.tracing import Tracer

if TYPE_CHECKING:  # analysis sits above core in the import graph
    from repro.analysis.diagnostics import DiagnosticCollector
    from repro.execution.journal import RecoveredRun
    from repro.execution.resilience import RunControl


class IReS:
    """Intelligent Multi-Engine Resource Scheduler."""

    def __init__(
        self,
        cloud: MultiEngineCloud | None = None,
        policy: OptimizationPolicy | None = None,
        estimator: str = "oracle",
        refit_every: int = 1,
        strategy: str = IRES_REPLAN,
        resilience: "ResilienceManager | None" = None,
        tracer: Tracer | None = None,
        ledger: AccuracyLedger | None = None,
        drift: DriftDetector | None = None,
        record_provenance: bool = False,
        plan_cache: "PlanCache | bool | None" = True,
        journal_dir: "str | Path | None" = None,
    ) -> None:
        self.cloud = cloud if cloud is not None else build_default_cloud()
        #: platform-wide tracer — every layer's spans land here, stamped
        #: with the shared simulated clock
        self.tracer = (
            tracer if tracer is not None else Tracer(clock=self.cloud.clock)
        )
        self.policy = policy if policy is not None else OptimizationPolicy.min_exec_time()
        self.library = OperatorLibrary()
        self.abstract_operators: dict[str, AbstractOperator] = {}
        self.datasets: dict[str, Dataset] = {}
        #: named workflows registered via the library loader or the API
        self.workflows: dict[str, AbstractWorkflow] = {}
        self.profiler = Profiler(self.cloud)
        self.modeler = Modeler(self.cloud.collector, tracer=self.tracer)
        self.refiner = ModelRefiner(self.modeler, refit_every=refit_every)
        if estimator == "oracle":
            self.estimator = OracleEstimator(self.cloud)
        elif estimator == "models":
            self.estimator = ModelBackedEstimator(self.cloud, self.modeler)
        else:
            raise ValueError(f"estimator must be 'oracle' or 'models', got {estimator!r}")
        #: memoized plans for recurring submissions and warm replans; pass
        #: plan_cache=False (or a configured PlanCache instance) to override.
        #: Invalidation wiring: library add/remove bumps the library epoch;
        #: drift alarms bump the model epoch; a pair falling due for a model
        #: refit bumps it only under estimator="models" (the oracle
        #: estimator ignores trained models, so refits cannot change its
        #: plans — and since fits run on read, it never pays for them).
        if plan_cache is True:
            self.plan_cache: PlanCache | None = PlanCache()
        elif plan_cache is False or plan_cache is None:
            self.plan_cache = None
        else:
            self.plan_cache = plan_cache
        if self.plan_cache is not None:
            self.plan_cache.attach_library(self.library)
            if estimator == "models":
                self.plan_cache.attach_refiner(self.refiner)
            if drift is not None:
                self.plan_cache.attach_drift(drift)
        self.planner = Planner(self.library, self.estimator, self.policy,
                               tracer=self.tracer,
                               record_provenance=record_provenance,
                               plan_cache=self.plan_cache)
        self.provisioner = ResourceProvisioner()
        self.fault_injector = FaultInjector(self.cloud)
        #: prediction-accuracy ledger (disabled NULL ledger unless provided)
        self.ledger = ledger
        #: drift detector over the ledger; alarms drive early windowed
        #: refits through the platform's refiner
        self.drift = drift
        if drift is not None:
            drift.refiner = self.refiner
        from repro.execution.cache import ResultCache

        self.result_cache = ResultCache()
        self.executor = WorkflowExecutor(
            self.cloud, self.planner, fault_injector=self.fault_injector,
            strategy=strategy, resilience=resilience, tracer=self.tracer,
            ledger=ledger, drift=drift, journal_dir=journal_dir,
        )

    @property
    def resilience(self) -> "ResilienceManager | None":
        """The executor's resilience layer (retries + circuit breakers)."""
        return self.executor.resilience

    # -- interface layer -----------------------------------------------------
    def register_operator(self, operator: MaterializedOperator) -> MaterializedOperator:
        """Add a materialized operator to the library."""
        self.library.add(operator)
        return operator

    def register_abstract(self, operator: AbstractOperator) -> AbstractOperator:
        """Register an abstract operator for workflow composition."""
        self.abstract_operators[operator.name] = operator
        return operator

    def register_dataset(self, dataset: Dataset) -> Dataset:
        """Register a (materialized) dataset description."""
        self.datasets[dataset.name] = dataset
        return dataset

    def workflow_from_graph(
        self, name: str, graph_lines: Iterable[str]
    ) -> AbstractWorkflow:
        """Parse a §3.3-style graph file against the registered artefacts."""
        workflow = AbstractWorkflow.from_graph_lines(
            graph_lines, self.datasets, self.abstract_operators, name=name
        )
        self.workflows[name] = workflow
        return workflow

    # -- optimizer layer -------------------------------------------------------
    def profile_operator(self, spec: ProfileSpec, max_runs: int | None = None,
                         shuffle_seed: int | None = None) -> list[MetricRecord]:
        """Offline profiling: run the grid, then (re)train the model."""
        records = self.profiler.profile(spec, max_runs=max_runs,
                                        shuffle_seed=shuffle_seed)
        self.modeler.train(spec.algorithm, spec.engine)
        return records

    def plan(self, workflow: AbstractWorkflow) -> MaterializedPlan:
        """Materialize a workflow against the currently available engines."""
        return self.planner.plan(
            workflow, available_engines=self.cloud.available_engines() | {"move"}
        )

    def lint(self, workflow: str | None = None,
             root: "str | Path | None" = None) -> "DiagnosticCollector":
        """Statically analyze the platform's artefacts (see repro.analysis).

        Returns a :class:`~repro.analysis.diagnostics.DiagnosticCollector`;
        ``root`` optionally points at the on-disk library for file:line
        locations.  Imported lazily — analysis sits above core in the
        import graph.
        """
        from repro.analysis.lint import lint_platform

        return lint_platform(self, workflow=workflow, root=root)

    def provision(self, time_fn: "TimeFunction") -> ProvisioningResult:
        """NSGA-II resource provisioning over an operator's time model."""
        return self.provisioner.provision(time_fn)

    # -- executor layer ---------------------------------------------------------
    def execute(
        self,
        workflow: AbstractWorkflow,
        reuse: bool = False,
        control: "RunControl | None" = None,
        run_id: "str | None" = None,
        resume_from: "RecoveredRun | None" = None,
    ) -> ExecutionReport:
        """Plan and run a workflow with monitoring, refinement and replanning.

        ``reuse=True`` consults (and feeds) the platform's result cache so
        repeated or overlapping workflows skip already-materialized steps.
        ``control`` (a :class:`~repro.execution.resilience.RunControl`)
        enables cooperative cancellation and wall-clock deadlines;
        ``resume_from`` (a recovered journal) resumes a crashed run.
        """
        report = self.executor.execute(
            workflow, cache=self.result_cache if reuse else None,
            control=control, run_id=run_id, resume_from=resume_from)
        for execution in report.executions:
            algorithm = execution.step.operator.algorithm
            if (execution.engine != "move" and execution.success
                    and algorithm is not None):
                self.refiner.observe(algorithm, execution.engine)
        return report

    def recover_run(self, run_id: str,
                    control: "RunControl | None" = None) -> ExecutionReport:
        """Resume a journaled run by id (requires ``journal_dir``).

        Replays ``<journal_dir>/<run_id>.jsonl``, seeds the completed steps
        as materialized results and runs only the unfinished remainder.  The
        workflow named by the journal must be registered on this platform.
        """
        from repro.execution.journal import journal_path, recover

        journal_dir = self.executor.journal_dir
        if journal_dir is None:
            raise ValueError("recovery needs a platform journal_dir")
        recovered = recover(journal_path(journal_dir, run_id))
        workflow = self.workflows.get(recovered.workflow)
        if workflow is None:
            raise KeyError(
                f"journal {run_id!r} names unknown workflow "
                f"{recovered.workflow!r}; available: {sorted(self.workflows)}"
            )
        return self.executor.resume(workflow, recovered, control=control)
