"""plan-pegasus: cold ``Planner.plan`` calls on large Pegasus workflows.

Batch, one plan at a time.  A cycle plans one Montage of about 1000
tasks and one Epigenomics of about 400, each against an 8-engine
synthetic library.  The cycles come from a fixed pool of 32 entries,
visited in an order drawn from the workload seed; each entry has its own
workflow seed and size (Montage 984-1015 tasks, Epigenomics 384-415), so
every plan is a new workflow, and every plan uses a fresh planner, so no
cache can answer it.  (At one size the workflow seed alone does not
change the plan.)  The sizes stay within 4% of the nominal ones, so the
median of a run's three cycles does not swing with the sizes drawn.
The library seed is fixed per category: it alone sets which engines a
plan moves data between, and across library seeds the cost of the same
Montage plan spans a factor of nine, which the three cycles of a run
could not average out.  Each plan's time is host-normalized
(``harness.HostClock``).

Why: metadata match/copy is most of cold-plan time.  The workload does no
execution, refits or journal writes, so a change to those layers should
leave it unchanged.  Each plan's step count and cost must equal the
golden recorded for its pool entry in ``goldens.json``.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench.harness import (Context, HostClock, Outcome,
                               latency_summary, repeat)
from perfbench.layers import LayerTrace, layer_metrics
from repro.core import Planner
from repro.core.planner import MetadataCostEstimator
from repro.workflows import generate, synthetic_library

GOLDENS = Path(__file__).with_name("goldens.json")
#: pool entries: a run visits them in a seed-drawn order
POOL = 32
#: relative tolerance on a plan's cost against its golden
COST_RTOL = 1e-9


@dataclass(frozen=True)
class Shape:
    """Workflow sizes of one mode of the workload."""

    montage: int
    epigenomics: int
    #: task-count change per pool entry
    montage_step: int
    epigenomics_step: int
    engines: int
    #: cycles every run measures, whatever ``--seconds`` says; the metrics
    #: come from these alone (cycle time grows as a process plans more, so
    #: a count that varied with host speed would move the figures)
    cycles: int


FULL = Shape(montage=1000, epigenomics=400, montage_step=1,
             epigenomics_step=1, engines=8, cycles=3)
FAST = Shape(montage=60, epigenomics=40, montage_step=0, epigenomics_step=1,
             engines=4, cycles=2)
MONTAGE_LIBRARY_SEED = 2
EPIGENOMICS_LIBRARY_SEED = 4


@dataclass(frozen=True)
class PlanInput:
    """One plan to make: a workflow category and size and its seeds."""

    category: str
    size: int
    engines: int
    workflow_seed: int
    library_seed: int

    @property
    def key(self) -> str:
        """The plan's key in ``goldens.json``."""
        return (f"{self.category}-{self.size}-e{self.engines}"
                f"-w{self.workflow_seed}-l{self.library_seed}")

    def build(self):
        """The abstract workflow and its operator library."""
        workflow = generate(self.category, self.size, seed=self.workflow_seed)
        library = synthetic_library(workflow, self.engines,
                                    seed=self.library_seed)
        return workflow, library


def cycle(shape: Shape, entry: int) -> tuple[PlanInput, PlanInput]:
    """The two plans of pool entry ``entry``."""
    offset = entry - POOL // 2
    return (
        PlanInput("Montage", shape.montage + shape.montage_step * offset,
                  shape.engines, 1000 + entry, MONTAGE_LIBRARY_SEED),
        PlanInput("Epigenomics",
                  shape.epigenomics + shape.epigenomics_step * offset,
                  shape.engines, 3000 + entry, EPIGENOMICS_LIBRARY_SEED),
    )


def cycle_order(seed: int) -> list[int]:
    """The pool entries a run visits, in order."""
    return [int(k) for k in np.random.default_rng(seed).permutation(POOL)]


def plan(workflow, library):
    """One cold plan with a fresh planner."""
    return Planner(library, MetadataCostEstimator()).plan(workflow)


def load_goldens() -> dict[str, dict]:
    """The recorded step counts and costs, by plan key."""
    return json.loads(GOLDENS.read_text())


def check_plan(result, golden: dict | None) -> str | None:
    """Compare a plan with its golden; returns the mismatch or None."""
    if golden is None:
        return "no golden recorded"
    steps = len(result.steps)
    if steps != golden["steps"]:
        return f"{steps} steps, golden {golden['steps']}"
    if not math.isclose(result.cost, golden["cost"], rel_tol=COST_RTOL):
        return f"cost {result.cost!r}, golden {golden['cost']!r}"
    return None


def _plan_cycle(inputs, goldens, errors: list[str],
                clock: HostClock | None = None):
    """Plan a cycle; returns (plan seconds, wall plan seconds, summed cost,
    operators, fails).  With a ``clock`` each plan's time is
    host-normalized; without one the two times are the same."""
    seconds = wall = cost = 0.0
    operators = failed = 0
    for item in inputs:
        workflow, library = item.build()

        def timed():
            start = time.perf_counter()
            result = plan(workflow, library)
            return result, time.perf_counter() - start

        if clock is None:
            (result, elapsed), factor = timed(), 1.0
        else:
            (result, elapsed), factor = clock.around(timed)
        seconds += elapsed * factor
        wall += elapsed
        cost += result.cost
        operators += len(workflow.operators)
        mismatch = check_plan(result, goldens.get(item.key))
        if mismatch is not None:
            failed += 1
            errors.append(f"{item.key}: {mismatch}")
    return seconds, wall, cost, operators, failed


def run(ctx: Context) -> Outcome:
    """Plan ``shape.cycles`` cycles, and more until ``ctx.seconds``."""
    shape = FAST if ctx.fast else FULL
    order = cycle_order(ctx.seed)
    build_seconds = []
    for _ in range(3):
        start = time.perf_counter()
        goldens = load_goldens()
        for item in cycle(shape, order[0]):
            item.build()
        build_seconds.append(time.perf_counter() - start)
    if ctx.trace:
        return _traced(ctx, shape, order, goldens, build_seconds)

    errors: list[str] = []
    clock = HostClock()
    results = repeat(
        lambda i: _plan_cycle(cycle(shape, order[i % POOL]), goldens, errors,
                              clock),
        shape.cycles, ctx.seconds)
    measured = results[:shape.cycles]
    cycle_seconds = [seconds for seconds, *_rest in measured]
    latency = latency_summary(cycle_seconds)
    return Outcome(
        metrics={
            "latency_p50_s": latency["latency_p50_s"],
            "latency_tail_s": latency["latency_tail_s"],
            "throughput_per_s": (
                sum(ops for _s, _w, _c, ops, _f in measured)
                / sum(cycle_seconds)),
            "sim_s": sum(cost for _s, _w, cost, _ops, _f in measured),
            # one plan at a time: nothing shares the host with a plan
            "slowdown_p50": 1.0,
        },
        attempted=2 * len(results),
        failed=sum(fails for *_rest, fails in results),
        errors=errors, build_seconds=build_seconds,
        details={"cycles": len(results), "latency": latency,
                 "cycleSeconds": cycle_seconds,
                 "wallCycleSeconds": [wall for _s, wall, *_r in measured]},
    )


def _traced(ctx, shape, order, goldens, build_seconds) -> Outcome:
    """One cycle untraced, then the same cycle traced."""
    errors: list[str] = []
    inputs = cycle(shape, order[0])
    untraced, _wall, _cost, _ops, failed = _plan_cycle(inputs, goldens,
                                                       errors)
    with LayerTrace() as trace:
        trace.unit = f"cycle-{order[0]}"
        trace.enabled = True
        traced, _wall, _cost, _ops, fails = _plan_cycle(inputs, goldens,
                                                        errors)
        trace.enabled = False
    trace.write(ctx.out_dir / f"trace-plan-pegasus-{ctx.seed}.json")
    return Outcome(
        metrics=layer_metrics(trace, units=1, extra={},
                              overhead_share=traced / untraced - 1.0),
        attempted=4, failed=failed + fails, errors=errors,
        build_seconds=build_seconds,
        details={"selfSeconds": trace.self_times(),
                 "untracedSeconds": untraced, "tracedSeconds": traced},
    )


def record_goldens() -> dict[str, dict]:
    """Plan every pool entry of both modes; returns the golden table."""
    goldens = {}
    for shape in (FAST, FULL):
        for entry in range(POOL):
            for item in cycle(shape, entry):
                result = plan(*item.build())
                goldens[item.key] = {"steps": len(result.steps),
                                     "cost": result.cost}
    return goldens

