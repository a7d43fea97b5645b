"""cluster-burst: a K=64 burst of plans on one shared DAGPS cluster loop.

Batch, one burst at a time.  The burst is the shared-cluster mix: 16 wide
Montage-40 runs admitted first, then Montage-8 and relational-analytics
runs alternating behind them, 936 steps in all.  The plans are built in
set-up; each burst admits all 64 runs to a fresh
``ClusterScheduler(policy="dagps")`` over a clone of the cloud's cluster
and drives it until idle.  Run ``i`` of workload seed ``s`` simulates
with seed ``64 * s + i`` and the loop with seed ``s``, so seed 0 is the
original burst.

Why: it loads the event loop and container placement and does no
planning or refits; most ``allocate`` calls find no room.  Every run must
succeed and the loop's ``stepsPlaced`` must equal the summed schedules.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from perfbench.harness import (Context, HostClock, Outcome,
                               latency_summary, repeat)
from perfbench.layers import LayerTrace, layer_metrics
from repro.core import IReS
from repro.engines.base import PerfModel
from repro.execution.cluster import ClusterScheduler
from repro.execution.parallel import ParallelSimulator
from repro.scenarios import setup_relational_analytics
from repro.workflows.pegasus import generate, synthetic_library

POLICY = "dagps"
#: bursts every run measures (full and fast mode); the metrics come from
#: these alone, so a faster program does not change what is measured
BURSTS = 7
BURSTS_FAST = 3


@dataclass
class Burst:
    """The platform, the admission order and the isolated makespans."""

    ires: IReS
    mix: list
    run_seeds: list[int]
    loop_seed: int
    isolated: list[float]


def build(seed: int, k: int) -> Burst:
    """Plan the three workflow shapes and lay out a K-run burst."""
    ires = IReS()
    make_relational = setup_relational_analytics(ires)
    big = generate("Montage", 40, seed=3)
    small = generate("Montage", 8, seed=5)
    algorithms = sorted({op.algorithm for wf in (big, small)
                         for op in wf.operators.values()})
    for j in range(3):
        ires.cloud.add_engine(
            f"engine{j}",
            profiles={alg: PerfModel(fixed=0.4 + 0.3 * j, per_unit=1e-9)
                      for alg in algorithms})
    known = set()
    for op in list(synthetic_library(big, 3, seed=4)) + list(
            synthetic_library(small, 3, seed=6)):
        if op.name not in known:
            known.add(op.name)
            ires.register_operator(op)
    plans = {
        "montage-40": ires.plan(big),
        "montage-8": ires.plan(small),
        "relational": ires.plan(make_relational(0.5)),
    }
    n_big = max(1, k // 4)
    smalls = [plans["montage-8"], plans["relational"]]
    mix = [plans["montage-40"]] * n_big + [
        smalls[i % 2] for i in range(k - n_big)]
    run_seeds = [k * seed + i for i in range(k)]
    isolated = [
        ParallelSimulator(ires.cloud, seed=run_seed,
                          charge_clock=False).simulate(plan).makespan
        for plan, run_seed in zip(mix, run_seeds)
    ]
    return Burst(ires, mix, run_seeds, seed, isolated)


def drive(burst: Burst):
    """Admit the burst to a fresh loop and run it until idle.

    Returns (host seconds, the loop, its runs).
    """
    ires = burst.ires
    start = time.perf_counter()
    loop = ClusterScheduler(ires.cloud, policy=POLICY,
                            cluster=ires.cloud.cluster.clone(),
                            seed=burst.loop_seed)
    runs = [loop.submit(plan, seed=run_seed, run_id=f"burst-{i}")
            for i, (plan, run_seed) in enumerate(zip(burst.mix,
                                                     burst.run_seeds))]
    loop.run_until_idle()
    return time.perf_counter() - start, loop, runs


def check_burst(runs, steps_placed: int) -> list[str]:
    """Every run succeeded and the loop placed exactly the scheduled steps."""
    errors = []
    for run in runs:
        if run.report is None or not run.report.succeeded:
            failures = [] if run.report is None else run.report.failures
            errors.append(f"{run.run_id} did not succeed: "
                          f"{[f.error for f in failures][:2]}")
    scheduled = sum(len(run.report.schedule) for run in runs
                    if run.report is not None)
    if steps_placed != scheduled:
        errors.append(f"stepsPlaced {steps_placed} != scheduled {scheduled}")
    return errors


def run(ctx: Context) -> Outcome:
    """Drive ``BURSTS`` bursts, and more until ``ctx.seconds``."""
    k = 8 if ctx.fast else 64
    build_seconds = []
    for _ in range(3):
        start = time.perf_counter()
        burst = build(ctx.seed, k)
        build_seconds.append(time.perf_counter() - start)
    if ctx.trace:
        return _traced(ctx, burst, build_seconds)

    errors: list[str] = []
    clock = HostClock()

    def one(index: int):
        (elapsed, loop, runs), factor = clock.around(lambda: drive(burst))
        placed = loop.snapshot()["stepsPlaced"]
        problems = check_burst(runs, placed)
        errors.extend(problems)
        return elapsed, factor, placed, bool(problems), (
            runs if index == 0 else None)

    bursts = BURSTS_FAST if ctx.fast else BURSTS
    results = repeat(one, bursts, ctx.seconds)
    measured = results[:bursts]
    seconds = [elapsed * factor for elapsed, factor, _p, _b, _r in measured]
    first_runs = results[0][4]
    latency = latency_summary(seconds)
    return Outcome(
        metrics={
            "latency_p50_s": latency["latency_p50_s"],
            "latency_tail_s": latency["latency_tail_s"],
            "throughput_per_s": statistics.median(
                placed / normalized for (_e, _f, placed, _b, _r), normalized
                in zip(measured, seconds)),
            "sim_s": max(r.finished_at for r in first_runs),
            "slowdown_p50": statistics.median(
                r.report.makespan / alone
                for r, alone in zip(first_runs, burst.isolated)),
        },
        attempted=len(results),
        failed=sum(bad for _e, _f, _p, bad, _r in results),
        errors=errors, build_seconds=build_seconds,
        details={"bursts": len(results), "runsPerBurst": k,
                 "stepsPerBurst": results[0][2], "latency": latency,
                 "wallSeconds": [r[0] for r in measured],
                 "hostFactors": [r[1] for r in measured]},
    )


def _traced(ctx, burst, build_seconds) -> Outcome:
    """One burst untraced, then the same burst traced."""
    untraced, loop, runs = drive(burst)
    errors = check_burst(runs, loop.snapshot()["stepsPlaced"])
    with LayerTrace() as trace:
        trace.unit = "burst"
        trace.enabled = True
        traced, loop, runs = drive(burst)
        trace.enabled = False
    placed = loop.snapshot()["stepsPlaced"]
    traced_errors = check_burst(runs, placed)
    trace.write(ctx.out_dir / f"trace-cluster-burst-{ctx.seed}.json")
    return Outcome(
        metrics=layer_metrics(
            trace, units=1,
            extra={"execution.cluster.steps_placed": float(placed)},
            overhead_share=traced / untraced - 1.0),
        attempted=2, failed=bool(errors) + bool(traced_errors),
        errors=errors + traced_errors, build_seconds=build_seconds,
        details={"selfSeconds": trace.self_times(),
                 "untracedSeconds": untraced, "tracedSeconds": traced},
    )
