"""Extension — execution service: concurrency, journal overhead, recovery.

Three gates over the durable asyncio service layer
(:mod:`repro.api.service` + :mod:`repro.execution.journal`):

- **concurrency**: a burst of helloworld-chain submissions through an
  8-worker service must genuinely overlap (peak active runs ≥ 8) with the
  queue bounded the whole time, every run succeeding;
- **journal overhead**: write-ahead journaling every state change (with
  per-record ``fsync``) must cost ≤ 5% of the p50 plan+execute wall
  latency of a single run, measured by the ``ires_journal_append_seconds``
  histogram, which times the durable writes exactly (an A/B wall-clock
  diff of millisecond runs is bound by host noise);
- **crash recovery**: killing the scheduler after *every* possible step
  boundary (the deterministic sweep over "kill -9 at a random step"),
  recovery must complete every sampled run with **zero** re-executed
  finished steps.

Results land in ``benchmarks/results/ext_service.txt`` and are serialized
to ``BENCH_service.json`` at the repo root (a CI artifact).
"""

import asyncio
import json
import statistics
import time
from pathlib import Path

import pytest

from figutil import emit
from repro.core import IReS
from repro.execution.journal import journal_path, read_journal, recover
from repro.scenarios import setup_helloworld

REPO_ROOT = Path(__file__).resolve().parent.parent

WORKERS = 8
BURST = 24
QUEUE_LIMIT = 32
#: acceptance gate: journaling may cost at most this fraction of p50 latency
OVERHEAD_CEILING = 0.05
#: latency sample size per mode for the overhead comparison
LATENCY_RUNS = 9


def _platform(journal_dir=None) -> IReS:
    ires = IReS(journal_dir=journal_dir)
    make = setup_helloworld(ires)
    workflow = make()
    ires.workflows[workflow.name] = workflow
    return ires


def _percentile(samples, q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


@pytest.fixture(scope="module")
def service_burst(tmp_path_factory):
    """Push a burst through the service; returns the timing facts."""
    from repro.api.service import IResService

    journal_dir = tmp_path_factory.mktemp("service-journals")

    async def main():
        service = IResService(lambda: _platform(), workers=WORKERS,
                              queue_limit=QUEUE_LIMIT,
                              journal_dir=journal_dir)
        await service.start()
        start = time.perf_counter()
        recs = [service.submit("helloworld-chain", tenant=f"t{i % 4}")
                for i in range(BURST)]
        for rec in recs:
            await service.wait(rec.run_id, timeout=600)
        wall = time.perf_counter() - start
        stats = service.stats()
        await service.shutdown()
        return recs, wall, stats, service.peak_active

    recs, wall, stats, peak = asyncio.run(main())
    latencies = [rec.finished_at - rec.submitted_at for rec in recs]
    return {
        "recs": recs, "wall": wall, "stats": stats, "peak": peak,
        "latencies": latencies, "journal_dir": journal_dir,
    }


@pytest.fixture(scope="module")
def journal_overhead():
    """Journal write cost as a fraction of p50 plan+execute wall latency.

    A run takes a few milliseconds, so an A/B wall-clock comparison of
    journaled and bare runs is bound by host noise.  Instead the
    ``ires_journal_append_seconds`` histogram measures the durable writes
    exactly: overhead = journal seconds per run / p50 journaled run
    latency.  The A/B medians are still reported as context.
    """
    import tempfile

    from repro.obs.metrics import REGISTRY

    append_seconds = REGISTRY.histogram("ires_journal_append_seconds", "")

    def one_run(ires) -> float:
        start = time.perf_counter()
        report = ires.execute(ires.workflows["helloworld-chain"])
        assert report.succeeded
        return time.perf_counter() - start

    bare, journaled = [], []
    with tempfile.TemporaryDirectory() as tmp:
        bare_ires = _platform(journal_dir=None)
        journaled_ires = _platform(journal_dir=tmp)
        one_run(bare_ires), one_run(journaled_ires)  # warm both paths
        sum_before, count_before = (append_seconds.sum(),
                                    append_seconds.value())
        for _ in range(LATENCY_RUNS):  # interleave to cancel drift
            bare.append(one_run(bare_ires))
            journaled.append(one_run(journaled_ires))
        journal_seconds = append_seconds.sum() - sum_before
        journal_records = int(append_seconds.value() - count_before)

    journaled_p50 = statistics.median(journaled)
    per_run = journal_seconds / LATENCY_RUNS
    return {
        "bare_p50": statistics.median(bare),
        "journaled_p50": journaled_p50,
        "journal_seconds_per_run": per_run,
        "records_per_run": journal_records / LATENCY_RUNS,
        "overhead_fraction": per_run / journaled_p50,
        "bare": bare, "journaled": journaled,
    }


@pytest.fixture(scope="module")
def recovery_sweep(tmp_path_factory):
    """Kill (truncate) after every step boundary; resume each run."""
    root = tmp_path_factory.mktemp("recovery")
    reference = _platform(journal_dir=root / "ref")
    report = reference.execute(reference.workflows["helloworld-chain"])
    total_steps = len(report.executions)
    ref_lines = journal_path(root / "ref",
                             report.run_id).read_text().splitlines()

    outcomes = []
    for kill_after in range(1, total_steps):
        case_dir = root / f"kill-{kill_after}"
        case_dir.mkdir()
        path = journal_path(case_dir, report.run_id)
        kept, seen = [], 0
        for line in ref_lines:
            kept.append(line)
            if json.loads(line).get("kind") == "step_finished":
                seen += 1
                if seen >= kill_after:
                    break
        # the torn tail a kill -9 mid-write leaves behind
        path.write_text("\n".join(kept) + "\n" + '{"seq": 999, "kind": "ste')

        run = recover(path)
        done_before = run.finished_step_keys()
        fresh = _platform(journal_dir=case_dir)
        start = time.perf_counter()
        resumed = fresh.executor.resume(
            fresh.workflows["helloworld-chain"], run)
        recovery_wall = time.perf_counter() - start
        executed = {(e.step.abstract_name, e.step.operator.name)
                    for e in resumed.executions}
        outcomes.append({
            "kill_after_steps": kill_after,
            "recovered_steps": resumed.recovered_steps,
            "executed_steps": len(resumed.executions),
            "re_executed": len(executed & done_before),
            "succeeded": resumed.succeeded,
            "recovery_wall_seconds": round(recovery_wall, 4),
        })
    return {"total_steps": total_steps, "outcomes": outcomes}


def test_service_concurrency_journal_and_recovery(
        benchmark, service_burst, journal_overhead, recovery_sweep):
    burst, overhead, sweep = service_burst, journal_overhead, recovery_sweep
    latencies = burst["latencies"]
    throughput = BURST / burst["wall"]
    overhead_frac = overhead["overhead_fraction"]

    rows = [
        ["burst size", BURST, ""],
        ["workers", WORKERS, ""],
        ["peak concurrent runs", burst["peak"], f"gate >= {WORKERS}"],
        ["burst wall (s)", round(burst["wall"], 2), ""],
        ["runs/sec", round(throughput, 2), ""],
        ["run p50 (s)", round(_percentile(latencies, 0.50), 3), ""],
        ["run p99 (s)", round(_percentile(latencies, 0.99), 3), ""],
        ["bare p50 (ms)", round(overhead["bare_p50"] * 1000, 3), ""],
        ["journaled p50 (ms)", round(overhead["journaled_p50"] * 1000, 3),
         ""],
        ["journal ms/run", round(overhead["journal_seconds_per_run"] * 1000,
                                 3), ""],
        ["journal overhead", f"{overhead_frac * 100:.2f}%",
         f"gate <= {OVERHEAD_CEILING * 100:.0f}%"],
        ["recovery kill points", len(sweep["outcomes"]), ""],
        ["re-executed steps", sum(o["re_executed"]
                                  for o in sweep["outcomes"]), "gate == 0"],
    ]
    emit(
        "ext_service",
        f"Extension: durable service, {WORKERS} workers on helloworld-chain",
        ["metric", "value", "gate"],
        rows, widths=[24, 14, 14],
        note="(journal = write-ahead JSONL, fsync per record; recovery "
             "sweep kills after every step boundary and resumes)",
    )

    payload = {
        "workload": "helloworld-chain",
        "service": {
            "workers": WORKERS,
            "queue_limit": QUEUE_LIMIT,
            "burst": BURST,
            "peak_concurrent_runs": burst["peak"],
            "wall_seconds": round(burst["wall"], 3),
            "submissions_per_second": round(throughput, 3),
            "run_p50_seconds": round(_percentile(latencies, 0.50), 4),
            "run_p99_seconds": round(_percentile(latencies, 0.99), 4),
            "runs_by_state": burst["stats"]["runsByState"],
        },
        "journal": {
            "bare_p50_seconds": round(overhead["bare_p50"], 5),
            "journaled_p50_seconds": round(overhead["journaled_p50"], 5),
            "journal_seconds_per_run": round(
                overhead["journal_seconds_per_run"], 6),
            "records_per_run": overhead["records_per_run"],
            "overhead_fraction": round(overhead_frac, 5),
            "overhead_ceiling": OVERHEAD_CEILING,
            "samples_per_mode": LATENCY_RUNS,
        },
        "recovery": {
            "total_steps": sweep["total_steps"],
            "kill_points": len(sweep["outcomes"]),
            "re_executed_steps_total": sum(o["re_executed"]
                                           for o in sweep["outcomes"]),
            "all_recovered": all(o["succeeded"]
                                 for o in sweep["outcomes"]),
            "outcomes": sweep["outcomes"],
        },
    }
    (REPO_ROOT / "BENCH_service.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")

    # gate 1: ≥ 8 genuinely concurrent runs, everything succeeded, queue bounded
    assert burst["peak"] >= WORKERS, burst["peak"]
    assert all(rec.state == "succeeded" for rec in burst["recs"])
    assert burst["stats"]["runsByState"] == {"succeeded": BURST}
    # gate 2: journaling costs ≤ 5% of p50 plan+execute latency
    assert overhead_frac <= OVERHEAD_CEILING, (
        overhead["journal_seconds_per_run"], overhead["journaled_p50"])
    # gate 3: every kill point recovers with zero re-execution
    assert all(o["succeeded"] for o in sweep["outcomes"])
    assert all(o["re_executed"] == 0 for o in sweep["outcomes"])
    for outcome in sweep["outcomes"]:
        assert (outcome["recovered_steps"] + outcome["executed_steps"]
                == sweep["total_steps"])

    # the benchmark loop: one journaled run end-to-end (the service hot path)
    ires = _platform(journal_dir=burst["journal_dir"])
    workflow = ires.workflows["helloworld-chain"]
    benchmark(lambda: ires.execute(workflow))


def test_service_journals_every_burst_run(service_burst):
    """Durability invariant: each burst run left a complete journal."""
    for rec in service_burst["recs"]:
        records = read_journal(
            journal_path(service_burst["journal_dir"], rec.run_id))
        assert records[0]["kind"] == "run_admitted"
        assert records[-1]["kind"] == "run_finished"
        assert records[-1]["state"] == "succeeded"
