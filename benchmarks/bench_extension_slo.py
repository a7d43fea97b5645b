"""Extension — service telemetry: overhead, burn-rate alarm correctness.

Two gates over the DESIGN §12 telemetry stack (per-tenant accounting +
SLO burn-rate tracking wired into :mod:`repro.api.service`):

- **telemetry overhead**: accounting + SLO evaluation on every finished
  run must cost ≤ 5% of the p50 plan+execute latency under a ≥ 8-way
  concurrent burst, measured by the ``ires_service_telemetry_seconds``
  histogram (the same histogram-not-A/B method the journal gate uses —
  a wall-clock diff of millisecond runs is bound by host noise);
- **alarm correctness**: a clean burst under the default SLOs must trip
  *zero* burn-rate alarms, while an injected latency regression (an SLO
  whose threshold sits below every real run latency) must trip the
  latency alarm within one evaluation window — i.e. by the very
  evaluation at which ``min_events`` runs have finished.

Results land in ``benchmarks/results/ext_slo.txt`` and are merged into
``BENCH_service.json`` under the ``"slo"`` key (read-merge-write: the
service bench owns the rest of that file).
"""

import asyncio
import json
import time
from pathlib import Path

import pytest

from figutil import emit
from repro.core import IReS
from repro.scenarios import setup_helloworld

REPO_ROOT = Path(__file__).resolve().parent.parent

WORKERS = 8
BURST = 24
TENANTS = 3
#: acceptance gate: telemetry may cost at most this fraction of p50 latency
OVERHEAD_CEILING = 0.05
#: events the regression SLO needs before it may alarm
MIN_EVENTS = 3


def _platform() -> IReS:
    ires = IReS()
    make = setup_helloworld(ires)
    workflow = make()
    ires.workflows[workflow.name] = workflow
    return ires


def _percentile(samples, q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def _run_burst(slo=True):
    """Push a concurrent burst through a telemetry-enabled service."""
    from repro.api.service import IResService

    async def main():
        service = IResService(lambda: _platform(), workers=WORKERS,
                              queue_limit=2 * BURST, slo=slo)
        await service.start()
        start = time.perf_counter()
        recs = [service.submit("helloworld-chain", tenant=f"t{i % TENANTS}")
                for i in range(BURST)]
        for rec in recs:
            await service.wait(rec.run_id, timeout=600)
        wall = time.perf_counter() - start
        peak = service.peak_active
        await service.shutdown()
        return service, recs, wall, peak

    return asyncio.run(main())


@pytest.fixture(scope="module")
def clean_burst():
    """A clean burst under the default SLOs, telemetry cost measured."""
    from repro.obs.metrics import REGISTRY

    telemetry = REGISTRY.histogram("ires_service_telemetry_seconds", "")
    sum_before, count_before = telemetry.sum(), telemetry.value()
    service, recs, wall, peak = _run_burst()
    telemetry_seconds = telemetry.sum() - sum_before
    telemetry_events = int(telemetry.value() - count_before)
    latencies = [rec.finished_at - rec.submitted_at for rec in recs]
    exec_seconds = [rec.finished_at - rec.started_at for rec in recs]
    return {
        "service": service, "recs": recs, "wall": wall, "peak": peak,
        "latencies": latencies, "exec_seconds": exec_seconds,
        "telemetry_seconds_per_run": telemetry_seconds / max(
            telemetry_events, 1),
        "telemetry_events": telemetry_events,
    }


@pytest.fixture(scope="module")
def regression_burst():
    """The same burst with an SLO no real run can meet (the regression)."""
    from repro.obs.slo import SLOSpec, SLOTracker

    tracker = SLOTracker([SLOSpec(
        "latency-p99", "latency", target=0.9,
        # every real plan+execute takes far longer than 1ms: from the
        # SLO's point of view the service just regressed hard
        threshold_seconds=0.001,
        short_window_seconds=300.0, long_window_seconds=600.0,
        burn_rate_threshold=2.0, min_events=MIN_EVENTS,
    )])
    _run_burst(slo=tracker)
    return tracker


def test_telemetry_overhead_and_burn_rate_alarms(
        benchmark, clean_burst, regression_burst):
    latencies = clean_burst["latencies"]
    p50 = _percentile(latencies, 0.50)
    per_run = clean_burst["telemetry_seconds_per_run"]
    overhead_frac = per_run / p50
    # informational: the same cost against the run's own execution, queue
    # wait excluded
    exec_p50 = _percentile(clean_burst["exec_seconds"], 0.50)
    exec_frac = per_run / exec_p50
    clean_alarms = clean_burst["service"].slo.active_alarms()
    clean_fired = len(clean_burst["service"].slo.alarms)

    tracker = regression_burst
    regression_alarms = tracker.alarms
    first_alarm = regression_alarms[0] if regression_alarms else None

    rows = [
        ["burst size", BURST, ""],
        ["workers", WORKERS, ""],
        ["peak concurrent runs", clean_burst["peak"], f"gate >= {WORKERS}"],
        ["run p50 (s)", round(p50, 3), ""],
        ["run p99 (s)", round(_percentile(latencies, 0.99), 3), ""],
        ["telemetry us/run", round(per_run * 1e6, 1), ""],
        ["telemetry overhead", f"{overhead_frac * 100:.3f}%",
         f"gate <= {OVERHEAD_CEILING * 100:.0f}%"],
        ["exec p50 (s)", round(exec_p50, 4), ""],
        ["share of exec p50", f"{exec_frac * 100:.3f}%", "info"],
        ["clean-run alarms", clean_fired, "gate == 0"],
        ["regression alarms", len(regression_alarms), "gate >= 1"],
        ["alarm at event #", first_alarm.events_short if first_alarm
         else "-", f"gate <= {MIN_EVENTS + WORKERS}"],
    ]
    emit(
        "ext_slo",
        f"Extension: service telemetry + SLO alarms, {WORKERS} workers",
        ["metric", "value", "gate"],
        rows, widths=[24, 14, 14],
        note="(telemetry = accounting + SLO evaluation per finished run, "
             "measured by the ires_service_telemetry_seconds histogram; "
             "regression = an SLO threshold below every real latency)",
    )

    slo_payload = {
        "workers": WORKERS,
        "burst": BURST,
        "tenants": TENANTS,
        "run_p50_seconds": round(p50, 4),
        "run_p99_seconds": round(_percentile(latencies, 0.99), 4),
        "telemetry_seconds_per_run": round(per_run, 7),
        "telemetry_events": clean_burst["telemetry_events"],
        "overhead_fraction": round(overhead_frac, 6),
        "overhead_ceiling": OVERHEAD_CEILING,
        "exec_p50_seconds": round(exec_p50, 5),
        "exec_overhead_fraction": round(exec_frac, 6),
        "clean_alarms_fired": clean_fired,
        "regression_alarms_fired": len(regression_alarms),
        "regression_alarm_events_short": (
            first_alarm.events_short if first_alarm else None),
        "regression_min_events": MIN_EVENTS,
    }
    bench_path = REPO_ROOT / "BENCH_service.json"
    payload = {}
    if bench_path.exists():  # the service bench owns the other keys
        payload = json.loads(bench_path.read_text())
    payload["slo"] = slo_payload
    bench_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    # gate 0: the burst was genuinely concurrent and telemetry fired per run
    assert clean_burst["peak"] >= WORKERS, clean_burst["peak"]
    assert clean_burst["telemetry_events"] >= BURST
    # gate 1: telemetry costs ≤ 5% of p50 plan+execute latency
    assert overhead_frac <= OVERHEAD_CEILING, (per_run, p50)
    # gate 2a: a clean run trips no burn-rate alarm
    assert clean_fired == 0 and clean_alarms == []
    # gate 2b: the injected regression trips the latency alarm within one
    # evaluation window — the first evaluation at which min_events runs
    # exist (concurrent workers can land a few extra finishes before it)
    assert len(regression_alarms) >= 1
    assert first_alarm.slo == "latency-p99"
    assert first_alarm.events_short <= MIN_EVENTS + WORKERS
    assert "latency-p99" in tracker.active_alarms()
