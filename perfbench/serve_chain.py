"""serve-chain: helloworld-chain runs POSTed to ``/runs`` of the REST router.

The service is an ``IResService`` with the ``ires serve`` defaults —
journal, tenant accounting, SLO tracking, the always-on profiler, the
plan cache and the oracle estimator — with two workers and a queue limit
of 16, behind an in-process ``IResServer``.  Three tenants take turns.

A run has three phases:

- warm-up (set-up): a fixed number of runs, one at a time, by which each
  worker's per-run time has levelled off on a quiet host (every run
  refits that worker's models on a growing sample store, so per-run time
  grows over the first runs; whether it levelled is recorded).  The
  count is fixed, not judged from the times, so that the measured runs
  always refit on the same store sizes;
- base phase (closed loop, one run in flight): per-run latency from the
  moment the client sends to the run's terminal state, host-normalized
  (``harness.HostClock``) run by run.  One run at a time keeps the
  latency free of the two workers' interference, which on two cores
  swings a run between ~1 s and ~4 s and would make a 20-second sample
  useless;
- ladder (open loop): Poisson arrivals, drawn from the seed, at 1, 4, 16,
  64 and 256 runs/s, until a step misses: a refusal, a tail over the
  latency limit, or a backlog that grows.  After a miss the runs still
  queued are cancelled.  The generator's lateness and the backlog are
  reported per step, and a run whose generator falls behind is invalid.

Why: the only workload through admission, the journal, refits and
telemetry; the planner is reached only through plan-cache hits.  Every
accepted run must succeed and its journal must recover as complete.
"""

from __future__ import annotations

import asyncio
import functools
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench.harness import Context, HostClock, Outcome, latency_summary
from perfbench.layers import LayerTrace, layer_metrics
from repro.api.rest import IResServer
from repro.api.service import IResService
from repro.core import IReS
from repro.execution.journal import journal_path, recover
from repro.scenarios import setup_helloworld

WORKFLOW = "helloworld-chain"
WORKERS = 2
QUEUE_LIMIT = 16
TENANTS = ("t0", "t1", "t2")
#: the chain's input size is drawn from the seed within this range (GB)
INPUT_GB = (3.8, 4.2)
LADDER = (1.0, 4.0, 16.0, 64.0, 256.0)
#: arrivals per ladder step: enough that a rate just above what the
#: service completes shows a growing queue, not a lucky lull
STEP_ARRIVALS = 10
#: a step misses when a run's latency exceeds this multiple of the base
#: phase's p50
LIMIT_FACTOR = 4.0
#: the generator may send at most this late before the run is invalid
LATENESS_LIMIT_S = 0.25
#: the ladder's share of ``--seconds``; the base phase gets the rest
LADDER_SECONDS = 12.0
POLL_S = 0.01


@dataclass(frozen=True)
class Shape:
    """Run counts of one mode of the workload."""

    #: warm-up runs (they alternate between the two workers)
    warmup_runs: int
    #: base-phase runs the metrics come from; like the batch workloads'
    #: unit counts it keeps the measured work the same in every run
    base_runs: int


FULL = Shape(warmup_runs=28, base_runs=12)
FAST = Shape(warmup_runs=4, base_runs=3)


def platform_factory(size_gb: float = 4.0) -> IReS:
    """One worker's platform: IReS with the helloworld chain registered."""
    ires = IReS()
    workflow = setup_helloworld(ires)(size_gb)
    ires.workflows[workflow.name] = workflow
    return ires


def build(journal_dir, size_gb: float) -> tuple[IResServer, IResService]:
    """The service and its REST router, as ``ires serve`` wires them."""
    factory = functools.partial(platform_factory, size_gb)
    service = IResService(factory, workers=WORKERS, queue_limit=QUEUE_LIMIT,
                          journal_dir=journal_dir)
    return IResServer(factory(), service=service), service


def levelled(times: list[float]) -> bool:
    """Whether a worker's per-run time has stopped growing: from six runs
    on, the median of the last three within 25% of the median of the
    three before them."""
    return len(times) < 6 or (statistics.median(times[-3:])
                              <= 1.25 * statistics.median(times[-6:-3]))


@dataclass
class Client:
    """Sends runs through the REST router and watches them finish."""

    server: IResServer
    sent: int = 0
    refused: int = 0
    #: run id -> the time the run was due (epoch seconds)
    due: dict[str, float] = field(default_factory=dict)

    def post(self, due: float) -> str | None:
        """POST one run; returns its id, or None when refused."""
        tenant = TENANTS[self.sent % len(TENANTS)]
        self.sent += 1
        response = self.server.handle(
            "POST", "/runs", {"workflow": WORKFLOW, "tenant": tenant})
        if response.status != 202:
            self.refused += 1
            return None
        run_id = response.body["runId"]
        self.due[run_id] = due
        return run_id

    def status(self, run_id: str) -> dict:
        """The run's record from ``GET /runs/{id}``."""
        return self.server.handle("GET", f"/runs/{run_id}").body

    async def finish(self, run_ids: list[str],
                     timeout: float = 120.0) -> list[dict]:
        """Poll until every run is terminal and its telemetry recorded;
        returns their ``GET /runs/{id}`` records."""
        deadline = time.monotonic() + timeout
        pending = list(run_ids)
        done: dict[str, dict] = {}
        while pending:
            for run_id in list(pending):
                if self.server.service.status(run_id).done.is_set():
                    done[run_id] = self.status(run_id)
                    pending.remove(run_id)
            if pending:
                if time.monotonic() > deadline:
                    raise TimeoutError(f"runs {pending} did not finish")
                await asyncio.sleep(POLL_S)
        return [done[run_id] for run_id in run_ids]

    async def finish_one(self, run_id: str, timeout: float = 120.0) -> dict:
        """Wait for one run to end, idle meanwhile (``IResService.wait``
        blocks a pool thread, so this process takes no time from the run
        the way polling would); returns its ``GET /runs/{id}`` record."""
        rec = await self.server.service.wait(run_id, timeout)
        if not rec.done.is_set():
            raise TimeoutError(f"run {run_id} did not finish")
        return self.status(run_id)


def latency_of(client: Client, body: dict) -> float:
    """Due time to terminal state."""
    return body["finishedAt"] - client.due[body["runId"]]


def exec_of(body: dict) -> float:
    """Start of execution to terminal state."""
    return body["finishedAt"] - body["startedAt"]


async def mark(clock: HostClock) -> float:
    """``clock.mark()`` in a pool thread of the event loop: where a run
    executes, so the reference shares the run's contention for the
    interpreter with the loop and the profiler thread."""
    return await asyncio.to_thread(clock.mark)


async def warm_up(client: Client, service: IResService, shape: Shape,
                  clock: HostClock) -> tuple[float, dict]:
    """Closed-loop warm-up runs; returns their summed normalized time and
    the per-worker curve."""
    per_worker: dict[int, list[float]] = {}
    normalized = 0.0
    for _ in range(shape.warmup_runs):
        sizes = {id(p): len(p.cloud.collector) for p in service.platforms()}
        sent = time.perf_counter()
        run_id = client.post(time.time())
        if run_id is None:
            raise RuntimeError("warm-up run refused")
        body = await client.finish_one(run_id)
        normalized += (time.perf_counter() - sent) * await mark(clock)
        for p in service.platforms():
            if len(p.cloud.collector) != sizes.get(id(p), 0):
                per_worker.setdefault(id(p), []).append(exec_of(body))
    return normalized, {
        "runs": shape.warmup_runs,
        "perWorkerSeconds": list(per_worker.values()),
        "levelled": len(per_worker) == WORKERS and all(
            levelled(times) for times in per_worker.values())}


async def base_phase(client: Client, runs: int, seconds: float,
                     clock: HostClock | None = None,
                     on_send=None) -> tuple[list[dict], list[float],
                                            list[float]]:
    """Closed loop, one run in flight, until ``runs`` runs are done and
    ``seconds`` have passed; returns the run records, per run the client's
    time from sending to seeing it finish, and per run the host factor
    (1 without a ``clock``)."""
    records, client_seconds, factors = [], [], []
    start = time.monotonic()
    while len(records) < runs or time.monotonic() - start < seconds:
        if on_send is not None:
            on_send(len(records))
        sent = time.monotonic()
        run_id = client.post(time.time())
        if run_id is None:
            raise RuntimeError("base-phase run refused")
        records.append(await client.finish_one(run_id))
        client_seconds.append(time.monotonic() - sent)
        factors.append(1.0 if clock is None else await mark(clock))
    return records, client_seconds, factors


async def ladder_step(client: Client, service: IResService, rate: float,
                      limit: float, rng: np.random.Generator) -> dict:
    """Offer ``STEP_ARRIVALS`` Poisson arrivals at ``rate``; judge the step."""
    backlog_start = service.stats()["queueDepth"]
    refused_before = client.refused
    gaps = rng.exponential(1.0 / rate, size=STEP_ARRIVALS)
    origin = time.time() + 0.01
    lateness, run_ids = [], []
    for due in origin + np.cumsum(gaps):
        await asyncio.sleep(max(0.0, due - time.time()))
        lateness.append(max(0.0, time.time() - due))
        run_id = client.post(float(due))
        if run_id is not None:
            run_ids.append(run_id)
    backlog_end = service.stats()["queueDepth"]
    refused = client.refused - refused_before
    missed = refused > 0 or backlog_end > backlog_start + WORKERS
    records: list[dict] = []
    if not missed:
        records = await client.finish(run_ids, timeout=limit + 60.0)
        tail = max(latency_of(client, body) for body in records)
        missed = tail > limit
    return {
        "rate": rate, "arrivals": STEP_ARRIVALS, "refused": refused,
        "latenessP50": statistics.median(lateness),
        "latenessMax": max(lateness),
        "backlogStart": backlog_start, "backlogEnd": backlog_end,
        "maxLatency": (max(latency_of(client, b) for b in records)
                       if records else None),
        "limit": limit, "met": not missed, "runIds": run_ids,
    }


async def ladder(client: Client, service: IResService, limit: float,
                 rng: np.random.Generator) -> tuple[list[dict], list[str]]:
    """Climb the rate ladder until a step misses; cancel what is queued."""
    steps, accepted = [], []
    for rate in LADDER:
        step = await ladder_step(client, service, rate, limit, rng)
        steps.append(step)
        accepted.extend(step["runIds"])
        if not step["met"]:
            break
    for run_id in accepted:
        if client.status(run_id)["state"] == "queued":
            client.server.handle("POST", f"/runs/{run_id}/cancel")
    await client.finish(accepted, timeout=120.0)
    return steps, accepted


def check_runs(records: list[dict], journal_dir) -> list[str]:
    """Every accepted run succeeded (or was cancelled by the ladder before
    it started) and the journal of each succeeded run recovers as
    complete.  ``records`` are ``GET /runs/{id}`` bodies."""
    errors = []
    for body in records:
        run_id = body["runId"]
        if body["state"] == "cancelled" and body["startedAt"] is None:
            continue
        if body["state"] != "succeeded":
            errors.append(f"run {run_id} {body['state']}: "
                          f"{body.get('error', '')}")
            continue
        journal = recover(journal_path(journal_dir, run_id))
        if journal.interrupted or journal.terminal != "succeeded":
            errors.append(f"run {run_id} journal recovers as "
                          f"{journal.terminal or 'interrupted'}")
    return errors


async def ladder_checked(client: Client, service: IResService,
                         records: list[dict], limit: float,
                         rng: np.random.Generator):
    """Climb the ladder, then check every run of the base phase and the
    ladder; returns the ladder steps and the failed checks."""
    steps, accepted = await ladder(client, service, limit, rng)
    errors = check_runs(
        [client.status(b["runId"]) for b in records]
        + [client.status(run_id) for run_id in accepted],
        service.journal_dir)
    late = [s for s in steps if s["latenessMax"] > LATENESS_LIMIT_S]
    if late:
        errors.append(f"generator fell behind at {late[0]['rate']}/s "
                      f"(late {late[0]['latenessMax']:.3f} s): invalid")
    return steps, errors


def run(ctx: Context) -> Outcome:
    """Warm up, measure the base phase, climb the ladder."""
    return asyncio.run(_run(ctx))


async def _run(ctx: Context) -> Outcome:
    shape = FAST if ctx.fast else FULL
    journal_dir = ctx.out_dir / f"journals-serve-{ctx.seed}-{time.time_ns()}"
    rng = np.random.default_rng(ctx.seed)
    size_gb = float(rng.uniform(*INPUT_GB))
    build_seconds = []
    for _ in range(3):
        start = time.perf_counter()
        server, service = build(journal_dir, size_gb)
        build_seconds.append(time.perf_counter() - start)
    client = Client(server)
    try:
        await service.start()
        clock = HostClock()
        warmup_seconds, warmup = await warm_up(client, service, shape, clock)
        base_seconds = ctx.seconds - LADDER_SECONDS
        if ctx.trace:
            return await _traced(ctx, client, service, shape, rng,
                                 base_seconds, build_seconds, warmup_seconds,
                                 warmup)
        records, client_seconds, factors = await base_phase(
            client, shape.base_runs, base_seconds, clock)
        measured = records[:shape.base_runs]
        walls = [latency_of(client, body) for body in measured]
        latencies = [wall * factor for wall, factor in zip(walls, factors)]
        latency = latency_summary(latencies)
        # the ladder runs on the host as it is: its limit is in wall time
        steps, errors = await ladder_checked(
            client, service, records, LIMIT_FACTOR * statistics.median(walls),
            rng)
        met = [s["rate"] for s in steps if s["met"]]
        # closed loop: the client sends the next run when it sees one finish
        throughput = 1.0 / statistics.median(
            wall * factor for wall, factor
            in zip(client_seconds[:shape.base_runs], factors))
        return Outcome(
            metrics={
                "latency_p50_s": latency["latency_p50_s"],
                "latency_tail_s": latency["latency_tail_s"],
                "throughput_per_s": throughput,
                "sim_s": statistics.median(
                    body["report"]["simTime"] for body in measured),
                "slowdown_p50": statistics.median(
                    latency_of(client, b) / exec_of(b) for b in measured),
            },
            attempted=len(records),
            failed=sum(body["state"] != "succeeded" for body in records),
            errors=errors, build_seconds=build_seconds,
            warmup_seconds=warmup_seconds,
            details={"inputGB": size_gb, "warmup": warmup, "latency": latency,
                     "latencies": latencies, "wallLatencies": walls,
                     "hostFactors": factors[:shape.base_runs],
                     "baseRuns": len(records),
                     # the highest ladder rate met (0: none), wall time
                     "maxOkRate": max(met, default=0.0),
                     "ladder": [{k: v for k, v in s.items() if k != "runIds"}
                                for s in steps]},
        )
    finally:
        await service.shutdown(drain=True, timeout=60.0)
        shutil.rmtree(journal_dir, ignore_errors=True)


async def _traced(ctx, client, service, shape, rng, base_seconds,
                  build_seconds, warmup_seconds, warmup) -> Outcome:
    """Base phase with tracing on every other run, then the ladder."""
    profiler_before = service.profiler.status()["overheadSeconds"]
    with LayerTrace() as trace:
        def toggle(index: int) -> None:
            trace.enabled = index % 2 == 1

        records, _client_seconds, _factors = await base_phase(
            client, shape.base_runs, base_seconds, on_send=toggle)
        trace.enabled = False
    profiler_overhead = (service.profiler.status()["overheadSeconds"]
                         - profiler_before)
    traced = records[1::2]
    untraced = records[0::2]
    latencies = [latency_of(client, body) for body in records]
    steps, errors = await ladder_checked(
        client, service, records,
        LIMIT_FACTOR * statistics.median(latencies), rng)
    trace.write(ctx.out_dir / f"trace-serve-chain-{ctx.seed}.json")
    units = max(len(traced), 1)
    exec_traced = [exec_of(body) for body in traced]
    exec_untraced = [exec_of(body) for body in untraced]
    extra = {
        "api.service.queue_wait_p50_s": (
            statistics.median(b["queuedWaitSeconds"] for b in traced)
            if traced else 0.0),
        "api.service.exec_p50_s": (
            statistics.median(exec_traced) if traced else 0.0),
        "api.service.refused": float(sum(s["refused"] for s in steps)),
        "obs.profiler_overhead_s": profiler_overhead / len(records),
    }
    overhead = (statistics.median(exec_traced)
                / statistics.median(exec_untraced) - 1.0
                if traced and untraced else 0.0)
    metrics = layer_metrics(trace, units=units, extra=extra,
                            overhead_share=overhead)
    return Outcome(
        metrics=metrics, attempted=len(records),
        failed=sum(body["state"] != "succeeded" for body in records),
        errors=errors, build_seconds=build_seconds,
        warmup_seconds=warmup_seconds,
        details={"warmup": warmup, "tracedRuns": len(traced),
                 "selfSeconds": trace.self_times(),
                 "trainShareOfExec": (
                     trace.busy_of("core.modeler") / sum(exec_traced)
                     if traced else 0.0)},
    )
