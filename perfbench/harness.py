"""Shared pieces of the benchmark: metric names, statistics, host clock,
host record.

The metric tables here are the ones ``BENCHMARK.json`` declares; the
benchmark's tests check that the two agree.

Every end-to-end time of a unit of work is host-normalized.  On a
shared host the same
unit of work takes anywhere from 1x to 1.8x its quiet time, in spells
of seconds to minutes, so raw wall times of two runs of the same code
differ by more than any useful regression bound.  A ``HostClock`` therefore
times a fixed reference task (benchmark code, not the program) right
before and after each unit, and scales the unit's wall time by
``REFERENCE_S`` over the reference's time then: a slowdown of the host
hits both and cancels, a change to the program moves only the unit.  The
raw wall times are kept in each result's details line.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: end-to-end metrics, printed by every ``--trace 0`` run
E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_per_s": "1/s",
    "sim_s": "s",
    "slowdown_p50": "ratio",
    "peak_rss_mb": "MB",
}

#: per-layer metrics, printed by every ``--trace 1`` run; all are per work
#: unit (serve-chain: run, plan-pegasus: cycle, cluster-burst: burst,
#: musqle-tpch: query) and 0 where the workload bypasses the layer
LAYER_UNITS = {
    "api.service.queue_wait_p50_s": "s",
    "api.service.exec_p50_s": "s",
    "api.service.refused": "count",
    "api.rest.handle_busy_s": "s",
    "core.refinement.observe_calls": "count",
    "core.modeler.train_calls": "count",
    "core.modeler.train_busy_s": "s",
    "core.modeler.fits_consumed_ratio": "ratio",
    "execution.journal.append_calls": "count",
    "execution.journal.append_busy_s": "s",
    "execution.journal.records_per_run": "count",
    "execution.enforcer.execute_busy_s": "s",
    "execution.enforcer.retries": "count",
    "execution.enforcer.replans": "count",
    "obs.telemetry_busy_s": "s",
    "obs.profiler_overhead_s": "s",
    "core.planner.plan_calls": "count",
    "core.planner.plan_busy_s": "s",
    "core.plancache.hit_ratio": "ratio",
    "core.library.candidates_calls": "count",
    "core.library.candidates_busy_s": "s",
    "core.metadata.matches_calls": "count",
    "core.metadata.consistent_with_calls": "count",
    "core.metadata.copy_calls": "count",
    "core.estimators.calls": "count",
    "core.estimators.busy_s": "s",
    "execution.cluster.drain_busy_s": "s",
    "execution.cluster.steps_placed": "count",
    "engines.containers.allocate_calls": "count",
    "engines.containers.grants": "count",
    "engines.containers.grant_ratio": "ratio",
    "engines.containers.allocate_busy_s": "s",
    "musqle.optimizer.busy_s": "s",
    "musqle.optimizer.explain_s": "s",
    "musqle.optimizer.inject_s": "s",
    "musqle.optimizer.enumeration_s": "s",
    "musqle.optimizer.csg_cmp_pairs": "count",
    "musqle.system.execute_busy_s": "s",
    "trace.overhead_share": "ratio",
}


@dataclass
class Context:
    """What a workload gets from the command line."""

    seed: int
    seconds: float
    trace: bool
    fast: bool
    #: where traces and scratch files go (inside the checkout)
    out_dir: Path


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``.

    ``metrics`` holds every metric of the run's kind except ``setup_s`` and
    ``peak_rss_mb``, which ``run.py`` adds from ``build_seconds`` and
    ``warmup_seconds`` and from the process's resource usage.
    """

    metrics: dict[str, float]
    attempted: int
    failed: int
    #: one line per failed output check
    errors: list[str] = field(default_factory=list)
    #: repeated set-up builds (inputs + system), seconds each
    build_seconds: list[float] = field(default_factory=list)
    #: one-off warm-up after the builds, host-normalized seconds
    warmup_seconds: float = 0.0
    #: sample counts, per-step tables and the like, for the history
    details: dict = field(default_factory=dict)


def repeat(unit, count: int, seconds: float) -> list:
    """Call ``unit(i)`` for i = 0, 1, ... until ``count`` calls are done and
    another call, at the average pace so far, would end after ``seconds``;
    returns every call's result.

    Batch workloads compute their metrics from the first ``count`` results
    only, so every run measures the same work even when a faster program
    fits more units into ``seconds``; the extra units are still checked.
    """
    results = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(results) >= count and (
                elapsed * (len(results) + 1) / len(results) > seconds):
            return results
        results.append(unit(len(results)))


#: the reference task's time on a quiet host (two vCPUs of a 2.0 GHz
#: Xeon); a normalized time reads as seconds on that host
REFERENCE_S = 0.024
#: reference timings per measurement; their median is the one used
REFERENCE_REPEATS = 3
#: dict fills and sorts per reference timing
REFERENCE_ROUNDS = 12


def reference_seconds() -> float:
    """Median time of the fixed reference task, run ``REFERENCE_REPEATS``
    times now.

    The task fills a dict with small lists and strings and sorts it with a
    key function, ``REFERENCE_ROUNDS`` times: the allocation-heavy
    pure-Python work the workloads do, so the spells that slow them slow
    it too.  Its working set is small (a few MB), so it does not move the
    run's peak memory, and the cyclic collector is off while it runs, so
    a large program heap adds no collections to its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REFERENCE_REPEATS):
            start = time.perf_counter()
            for _ in range(REFERENCE_ROUNDS):
                table = {}
                for i in range(5_000):
                    table[(i * 7919) % 100_003] = [i, str(i)]
                sorted(table.items(), key=lambda kv: kv[1][1])
            times.append(time.perf_counter() - start)
        return statistics.median(times)
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Host-speed factors for units of work, from interleaved reference
    timings.

    Each ``mark()`` takes a reference timing and returns the factor for
    the interval since the previous one, ``REFERENCE_S / mean(before,
    after)``: a wall time measured in that interval, times the factor, is
    its normalized time.  Call ``mark()`` after each unit of work.
    """

    def __init__(self) -> None:
        self.last = reference_seconds()

    def mark(self) -> float:
        before, self.last = self.last, reference_seconds()
        return 2.0 * REFERENCE_S / (before + self.last)

    def around(self, fn):
        """Call ``fn``, then ``mark()``; returns both results."""
        result = fn()
        return result, self.mark()


def quantile(samples: list[float], q: float) -> float:
    """Linear-interpolated quantile of ``samples`` (0 <= q <= 1)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_quantile(n: int) -> float:
    """The (1 - 10/n) quantile level, never below the median.

    With fewer than 20 samples no percentile above the median has ten
    samples beyond it, so the tail is reported at the median.
    """
    return max(0.5, 1.0 - 10.0 / n)


def latency_summary(samples: list[float]) -> dict[str, float]:
    """p50 and tail of one workload's latency samples."""
    level = tail_quantile(len(samples))
    return {
        "latency_p50_s": statistics.median(samples),
        "latency_tail_s": quantile(samples, level),
        "tail_level": level,
        "n": len(samples),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0 if sys.platform != "darwin" else kb / 2**20


def calibration_seconds() -> float:
    """Median time of a fixed pure-Python + numpy loop (three repeats).

    Dividing a time by this figure normalizes it for the host, so history
    records from different machines can be compared.
    """
    import numpy as np

    def once() -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += (i * i) % 7
        # element-wise work only: a BLAS call would time the thread pool
        values = np.random.default_rng(0).random(200_000)
        for _ in range(10):
            values = np.sort(np.sqrt(values + 1.0))
        return time.perf_counter() - start + 0.0 * (acc + float(values[0]))

    return statistics.median(once() for _ in range(3))


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = root / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text().strip()
            packed = root / ".git" / "packed-refs"
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split(" ", 1)[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def host_fingerprint() -> str:
    """A short hash of the machine, OS and interpreter this run used."""
    import numpy as np

    uname = os.uname()
    facts = {
        "machine": uname.machine,
        "system": uname.sysname,
        "release": uname.release,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    digest = hashlib.sha256(json.dumps(facts, sort_keys=True).encode())
    return digest.hexdigest()[:16]


def append_history(path: Path, record: dict) -> None:
    """Append one result record to the JSON-lines history file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
