"""Extension — observability overhead: instrumented vs uninstrumented runs.

The observability layer (repro.obs) instruments the planner's DP expansion,
the enforcer's per-step execution and the library's match lookups.  An
always-on tracing layer is only acceptable if it stays out of the hot
paths, so this benchmark measures the same work twice — on one planner or
platform whose :class:`~repro.obs.tracing.Tracer` is switched on, then off
(a disabled tracer is the ``NULL_TRACER`` fast path), in interleaved A/B
rounds gated on the median per-round ratio — on:

- the planner over a 30-node Montage workflow with 4 engines per stage
  (the per-abstract-operator span is the planner's only hot-path cost:
  one span per operator against that operator's DP work);
- an end-to-end HelloWorld execution (root span + one span per step).

Both are timed as rounds of many alternating off/on calls of a few to a
few tens of milliseconds: on a shared host one call's time wanders by
±15% (a lone 300-node plan, ~0.3 s, cannot resolve a 5% gate), and short
alternating calls see the same drift on both sides.

Expected shape: both stay within 5% of the uninstrumented baseline — the
disabled-tracer branch skips span construction entirely, and the enabled
path adds O(1) dict work per operator against the DP table's O(candidates
× dp entries) inner loop.

The accuracy-ledger and plan-provenance layers ride the same hot paths
(one ``ledger.enabled`` check per step, one ``prov is not None`` check per
candidate on the NULL path), so their enabled cost is reported as
informational rows and the 5% gate keeps covering the disabled default.
"""

import statistics
import time

import pytest

from figutil import emit
from repro.core import IReS, Planner
from repro.core.planner import MetadataCostEstimator
from repro.obs.accuracy import AccuracyLedger
from repro.obs.tracing import Tracer
from repro.scenarios import setup_helloworld
from repro.workflows import generate, synthetic_library

#: interleaved A/B rounds per surface; the gate reads the median round
ROUNDS = 21
#: off/on call pairs per round (a plan or a run: tens of milliseconds)
PAIRS = 20
#: accept up to this much instrumented/uninstrumented slowdown
OVERHEAD_BUDGET = 1.05


def _paired(off, on, rounds: int = ROUNDS, pairs: int = PAIRS,
            between=None):
    """Interleaved A/B timing of two zero-argument callables.

    Each round times ``pairs`` off/on call pairs, alternating which side
    goes first, so host speed drift (shared CPUs change pace within
    seconds) hits both sides alike; ``between`` (untimed) runs after every
    round.  Returns the median per-call seconds of each side and the median
    of the per-round on/off time ratios — the statistic the gate reads.
    """
    per_call = {"off": [], "on": []}
    ratios = []
    calls = 0
    for _ in range(rounds):
        took = {"off": 0.0, "on": 0.0}
        for _ in range(pairs * 2):
            # off, on, on, off, off, on, ...: neither side always goes first
            side, fn = (("off", off) if (calls + calls // 2) % 2 == 0
                        else ("on", on))
            calls += 1
            start = time.perf_counter()
            fn()
            took[side] += time.perf_counter() - start
        if between is not None:
            between()
        per_call["off"].append(took["off"] / pairs)
        per_call["on"].append(took["on"] / pairs)
        ratios.append(took["on"] / took["off"])
    return {"off": statistics.median(per_call["off"]),
            "on": statistics.median(per_call["on"]),
            "ratio": statistics.median(ratios)}


def _switched(owner, flag: str, run):
    """(off, on) callables that run ``run`` with ``owner.<flag>`` False /
    True: both sides measure the very same objects, so no difference in
    their memory layout or accumulated state can masquerade as overhead
    (a disabled tracer is exactly the ``NULL_TRACER`` fast path)."""
    def side(value: bool):
        def call():
            setattr(owner, flag, value)
            run()
        return call
    return side(False), side(True)


def _montage_planner(**kwargs):
    workflow = generate("Montage", 30, seed=1)
    library = synthetic_library(workflow, 4, seed=2)
    planner = Planner(library, MetadataCostEstimator(), **kwargs)
    return planner, lambda: planner.plan(workflow)


def _helloworld(**kwargs):
    # plan cache off: every repetition must include the full plan +
    # execute work whose instrumentation overhead is being measured
    ires = IReS(plan_cache=False, **kwargs)
    workflow = setup_helloworld(ires)()
    ires.execute(workflow)  # warm
    return ires, lambda: ires.execute(workflow)


@pytest.fixture(scope="module")
def planner_times():
    planner, plan = _montage_planner(tracer=Tracer())
    return _paired(*_switched(planner.tracer, "enabled", plan),
                   between=planner.tracer.clear)


@pytest.fixture(scope="module")
def executor_times():
    # platform default: one enabled tracer on the sim clock, shared by the
    # planner and the executor
    ires, run = _helloworld()
    return _paired(*_switched(ires.tracer, "enabled", run),
                   between=ires.tracer.clear)


@pytest.fixture(scope="module")
def ledger_times():
    """Informational: provenance-recording planner + ledger-on executor."""
    planner, plan = _montage_planner()
    ires, run = _helloworld(tracer=Tracer(enabled=False),
                            ledger=AccuracyLedger())
    return {
        "planner_prov": _paired(
            *_switched(planner, "record_provenance", plan), rounds=7),
        "executor_ledger": _paired(*_switched(ires.ledger, "enabled", run),
                                   rounds=7),
    }


def test_obs_overhead(benchmark, planner_times, executor_times, ledger_times):
    rows = [
        [name, times["off"] * 1e3, times["on"] * 1e3,
         100.0 * (times["ratio"] - 1.0)]
        for name, times in (
            ("planner (Montage-30, 4 engines)", planner_times),
            ("executor (HelloWorld chain)", executor_times),
            ("planner + provenance (info)", ledger_times["planner_prov"]),
            ("executor + ledger (info)", ledger_times["executor_ledger"]),
        )
    ]
    emit(
        "ext_obs_overhead",
        "Extension: observability overhead (interleaved A/B, median ratio)",
        ["surface", "off_ms", "on_ms", "overhead_%"],
        rows, widths=[34, 10, 10, 12],
        note=f"(budget: {100 * (OVERHEAD_BUDGET - 1):.0f}% — spans on the "
             "planner's DP expansion and every executor step; "
             f"{ROUNDS} rounds of {PAIRS} off/on call pairs; "
             "provenance/ledger rows are informational, their default-off "
             "path is what the gate covers)",
    )
    for name, times in (("planner", planner_times),
                        ("executor", executor_times)):
        assert times["ratio"] <= OVERHEAD_BUDGET, (name, times)

    planner, plan = _montage_planner(tracer=Tracer())

    def traced_plan():
        plan()
        planner.tracer.clear()

    benchmark(traced_plan)
