"""Tests for the span-attributed sampling profiler (DESIGN.md §14).

Covers the sampler and its cross-thread attribution registry, the export
formats (folded, speedscope, flamegraph HTML), the service integration
(always-on profiler, per-run profile ring, REST surfaces), the ≥95%
run-attribution gate under an 8-worker burst, checker cleanliness of the
sampler's shared ring, and the timeline perf-offset regression.
"""

import asyncio
import json
import threading
import time
import types

import pytest

from repro.api.rest import IResServer
from repro.api.service import IResService
from repro.obs.context import bind_run_id
from repro.obs.profiling import (
    ATTRIBUTION,
    AllocationTracker,
    Profile,
    Sample,
    SamplingProfiler,
    diff_speedscope,
    flamegraph_html,
    folded_from_speedscope,
    hot_functions_from_speedscope,
    self_times_from_speedscope,
    validate_speedscope,
)
from repro.obs.tracing import Tracer, summarize_spans


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        sum(i * i for i in range(100))


# -- sampler core ------------------------------------------------------------

def test_sampler_collects_and_attributes_run_and_span():
    tracer = Tracer()
    profiler = SamplingProfiler(hz=250).start()
    try:
        with bind_run_id("runA"), tracer.span("hot-loop",
                                              category="executor"):
            _spin(0.3)
    finally:
        profile = profiler.stop()
    assert len(profile.samples) > 10
    mine = [s for s in profile.samples if s.run_id == "runA"]
    assert mine, "no samples attributed to the bound run"
    assert any(s.span == "hot-loop" and s.category == "executor"
               for s in mine)
    runs = profile.run_breakdown()
    assert runs["runA"]["selfSecondsByCategory"].get("executor", 0) > 0
    assert runs["runA"]["selfSecondsBySpan"].get("hot-loop", 0) > 0


def test_sampler_attribution_is_per_thread():
    profiler = SamplingProfiler(hz=250).start()

    def work(run_id):
        with bind_run_id(run_id):
            _spin(0.25)

    try:
        threads = [threading.Thread(target=work, args=(f"r{i}",))
                   for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        profile = profiler.stop()
    by_run = profile.run_breakdown()
    for i in range(3):
        assert by_run.get(f"r{i}", {}).get("samples", 0) > 0


def test_spans_only_published_while_a_profiler_is_active():
    tracer = Tracer()
    assert not ATTRIBUTION.active
    with tracer.span("quiet"):
        _, spans = ATTRIBUTION.snapshot()
        assert threading.get_ident() not in spans
    profiler = SamplingProfiler(hz=50).start()
    try:
        assert ATTRIBUTION.active
        with tracer.span("loud", category="planner"):
            _, spans = ATTRIBUTION.snapshot()
            assert spans.get(threading.get_ident()) == ("loud", "planner")
    finally:
        profiler.stop()
    assert not ATTRIBUTION.active
    _, spans = ATTRIBUTION.snapshot()
    assert threading.get_ident() not in spans


def test_sampler_skips_idle_threads_by_default():
    idle_started = threading.Event()
    release = threading.Event()

    def idle():
        idle_started.set()
        release.wait()

    thread = threading.Thread(target=idle, name="idle-thread")
    thread.start()
    idle_started.wait()
    profiler = SamplingProfiler(hz=200).start()
    try:
        _spin(0.15)
    finally:
        profile = profiler.stop()
        release.set()
        thread.join()
    assert profile.samples, "busy main thread must be sampled"
    assert not any(s.thread_name == "idle-thread" for s in profile.samples)


def test_cpu_mode_collects_fewer_samples_while_process_sleeps():
    profiler = SamplingProfiler(hz=200, mode="cpu").start()
    try:
        time.sleep(0.25)  # process mostly idle: cpu ticks are skipped
    finally:
        profile = profiler.stop()
    assert len(profile.samples) <= 5


def test_ring_eviction_counts_dropped_samples():
    profiler = SamplingProfiler(hz=500, max_samples=10).start()
    try:
        _spin(0.3)
    finally:
        profile = profiler.stop()
    assert len(profile.samples) <= 10
    assert profile.dropped.get("ring_full", 0) > 0
    status = profiler.status()
    assert status["samples"] > 10  # collected total keeps counting


def test_take_run_snapshots_and_releases_the_bucket():
    profiler = SamplingProfiler(hz=250).start()
    try:
        with bind_run_id("bank-me"):
            _spin(0.25)
    finally:
        profiler.stop()
    banked = profiler.take_run("bank-me")
    assert banked.samples
    assert all(s.run_id == "bank-me" for s in banked.samples)
    assert not profiler.take_run("bank-me").samples  # bucket released


def test_sampler_never_starts_with_bad_config():
    with pytest.raises(ValueError):
        SamplingProfiler(hz=0)
    with pytest.raises(ValueError):
        SamplingProfiler(mode="gpu")


# -- export formats ----------------------------------------------------------

def _toy_profile() -> Profile:
    frames_a = (("main", "app/main.py", 1), ("work", "app/work.py", 10))
    frames_b = (("main", "app/main.py", 1), ("idle", "app/other.py", 5))
    samples = [
        Sample(1.0, "t", "r1", "s", "executor", frames_a, 0.01),
        Sample(1.0, "t", "r1", "s", "executor", frames_a, 0.01),
        Sample(1.0, "t", "r2", None, None, frames_b, 0.01),
    ]
    return Profile(samples, mode="wall", hz=100.0, started_at=0.0,
                   duration=1.0, overhead=0.001)


def test_speedscope_document_is_valid_and_round_trips():
    profile = _toy_profile()
    doc = profile.speedscope(name="toy")
    assert validate_speedscope(doc) == []
    assert doc["profiles"][0]["unit"] == "seconds"
    assert len(doc["profiles"][0]["samples"]) == 3
    # weights sum to endValue
    assert abs(sum(doc["profiles"][0]["weights"])
               - doc["profiles"][0]["endValue"]) < 1e-9
    # folded recovered from the doc matches the in-memory folded view
    assert folded_from_speedscope(doc) == profile.folded()
    # the ires extension carries per-run attribution
    self_times = self_times_from_speedscope(doc)
    assert self_times["r1"]["executor"] == pytest.approx(0.02)


def test_validate_speedscope_flags_malformed_documents():
    assert validate_speedscope([]) == ["document is not a JSON object"]
    assert any("profiles" in p for p in validate_speedscope(
        {"$schema": "x", "shared": {"frames": []}}))
    bad_index = {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": [{"name": "f"}]},
        "profiles": [{"type": "sampled", "name": "p", "unit": "seconds",
                      "startValue": 0, "endValue": 1,
                      "samples": [[7]], "weights": [1.0]}],
    }
    assert any("out of range" in p for p in validate_speedscope(bad_index))
    mismatched = dict(bad_index)
    mismatched["profiles"] = [{**bad_index["profiles"][0],
                               "samples": [[0]], "weights": [1.0, 2.0]}]
    assert any("weights" in p for p in validate_speedscope(mismatched))


def test_empty_profile_still_exports_a_loadable_document():
    profile = Profile([], mode="wall", hz=10.0, started_at=0.0,
                      duration=0.0, overhead=0.0)
    doc = profile.speedscope()
    assert validate_speedscope(doc) == []
    assert profile.folded() == ""


def test_flamegraph_html_is_self_contained():
    doc = _toy_profile().speedscope()
    html = flamegraph_html(doc, title="x</script><b>")
    assert html.startswith("<!DOCTYPE html>")
    assert "flame-data" in html
    # the data island escapes closing tags so it cannot end the script
    island = html.split('id="flame-data">')[1].split("</script>")[0]
    assert "</" not in island.replace("<\\/", "")
    json.loads(island.replace("<\\/", "</"))


def test_hot_functions_and_diff():
    doc = _toy_profile().speedscope()
    hot = hot_functions_from_speedscope(doc, limit=5)
    assert hot[0]["function"].startswith("work ")
    assert hot[0]["selfSeconds"] == pytest.approx(0.02)
    # main is on every stack: total 0.03, self 0
    totals = {r["function"]: r["totalSeconds"] for r in hot}
    assert all(not f.startswith("main ") for f in totals)
    delta = diff_speedscope(doc, doc)
    assert all(r["deltaSeconds"] == 0 for r in delta)


def test_profile_save_and_filter_run(tmp_path):
    profile = _toy_profile()
    only_r1 = profile.filter_run("r1")
    assert {s.run_id for s in only_r1.samples} == {"r1"}
    path = tmp_path / "p.json"
    profile.save(str(path))
    doc = json.loads(path.read_text())
    assert validate_speedscope(doc) == []
    assert doc["ires"]["sampleCount"] == 3


# -- allocation tracking -----------------------------------------------------

def test_allocation_tracker_stamps_spans_and_buckets_categories():
    tracer = Tracer()
    tracker = AllocationTracker()
    tracker.start()
    tracer.add_hook(tracker)
    try:
        with tracer.span("alloc-heavy", category="modeler") as span:
            blob = [bytes(1000) for _ in range(200)]
        assert "allocNetBytes" in span.attributes
        del blob
        summary = tracker.summary()
        assert "modeler" in summary["netBytesByCategory"]
        assert summary["topSites"]
    finally:
        tracer.remove_hook(tracker)
        tracker.stop()


# -- service + REST integration ----------------------------------------------

class _BusyPlatform:
    """Stub platform whose execute busy-spins in a run-named marker frame.

    The marker function ``marker_<run_id>`` gives every sample of the run
    a ground-truth label independent of the attribution registry, so the
    attribution-accuracy gate below measures real correctness.
    """

    def __init__(self, seconds: float = 0.2):
        self.workflows = {"busy": object()}
        self.executor = types.SimpleNamespace(journal_dir=None)
        self.seconds = seconds

    def execute(self, workflow, control=None, run_id=None, resume_from=None):
        ns: dict = {}
        exec(  # noqa: S102 — test-only ground-truth frame naming
            f"def marker_{run_id}(spin, seconds):\n"
            f"    spin(seconds)\n", ns)
        ns[f"marker_{run_id}"](_spin, self.seconds)
        return types.SimpleNamespace(
            sim_time=1.0, replans=0, retries=0, executions=[],
            recovered_steps=0, cached_plans=0)


def _run_burst(workers: int, runs: int, seconds: float = 0.2):
    profiler = SamplingProfiler(hz=250)
    service = IResService(_BusyPlatform(seconds), workers=workers,
                          queue_limit=runs + workers, profiler=profiler)

    async def main():
        await service.start()
        recs = [service.submit("busy", tenant=f"t{i % 3}")
                for i in range(runs)]
        for rec in recs:
            await service.wait(rec.run_id, timeout=120)
        full = profiler.snapshot()
        await service.shutdown()
        return recs, full

    recs, full = asyncio.run(main())
    return service, recs, full


def test_run_attribution_accuracy_under_8_worker_burst():
    """≥95% of marker-frame samples carry the marker's own run id."""
    service, recs, full = _run_burst(workers=8, runs=16)
    assert all(rec.state == "succeeded" for rec in recs)
    correct = total = 0
    for sample in full.samples:
        marked = [f[0] for f in sample.frames
                  if f[0].startswith("marker_")]
        if not marked:
            continue
        total += 1
        if sample.run_id == marked[-1].removeprefix("marker_"):
            correct += 1
    assert total >= 100, f"burst produced too few marker samples ({total})"
    accuracy = correct / total
    assert accuracy >= 0.95, f"attribution accuracy {accuracy:.3f} < 0.95"


def test_service_banks_per_run_profiles_and_reports_status():
    service, recs, _full = _run_burst(workers=4, runs=6, seconds=0.15)
    stats = service.stats()
    assert stats["profiler"] is not None
    assert stats["profiler"]["samples"] > 0
    banked = [service.run_profile(rec.run_id) for rec in recs]
    assert all(p is not None for p in banked)
    assert any(p.samples for p in banked)
    for rec, profile in zip(recs, banked):
        assert all(s.run_id == rec.run_id for s in profile.samples)


def test_profile_ring_is_bounded():
    profiler = SamplingProfiler(hz=100)
    service = IResService(_BusyPlatform(0.01), workers=2, queue_limit=32,
                          profiler=profiler, profile_history=3)

    async def main():
        await service.start()
        recs = [service.submit("busy") for _ in range(8)]
        for rec in recs:
            await service.wait(rec.run_id, timeout=60)
        await service.shutdown()
        return recs

    recs = asyncio.run(main())
    kept = [rec for rec in recs
            if service.run_profile(rec.run_id) is not None]
    assert len(kept) == 3
    # the ring evicts in finish order; with two workers that is not the
    # submission order, so the survivors are the three that finished last
    latest = sorted(recs, key=lambda r: r.finished_at)[-3:]
    assert {r.run_id for r in kept} == {r.run_id for r in latest}


def test_rest_profile_endpoints():
    service, recs, _full = _run_burst(workers=2, runs=3, seconds=0.15)
    server = IResServer(service=service)
    live = server.handle("GET", "/profile")
    assert live.status == 200
    assert validate_speedscope(live.body) == []
    flame = server.handle("GET", "/profile/flamegraph")
    assert flame.status == 200
    assert flame.text.startswith("<!DOCTYPE html>")
    per_run = server.handle("GET", f"/runs/{recs[0].run_id}/profile")
    assert per_run.status == 200
    assert validate_speedscope(per_run.body) == []
    assert recs[0].run_id in per_run.body["ires"]["runs"] or (
        per_run.body["ires"]["sampleCount"] == 0)
    missing = server.handle("GET", "/runs/nope/profile")
    assert missing.status == 404


def test_rest_profile_404_when_profiler_disabled():
    service = IResService(_BusyPlatform(), profiler=False)
    server = IResServer(service=service)
    assert server.handle("GET", "/profile").status == 404
    assert service.stats()["profiler"] is None


def test_dashboard_renders_hot_functions_panel():
    from repro.obs.dashboard import render_dashboard

    doc = _toy_profile().speedscope()
    html = render_dashboard(service={}, slo={}, tenants={}, runs={},
                            profile=doc)
    assert "hot-body" in html and "profiler-line" in html
    assert "dashboard-data" in html


def test_metrics_registry_exposes_profiler_series():
    from repro.obs.metrics import get_registry, parse_exposition

    profiler = SamplingProfiler(hz=250).start()
    try:
        _spin(0.15)
    finally:
        profiler.stop()
    parsed = parse_exposition(get_registry().render())
    names = {name for name, _labels, _value in parsed["samples"]}
    assert "ires_profiler_samples_total" in names
    assert "ires_profiler_overhead_seconds_total" in names
    samples_total = sum(
        value for name, labels, value in parsed["samples"]
        if name == "ires_profiler_samples_total")
    assert samples_total > 0


# -- checker cleanliness -----------------------------------------------------

def test_sampler_shared_ring_is_clean_under_dynamic_checker(monkeypatch):
    """The sampler's ring survives the instrumented-lock checker.

    A profiler constructed while the checker is enabled gets instrumented
    locks and registered shared state; a multi-threaded burst with run
    binding and span publication must add zero violations.
    """
    from repro.analysis.runtime_check import CHECKER

    before = len(CHECKER.violations())
    monkeypatch.setattr(CHECKER, "enabled", True)
    tracer = Tracer()
    profiler = SamplingProfiler(hz=200, track_allocations=True)
    if profiler.allocation_tracker is not None:
        tracer.add_hook(profiler.allocation_tracker)
    profiler.start()

    def work(run_id):
        with bind_run_id(run_id), tracer.span("w", category="executor"):
            _spin(0.15)

    try:
        threads = [threading.Thread(target=work, args=(f"c{i}",))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        profile = profiler.stop()
        tracer._hooks.clear()
    assert profile.samples
    assert len(CHECKER.violations()) == before


# -- timeline perf-offset satellite ------------------------------------------

def test_build_timeline_computes_perf_offset_exactly_once(monkeypatch):
    import repro.obs.timeline as timeline_mod
    from repro.obs.timeline import build_timeline

    calls = {"n": 0}
    real = timeline_mod.perf_epoch_offset

    def counting():
        calls["n"] += 1
        return real()

    monkeypatch.setattr(timeline_mod, "perf_epoch_offset", counting)
    tracer = Tracer()
    with bind_run_id("tl-run"):
        for _ in range(5):
            with tracer.span("step", category="executor"):
                pass
    events = build_timeline("tl-run", spans=tracer.spans())
    assert len(events) == 5
    assert calls["n"] == 1


def test_timeline_events_share_one_epoch_and_order():
    """Spans merged in one build stay ordered by their perf timestamps."""
    from repro.obs.timeline import build_timeline

    tracer = Tracer()
    with bind_run_id("order-run"):
        for i in range(20):
            with tracer.span(f"s{i}", category="executor"):
                pass
    events = build_timeline("order-run", spans=tracer.spans())
    kinds = [e.kind for e in events]
    assert kinds == [f"span:s{i}" for i in range(20)]
    walls = [e.wall for e in events]
    assert walls == sorted(walls)


def test_timeline_span_self_annotation():
    from repro.obs.timeline import build_timeline

    tracer = Tracer()
    with bind_run_id("ann-run"):
        with tracer.span("hot", category="executor"):
            pass
        with tracer.span("cold", category="executor"):
            pass
    events = build_timeline("ann-run", spans=tracer.spans(),
                            span_self={"hot": 0.5})
    details = {e.kind: e.detail for e in events}
    assert details["span:hot"]["profileSelfSeconds"] == 0.5
    assert "profileSelfSeconds" not in details["span:cold"]


def test_perf_epoch_offset_is_stable():
    from repro.obs.timeline import perf_epoch_offset

    offsets = [perf_epoch_offset() for _ in range(5)]
    assert max(offsets) - min(offsets) < 0.05


# -- trace summary self-time fold-in -----------------------------------------

def test_summarize_spans_folds_profiler_self_time():
    tracer = Tracer()
    with bind_run_id("sum-run"):
        with tracer.span("work", category="executor"):
            pass
    spans = [s.to_dict() for s in tracer.spans()]
    summary = summarize_spans(
        spans, self_times={"sum-run": {"executor": 1.25}})
    run = next(r for r in summary["runs"] if r["run_id"] == "sum-run")
    assert run["phases"]["executor"]["self_seconds"] == 1.25
    # without self_times the key stays absent
    bare = summarize_spans(spans)
    run = next(r for r in bare["runs"] if r["run_id"] == "sum-run")
    assert "self_seconds" not in run["phases"]["executor"]
