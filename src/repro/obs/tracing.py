"""Hierarchical trace spans over both wall-clock and the simulated clock.

A :class:`Tracer` produces :class:`Span` trees — planner passes, per-step
enforcement, simulator schedules, model trainings — each stamped with wall
time (``time.perf_counter``) *and* the simulated :class:`~repro.engines.clock
.SimClock` time, plus the ``run_id`` bound in :mod:`repro.obs.context`.

Traces export two ways:

- **JSONL** (:meth:`Tracer.export_jsonl`): one span object per line, the
  machine-readable archive format;
- **Chrome trace-event JSON** (:meth:`Tracer.export_chrome`): loadable in
  Perfetto / ``chrome://tracing``.  Spans appear twice — once on the
  "wall clock" process laid out in real time, and (when they consumed
  simulated time) once on the "simulated clock" process laid out in sim
  seconds, which is the timeline that shows the schedule the paper's
  experiments measure.

:func:`load_trace` reads either format back; :func:`summarize_spans` and
:func:`critical_path` power ``ires trace summarize``.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Protocol

if TYPE_CHECKING:
    from repro.engines.clock import SimClock

from repro.obs.context import current_run_id
from repro.obs.profiling import ATTRIBUTION

#: Perfetto thread rows, one per instrumented subsystem
CATEGORY_TIDS = {
    "planner": 1,
    "executor": 2,
    "simulator": 3,
    "modeler": 4,
    "resilience": 5,
    "library": 6,
}
_DEFAULT_TID = 9

WALL_PID = 1
SIM_PID = 2

OK = "ok"
ERROR = "error"
IN_PROGRESS = "in_progress"


#: the events of every span that recorded none; :meth:`Span.add_event`
#: swaps in a list of its own, so this one is never appended to
_NO_EVENTS: list[dict] = []


class Span:
    """One traced operation: ids, two clocks, attributes, events, status.

    ``with tracer.span(...) as span`` enters the span itself: entry stamps
    its ids and start times and makes it the parent of spans opened later
    on the same thread; exit stamps the end and hands it to the tracer.
    Spans wrap every executor step and planner expansion, so the enabled
    path allocates as little as it can: no context-manager generator, no
    per-span context copy, no events list until an event is recorded.
    """

    __slots__ = (
        "name", "category", "span_id", "parent_id", "run_id",
        "start_wall", "end_wall", "start_sim", "end_sim",
        "attributes", "events", "status", "error",
        "_tracer", "_outer", "_published",
    )

    def __init__(self, name: str, category: str, span_id: int = 0,
                 parent_id: int | None = None, run_id: str | None = None,
                 start_wall: float = 0.0, start_sim: float = 0.0,
                 attributes: dict | None = None) -> None:
        self.name = name
        self.category = category
        self.span_id = span_id
        self.parent_id = parent_id
        self.run_id = run_id
        self.start_wall = start_wall
        self.end_wall = start_wall
        self.start_sim = start_sim
        self.end_sim = start_sim
        self.attributes = dict(attributes) if attributes else {}
        self.events: list[dict] = _NO_EVENTS
        self.status = IN_PROGRESS
        self.error: str | None = None
        self._tracer: Tracer | None = None
        self._outer: Span | None = None
        self._published = False

    # -- the ``with`` protocol (spans from Tracer.span) ----------------------
    def __enter__(self) -> "Span":
        tracer = self._tracer
        assert tracer is not None, "enter spans made by Tracer.span()"
        local = tracer._local
        outer: Span | None = getattr(local, "span", None)
        self._outer = outer
        self.span_id = next(tracer._ids)
        self.parent_id = outer.span_id if outer is not None else None
        self.run_id = current_run_id()
        self.start_wall = self.end_wall = time.perf_counter()
        clock = tracer.clock
        self.start_sim = self.end_sim = clock.now if clock is not None else 0.0
        local.span = self
        # Publish to the profiler's cross-thread registry only while a
        # profiler is sampling; the flag keeps the pop on exit balanced.
        if ATTRIBUTION.active:
            self._published = ATTRIBUTION.push_span(self.name, self.category)
        for hook in tracer._hooks:
            hook.span_started(self)
        return self

    def __exit__(self, exc_type: object, exc: BaseException | None,
                 traceback: object) -> None:
        tracer = self._tracer
        assert tracer is not None
        if exc is not None:
            self.status = ERROR
            self.error = f"{type(exc).__name__}: {exc}"
        if self._published:
            ATTRIBUTION.pop_span()
        tracer._local.span = self._outer
        self._outer = None
        self.end_wall = time.perf_counter()
        clock = tracer.clock
        self.end_sim = clock.now if clock is not None else 0.0
        if self.status == IN_PROGRESS:
            self.status = OK
        for hook in tracer._hooks:
            hook.span_finished(self)
        tracer._store(self)

    # -- recording ----------------------------------------------------------
    def set_attribute(self, key: str, value: object) -> None:
        """Attach one attribute (overwrites)."""
        self.attributes[key] = value

    def add_event(self, name: str, wall: float | None = None,
                  sim: float | None = None, **attributes: object) -> None:
        """Record a point-in-time event inside this span.

        ``wall`` defaults to ``time.perf_counter()`` at call time, so point
        events (retries, breaker trips) interleave correctly with other
        wall-stamped telemetry on the unified run timeline.
        """
        if self.events is _NO_EVENTS:
            self.events = []
        self.events.append({
            "name": name,
            "wall": time.perf_counter() if wall is None else wall,
            "sim": sim,
            "attributes": attributes,
        })

    @property
    def wall_seconds(self) -> float:
        """Real seconds the span covers."""
        return max(self.end_wall - self.start_wall, 0.0)

    @property
    def sim_seconds(self) -> float:
        """Simulated seconds the span covers."""
        return max(self.end_sim - self.start_sim, 0.0)

    def to_dict(self) -> dict:
        """JSON-able representation (the JSONL line format)."""
        return {
            "name": self.name,
            "category": self.category,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "run_id": self.run_id,
            "start_wall": self.start_wall,
            "end_wall": self.end_wall,
            "start_sim": self.start_sim,
            "end_sim": self.end_sim,
            "status": self.status,
            "error": self.error,
            "attributes": self.attributes,
            "events": list(self.events),
        }

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"wall={self.wall_seconds:.6f}s, sim={self.sim_seconds:.3f}s, "
                f"{self.status})")


class _NoopSpan:
    """Shared do-nothing span handed out by a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set_attribute(self, key: str, value: object) -> None:  # noqa: D102 - no-op
        pass

    def add_event(self, name: str, wall: float | None = None,
                  sim: float | None = None,
                  **attributes: object) -> None:  # noqa: D102
        pass


NOOP_SPAN = _NoopSpan()


class SpanHook(Protocol):
    """Span-boundary observer contract (see :meth:`Tracer.add_hook`)."""

    def span_started(self, span: Span) -> None: ...

    def span_finished(self, span: Span) -> None: ...


class Tracer:
    """Produces, collects and exports hierarchical spans.

    ``clock`` is the simulated clock to stamp spans with (optional);
    ``enabled=False`` turns every operation into a cheap no-op so
    uninstrumented runs pay almost nothing.
    """

    def __init__(self, clock: "SimClock | None" = None, enabled: bool = True,
                 max_spans: int = 200_000) -> None:
        self.clock = clock
        self.enabled = enabled
        self.max_spans = max_spans
        self._spans: list[Span] = []
        self._ids = itertools.count(1)
        #: ``.span``: this thread's innermost open span (the next span's
        #: parent); spans nest per thread
        self._local = threading.local()
        #: Observers notified at span boundaries (``span_started(span)``
        #: / ``span_finished(span)``), e.g. the allocation tracker.
        self._hooks: list[SpanHook] = []

    # -- hooks --------------------------------------------------------------
    def add_hook(self, hook: "SpanHook") -> None:
        """Register a span-boundary observer (idempotent)."""
        if hook not in self._hooks:
            self._hooks.append(hook)

    def remove_hook(self, hook: "SpanHook") -> None:
        """Unregister a span-boundary observer (missing is fine)."""
        if hook in self._hooks:
            self._hooks.remove(hook)

    # -- clocks -------------------------------------------------------------
    def _wall(self) -> float:
        return time.perf_counter()

    # -- span production ----------------------------------------------------
    def span(self, name: str, category: str = "ires",
             **attributes: object) -> "Span | _NoopSpan":
        """A span to enter with ``with``: a child of whatever span is open
        on this thread at entry."""
        if not self.enabled:
            return NOOP_SPAN
        span = Span(name, category)
        span.attributes = attributes  # this call's own kwargs: no copy
        span._tracer = self
        return span

    def record_span(self, name: str, category: str, start_sim: float,
                    end_sim: float, attributes: dict | None = None,
                    parent: Span | None = None,
                    status: str = OK) -> Span | None:
        """Retro-record a span from simulated timestamps (event-loop output).

        Used by the parallel simulator, whose schedule is only known after
        the event loop ran.  Wall timestamps collapse to "now".
        """
        if not self.enabled:
            return None
        if parent is None:
            parent = getattr(self._local, "span", None)
        parent_id = parent.span_id if isinstance(parent, Span) else None
        span = Span(name, category, next(self._ids), parent_id,
                    current_run_id(), self._wall(), start_sim, attributes)
        span.end_wall = span.start_wall
        span.start_sim = start_sim
        span.end_sim = end_sim
        span.status = status
        self._store(span)
        return span

    def _store(self, span: Span) -> None:
        self._spans.append(span)
        if len(self._spans) > self.max_spans:
            # keep the newest half; old spans were exportable before now
            del self._spans[: len(self._spans) // 2]

    # -- access -------------------------------------------------------------
    def spans(self, run_id: str | None = None) -> list[Span]:
        """Finished spans, optionally filtered to one run."""
        if run_id is None:
            return list(self._spans)
        return [s for s in self._spans if s.run_id == run_id]

    def run_ids(self) -> list[str]:
        """Distinct run ids in first-seen order."""
        seen: dict[str, None] = {}
        for span in self._spans:
            if span.run_id is not None:
                seen.setdefault(span.run_id, None)
        return list(seen)

    def clear(self) -> None:
        """Drop every collected span."""
        self._spans.clear()

    # -- export -------------------------------------------------------------
    def export_jsonl(self, path: str | Path,
                     run_id: str | None = None) -> int:
        """Write one span JSON object per line; returns the span count."""
        spans = self.spans(run_id)
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span.to_dict()) + "\n")
        return len(spans)

    def chrome_trace(self, run_id: str | None = None) -> dict:
        """The Chrome ``trace_event`` JSON object (Perfetto-loadable)."""
        spans = self.spans(run_id)
        return spans_to_chrome([s.to_dict() for s in spans])

    def export_chrome(self, path: str | Path,
                      run_id: str | None = None) -> int:
        """Write the Chrome trace JSON; returns the span count."""
        spans = self.spans(run_id)
        payload = spans_to_chrome([s.to_dict() for s in spans])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return len(spans)


#: shared disabled tracer — the default for un-wired components
NULL_TRACER = Tracer(enabled=False)


# -- chrome trace conversion -------------------------------------------------
def _tid(category: str) -> int:
    return CATEGORY_TIDS.get(category, _DEFAULT_TID)


def spans_to_chrome(spans: list[dict]) -> dict:
    """Convert span dicts into a Chrome trace-event JSON object."""
    events: list[dict] = []
    for pid, label in ((WALL_PID, "IReS wall clock"),
                       (SIM_PID, "IReS simulated clock")):
        events.append({"ph": "M", "pid": pid, "tid": 0,
                       "name": "process_name", "args": {"name": label}})
    for category, tid in sorted(CATEGORY_TIDS.items()):
        for pid in (WALL_PID, SIM_PID):
            events.append({"ph": "M", "pid": pid, "tid": tid,
                           "name": "thread_name", "args": {"name": category}})
    epoch = min((s["start_wall"] for s in spans), default=0.0)
    for span in spans:
        args = {
            "span_id": span["span_id"],
            "parent_id": span["parent_id"],
            "run_id": span["run_id"],
            "status": span["status"],
            "start_sim": span["start_sim"],
            "end_sim": span["end_sim"],
            "start_wall": span["start_wall"],
            "end_wall": span["end_wall"],
        }
        if span.get("error"):
            args["error"] = span["error"]
        args.update(span.get("attributes", {}))
        tid = _tid(span["category"])
        events.append({
            "name": span["name"],
            "cat": span["category"],
            "ph": "X",
            "pid": WALL_PID,
            "tid": tid,
            "ts": (span["start_wall"] - epoch) * 1e6,
            "dur": max(span["end_wall"] - span["start_wall"], 0.0) * 1e6,
            "args": args,
        })
        if span["end_sim"] > span["start_sim"]:
            events.append({
                "name": span["name"],
                "cat": span["category"],
                "ph": "X",
                "pid": SIM_PID,
                "tid": tid,
                "ts": span["start_sim"] * 1e6,
                "dur": (span["end_sim"] - span["start_sim"]) * 1e6,
                "args": args,
            })
        for event in span.get("events", ()):
            events.append({
                "name": f"{span['name']}:{event['name']}",
                "cat": span["category"],
                "ph": "i",
                "pid": WALL_PID,
                "tid": tid,
                "ts": ((event.get("wall") or span["start_wall"]) - epoch) * 1e6,
                "s": "t",
                "args": dict(event.get("attributes", {})),
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- loading + summarizing ---------------------------------------------------
#: keys every loaded span must carry for the analysis functions to work
REQUIRED_SPAN_KEYS = ("name", "start_wall", "end_wall", "start_sim", "end_sim")


def _check_span(span: object, where: str) -> dict:
    """Validate one loaded span dict; raise ValueError with its location."""
    if not isinstance(span, dict):
        raise ValueError(f"{where}: not a span object "
                         f"(got {type(span).__name__})")
    missing = [k for k in REQUIRED_SPAN_KEYS if k not in span]
    if missing:
        raise ValueError(
            f"{where}: span is missing {', '.join(missing)} "
            "(empty or truncated trace file?)")
    return span


def load_trace(path: str | Path) -> list[dict]:
    """Load span dicts from a JSONL or Chrome trace-event file.

    Both formats start with ``{``, so the discriminator is whether the
    whole file parses as one JSON object carrying ``traceEvents``.
    Raises :class:`ValueError` naming the offending line when the file is
    empty, truncated, or carries non-span JSON — callers (``ires trace
    summarize``) turn that into a one-line error instead of a traceback.
    """
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if not text.strip():
        raise ValueError("trace file is empty")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = None
    if isinstance(payload, dict):
        if "traceEvents" in payload:
            return [_check_span(s, f"trace event {i}")
                    for i, s in enumerate(
                        _spans_from_chrome(payload["traceEvents"]))]
        return [_check_span(payload, "line 1")]  # a single-span JSONL file
    spans = []
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            parsed = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"line {line_no}: invalid JSON (truncated trace file?): "
                f"{exc}") from exc
        spans.append(_check_span(parsed, f"line {line_no}"))
    return spans


def _spans_from_chrome(events: list[dict]) -> list[dict]:
    """Reconstruct span dicts from the wall-clock complete events."""
    spans = []
    seen: set[int] = set()
    for event in events:
        if event.get("ph") != "X":
            continue
        args = event.get("args", {})
        span_id = args.get("span_id")
        if span_id is None or span_id in seen:
            continue
        seen.add(span_id)
        known = {"span_id", "parent_id", "run_id", "status", "error",
                 "start_sim", "end_sim", "start_wall", "end_wall"}
        spans.append({
            "name": event.get("name", ""),
            "category": event.get("cat", ""),
            "span_id": span_id,
            "parent_id": args.get("parent_id"),
            "run_id": args.get("run_id"),
            "status": args.get("status", OK),
            "error": args.get("error"),
            "start_wall": args.get("start_wall", 0.0),
            "end_wall": args.get("end_wall", 0.0),
            "start_sim": args.get("start_sim", 0.0),
            "end_sim": args.get("end_sim", 0.0),
            "attributes": {k: v for k, v in args.items() if k not in known},
            "events": [],
        })
    return spans


def critical_path(spans: list[dict]) -> tuple[float, list[dict]]:
    """Critical path through the per-step spans, in simulated seconds.

    Step spans carry ``inputs``/``outputs`` dataset-name attributes; a step
    starts once the producers of its inputs finished.  Returns the makespan
    and the chain of step spans on the critical path (execution order).
    """
    steps = [
        s for s in spans
        if isinstance(s.get("attributes", {}).get("outputs"), list)
    ]
    steps.sort(key=lambda s: (s["start_sim"], s["span_id"]))
    finish_by_dataset: dict[str, float] = {}
    maker_by_dataset: dict[str, dict] = {}
    pred: dict[int, dict | None] = {}
    finish_of: dict[int, float] = {}
    for step in steps:
        attrs = step["attributes"]
        start, producer = 0.0, None
        for name in attrs.get("inputs", ()):
            upstream = finish_by_dataset.get(name, 0.0)
            if upstream > start:
                start, producer = upstream, maker_by_dataset.get(name)
        finish = start + max(step["end_sim"] - step["start_sim"], 0.0)
        pred[step["span_id"]] = producer
        finish_of[step["span_id"]] = finish
        for name in attrs["outputs"]:
            if finish >= finish_by_dataset.get(name, -1.0):
                finish_by_dataset[name] = finish
                maker_by_dataset[name] = step
    if not finish_of:
        return 0.0, []
    last_id = max(finish_of, key=lambda sid: finish_of[sid])
    makespan = finish_of[last_id]
    by_id = {s["span_id"]: s for s in steps}
    chain: list[dict] = []
    cursor: dict | None = by_id[last_id]
    while cursor is not None:
        chain.append(cursor)
        cursor = pred[cursor["span_id"]]
    chain.reverse()
    return makespan, chain


def summarize_spans(spans: list[dict],
                    self_times: dict[str, dict[str, float]] | None = None,
                    ) -> dict:
    """Aggregate a trace: per-run, per-phase totals plus the critical path.

    ``self_times`` is an optional ``{run_id: {category: seconds}}`` table
    of profiler-attributed self CPU (see
    :func:`repro.obs.profiling.self_times_from_speedscope`); when given,
    each phase gains a ``self_seconds`` figure.
    """
    runs: dict[str, list[dict]] = {}
    for span in spans:
        runs.setdefault(span.get("run_id") or "-", []).append(span)
    summary: dict = {"runs": []}
    for run_id, run_spans in runs.items():
        run_self = (self_times or {}).get(run_id, {})
        phases: dict[str, dict] = {}
        for span in run_spans:
            phase = phases.setdefault(
                span.get("category") or "ires",
                {"spans": 0, "wall_seconds": 0.0, "sim_seconds": 0.0,
                 "errors": 0},
            )
            phase["spans"] += 1
            phase["wall_seconds"] += max(
                span["end_wall"] - span["start_wall"], 0.0)
            phase["sim_seconds"] += max(
                span["end_sim"] - span["start_sim"], 0.0)
            if span.get("status") == ERROR:
                phase["errors"] += 1
        for category, phase in phases.items():
            if category in run_self:
                phase["self_seconds"] = round(run_self[category], 6)
        makespan, chain = critical_path(run_spans)
        summary["runs"].append({
            "run_id": run_id,
            "spans": len(run_spans),
            "phases": phases,
            "critical_path_seconds": makespan,
            "critical_path": [
                {
                    "name": s["name"],
                    "engine": s.get("attributes", {}).get("engine", ""),
                    "sim_seconds": max(s["end_sim"] - s["start_sim"], 0.0),
                }
                for s in chain
            ],
        })
    return summary
