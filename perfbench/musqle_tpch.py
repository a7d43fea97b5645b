"""musqle-tpch: the 18 TPC-H-style queries through ``MuSQLE.run``.

Batch, one query at a time.  A pass runs all of ``ALL_QUERIES`` on a fresh
three-engine deployment at scale factor 1; passes alternate between split
placement (each table in one engine) and everywhere placement (every
table in every engine), and each pass generates its data from a new seed
drawn from the workload seed.

Why: it is the only workload that uses ``musqle.optimizer`` and
``sqlengine``.  Everywhere placement gives the optimizer three times the
location choices.  Every result must equal single-engine
``execute_query`` on the same data, compared as a row multiset.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from perfbench.harness import (Context, HostClock, Outcome,
                               latency_summary, repeat)
from perfbench.layers import LayerTrace, layer_metrics
from repro.musqle import MuSQLE, build_default_deployment
from repro.musqle.queries import ALL_QUERIES
from repro.sqlengine import execute_query, parse_query
from repro.sqlengine.executor import aggregate
from repro.sqlengine.tpch import schemas

#: float columns agree when within this relative (and absolute) tolerance
FLOAT_TOL = 1e-9
#: passes every run measures (full and fast mode), whatever ``--seconds``
#: says; the metrics come from these alone, so each query class always
#: gives the same number of samples and the tail quantile cannot slide
#: from one class to the next when a faster program fits more passes
PASSES = 18
PASSES_FAST = 4


def data_seeds(seed: int, passes: int) -> list[int]:
    """The data seed of each pass of a run."""
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=passes)]


def reference(sql: str, tables) -> object:
    """The query's result from one catalog, finished the way MuSQLE is."""
    query = parse_query(sql, schemas(tables))
    table = execute_query(query, tables).table
    if query.is_aggregation:
        return aggregate(table, query)
    if query.select != ("*",):
        return table.project(list(query.select))
    return table


def _sorted_columns(table):
    names = sorted(table.column_names)
    columns = [np.asarray(table.column(name)) for name in names]
    keys = [np.round(c, 6) if c.dtype.kind == "f" else c for c in columns]
    order = np.lexsort(keys[::-1]) if keys and table.n_rows else []
    return names, [c[order] for c in columns]


def rows_differ(result, expected) -> str | None:
    """Compare two tables as row multisets; returns the difference or None."""
    if result.n_rows != expected.n_rows:
        return f"{result.n_rows} rows, reference {expected.n_rows}"
    names, got = _sorted_columns(result)
    ref_names, want = _sorted_columns(expected)
    if names != ref_names:
        return f"columns {names}, reference {ref_names}"
    for name, a, b in zip(names, got, want):
        if a.dtype.kind == "f" or b.dtype.kind == "f":
            same = np.allclose(a.astype(float), b.astype(float),
                               rtol=FLOAT_TOL, atol=FLOAT_TOL)
        else:
            same = np.array_equal(a, b)
        if not same:
            return f"column {name!r} differs"
    return None


def run_pass(data_seed: int, everywhere: bool, scale: float):
    """One pass over every query; returns per-query facts and failures.

    Each entry of the first list is (seconds, sim seconds, OptimizerStats).
    Only ``MuSQLE.run`` is timed; data generation and the reference
    check are not.
    """
    deployment = build_default_deployment(scale, seed=data_seed,
                                          everywhere=everywhere)
    musqle = MuSQLE(deployment)
    facts, errors = [], []
    for index, sql in enumerate(ALL_QUERIES):
        start = time.perf_counter()
        table, stats, info = musqle.run(sql)
        seconds = time.perf_counter() - start
        facts.append((seconds, info.sim_seconds, stats))
        mismatch = rows_differ(table, reference(sql, deployment.tables))
        if mismatch is not None:
            placement = "everywhere" if everywhere else "split"
            errors.append(f"Q{index} data seed {data_seed} {placement}: "
                          f"{mismatch}")
    return facts, errors


def run(ctx: Context) -> Outcome:
    """Run ``PASSES`` passes, and more until ``ctx.seconds``."""
    scale = 0.1 if ctx.fast else 1.0
    build_seconds = []
    for _ in range(3):
        start = time.perf_counter()
        build_default_deployment(scale, seed=data_seeds(ctx.seed, 1)[0])
        build_seconds.append(time.perf_counter() - start)
    if ctx.trace:
        return _traced(ctx, scale, build_seconds)

    seeds = data_seeds(ctx.seed, 10_000)
    passes = PASSES_FAST if ctx.fast else PASSES
    clock = HostClock()
    warmup_errors: list[str] = []

    def warm_up(everywhere: bool) -> float:
        start = time.perf_counter()
        _facts, problems = run_pass(seeds[0], everywhere, scale)
        warmup_errors.extend(problems)
        return time.perf_counter() - start

    # one untimed pair of passes first, so lazy one-off work (first calls
    # into each engine and numpy routine) lands in set-up, not in a query
    warmup_seconds = sum(elapsed * factor for elapsed, factor in (
        clock.around(lambda: warm_up(everywhere))
        for everywhere in (False, True)))
    # passes alternate split and everywhere placement; an even count keeps
    # the mix the same in every run; each pass's query times are
    # host-normalized by the factor of the interval the pass ran in
    results = repeat(
        lambda i: clock.around(
            lambda: run_pass(seeds[i], i % 2 == 1, scale)),
        passes, ctx.seconds)
    measured = [(seconds * factor, sim)
                for (facts, _errors), factor in results[:passes]
                for seconds, sim, _stats in facts]
    errors = warmup_errors + [error for (_facts, problems), _f in results
                              for error in problems]
    # the 36 classes (query x placement) have as many samples each, so a
    # quantile of the raw samples can fall between two classes and read
    # the slowest sample of one and the fastest of the next (the median
    # falls exactly between the 18th and 19th class); quantiles are taken
    # over the samples with each replaced by its class's median instead
    per_class = [[] for _ in range(2 * len(ALL_QUERIES))]
    for index, ((facts, _errors), factor) in enumerate(results[:passes]):
        for query, (seconds, _sim, _stats) in enumerate(facts):
            per_class[2 * query + index % 2].append(seconds * factor)
    latency = latency_summary([statistics.median(times)
                               for times in per_class for _ in times])

    def pass_seconds(result) -> float:
        (facts, _errors), factor = result
        return factor * sum(seconds for seconds, _sim, _stats in facts)

    # a split pass and the everywhere pass after it: the unit whose mix of
    # queries is the same in every run
    pair_seconds = [pass_seconds(split) + pass_seconds(everywhere)
                    for split, everywhere in zip(results[:passes:2],
                                                 results[1:passes:2])]
    return Outcome(
        metrics={
            "latency_p50_s": latency["latency_p50_s"],
            "latency_tail_s": latency["latency_tail_s"],
            "throughput_per_s": (2 * len(ALL_QUERIES)
                                 / statistics.median(pair_seconds)),
            "sim_s": sum(sim for _seconds, sim in measured),
            # one query at a time: nothing shares the engines with a query
            "slowdown_p50": 1.0,
        },
        attempted=(len(results) + 2) * len(ALL_QUERIES), failed=len(errors),
        errors=errors, build_seconds=build_seconds,
        warmup_seconds=warmup_seconds,
        details={"passes": len(results), "latency": latency,
                 "scaleFactor": scale,
                 "wallPassSeconds": [
                     sum(seconds for seconds, _sim, _stats in facts)
                     for (facts, _e), _f in results[:passes]],
                 "hostFactors": [f for _r, f in results[:passes]]},
    )


def _traced(ctx, scale, build_seconds) -> Outcome:
    """One split+everywhere pair untraced, then the same pair traced."""
    seeds = data_seeds(ctx.seed, 2)
    errors: list[str] = []

    def pair():
        facts = []
        for passes, data_seed in enumerate(seeds):
            pass_facts, problems = run_pass(data_seed, passes == 1, scale)
            facts.extend(pass_facts)
            errors.extend(problems)
        return facts

    untraced = sum(seconds for seconds, _sim, _stats in pair())
    with LayerTrace() as trace:
        trace.unit = "query"
        trace.enabled = True
        facts = pair()
        trace.enabled = False
    traced = sum(seconds for seconds, _sim, _stats in facts)
    trace.write(ctx.out_dir / f"trace-musqle-tpch-{ctx.seed}.json")
    stats = [s for _seconds, _sim, s in facts]
    queries = len(stats)
    extra = {
        "musqle.optimizer.busy_s": sum(s.total_seconds for s in stats),
        "musqle.optimizer.explain_s": sum(s.explain_seconds for s in stats),
        "musqle.optimizer.inject_s": sum(s.inject_seconds for s in stats),
        "musqle.optimizer.enumeration_s": sum(
            s.enumeration_seconds for s in stats),
        "musqle.optimizer.csg_cmp_pairs": sum(s.csg_cmp_pairs for s in stats),
    }
    return Outcome(
        metrics=layer_metrics(
            trace, units=queries,
            extra={name: value / queries for name, value in extra.items()},
            overhead_share=traced / untraced - 1.0),
        attempted=2 * queries, failed=len(errors), errors=errors,
        build_seconds=build_seconds,
        details={"selfSeconds": trace.self_times(),
                 "untracedSeconds": untraced, "tracedSeconds": traced,
                 "explainShareOfOptimize": (
                     extra["musqle.optimizer.explain_s"]
                     / extra["musqle.optimizer.busy_s"]),
                 "medianQuerySeconds": statistics.median(
                     seconds for seconds, _sim, _stats in facts)},
    )
