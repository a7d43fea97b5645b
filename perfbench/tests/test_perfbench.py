"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests``.

They run every workload in fast mode through the real command, check that
each output check rejects a corrupted result, that the printed metric
names are the ones ``BENCHMARK.json`` declares, and that per-layer counts
repeat exactly across two traced runs of the single-threaded workloads.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import cluster_burst, musqle_tpch, plan_pegasus, serve_chain  # noqa: E402
from perfbench.harness import E2E_UNITS, LAYER_UNITS, tail_quantile  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SINGLE_THREADED = ["plan-pegasus", "cluster-burst", "musqle-tpch"]
#: per-layer metrics that are counts (or ratios of counts), not times
COUNT_METRICS = sorted(
    name for name, unit in LAYER_UNITS.items()
    if unit == "count" or name.endswith(("grant_ratio", "hit_ratio",
                                         "fits_consumed_ratio")))


def bench(workload: str, trace: int, seed: int = 0, seconds: float = 1.0,
          cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--fast"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- metric names --------------------------------------------------------------

def test_benchmark_json_declares_the_printed_metrics():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == LAYER_UNITS
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert BENCHMARK["paths"] == ["perfbench"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fast_mode_prints_every_end_to_end_metric(workload):
    result = result_of(bench(workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == list(E2E_UNITS)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == E2E_UNITS[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", SINGLE_THREADED)
def test_traced_counts_repeat_exactly(workload):
    first = result_of(bench(workload, trace=1))
    second = result_of(bench(workload, trace=1))
    assert list(first["metrics"]) == list(LAYER_UNITS)
    counts = {name: first["metrics"][name]["value"] for name in COUNT_METRICS}
    assert counts == {name: second["metrics"][name]["value"]
                      for name in COUNT_METRICS}
    assert any(counts.values())


def test_serve_chain_traced_run_prints_every_layer_metric():
    result = result_of(bench("serve-chain", trace=1, seconds=4))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == list(LAYER_UNITS)
    assert metrics["core.modeler.train_calls"] > 0
    assert metrics["execution.journal.append_calls"] > 0
    # the oracle estimator never reads a trained model
    assert metrics["core.modeler.fits_consumed_ratio"] == 0.0


def test_without_sources_the_command_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("plan-pegasus", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- output checks reject corrupted results --------------------------------------

def test_plan_check_rejects_a_plan_missing_a_step():
    item = plan_pegasus.cycle(plan_pegasus.FAST, 0)[0]
    golden = plan_pegasus.load_goldens()[item.key]
    result = plan_pegasus.plan(*item.build())
    assert plan_pegasus.check_plan(result, golden) is None
    result.steps.pop()
    assert "steps" in plan_pegasus.check_plan(result, golden)
    assert plan_pegasus.check_plan(result, None) == "no golden recorded"


def test_plan_check_rejects_a_wrong_cost():
    item = plan_pegasus.cycle(plan_pegasus.FAST, 1)[1]
    golden = plan_pegasus.load_goldens()[item.key]
    result = plan_pegasus.plan(*item.build())
    result.cost *= 1.001
    assert "cost" in plan_pegasus.check_plan(result, golden)


def test_musqle_check_rejects_a_dropped_row_and_a_changed_value():
    from repro.musqle import MuSQLE, build_default_deployment
    from repro.musqle.queries import ALL_QUERIES

    deployment = build_default_deployment(0.1, seed=4)
    sql = ALL_QUERIES[-1]
    table, _stats, _info = MuSQLE(deployment).run(sql)
    expected = musqle_tpch.reference(sql, deployment.tables)
    assert musqle_tpch.rows_differ(table, expected) is None
    assert table.n_rows > 1
    dropped = table.select_rows(slice(1, None))
    assert "rows" in musqle_tpch.rows_differ(dropped, expected)
    name = table.column_names[0]
    changed = table.project(table.column_names)
    column = changed.columns[name].copy()
    column[0] = column[0] + 1
    changed.columns[name] = column
    assert "differs" in musqle_tpch.rows_differ(changed, expected)


def test_cluster_check_rejects_a_failed_run_and_a_miscount():
    burst = cluster_burst.build(0, 8)
    _seconds, loop, runs = cluster_burst.drive(burst)
    placed = loop.snapshot()["stepsPlaced"]
    assert cluster_burst.check_burst(runs, placed) == []
    assert cluster_burst.check_burst(runs, placed + 1)
    runs[0].report = None
    assert cluster_burst.check_burst(runs, placed)


def test_serve_check_rejects_a_failed_run_and_a_torn_journal(tmp_path):
    from repro.execution.journal import journal_path

    ires = serve_chain.platform_factory()
    ires.executor.journal_dir = tmp_path
    report = ires.execute(ires.workflows[serve_chain.WORKFLOW])
    body = {"runId": report.run_id, "state": "succeeded", "startedAt": 1.0}
    assert serve_chain.check_runs([body], tmp_path) == []
    assert serve_chain.check_runs([{**body, "state": "failed"}], tmp_path)
    path = journal_path(tmp_path, report.run_id)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    assert "journal" in serve_chain.check_runs([body], tmp_path)[0]


# -- statistics -----------------------------------------------------------------------

def test_tail_level_keeps_ten_samples_beyond_it():
    assert tail_quantile(5) == 0.5
    assert tail_quantile(20) == 0.5
    assert tail_quantile(100) == pytest.approx(0.9)


# -- facts of the full-size inputs ------------------------------------------------

def test_cluster_burst_seed_zero_is_the_original_burst():
    from perfbench.layers import LayerTrace

    burst = cluster_burst.build(0, 64)
    with LayerTrace() as trace:
        trace.enabled = True
        _seconds, loop, runs = cluster_burst.drive(burst)
    placed = loop.snapshot()["stepsPlaced"]
    assert cluster_burst.check_burst(runs, placed) == []
    assert placed == 936
    assert trace.calls["engines.containers.allocate"] == 101_475
    # move steps take no containers, so fewer grants than placed steps
    assert trace.returned["engines.containers.allocate"] == 888
    assert max(r.finished_at for r in runs) == pytest.approx(185.345, abs=1e-3)


def test_musqle_matches_the_reference_at_data_seed_4():
    stats = []
    for everywhere in (False, True):
        facts, errors = musqle_tpch.run_pass(4, everywhere, 1.0)
        assert errors == []
        stats.extend(s for _seconds, _sim, s in facts)
    assert len(stats) == 36
    explain = sum(s.explain_seconds for s in stats)
    assert explain > 0.5 * sum(s.total_seconds for s in stats)
