"""Tests for online model refinement: batching cadence and drift refits."""

import pytest

from repro.core import IReS
from repro.core.modeler import Modeler
from repro.core.refinement import ModelRefiner
from repro.engines.monitoring import MetricRecord, MetricsCollector
from repro.obs.accuracy import AccuracyLedger, LedgerEntry
from repro.scenarios import setup_helloworld


def _rec(algorithm="count", engine="E1", n=1e5, exec_time=None, success=True,
         factor=1.0):
    """A synthetic monitored run: time linear in count, scaled by factor."""
    if exec_time is None:
        exec_time = (5.0 + 1e-4 * n) * factor
    return MetricRecord(
        operator=algorithm, algorithm=algorithm, engine=engine,
        exec_time=exec_time, started_at=0.0, success=success,
        input_size=n * 100.0, input_count=n, cores=4, memory_gb=8.0,
    )


def _stack(refit_every=3):
    collector = MetricsCollector()
    modeler = Modeler(collector)
    return collector, modeler, ModelRefiner(modeler, refit_every=refit_every)


class TestRefitBatching:
    def test_refit_every_counts_per_pair_under_interleaving(self):
        collector, modeler, refiner = _stack(refit_every=3)
        triggers = []
        # strictly interleaved streams of two (operator, engine) pairs:
        # each pair's counter must reach 3 independently
        for i in range(6):
            pair = ("count", "E1") if i % 2 == 0 else ("sort", "E2")
            record = _rec(*pair, n=1e4 * (i + 1))
            collector.record(record)
            if refiner.observe(record.algorithm, record.engine):
                triggers.append((i, pair))
        assert triggers == [(4, ("count", "E1")), (5, ("sort", "E2"))]
        # observing only schedules the fits; the first read runs them
        assert refiner.refits == 0
        assert modeler.fitted("count", "E1") is None
        assert modeler.get("count", "E1") is not None
        assert modeler.get("sort", "E2") is not None
        assert modeler.fitted("count", "E1").n_samples == 3

    def test_failed_records_do_not_advance_the_batch(self):
        """The platform observes successful steps only, so a failed attempt
        neither counts toward a batch nor becomes a training sample."""
        ires = IReS(refit_every=2)
        make = setup_helloworld(ires)
        ires.fault_injector.seed = 3
        ires.fault_injector.make_all_flaky(0.3)
        observed = []
        original = ires.refiner.observe
        ires.refiner.observe = lambda *pair: observed.append(pair) or original(
            *pair)
        report = ires.execute(make())
        assert any(not e.success for e in report.executions)
        assert sorted(observed) == sorted(
            (e.step.operator.algorithm, e.engine)
            for e in report.executions if e.success and e.engine != "move")
        for algorithm, engine in set(observed):
            assert ires.modeler.sample_count(algorithm, engine) == \
                observed.count((algorithm, engine))

    def test_refit_every_validated(self):
        _, modeler, _ = _stack()
        with pytest.raises(ValueError):
            ModelRefiner(modeler, refit_every=0)

    def test_flush_trains_pending_pairs(self):
        collector, modeler, refiner = _stack(refit_every=10)
        for i in range(3):
            record = _rec(n=1e4 * (i + 1))
            collector.record(record)
            refiner.observe(record.algorithm, record.engine)
        assert modeler.get("count", "E1") is None
        assert refiner.flush() == 1
        assert modeler.get("count", "E1") is not None


class TestRefitNow:
    def test_bypasses_batching_and_resets_pending(self):
        collector, modeler, refiner = _stack(refit_every=3)
        for i in range(2):
            record = _rec(n=1e4 * (i + 1))
            collector.record(record)
            refiner.observe(record.algorithm, record.engine)
        assert refiner.refit_now("count", "E1") is True
        assert refiner.refits == 1
        # pending was reset: the next observation starts a fresh batch
        record = _rec(n=5e4)
        collector.record(record)
        assert refiner.observe(record.algorithm, record.engine) is False

    def test_returns_false_without_samples(self):
        _, _, refiner = _stack()
        assert refiner.refit_now("never", "seen") is False
        assert refiner.refits == 0

    def test_window_trains_on_post_drift_records(self):
        collector, modeler, refiner = _stack()
        counts = (1e4, 3e4, 1e5, 3e5)
        for n in counts * 2:
            collector.record(_rec(n=n))
        # the engine degrades 4x; newest records reflect the new reality
        for n in counts * 2:
            collector.record(_rec(n=n, factor=4.0))
        features = {"input_size": 1e5 * 100.0, "input_count": 1e5,
                    "cores": 4.0, "memory_gb": 8.0}
        truth = (5.0 + 1e-4 * 1e5) * 4.0

        assert refiner.refit_now("count", "E1") is True
        stale_error = abs(modeler.estimate("count", "E1", features) - truth)
        assert refiner.refit_now("count", "E1", window=8) is True
        fresh_error = abs(modeler.estimate("count", "E1", features) - truth)
        # all-history training averages pre- and post-drift; a window learns
        # only the degraded engine
        assert fresh_error < stale_error
        assert fresh_error / truth < 0.1


class TestRefitReducesLedgerError:
    def test_windowed_refit_recovers_ledger_mape(self):
        """Satellite acceptance at the modeling layer: a drifting engine's
        ledger MAPE falls back down once the drift refit retrains on the
        post-drift window."""
        collector, modeler, refiner = _stack()
        ledger = AccuracyLedger(recent_window=4)
        counts = (1e4, 3e4, 1e5, 3e5)
        features = {n: {"input_size": n * 100.0, "input_count": n,
                        "cores": 4.0, "memory_gb": 8.0} for n in counts}

        def run_and_ledger(n, factor, index):
            actual = (5.0 + 1e-4 * n) * factor
            predicted = modeler.estimate("count", "E1", features[n])
            collector.record(_rec(n=n, factor=factor))
            ledger.record(LedgerEntry(
                run_id="r", workflow="wf", step="count", operator="count",
                engine="E1", predicted={"execTime": predicted},
                actual={"execTime": actual}, at=float(index)))

        for n in counts * 2:
            collector.record(_rec(n=n))
        assert modeler.train("count", "E1") is not None

        index = 0
        for n in counts:  # healthy phase
            run_and_ledger(n, 1.0, index)
            index += 1
        healthy = ledger.stats_for("count", "E1").recent_mape
        assert healthy < 0.05

        for n in counts:  # drifted, model still stale
            run_and_ledger(n, 4.0, index)
            index += 1
        drifted = ledger.stats_for("count", "E1").recent_mape
        assert drifted > 0.5

        assert refiner.refit_now("count", "E1", window=4) is True
        for n in counts:  # post-refit predictions track the new reality
            run_and_ledger(n, 4.0, index)
            index += 1
        recovered = ledger.stats_for("count", "E1").recent_mape
        assert recovered < 0.1
        assert recovered < drifted


def _counting_train(modeler):
    """Wrap ``modeler.train`` (the one fitting entry point) with a call log."""
    calls = []
    original = modeler.train

    def train(algorithm, engine, window=None):
        calls.append((algorithm, engine))
        return original(algorithm, engine, window=window)

    modeler.train = train
    return calls


class TestLazyRefits:
    def test_oracle_platform_fits_nothing_until_a_read(self):
        ires = IReS()  # oracle estimator: never reads a trained model
        make = setup_helloworld(ires)
        calls = _counting_train(ires.modeler)
        runs = 5
        reports = [ires.execute(make()) for _ in range(runs)]
        assert calls == []
        step = next(e for e in reports[0].executions if e.engine != "move")
        pair = (step.step.operator.algorithm, step.engine)
        observed = sum(1 for report in reports for e in report.executions
                       if e.success and (e.step.operator.algorithm,
                                         e.engine) == pair)
        assert observed >= runs
        model = ires.modeler.get(*pair)
        assert calls == [pair]
        assert model is not None and model.n_samples == observed
        ires.modeler.get(*pair)
        assert calls == [pair]  # fitted once; no longer due

    def test_models_estimator_plans_equal_eager_fitting(self):
        """Lazy fits see exactly the samples an eager fit after each run
        saw, so plans, cache hits and per-step predictions are identical."""
        from repro.core import ProfileSpec
        from repro.models import fast_model_zoo
        from repro.scenarios import BYTES_PER_DOC, setup_text_analytics

        def platform(refit_every):
            ires = IReS(estimator="models", refit_every=refit_every)
            ires.modeler.zoo = fast_model_zoo()
            make = setup_text_analytics(ires)
            for algorithm in ("TF_IDF", "kmeans"):
                for engine in ("scikit", "Spark"):
                    ires.profile_operator(ProfileSpec(
                        algorithm, engine, counts=[1e3, 1e4, 1e5],
                        bytes_per_item=BYTES_PER_DOC))
            return ires, make

        lazy, make_lazy = platform(refit_every=1)
        eager, make_eager = platform(refit_every=10**6)

        def shape(report):
            return (
                report.cached_plans,
                [[(s.operator.name, s.engine, s.predicted) for s in plan.steps]
                 for plan in report.plans],
                [(e.step.operator.name, e.engine, e.sim_seconds)
                 for e in report.executions],
            )

        for n in (1e3, 1e5, 1e4, 1e6, 1e3, 1e5, 1e4, 1e6):
            expected = eager.execute(make_eager(n))
            for pair in {(e.step.operator.algorithm, e.engine)
                         for e in expected.executions
                         if e.success and e.engine != "move"}:
                eager.refiner.refit_now(*pair)  # explicit train-after-run
            assert shape(lazy.execute(make_lazy(n))) == shape(expected)
        assert lazy.modeler.models.keys() == eager.modeler.models.keys()

    def test_plan_cache_epoch_bumps_once_per_due_pair(self):
        from repro.core.plancache import PlanCache

        collector, modeler, refiner = _stack(refit_every=2)
        cache = PlanCache().attach_refiner(refiner)
        calls = _counting_train(modeler)
        for pair in (("count", "E1"), ("sort", "E2")):
            for i in range(2):
                collector.record(_rec(*pair, n=1e4 * (i + 1)))
                refiner.observe(*pair)
        assert cache.model_epoch == 2 and calls == []
        assert modeler.get("count", "E1") is not None
        assert refiner.flush() == 1  # sort@E2, already announced when due
        assert cache.model_epoch == 2
        assert sorted(calls) == [("count", "E1"), ("sort", "E2")]

    def test_drift_refit_clears_the_due_flag(self):
        collector, modeler, refiner = _stack(refit_every=1)
        for i in range(4):
            collector.record(_rec(n=1e4 * (i + 1)))
        refiner.observe("count", "E1")
        calls = _counting_train(modeler)
        assert refiner.refit_now("count", "E1", window=2) is True
        assert modeler.get("count", "E1").n_samples == 2  # no second fit
        assert calls == [("count", "E1")]

    def test_model_readiness_lint_runs_no_fit(self):
        from repro.core import ProfileSpec
        from repro.scenarios import setup_text_analytics

        ires = IReS(estimator="models")
        ires.workflows["text"] = setup_text_analytics(ires)(1e4)
        ires.profiler.profile(ProfileSpec(
            "TF_IDF", "Spark", counts=[1e3, 1e4, 1e5, 1e6]))
        ires.refiner.observe("TF_IDF", "Spark")  # due: samples, no model yet
        calls = _counting_train(ires.modeler)
        findings = ires.lint()
        assert calls == []
        assert any(d.code == "IRES031" and "TF_IDF@Spark" in d.message
                   for d in findings)

    def test_concurrent_reads_claim_each_due_fit_once(self):
        """Readers racing on a due pair run its fit exactly once per due
        marking: a lost claim would fit twice, a lost mark not at all."""
        import sys
        import threading

        import time

        collector, modeler, refiner = _stack(refit_every=1)
        for i in range(4):
            collector.record(_rec(n=1e4 * (i + 1)))
        calls = _counting_train(modeler)
        counted_train = modeler.train

        def slow_train(algorithm, engine, window=None):
            time.sleep(0.002)  # readers arriving meanwhile must not refit
            return counted_train(algorithm, engine, window=window)

        modeler.train = slow_train
        rounds, readers = 20, 8
        barrier = threading.Barrier(readers + 1, timeout=30)
        errors = []

        def read():
            try:
                for _ in range(rounds):
                    barrier.wait()  # the pair was just marked due
                    modeler.get("count", "E1")
                    barrier.wait()  # round over
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(readers)]
            for thread in threads:
                thread.start()
            for _ in range(rounds):
                refiner.observe("count", "E1")
                barrier.wait()
                barrier.wait()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert calls == [("count", "E1")] * rounds
