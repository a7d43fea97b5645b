"""Tests for profiler, modeler, refinement and estimators (optimizer layer)."""

import numpy as np
import pytest

from repro.core import (
    Dataset,
    MaterializedOperator,
    Modeler,
    ModelRefiner,
    ModelBackedEstimator,
    OracleEstimator,
    ProfileSpec,
    Profiler,
    monetary_cost,
    workload_from_inputs,
)
from repro.engines import Resources, Workload, build_default_cloud
from repro.models import fast_model_zoo


@pytest.fixture
def cloud():
    return build_default_cloud(seed=3)


def spark_tfidf_op(extra=None):
    props = {
        "Constraints.OpSpecification.Algorithm.name": "TF_IDF",
        "Constraints.Engine": "Spark",
        "Constraints.Input.number": 1,
        "Constraints.Output.number": 1,
    }
    props.update(extra or {})
    return MaterializedOperator("TF_IDF_spark", props)


class TestProfileSpec:
    def test_grid_is_full_cartesian_product(self):
        spec = ProfileSpec(
            "a", "E", counts=[1, 2], params={"k": [3, 4, 5]},
            resources=[Resources(2, 4), Resources(4, 8)],
        )
        grid = spec.grid()
        assert len(grid) == 2 * 3 * 2
        counts = {g[0] for g in grid}
        assert counts == {1, 2}
        assert all(set(g[1]) == {"k"} for g in grid)

    def test_grid_without_params(self):
        spec = ProfileSpec("a", "E", counts=[1], resources=[Resources(1, 1)])
        assert spec.grid() == [(1, {}, Resources(1, 1))]


class TestProfiler:
    def test_profile_runs_grid_and_records(self, cloud):
        spec = ProfileSpec(
            "TF_IDF", "Spark", counts=[1e3, 1e4], bytes_per_item=1e3,
            resources=[Resources(8, 16), Resources(16, 32)],
        )
        records = Profiler(cloud).profile(spec)
        assert len(records) == 4
        assert len(cloud.collector.for_operator("TF_IDF", "Spark")) == 4
        assert all(r.exec_time > 0 for r in records)

    def test_profile_max_runs_prefix(self, cloud):
        spec = ProfileSpec("TF_IDF", "Spark", counts=[1e3, 1e4, 1e5])
        records = Profiler(cloud).profile(spec, max_runs=2)
        assert len(records) == 2

    def test_failed_runs_skipped_not_returned(self, cloud):
        # Java pagerank OOMs at 1e8 edges on an 8 GB node.
        spec = ProfileSpec(
            "pagerank", "Java", counts=[1e4, 1e8], bytes_per_item=40,
            params={"iterations": [10]}, resources=[Resources(4, 8)],
        )
        records = Profiler(cloud).profile(spec)
        assert len(records) == 1
        assert len(cloud.collector.failures()) == 1

    def test_random_setups_uniform_sampling(self, cloud):
        spec = ProfileSpec(
            "TF_IDF", "Spark", counts=[1e3, 1e4, 1e5],
            resources=[Resources(4, 8), Resources(16, 32)],
        )
        records = Profiler(cloud).sample_random_setups(spec, n_runs=12, seed=1)
        assert len(records) == 12
        assert len({r.input_count for r in records}) > 1


class TestModeler:
    def test_too_few_samples_returns_none(self, cloud):
        modeler = Modeler(cloud.collector)
        assert modeler.train("TF_IDF", "Spark") is None
        assert modeler.estimate("TF_IDF", "Spark", {}) is None

    def test_train_and_estimate_accuracy(self, cloud):
        spec = ProfileSpec(
            "TF_IDF", "Spark",
            counts=[1e3, 5e3, 1e4, 5e4, 1e5, 5e5], bytes_per_item=1e3,
            resources=[Resources(c, 2 * c) for c in (4, 8, 16, 32)],
        )
        Profiler(cloud).profile(spec)
        modeler = Modeler(cloud.collector, zoo=fast_model_zoo())
        model = modeler.train("TF_IDF", "Spark")
        assert model is not None
        assert model.n_samples == 24
        # interpolation accuracy within the grid should be decent
        truth = cloud.engine("Spark").true_seconds(
            "TF_IDF", Workload.of_count(2e4, 1e3), Resources(8, 16)
        )
        est = modeler.estimate("TF_IDF", "Spark", {
            "input_size": 2e4 * 1e3, "input_count": 2e4,
            "cores": 8.0, "memory_gb": 16.0,
        })
        assert est == pytest.approx(truth, rel=0.5)

    def test_drop_model(self, cloud):
        Profiler(cloud).profile(ProfileSpec("TF_IDF", "Spark", counts=[1e3, 1e4]))
        modeler = Modeler(cloud.collector, zoo=fast_model_zoo())
        modeler.train("TF_IDF", "Spark")
        modeler.drop("TF_IDF", "Spark")
        assert modeler.get("TF_IDF", "Spark") is None


class TestRefinement:
    def test_refit_every_batches(self, cloud):
        modeler = Modeler(cloud.collector, zoo=fast_model_zoo())
        refiner = ModelRefiner(modeler, refit_every=3)
        profiler = Profiler(cloud)
        spec = ProfileSpec("TF_IDF", "Spark", counts=[1e3, 1e4, 1e5, 1e6])
        retrains = 0
        for record in profiler.profile(spec):
            if refiner.observe(record.algorithm, record.engine):
                retrains += 1
        assert retrains == 1  # 4 observations, due at the 3rd
        assert modeler.fitted("TF_IDF", "Spark") is None  # fit waits for a read
        assert refiner.flush() == 1  # the due fit, with the pending 4th sample
        assert modeler.fitted("TF_IDF", "Spark").n_samples == 4

    def test_failed_records_ignored(self, cloud):
        modeler = Modeler(cloud.collector)
        refiner = ModelRefiner(modeler, refit_every=1)
        from repro.engines import MetricRecord

        bad = MetricRecord("x", "a", "E", float("inf"), 0.0, success=False)
        cloud.collector.record(bad)
        assert modeler.sample_count("a", "E") == 0
        # a due pair with no successful samples fits nothing
        assert refiner.observe("a", "E") is False
        assert modeler.get("a", "E") is None

    def test_bad_refit_every_rejected(self, cloud):
        with pytest.raises(ValueError):
            ModelRefiner(Modeler(cloud.collector), refit_every=0)

    def test_refinement_improves_accuracy(self, cloud):
        """More observations -> lower relative error (the Fig 16.a trend)."""
        modeler = Modeler(cloud.collector, zoo=fast_model_zoo())
        refiner = ModelRefiner(modeler, refit_every=5)
        profiler = Profiler(cloud)
        spec = ProfileSpec(
            "wordcount", "MapReduce",
            counts=[1e5, 5e5, 1e6, 5e6, 1e7], bytes_per_item=1e3,
            resources=[Resources(c, m) for c in (4, 16, 32) for m in (8, 32)],
        )
        rng = np.random.default_rng(5)
        engine = cloud.engine("MapReduce")
        errors = []
        for run in range(60):
            count = spec.counts[rng.integers(len(spec.counts))]
            res = spec.resources[rng.integers(len(spec.resources))]
            feats = {"input_size": count * 1e3, "input_count": count,
                     "cores": float(res.cores), "memory_gb": res.memory_gb}
            pred = modeler.estimate("wordcount", "MapReduce", feats)
            rec = profiler.profile_point(engine, spec, count, {}, res)
            if pred is not None and rec is not None:
                errors.append(abs(pred - rec.exec_time) / rec.exec_time)
            if rec is not None:
                refiner.observe(rec.algorithm, rec.engine)
        late = float(np.mean(errors[-10:]))
        assert late < 0.30  # the paper's "below 30% after ~50 runs"


class TestEstimators:
    def test_workload_from_inputs_aggregates(self):
        op = spark_tfidf_op({"Execution.Param.iterations": 5})
        inputs = [
            Dataset("a", {"Optimization.size": 1e9, "Optimization.count": 10}),
            Dataset("b", {"Optimization.size": 2e9, "Optimization.count": 20}),
        ]
        w = workload_from_inputs(op, inputs)
        assert w.size_gb == pytest.approx(3.0)
        assert w.count == 30
        assert w.params == {"iterations": 5.0}

    def test_oracle_matches_ground_truth(self, cloud):
        est = OracleEstimator(cloud)
        op = spark_tfidf_op()
        inputs = [Dataset("docs", {"Optimization.count": 1e4,
                                   "Optimization.size": 1e7})]
        metrics = est.operator_metrics(op, inputs)
        truth = cloud.engine("Spark").true_seconds(
            "TF_IDF", Workload(count=1e4, size_gb=0.01),
            cloud.engine("Spark").default_resources(),
        )
        assert metrics["execTime"] == pytest.approx(truth)
        res = cloud.engine("Spark").default_resources()
        assert metrics["cost"] == pytest.approx(monetary_cost(res, truth))

    def test_oracle_infeasible_on_oom(self, cloud):
        est = OracleEstimator(cloud)
        op = MaterializedOperator("pr_java", {
            "Constraints.OpSpecification.Algorithm.name": "pagerank",
            "Constraints.Engine": "Java",
        })
        inputs = [Dataset("g", {"Optimization.count": 1e9,
                                "Optimization.size": 4e10})]
        metrics = est.operator_metrics(op, inputs)
        assert metrics["execTime"] == float("inf")

    def test_oracle_falls_back_to_metadata(self, cloud):
        est = OracleEstimator(cloud)
        op = MaterializedOperator("custom", {
            "Constraints.OpSpecification.Algorithm.name": "mystery",
            "Constraints.Engine": "Spark",
            "Optimization.execTime": 7.5,
            "Optimization.cost": 2.5,
        })
        metrics = est.operator_metrics(op, [])
        assert metrics == {"execTime": 7.5, "cost": 2.5}

    def test_model_backed_uses_learned_model(self, cloud):
        Profiler(cloud).profile(ProfileSpec(
            "TF_IDF", "Spark", counts=[1e3, 1e4, 1e5, 1e6], bytes_per_item=1e3,
            resources=[Resources(32, 64)],
        ))
        modeler = Modeler(cloud.collector, zoo=fast_model_zoo())
        modeler.train("TF_IDF", "Spark")
        est = ModelBackedEstimator(cloud, modeler)
        op = spark_tfidf_op({"Execution.Resources.cores": 32,
                             "Execution.Resources.memory_gb": 64})
        inputs = [Dataset("docs", {"Optimization.count": 5e4,
                                   "Optimization.size": 5e7})]
        metrics = est.operator_metrics(op, inputs)
        truth = cloud.engine("Spark").true_seconds(
            "TF_IDF", Workload(count=5e4, size_gb=0.05), Resources(32, 64))
        assert metrics["execTime"] == pytest.approx(truth, rel=0.6)

    def test_model_backed_fallback_to_metadata(self, cloud):
        modeler = Modeler(cloud.collector)
        est = ModelBackedEstimator(cloud, modeler)
        op = spark_tfidf_op({"Optimization.execTime": 3.0})
        assert est.operator_metrics(op, [])["execTime"] == 3.0
        est_strict = ModelBackedEstimator(cloud, modeler, fallback=False)
        assert est_strict.operator_metrics(op, [])["execTime"] == float("inf")

    def test_move_metrics_proportional_to_size(self, cloud):
        est = OracleEstimator(cloud)
        small = est.move_metrics(Dataset("d", {"Optimization.size": 1e8}), "A", "B")
        large = est.move_metrics(Dataset("d", {"Optimization.size": 1e9}), "A", "B")
        assert large["execTime"] > small["execTime"]
        same = est.move_metrics(Dataset("d", {"Optimization.size": 1e9}), "A", "A")
        assert same["execTime"] == 0.0

    def test_output_size_selectivity(self, cloud):
        est = OracleEstimator(cloud, output_selectivity=0.5)
        op = spark_tfidf_op()
        inputs = [Dataset("d", {"Optimization.size": 1e9})]
        assert est.output_size(op, inputs) == pytest.approx(5e8)
        op2 = spark_tfidf_op({"Optimization.outputSelectivity": 0.1})
        assert est.output_size(op2, inputs) == pytest.approx(1e8)


class TestModelerPersistence:
    def test_save_load_roundtrip(self, cloud, tmp_path):
        Profiler(cloud).profile(ProfileSpec(
            "TF_IDF", "Spark", counts=[1e3, 1e4, 1e5, 1e6], bytes_per_item=1e3,
            resources=[Resources(32, 64)]))
        modeler = Modeler(cloud.collector, zoo=fast_model_zoo())
        modeler.train("TF_IDF", "Spark")
        assert modeler.save(tmp_path / "models") == 1

        restored = Modeler(cloud.collector)
        assert restored.load(tmp_path / "models") == 1
        original = modeler.get("TF_IDF", "Spark")
        loaded = restored.get("TF_IDF", "Spark")
        assert loaded.model_name == original.model_name
        assert loaded.feature_names == original.feature_names
        features = {"input_size": 5e7, "input_count": 5e4,
                    "cores": 32.0, "memory_gb": 64.0}
        assert loaded.estimate(features) == pytest.approx(
            original.estimate(features), rel=1e-9)

    def test_load_empty_directory(self, cloud, tmp_path):
        modeler = Modeler(cloud.collector)
        (tmp_path / "empty").mkdir()
        assert modeler.load(tmp_path / "empty") == 0
