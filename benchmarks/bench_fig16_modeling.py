"""Figure 16 — operator-model estimation error vs number of executions.

(a) Normal operation: relative execution-time estimation error for
    Wordcount/MapReduce and Pagerank/Java drops below 30% after ~50 runs
    and keeps improving.
(b) Infrastructure change: after 100 runs the HDDs become SSDs; the error
    temporarily degrades (to ~50% in the paper) but stays far below the
    ~100% of discarding the models, and re-converges with more runs.
"""

import numpy as np
import pytest

from figutil import emit
from repro.core import Modeler, ModelRefiner, ProfileSpec, Profiler
from repro.engines import Resources, build_default_cloud
from repro.models import fast_model_zoo

WORDCOUNT = ProfileSpec(
    "wordcount", "MapReduce",
    counts=[1e5, 5e5, 1e6, 5e6, 1e7], bytes_per_item=1e3,
    resources=[Resources(c, m) for c in (4, 8, 16, 32) for m in (8, 16, 32)],
)
PAGERANK = ProfileSpec(
    "pagerank", "Java",
    counts=[1e4, 1e5, 5e5, 1e6, 5e6], bytes_per_item=40,
    params={"iterations": [5, 10, 20]},
    resources=[Resources(4, 8)],
)


def refinement_errors(spec, n_runs, seed=0, ssd_at=None):
    """Run the §4.3 protocol; returns the per-run relative errors."""
    cloud = build_default_cloud(seed=seed)
    modeler = Modeler(cloud.collector, zoo=fast_model_zoo())
    refiner = ModelRefiner(modeler, refit_every=5)
    profiler = Profiler(cloud)
    engine = cloud.engine(spec.engine)
    rng = np.random.default_rng(seed)
    param_names = sorted(spec.params)
    errors = []
    for run in range(1, n_runs + 1):
        if ssd_at is not None and run == ssd_at:
            cloud.upgrade_disks_to_ssd()
        count = spec.counts[rng.integers(len(spec.counts))]
        params = {n: spec.params[n][rng.integers(len(spec.params[n]))]
                  for n in param_names}
        resources = spec.resources[rng.integers(len(spec.resources))]
        features = {"input_size": count * spec.bytes_per_item,
                    "input_count": count,
                    "cores": float(resources.cores),
                    "memory_gb": resources.memory_gb}
        features.update({f"param_{k}": float(v) for k, v in params.items()})
        predicted = modeler.estimate(spec.algorithm, spec.engine, features)
        record = profiler.profile_point(engine, spec, count, params, resources)
        if record is None:
            errors.append(np.nan)
            continue
        if predicted is None:
            errors.append(1.0)  # no knowledge yet: ~100% error
        else:
            errors.append(abs(predicted - record.exec_time) / record.exec_time)
        refiner.observe(record.algorithm, record.engine)
    return np.array(errors)


def window_mean(errors, end, width=15):
    window = errors[max(end - width, 0):end]
    window = window[~np.isnan(window)]
    return float(window.mean()) if len(window) else float("nan")


@pytest.fixture(scope="module")
def normal_series():
    return {
        "Wordcount MapReduce": refinement_errors(WORDCOUNT, 100, seed=1),
        "Pagerank Java": refinement_errors(PAGERANK, 100, seed=2),
    }


@pytest.fixture(scope="module")
def upgrade_series():
    return refinement_errors(WORDCOUNT, 200, seed=3, ssd_at=101)


def test_fig16a_error_converges(benchmark, normal_series):
    checkpoints = [10, 20, 30, 50, 70, 100]
    rows = []
    for name, errors in normal_series.items():
        rows.append([name] + [window_mean(errors, c) for c in checkpoints])
    emit(
        "fig16a_modeling",
        "Figure 16a: relative estimation error vs #executions",
        ["operator"] + [str(c) for c in checkpoints],
        rows, widths=[22, 8, 8, 8, 8, 8, 8],
    )
    for name, errors in normal_series.items():
        late = window_mean(errors, 60)
        assert late < 0.30, (name, late)  # "drops below 30% after ~50 runs"
        # accuracy keeps improving vs the early phase
        assert window_mean(errors, 100) < window_mean(errors, 20)

    benchmark(lambda: refinement_errors(WORDCOUNT, 12, seed=9))


def test_fig16b_infrastructure_change(benchmark, upgrade_series):
    errors = upgrade_series
    benchmark(lambda: window_mean(errors, 200))
    checkpoints = [60, 100, 115, 140, 200]
    rows = [["Wordcount MapReduce"]
            + [window_mean(errors, c) for c in checkpoints]]
    emit(
        "fig16b_infra_change",
        "Figure 16b: estimation error with an HDD->SSD swap after run 100",
        ["operator"] + [str(c) for c in checkpoints],
        rows, widths=[22, 8, 8, 8, 8, 8],
    )
    before = window_mean(errors, 100)
    right_after = window_mean(errors, 115)
    recovered = window_mean(errors, 200)
    assert before < 0.30
    assert right_after > before          # temporal degradation
    assert right_after < 1.00            # still beats starting from scratch
    assert recovered < right_after       # models regain accuracy
