"""The modeler: trains and serves per-(operator, engine) estimation models.

Wraps the repro.models zoo with the paper's selection rule — fit every
approximation technique, cross-validate, keep the best (D3.3 §2.2.1) — and
serves estimates to the planner.  Retraining on the growing sample store is
how online refinement (§2.2.2) manifests.

Refits are lazy: the refiner marks a pair *due* (:meth:`Modeler.mark_due`)
and the fit runs on the pair's next read (:meth:`Modeler.get` /
:meth:`Modeler.estimate`), so a platform whose estimator never reads the
models never pays for cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.analysis.runtime_check import LockLike, make_lock
from repro.engines.monitoring import MetricsCollector
from repro.models import Model, default_model_zoo, select_best_model
from repro.models.linear import LinearRegression
from repro.obs.logging import get_logger
from repro.obs.metrics import REGISTRY
from repro.obs.tracing import NULL_TRACER, Tracer

#: samples below which :meth:`Modeler.train` fits nothing
MIN_FIT_SAMPLES = 2

_LOG = get_logger("modeler")
_TRAININGS = REGISTRY.counter(
    "ires_modeler_trainings_total",
    "Model (re)trainings by operator pair",
    labels=("algorithm", "engine"),
)
_SAMPLES = REGISTRY.gauge(
    "ires_modeler_samples",
    "Training samples used by the last fit of each operator pair",
    labels=("algorithm", "engine"),
)
_CV_ERROR = REGISTRY.gauge(
    "ires_modeler_cv_error",
    "Cross-validation error of the winning model of each operator pair",
    labels=("algorithm", "engine"),
)


@dataclass
class OperatorModel:
    """A fitted estimator for one (algorithm, engine) pair.

    Performance of data-parallel operators is multiplicative in its drivers
    (t ≈ size/cores · const), so both features and target are fitted in
    log space — this is what keeps the *relative* estimation error (the
    paper's Fig 16 metric) low across the orders of magnitude a profiling
    grid spans.
    """

    algorithm: str
    engine: str
    feature_names: list[str]
    model: Model
    model_name: str
    n_samples: int
    cv_scores: dict[str, float]
    log_space: bool = True

    def estimate(self, features: dict[str, float]) -> float:
        """Predict execution time from a feature dict; floors at zero."""
        x = np.array([[float(features.get(n, 0.0)) for n in self.feature_names]])
        if self.log_space:
            x = np.log1p(np.abs(x))
            return max(float(np.expm1(self.model.predict(x)[0])), 0.0)
        return max(float(self.model.predict(x)[0]), 0.0)


class Modeler:  # thread-shared
    """Trains models from collector samples and answers estimates."""

    def __init__(
        self,
        collector: MetricsCollector,
        zoo: dict | None = None,
        min_samples: int = 4,
        log_space: bool = True,
        tracer: Tracer | None = None,
    ) -> None:
        self.collector = collector
        self.zoo = zoo if zoo is not None else default_model_zoo()
        self.min_samples = min_samples
        self.log_space = log_space
        self.models: dict[tuple[str, str], OperatorModel] = {}
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._lock: LockLike = make_lock("modeler")
        #: pairs whose samples changed since their last fit; the next read
        #: (or :meth:`fit_due`) refits them
        self._due: set[tuple[str, str]] = set()  # guarded-by: _lock

    def train(self, algorithm: str, engine: str,
              window: int | None = None) -> OperatorModel | None:
        """(Re)train the model for a pair from all its stored samples.

        ``window`` restricts the fit to the newest N samples (drift
        recovery).  Returns None when too few samples exist to fit anything.
        Clears the pair's due flag: the fit reads every sample stored so far.
        """
        with self._lock:
            self._due.discard((algorithm, engine))
        with self.tracer.span(f"train:{algorithm}@{engine}", category="modeler",
                              algorithm=algorithm, engine=engine) as span:
            X, y, names = self.collector.training_matrix(algorithm, engine,
                                                         window=window)
            span.set_attribute("samples", int(len(y)))
            if len(y) < MIN_FIT_SAMPLES:
                span.set_attribute("skipped", "too few samples")
                return None
            if self.log_space:
                X = np.log1p(np.abs(X))
                y = np.log1p(np.maximum(y, 0.0))
            if len(y) < self.min_samples:
                model: Model = LinearRegression().fit(X, y)
                fitted = OperatorModel(
                    algorithm, engine, names, model, "LinearRegression", len(y),
                    {}, log_space=self.log_space,
                )
            else:
                model, winner, scores = select_best_model(X, y, zoo=self.zoo)
                fitted = OperatorModel(
                    algorithm, engine, names, model, winner, len(y), scores,
                    log_space=self.log_space,
                )
            self.models[(algorithm, engine)] = fitted
            span.set_attribute("model", fitted.model_name)
        _TRAININGS.inc(algorithm=algorithm, engine=engine)
        _SAMPLES.set(fitted.n_samples, algorithm=algorithm, engine=engine)
        cv_error = (
            fitted.cv_scores.get(fitted.model_name)
            if fitted.cv_scores else None
        )
        if cv_error is not None:
            _CV_ERROR.set(cv_error, algorithm=algorithm, engine=engine)
        _LOG.info("model_trained", algorithm=algorithm, engine=engine,
                  model=fitted.model_name, samples=fitted.n_samples,
                  cv_error=cv_error)
        return fitted

    def mark_due(self, algorithm: str, engine: str) -> bool:
        """Schedule a refit of a pair for its next read.

        Returns True when the pair has enough samples for that fit to
        produce a model, i.e. when its estimates are about to change.
        """
        with self._lock:
            self._due.add((algorithm, engine))
        return self.sample_count(algorithm, engine) >= MIN_FIT_SAMPLES

    def fit_due(self) -> list[tuple[str, str]]:
        """Fit every due pair now; returns the pairs that got a model."""
        with self._lock:
            due = sorted(self._due)
        return [key for key in due if self.train(*key) is not None]

    def get(self, algorithm: str, engine: str) -> OperatorModel | None:
        """The trained model for a pair (fitted first if due), or None."""
        key = (algorithm, engine)
        if key in self._due:  # unlocked peek keeps the common read lock-free
            with self._lock:
                claimed = key in self._due
                self._due.discard(key)
            if claimed:  # one reader fits; concurrent ones read the old model
                self.train(algorithm, engine)
        return self.models.get(key)

    def fitted(self, algorithm: str, engine: str) -> OperatorModel | None:
        """The model as last fitted, never running a due fit."""
        return self.models.get((algorithm, engine))

    def estimate(
        self, algorithm: str, engine: str, features: dict[str, float]
    ) -> float | None:
        """Estimated execution time, or None when no model exists yet."""
        model = self.get(algorithm, engine)
        if model is None:
            return None
        return model.estimate(features)

    def sample_count(self, algorithm: str, engine: str) -> int:
        """Number of successful runs stored for a pair."""
        return self.collector.sample_count(algorithm, engine)

    def drop(self, algorithm: str, engine: str) -> None:
        """Discard a trained model (the what-if baseline of Fig 16.b)."""
        with self._lock:
            self._due.discard((algorithm, engine))
        self.models.pop((algorithm, engine), None)

    # -- persistence ("the models are stored and updated in an IReS
    # library", §2) ---------------------------------------------------------
    def save(self, directory: str | Path) -> int:
        """Persist every trained model under a directory; returns the count.

        Each pair gets ``<algorithm>__<engine>.npz`` (the fitted estimator,
        pickle-free) plus a ``.json`` sidecar with the bookkeeping.
        """
        import json
        from pathlib import Path

        from repro.models.serialize import save_model

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for (algorithm, engine), fitted in self.models.items():
            stem = f"{algorithm}__{engine}".replace("/", "_")
            save_model(fitted.model, directory / f"{stem}.npz")
            meta = {
                "algorithm": algorithm,
                "engine": engine,
                "feature_names": fitted.feature_names,
                "model_name": fitted.model_name,
                "n_samples": fitted.n_samples,
                "cv_scores": fitted.cv_scores,
                "log_space": fitted.log_space,
            }
            (directory / f"{stem}.json").write_text(json.dumps(meta, indent=1))
        return len(self.models)

    def load(self, directory: str | Path) -> int:
        """Restore models saved by :meth:`save`; returns how many loaded."""
        import json
        from pathlib import Path

        from repro.models.serialize import load_model

        directory = Path(directory)
        count = 0
        for meta_path in sorted(directory.glob("*.json")):
            meta = json.loads(meta_path.read_text())
            model = load_model(meta_path.with_suffix(".npz"))
            fitted = OperatorModel(
                algorithm=meta["algorithm"],
                engine=meta["engine"],
                feature_names=list(meta["feature_names"]),
                model=model,
                model_name=meta["model_name"],
                n_samples=int(meta["n_samples"]),
                cv_scores=dict(meta["cv_scores"]),
                log_space=bool(meta["log_space"]),
            )
            with self._lock:  # a loaded model replaces any pending refit
                self._due.discard((fitted.algorithm, fitted.engine))
            self.models[(fitted.algorithm, fitted.engine)] = fitted
            count += 1
        return count
