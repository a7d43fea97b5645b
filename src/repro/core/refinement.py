"""Online model refinement (D3.3 §2.2.2 — new in IReS v2).

Every workflow execution feeds its monitored metrics back into the models,
so estimation accuracy improves while the platform operates and adapts to
infrastructure changes (the HDD→SSD experiment of Fig 16.b) and temporal
degradations.  The refiner batches retraining (every ``refit_every``
observations per pair) since CV over the zoo is the expensive part, and
defers the fit itself to the pair's next read (:meth:`Modeler.get`): the
execute path only counts, and a platform whose estimator never reads the
models never fits them.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable

from repro.core.modeler import Modeler


class ModelRefiner:
    """Counts observed runs per pair and schedules their models' refits."""

    def __init__(self, modeler: Modeler, refit_every: int = 1) -> None:
        if refit_every < 1:
            raise ValueError("refit_every must be >= 1")
        self.modeler = modeler
        self.refit_every = refit_every
        self._pending: dict[tuple[str, str], int] = defaultdict(int)
        #: fits this refiner ran itself (drift refits and flushes); fits of
        #: due pairs run on read and count under ires_modeler_trainings_total
        self.refits = 0
        #: called with (algorithm, engine) whenever a pair's estimates are
        #: about to change — it became due for a refit, or a drift refit or
        #: flush retrained it.  Plan caches hook in here to bump their epoch
        self.listeners: list[Callable[[str, str], None]] = []

    def _notify(self, algorithm: str, engine: str) -> None:
        for listener in list(self.listeners):
            listener(algorithm, engine)

    def observe(self, algorithm: str, engine: str) -> bool:
        """Account one successful run of a pair; mark it due when its batch is full.

        The run's record is assumed to already be in the shared collector
        (the engine put it there); this only drives the retraining cadence.
        Returns True when this observation made the pair due for a refit
        that will produce a model.
        """
        key = (algorithm, engine)
        self._pending[key] += 1
        if self._pending[key] < self.refit_every:
            return False
        self._pending[key] = 0
        due = self.modeler.mark_due(algorithm, engine)
        if due:
            self._notify(algorithm, engine)
        return due

    def refit_now(self, algorithm: str, engine: str,
                  window: int | None = None) -> bool:
        """Immediately retrain one pair, bypassing the batching cadence.

        Drift alarms call this (``DriftDetector(refit=True)``): a ``window``
        restricts training to the newest records so the refit learns the
        post-drift behaviour instead of averaging it with stale history.
        Resets the pair's pending count and clears its due flag.  Returns
        True when a model was fit.
        """
        self._pending[(algorithm, engine)] = 0
        if self.modeler.train(algorithm, engine, window=window) is not None:
            self.refits += 1
            self._notify(algorithm, engine)
            return True
        return False

    def flush(self) -> int:
        """Fit every due pair and every pair with pending observations now.

        Returns how many pairs got a model.
        """
        pending = {key for key, count in self._pending.items() if count > 0}
        self._pending.clear()
        for key in pending:
            self.modeler.mark_due(*key)
        fitted = self.modeler.fit_due()
        for key in fitted:
            if key in pending:  # due pairs notified when they became due
                self._notify(*key)
        self.refits += len(fitted)
        return len(fitted)
