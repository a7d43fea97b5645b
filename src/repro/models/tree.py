"""CART-style regression tree, the base learner for the ensemble models."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.base import Model


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    value: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        """True when the node has no split."""
        return self.left is None


class RegressionTree(Model):
    """Binary regression tree grown by variance reduction.

    ``max_features`` restricts the features examined per split (used by the
    random-subspace and bagging ensembles); ``None`` means all features.
    """

    standardize = False

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_leaf: int = 2,
        max_features: int | None = None,
        seed: int = 3,
    ) -> None:
        super().__init__()
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self._root: _Node | None = None

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self._rng = np.random.default_rng(self.seed)
        self._root = self._grow(X, y, depth=0)

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node = _Node(value=float(y.mean()))
        n, d = X.shape
        if depth >= self.max_depth or n < 2 * self.min_samples_leaf or np.ptp(y) == 0:
            return node
        features = np.arange(d)
        if self.max_features is not None and self.max_features < d:
            features = self._rng.choice(d, size=self.max_features, replace=False)
        best = self._best_split(X, y, features)
        if best is None:
            return node
        feature, threshold = best
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(X[mask], y[mask], depth + 1)
        node.right = self._grow(X[~mask], y[~mask], depth + 1)
        return node

    def _best_split(
        self, X: np.ndarray, y: np.ndarray, features: np.ndarray
    ) -> tuple[int, float] | None:
        n = len(y)
        parent_sse = float(((y - y.mean()) ** 2).sum())
        best_gain = 1e-12
        best: tuple[int, float] | None = None
        for f in features:
            order = np.argsort(X[:, f], kind="stable")
            xs, ys = X[order, f], y[order]
            # Prefix sums let us evaluate every split point in O(n).
            csum = np.cumsum(ys)
            csum2 = np.cumsum(ys * ys)
            total, total2 = csum[-1], csum2[-1]
            for i in range(self.min_samples_leaf, n - self.min_samples_leaf + 1):
                if i < n and xs[i - 1] == xs[i]:
                    continue
                left_sse = csum2[i - 1] - csum[i - 1] ** 2 / i
                right_n = n - i
                if right_n == 0:
                    continue
                right_sum = total - csum[i - 1]
                right_sse = (total2 - csum2[i - 1]) - right_sum**2 / right_n
                gain = parent_sse - (left_sse + right_sse)
                if gain > best_gain:
                    best_gain = gain
                    lo, hi = xs[i - 1], xs[min(i, n - 1)]
                    threshold = (lo + hi) / 2.0
                    if not lo <= threshold < hi:
                        # the midpoint of adjacent floats rounds onto one of
                        # them; splitting there would leave a child empty
                        threshold = lo
                    best = (int(f), float(threshold))
        return best

    def _predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0])
        for i, row in enumerate(X):
            node = self._root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.value
        return out

    def depth(self) -> int:
        """Actual depth of the grown tree (useful in tests)."""

        def _depth(node: _Node | None) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(_depth(node.left), _depth(node.right))

        return _depth(self._root)
