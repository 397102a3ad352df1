"""k-nearest-neighbour models.

Beyond the usual classifier/regressor, the kNN machinery here backs the
paper's *environment definition* step (Section III-C): the CRL model finds
the historical environment most similar to current sensing data with
``e = kNN(E, Z)``. :class:`repro.rl.crl.EnvironmentStore` reuses
:func:`nearest_indices`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DataError
from repro.ml.base import BaseEstimator, ClassifierMixin, RegressorMixin, as_2d
from repro.utils.validation import check_fitted, check_positive, check_same_length


def pairwise_distances(queries: np.ndarray, references: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix: one row per query, one column per reference."""
    queries = as_2d(queries)
    references = as_2d(references)
    if queries.shape[1] != references.shape[1]:
        raise DataError(
            f"dimensionality mismatch: queries have {queries.shape[1]} features, "
            f"references have {references.shape[1]}"
        )
    squared = (
        np.sum(queries**2, axis=1)[:, None]
        + np.sum(references**2, axis=1)[None, :]
        - 2.0 * queries @ references.T
    )
    return np.sqrt(np.maximum(squared, 0.0))


def nearest_indices(queries: np.ndarray, references: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` nearest references per query, nearest first."""
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    distances = pairwise_distances(queries, references)
    k = min(k, references.shape[0] if references.ndim > 1 else len(references))
    partition = np.argpartition(distances, k - 1, axis=1)[:, :k]
    rows = np.arange(distances.shape[0])[:, None]
    order = np.argsort(distances[rows, partition], axis=1, kind="stable")
    return partition[rows, order]


class _BaseKNN(BaseEstimator):
    def __init__(self, n_neighbors: int = 5, weights: str = "uniform") -> None:
        self.n_neighbors = int(check_positive(n_neighbors, name="n_neighbors"))
        if weights not in ("uniform", "distance"):
            raise DataError(f"weights must be 'uniform' or 'distance', got {weights!r}")
        self.weights = weights
        self.X_: np.ndarray | None = None
        self.y_: np.ndarray | None = None

    def _neighbor_weights(self, X) -> tuple[np.ndarray, np.ndarray]:
        check_fitted(self, "X_")
        queries = as_2d(X)
        k = min(self.n_neighbors, self.X_.shape[0])
        index = nearest_indices(queries, self.X_, k)
        if self.weights == "uniform":
            weight = np.ones_like(index, dtype=float)
        else:
            distances = pairwise_distances(queries, self.X_)
            rows = np.arange(queries.shape[0])[:, None]
            weight = 1.0 / (distances[rows, index] + 1e-12)
        return index, weight


class KNeighborsRegressor(_BaseKNN, RegressorMixin):
    """Weighted-mean kNN regression."""

    def fit(self, X, y) -> "KNeighborsRegressor":
        self.X_ = as_2d(X)
        self.y_ = np.asarray(y, dtype=float).ravel()
        check_same_length(self.X_, self.y_)
        return self

    def predict(self, X) -> np.ndarray:
        index, weight = self._neighbor_weights(X)
        values = self.y_[index]
        return np.sum(values * weight, axis=1) / np.sum(weight, axis=1)


class KNeighborsClassifier(_BaseKNN, ClassifierMixin):
    """Weighted-vote kNN classification."""

    def fit(self, X, y) -> "KNeighborsClassifier":
        self.X_ = as_2d(X)
        labels = np.asarray(y).ravel()
        check_same_length(self.X_, labels)
        self.classes_, self.y_ = np.unique(labels, return_inverse=True)
        return self

    def predict_proba(self, X) -> np.ndarray:
        index, weight = self._neighbor_weights(X)
        votes = np.zeros((index.shape[0], self.classes_.size))
        for row in range(index.shape[0]):
            np.add.at(votes[row], self.y_[index[row]], weight[row])
        return votes / votes.sum(axis=1, keepdims=True)

    def predict(self, X) -> np.ndarray:
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]
