"""Estimator-interface wrapper around the raw MLP, with warm starting.

Used by the parameter-transfer MTL strategy: a global network is trained
on pooled task data and each task then *fine-tunes* a copy on its own
scarce samples — transfer through parameters instead of instances, the
other classic regime the paper's Fig. 1(b) sketches.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, RegressorMixin, as_2d
from repro.ml.neural import MLP, Adam
from repro.ml.preprocessing import StandardScaler
from repro.utils.rng import as_rng
from repro.utils.validation import check_fitted, check_positive, check_same_length


class MLPRegressor(BaseEstimator, RegressorMixin):
    """Small fully-connected regressor with mini-batch Adam training.

    Parameters
    ----------
    hidden_sizes:
        Hidden-layer widths.
    epochs, batch_size, learning_rate:
        Training schedule.
    warm_start:
        If True, subsequent ``fit`` calls continue from the current
        parameters (and keep the original input scaler) instead of
        reinitializing — the fine-tuning mode.
    """

    def __init__(
        self,
        hidden_sizes: tuple[int, ...] = (32,),
        epochs: int = 150,
        batch_size: int = 32,
        learning_rate: float = 1e-3,
        warm_start: bool = False,
        seed: int | None = 0,
    ) -> None:
        self.hidden_sizes = tuple(int(s) for s in hidden_sizes)
        self.epochs = int(check_positive(epochs, name="epochs"))
        self.batch_size = int(check_positive(batch_size, name="batch_size"))
        self.learning_rate = check_positive(learning_rate, name="learning_rate")
        self.warm_start = bool(warm_start)
        self.seed = seed
        self.network_: MLP | None = None
        self._scaler: StandardScaler | None = None
        self._target_mean: float | None = None
        self._target_scale: float | None = None

    def fit(self, X, y) -> "MLPRegressor":
        features = as_2d(X)
        targets = np.asarray(y, dtype=float).ravel()
        check_same_length(features, targets)
        fresh = self.network_ is None or not self.warm_start
        if fresh:
            self._scaler = StandardScaler().fit(features)
            self._target_mean = float(targets.mean())
            self._target_scale = float(targets.std()) or 1.0
            self.network_ = MLP(
                (features.shape[1], *self.hidden_sizes, 1),
                optimizer=Adam(self.learning_rate),
                seed=self.seed,
            )
        scaled_x = self._scaler.transform(features)
        scaled_y = ((targets - self._target_mean) / self._target_scale).reshape(-1, 1)
        rng = as_rng(self.seed)
        for _ in range(self.epochs):
            order = rng.permutation(len(scaled_x))
            for start in range(0, len(scaled_x), self.batch_size):
                index = order[start : start + self.batch_size]
                self.network_.train_batch(scaled_x[index], scaled_y[index])
        return self

    def predict(self, X) -> np.ndarray:
        check_fitted(self, "network_")
        scaled = self._scaler.transform(as_2d(X))
        out = self.network_.forward(scaled).ravel()
        return out * self._target_scale + self._target_mean

    def clone_for_finetuning(self) -> "MLPRegressor":
        """A warm-start copy sharing this model's learned parameters.

        The copy fine-tunes independently: updating it never mutates the
        source network.
        """
        check_fitted(self, "network_")
        copy = MLPRegressor(
            hidden_sizes=self.hidden_sizes,
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            warm_start=True,
            seed=self.seed,
        )
        copy.network_ = MLP(
            (self.network_.layer_sizes[0], *self.hidden_sizes, 1),
            optimizer=Adam(self.learning_rate),
            seed=self.seed,
        )
        copy.network_.copy_from(self.network_)
        copy._scaler = self._scaler
        copy._target_mean = self._target_mean
        copy._target_scale = self._target_scale
        return copy
