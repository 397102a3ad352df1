"""Multilayer perceptron with backpropagation, plus SGD and Adam optimizers.

This is the function approximator behind the Deep Q-network of the paper's
CRL model (Section III-D, Algorithm 1). It is a plain fully-connected net
with ReLU (or tanh) hidden activations and a linear output layer — exactly
what DQN needs to regress Q-values — and a squared-error loss so the
training step matches Algorithm 1 line 4:

    L(s, a | θ) = (r + max_a' Q(s', a'|θ) − Q(s, a|θ))^2

Kernel layout: all weights and biases live in one flat parameter vector
(the per-layer arrays are reshaped views into it), mirrored by one flat
gradient vector, so an optimizer step is a handful of whole-network
vector ops instead of a Python loop over 2·L small arrays. Backprop
writes gradients into preallocated scratch (gradient views plus per-batch
delta buffers), and :meth:`MLP.forward` with ``cache=True`` records the
layer activations so :meth:`MLP.train_from_cache` can run the backward
pass without re-running the forward — the DQN trainer's prediction pass
and its gradient step share one forward. Every fused op preserves the
exact operation order of the naive implementation, so results are
bit-for-bit identical to the unfused code path.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, DataError
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive

_ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: (z > 0.0).astype(float)),
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
    "linear": (lambda z: z, lambda z: np.ones_like(z)),
}

#: Gradient *factors* for the in-place backward pass: value-identical to
#: the ``_ACTIVATIONS`` derivative but allowed to return a bool array
#: (multiplying a float array by a bool mask gives the same bits as
#: multiplying by its 0.0/1.0 float cast, without the cast).
_ACTIVATION_FACTORS = {
    "relu": lambda z: z > 0.0,
    "tanh": _ACTIVATIONS["tanh"][1],
    "linear": _ACTIVATIONS["linear"][1],
}


class SGD:
    """Plain stochastic gradient descent with optional momentum."""

    def __init__(self, learning_rate: float = 0.01, momentum: float = 0.0) -> None:
        self.learning_rate = check_positive(learning_rate, name="learning_rate")
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self._velocity: list[np.ndarray] | None = None

    def step(self, parameters: list[np.ndarray], gradients: list[np.ndarray]) -> None:
        if self._velocity is None:
            self._velocity = [np.zeros_like(p) for p in parameters]
        for parameter, gradient, velocity in zip(parameters, gradients, self._velocity):
            velocity *= self.momentum
            velocity -= self.learning_rate * gradient
            parameter += velocity


class Adam:
    """Adam optimizer (Kingma & Ba 2015).

    The update is computed fully in place through preallocated scratch
    buffers — no per-step temporaries — with the operation order of the
    textbook expression preserved exactly, so the parameter trajectory is
    bit-for-bit the same as the allocating formulation.
    """

    def __init__(
        self,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        self.learning_rate = check_positive(learning_rate, name="learning_rate")
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None
        self._scratch: list[tuple[np.ndarray, np.ndarray]] | None = None
        self._t = 0

    def step(self, parameters: list[np.ndarray], gradients: list[np.ndarray]) -> None:
        if self._m is None:
            self._m = [np.zeros_like(p) for p in parameters]
            self._v = [np.zeros_like(p) for p in parameters]
        if self._scratch is None or len(self._scratch) != len(parameters):
            self._scratch = [
                (np.empty_like(p), np.empty_like(p)) for p in parameters
            ]
        self._t += 1
        correction1 = 1.0 - self.beta1**self._t
        correction2 = 1.0 - self.beta2**self._t
        for parameter, gradient, m, v, (s1, s2) in zip(
            parameters, gradients, self._m, self._v, self._scratch
        ):
            # m ← β1·m + (1−β1)·g ; v ← β2·v + (1−β2)·g²
            m *= self.beta1
            np.multiply(gradient, 1.0 - self.beta1, out=s1)
            m += s1
            v *= self.beta2
            np.multiply(gradient, gradient, out=s1)
            s1 *= 1.0 - self.beta2
            v += s1
            # θ ← θ − lr·m̂ / (√v̂ + ε), computed as ((lr·m̂) / denom).
            np.divide(m, correction1, out=s1)
            s1 *= self.learning_rate
            np.divide(v, correction2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += self.epsilon
            s1 /= s2
            parameter -= s1

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_scratch"] = None  # rebuilt lazily; never semantic state
        return state


class MLP:
    """Fully-connected network with a linear output head.

    Parameters
    ----------
    layer_sizes:
        Sizes including input and output, e.g. ``(state_dim, 64, 64, n_actions)``.
    activation:
        Hidden activation: ``"relu"``, ``"tanh"`` or ``"linear"``.
    optimizer:
        An :class:`SGD` or :class:`Adam` instance (default: Adam).
    seed:
        Seed for He-style weight initialization.
    """

    def __init__(
        self,
        layer_sizes: tuple[int, ...],
        activation: str = "relu",
        optimizer=None,
        seed: int | None = 0,
    ) -> None:
        if len(layer_sizes) < 2:
            raise ConfigurationError(
                f"layer_sizes needs at least input and output sizes, got {layer_sizes}"
            )
        if any(size < 1 for size in layer_sizes):
            raise ConfigurationError(f"all layer sizes must be >= 1, got {layer_sizes}")
        if activation not in _ACTIVATIONS:
            raise ConfigurationError(
                f"unknown activation {activation!r}; choose from {sorted(_ACTIVATIONS)}"
            )
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        self.activation = activation
        self.optimizer = optimizer if optimizer is not None else Adam()
        self._allocate_storage()
        rng = as_rng(seed)
        for weight, bias in zip(self.weights, self.biases):
            fan_in = weight.shape[0]
            scale = np.sqrt(2.0 / fan_in)
            weight[...] = rng.normal(0.0, scale, size=weight.shape)
            bias[...] = 0.0

    def _param_count(self) -> int:
        """Total scalars in the flat parameter vector (weights then biases)."""
        shapes = list(zip(self.layer_sizes[:-1], self.layer_sizes[1:]))
        return sum(fan_in * fan_out for fan_in, fan_out in shapes) + sum(
            fan_out for _, fan_out in shapes
        )

    def _allocate_storage(self) -> None:
        """Flat parameter/gradient vectors with per-layer views into them."""
        total = self._param_count()
        self._bind_storage(np.empty(total, dtype=float), np.empty(total, dtype=float))

    def _bind_storage(self, flat_params: np.ndarray, flat_grads: np.ndarray) -> None:
        """Point this network's parameter/gradient views at the given vectors.

        :class:`StackedNetworks` re-binds each member network to a row of
        one stacked (networks, parameters) matrix; the per-agent and
        cross-agent kernels then operate on the same memory, so the two
        code paths can interleave freely without copies or drift.
        """
        shapes = list(zip(self.layer_sizes[:-1], self.layer_sizes[1:]))
        self._flat_params = flat_params
        self._flat_grads = flat_grads
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        self._weight_grads: list[np.ndarray] = []
        self._bias_grads: list[np.ndarray] = []
        offset = 0
        for fan_in, fan_out in shapes:
            size = fan_in * fan_out
            self.weights.append(
                self._flat_params[offset : offset + size].reshape(fan_in, fan_out)
            )
            self._weight_grads.append(
                self._flat_grads[offset : offset + size].reshape(fan_in, fan_out)
            )
            offset += size
        for _, fan_out in shapes:
            self.biases.append(self._flat_params[offset : offset + fan_out])
            self._bias_grads.append(self._flat_grads[offset : offset + fan_out])
            offset += fan_out
        self._forward_cache: tuple | None = None
        self._delta_buffers: dict[int, list[np.ndarray]] = getattr(
            self, "_delta_buffers", {}
        )

    # ------------------------------------------------------------------
    def forward(self, X: np.ndarray, *, cache: bool = False) -> np.ndarray:
        """Forward pass; returns the linear outputs (no softmax).

        With ``cache=True`` the layer activations are kept so a following
        :meth:`train_from_cache` can backpropagate without re-running this
        forward. The cache is consumed by that call; do not mutate the
        returned outputs in between.
        """
        outputs, pre_activations, activations = self._forward_cached(
            np.asarray(X, dtype=float)
        )
        if cache:
            self._forward_cache = (outputs, pre_activations, activations)
        return outputs

    def _forward_cached(self, X: np.ndarray):
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.shape[1] != self.layer_sizes[0]:
            raise DataError(
                f"expected input of size {self.layer_sizes[0]}, got {X.shape[1]}"
            )
        act, _ = _ACTIVATIONS[self.activation]
        pre_activations = []
        activations = [X]
        hidden = X
        last = len(self.weights) - 1
        for i, (weight, bias) in enumerate(zip(self.weights, self.biases)):
            z = hidden @ weight + bias
            pre_activations.append(z)
            hidden = z if i == last else act(z)
            activations.append(hidden)
        return hidden, pre_activations, activations

    def forward_rows(self, X: np.ndarray) -> np.ndarray:
        """A batch of *independent single-row* forwards in one kernel call.

        ``forward`` on a (k, d) matrix runs one GEMM over the whole batch,
        which is **not** bitwise identical per row to k separate (1, d)
        forwards — BLAS blocks the reduction differently. This method runs
        a broadcasted (k, 1, d) @ (d, h) matmul per layer instead: still
        one kernel call, but each row is reduced exactly like its own
        (1, d) forward, so batched greedy rollouts see byte-identical
        Q-values to the serial loop.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.layer_sizes[0]:
            raise DataError(
                f"expected a (rows, {self.layer_sizes[0]}) matrix, got {X.shape}"
            )
        act, _ = _ACTIVATIONS[self.activation]
        hidden = X.reshape(X.shape[0], 1, X.shape[1])
        last = len(self.weights) - 1
        for i, (weight, bias) in enumerate(zip(self.weights, self.biases)):
            z = np.matmul(hidden, weight)
            z += bias
            hidden = z if i == last else act(z)
        return hidden.reshape(X.shape[0], self.layer_sizes[-1])

    def _deltas_for(self, batch: int) -> list[np.ndarray]:
        """Per-layer backprop scratch for this batch size (reused across steps)."""
        buffers = self._delta_buffers.get(batch)
        if buffers is None:
            buffers = [
                np.empty((batch, width), dtype=float) for width in self.layer_sizes[1:]
            ]
            if len(self._delta_buffers) > 8:  # e.g. a sweep of odd batch sizes
                self._delta_buffers.clear()
            self._delta_buffers[batch] = buffers
        return buffers

    def train_batch(self, X: np.ndarray, targets: np.ndarray) -> float:
        """One optimizer step on mean squared error; returns the loss."""
        self.forward(X, cache=True)
        return self.train_from_cache(targets)

    def train_from_cache(self, targets: np.ndarray) -> float:
        """Backward pass + optimizer step reusing the last cached forward.

        Pairs with ``forward(X, cache=True)``: together they are exactly
        :meth:`train_batch`, minus the redundant second forward when the
        caller already needed the predictions (the DQN training step).
        """
        if self._forward_cache is None:
            raise DataError("no cached forward pass; call forward(X, cache=True) first")
        outputs, pre_activations, activations = self._forward_cache
        self._forward_cache = None
        targets = np.asarray(targets, dtype=float)
        if targets.ndim == 1:
            targets = targets.reshape(outputs.shape)
        if targets.shape != outputs.shape:
            raise DataError(
                f"targets shape {targets.shape} does not match outputs {outputs.shape}"
            )
        n = activations[0].shape[0]
        factor = _ACTIVATION_FACTORS[self.activation]
        buffers = self._deltas_for(n)
        delta = buffers[-1]
        np.subtract(outputs, targets, out=delta)
        loss = float(np.mean(delta * delta))
        delta *= 2.0
        delta /= n
        for layer in reversed(range(len(self.weights))):
            np.matmul(activations[layer].T, delta, out=self._weight_grads[layer])
            np.sum(delta, axis=0, out=self._bias_grads[layer])
            if layer > 0:
                previous = buffers[layer - 1]
                np.matmul(delta, self.weights[layer].T, out=previous)
                previous *= factor(pre_activations[layer - 1])
                delta = previous
        self.optimizer.step([self._flat_params], [self._flat_grads])
        return loss

    # ------------------------------------------------------------------
    def get_parameters(self) -> list[np.ndarray]:
        """Copies of all weights then biases (for target-network sync)."""
        return [w.copy() for w in self.weights] + [b.copy() for b in self.biases]

    def set_parameters(self, parameters: list[np.ndarray]) -> None:
        """Load parameters produced by :meth:`get_parameters`."""
        expected = len(self.weights) + len(self.biases)
        if len(parameters) != expected:
            raise ConfigurationError(
                f"expected {expected} parameter arrays, got {len(parameters)}"
            )
        count = len(self.weights)
        for i in range(count):
            if parameters[i].shape != self.weights[i].shape:
                raise ConfigurationError("weight shape mismatch in set_parameters")
        for i in range(len(self.biases)):
            if parameters[count + i].shape != self.biases[i].shape:
                raise ConfigurationError("bias shape mismatch in set_parameters")
        for i in range(count):
            self.weights[i][...] = parameters[i]
        for i in range(len(self.biases)):
            self.biases[i][...] = parameters[count + i]

    def copy_from(self, other: "MLP") -> None:
        """Hard-sync this network's parameters from another MLP."""
        if self.layer_sizes == other.layer_sizes:
            np.copyto(self._flat_params, other._flat_params)
        else:
            self.set_parameters(other.get_parameters())

    # ------------------------------------------------------------------
    def __getstate__(self):
        """Pickle layer arrays as plain copies (views don't survive pickling)."""
        return {
            "layer_sizes": self.layer_sizes,
            "activation": self.activation,
            "optimizer": self.optimizer,
            "parameters": self.get_parameters(),
        }

    def __setstate__(self, state) -> None:
        self.layer_sizes = tuple(state["layer_sizes"])
        self.activation = state["activation"]
        self.optimizer = state["optimizer"]
        self._allocate_storage()
        self.set_parameters(state["parameters"])


class StackedNetworks:
    """Cross-network batched kernels over N identically-shaped MLPs.

    Gathers every member's flat parameter/gradient vector into one
    (networks, parameters) matrix and *re-binds* each member's per-layer
    views onto its row. The members keep working individually — same
    memory, same bitwise arithmetic — while this view can run one stacked
    ``(A, batch, d) @ (A, d, h)`` matmul per layer across all of them.
    Every stacked kernel uses a broadcast / per-slice formulation that is
    bit-for-bit identical to the members' own 2-D kernels (numpy's batched
    matmul runs one GEMM per slice), so training A agents through the
    stack produces byte-identical parameters to training them one at a
    time; per-member ops and stacked ops can interleave freely.

    With ``stack_optimizers=True`` the members' Adam state is gathered the
    same way (this requires every member to use :class:`Adam` with
    identical hyper-parameters); members keep their own step counters, so
    bias corrections are applied per row and a stack can be formed or
    released at any point mid-training without perturbing the trajectory.

    Call :meth:`release` when done to detach the members back onto
    private storage (their values are copied out; nothing is lost if you
    don't, but the stacked matrix stays alive as long as any member does).
    """

    def __init__(self, networks, *, stack_optimizers: bool = False) -> None:
        networks = list(networks)
        if not networks:
            raise ConfigurationError("StackedNetworks needs at least one network")
        first = networks[0]
        for network in networks[1:]:
            if (
                network.layer_sizes != first.layer_sizes
                or network.activation != first.activation
            ):
                raise ConfigurationError(
                    "stacked networks must share layer sizes and activation"
                )
        self.networks = networks
        self.layer_sizes = first.layer_sizes
        self.activation = first.activation
        count, total = len(networks), first._param_count()
        params = np.empty((count, total), dtype=float)
        grads = np.empty((count, total), dtype=float)
        for row, network in zip(params, networks):
            np.copyto(row, network._flat_params)
        for network, param_row, grad_row in zip(networks, params, grads):
            network._bind_storage(param_row, grad_row)
        self._params2 = params
        self._grads2 = grads
        shapes = list(zip(self.layer_sizes[:-1], self.layer_sizes[1:]))
        self._weights3: list[np.ndarray] = []
        self._weight_grads3: list[np.ndarray] = []
        self._biases3: list[np.ndarray] = []
        self._bias_grads2: list[np.ndarray] = []
        offset = 0
        for fan_in, fan_out in shapes:
            size = fan_in * fan_out
            self._weights3.append(
                params[:, offset : offset + size].reshape(count, fan_in, fan_out)
            )
            self._weight_grads3.append(
                grads[:, offset : offset + size].reshape(count, fan_in, fan_out)
            )
            offset += size
        for _, fan_out in shapes:
            self._biases3.append(
                params[:, offset : offset + fan_out].reshape(count, 1, fan_out)
            )
            self._bias_grads2.append(grads[:, offset : offset + fan_out])
            offset += fan_out
        self._forward_cache: tuple | None = None
        self._delta_buffers: dict[int, list[np.ndarray]] = {}
        self._adam_state: tuple | None = None
        if stack_optimizers:
            self._bind_optimizers()
        self._released = False

    def __len__(self) -> int:
        return len(self.networks)

    # ------------------------------------------------------------------
    def substack(self, start: int, stop: int, *, stack_optimizers: bool = False) -> "StackedNetworks":
        """A stacked view over members ``start:stop`` sharing this storage.

        The sub-stack's parameter/gradient matrices are row slices of this
        stack's, so training through the sub-stack and forwarding through
        the parent interleave freely on the same memory — the basis of the
        joint online+target stack, where one parent ``forward`` serves two
        member groups in a single batched matmul per layer. Release the
        sub-stacks (not the parent) to detach members.
        """
        if not 0 <= start < stop <= len(self.networks):
            raise ConfigurationError(
                f"substack range [{start}, {stop}) outside 0..{len(self.networks)}"
            )
        sub = object.__new__(StackedNetworks)
        sub.networks = self.networks[start:stop]
        sub.layer_sizes = self.layer_sizes
        sub.activation = self.activation
        sub._params2 = self._params2[start:stop]
        sub._grads2 = self._grads2[start:stop]
        sub._weights3 = [w[start:stop] for w in self._weights3]
        sub._weight_grads3 = [g[start:stop] for g in self._weight_grads3]
        sub._biases3 = [b[start:stop] for b in self._biases3]
        sub._bias_grads2 = [g[start:stop] for g in self._bias_grads2]
        sub._forward_cache = None
        sub._delta_buffers = {}
        sub._adam_state = None
        if stack_optimizers:
            sub._bind_optimizers()
        sub._released = False
        return sub

    def adopt_cache(self, parent: "StackedNetworks", start: int, stop: int) -> None:
        """Install row slices ``start:stop`` of the parent's forward cache.

        Lets a sub-stack backpropagate from a cached forward the parent
        ran over all members (``forward(..., cache=True)`` on the parent,
        then ``adopt_cache`` + ``train_from_cache`` on the sub-stack).
        The sliced activations are views; the backward matmuls are
        per-slice, so the result is byte-identical to the sub-stack
        having run its own cached forward on the same rows.
        """
        if parent._forward_cache is None:
            raise DataError("parent has no cached forward pass")
        outputs, pre_activations, activations = parent._forward_cache
        parent._forward_cache = None
        self._forward_cache = (
            outputs[start:stop],
            [z[start:stop] for z in pre_activations],
            [a[start:stop] for a in activations],
        )

    # ------------------------------------------------------------------
    def _bind_optimizers(self) -> None:
        optimizers = [network.optimizer for network in self.networks]
        first = optimizers[0]
        for optimizer in optimizers:
            if not isinstance(optimizer, Adam):
                raise ConfigurationError("optimizer stacking requires Adam members")
            if (
                optimizer.learning_rate,
                optimizer.beta1,
                optimizer.beta2,
                optimizer.epsilon,
            ) != (first.learning_rate, first.beta1, first.beta2, first.epsilon):
                raise ConfigurationError(
                    "optimizer stacking requires identical Adam hyper-parameters"
                )
        count, total = self._params2.shape
        m2 = np.zeros((count, total), dtype=float)
        v2 = np.zeros((count, total), dtype=float)
        s1 = np.empty((count, total), dtype=float)
        s2 = np.empty((count, total), dtype=float)
        for m_row, v_row, s1_row, s2_row, optimizer in zip(m2, v2, s1, s2, optimizers):
            if optimizer._m is not None:
                np.copyto(m_row, optimizer._m[0])
                np.copyto(v_row, optimizer._v[0])
            # Re-bind the member's state to its stacked row, so per-member
            # steps and stacked steps update the same moments.
            optimizer._m = [m_row]
            optimizer._v = [v_row]
            optimizer._scratch = [(s1_row, s2_row)]
        self._adam_state = (m2, v2, s1, s2)

    def _stacked_adam_step(self) -> None:
        """One Adam step for every member, per-row bias corrections.

        Mirrors :meth:`Adam.step` op for op on the stacked matrices; the
        only difference is the (A, 1) correction columns, and dividing by
        a per-row scalar column is bitwise equal to dividing each row by
        its scalar.
        """
        optimizers = [network.optimizer for network in self.networks]
        first = optimizers[0]
        m2, v2, s1, s2 = self._adam_state
        for optimizer in optimizers:
            optimizer._t += 1
        correction1 = np.array(
            [[1.0 - first.beta1**optimizer._t] for optimizer in optimizers]
        )
        correction2 = np.array(
            [[1.0 - first.beta2**optimizer._t] for optimizer in optimizers]
        )
        gradients = self._grads2
        m2 *= first.beta1
        np.multiply(gradients, 1.0 - first.beta1, out=s1)
        m2 += s1
        v2 *= first.beta2
        np.multiply(gradients, gradients, out=s1)
        s1 *= 1.0 - first.beta2
        v2 += s1
        np.divide(m2, correction1, out=s1)
        s1 *= first.learning_rate
        np.divide(v2, correction2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += first.epsilon
        s1 /= s2
        self._params2 -= s1

    # ------------------------------------------------------------------
    def forward(self, X: np.ndarray, *, cache: bool = False) -> np.ndarray:
        """(A, batch, in) → (A, batch, out); slice ``a`` is bit-for-bit
        member ``a``'s 2-D ``forward`` on ``X[a]``."""
        X = np.asarray(X, dtype=float)
        if (
            X.ndim != 3
            or X.shape[0] != len(self.networks)
            or X.shape[2] != self.layer_sizes[0]
        ):
            raise DataError(
                f"expected ({len(self.networks)}, batch, {self.layer_sizes[0]}) "
                f"input, got {X.shape}"
            )
        act, _ = _ACTIVATIONS[self.activation]
        pre_activations = []
        activations = [X]
        hidden = X
        last = len(self._weights3) - 1
        for i, (weight3, bias3) in enumerate(zip(self._weights3, self._biases3)):
            z = np.matmul(hidden, weight3)
            z += bias3
            pre_activations.append(z)
            hidden = z if i == last else act(z)
            activations.append(hidden)
        if cache:
            self._forward_cache = (hidden, pre_activations, activations)
        return hidden

    def forward_rows(self, X: np.ndarray) -> np.ndarray:
        """(A, in) → (A, out): each row through its own member network.

        Row ``a`` is bit-for-bit member ``a``'s ``forward(X[a])`` — the
        acting-phase kernel when every agent advances one step in
        lockstep.
        """
        X = np.asarray(X, dtype=float)
        count = len(self.networks)
        return self.forward(X.reshape(count, 1, -1)).reshape(
            count, self.layer_sizes[-1]
        )

    def _deltas_for(self, batch: int) -> list[np.ndarray]:
        buffers = self._delta_buffers.get(batch)
        if buffers is None:
            count = len(self.networks)
            buffers = [
                np.empty((count, batch, width), dtype=float)
                for width in self.layer_sizes[1:]
            ]
            if len(self._delta_buffers) > 8:
                self._delta_buffers.clear()
            self._delta_buffers[batch] = buffers
        return buffers

    def train_from_cache(self, targets: np.ndarray) -> np.ndarray:
        """Backward + optimizer step for every member; per-member losses.

        Pairs with ``forward(X, cache=True)``. Running this once is
        bit-for-bit equal to running each member's own
        ``forward(cache=True)`` / ``train_from_cache`` pair on its slice:
        the stacked matmuls are per-slice GEMMs, the loss reduction runs
        per member, and the optimizer step applies per-row corrections.
        """
        if self._forward_cache is None:
            raise DataError("no cached forward pass; call forward(X, cache=True) first")
        outputs, pre_activations, activations = self._forward_cache
        self._forward_cache = None
        targets = np.asarray(targets, dtype=float)
        if targets.shape != outputs.shape:
            raise DataError(
                f"targets shape {targets.shape} does not match outputs {outputs.shape}"
            )
        n = activations[0].shape[1]
        factor = _ACTIVATION_FACTORS[self.activation]
        buffers = self._deltas_for(n)
        delta = buffers[-1]
        np.subtract(outputs, targets, out=delta)
        losses = np.array(
            [float(np.mean(delta[a] * delta[a])) for a in range(len(self.networks))]
        )
        delta *= 2.0
        delta /= n
        for layer in reversed(range(len(self._weights3))):
            np.matmul(
                activations[layer].transpose(0, 2, 1),
                delta,
                out=self._weight_grads3[layer],
            )
            np.sum(delta, axis=1, out=self._bias_grads2[layer])
            if layer > 0:
                previous = buffers[layer - 1]
                np.matmul(
                    delta, self._weights3[layer].transpose(0, 2, 1), out=previous
                )
                previous *= factor(pre_activations[layer - 1])
                delta = previous
        if self._adam_state is not None:
            self._stacked_adam_step()
        else:
            for network in self.networks:
                network.optimizer.step([network._flat_params], [network._flat_grads])
        return losses

    # ------------------------------------------------------------------
    def release(self) -> None:
        """Detach every member back onto private storage (values copied)."""
        if self._released:
            return
        for network in self.networks:
            params = network._flat_params.copy()
            network._bind_storage(params, np.empty_like(params))
        if self._adam_state is not None:
            for network in self.networks:
                optimizer = network.optimizer
                optimizer._m = [optimizer._m[0].copy()]
                optimizer._v = [optimizer._v[0].copy()]
                optimizer._scratch = None
        self._released = True
