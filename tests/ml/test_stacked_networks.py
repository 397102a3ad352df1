"""Bitwise contract tests for the cross-network stacked kernels.

:class:`StackedNetworks` re-binds N identically-shaped MLPs onto rows of
one (networks, parameters) matrix and runs one batched matmul per layer
across all of them. The contract is byte-identity: every stacked kernel
(forward, forward_rows, backward + optimizer step, the joint
parent/substack split, the stacked Adam step) must produce exactly the
arithmetic the members would produce on their own, so per-member and
stacked operations can interleave freely mid-training. ``MLPRegressor.fit``
is pinned against a hand-written permutation + ``train_batch`` loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, DataError
from repro.ml.mlp_regressor import MLPRegressor
from repro.ml.neural import MLP, Adam, SGD, StackedNetworks
from repro.ml.preprocessing import StandardScaler
from repro.utils.rng import as_rng

SIZES = (5, 8, 3)


def _members(count: int, seed: int, *, lr: float = 1e-3) -> list[MLP]:
    return [MLP(SIZES, optimizer=Adam(lr), seed=seed + i) for i in range(count)]


def _flat(net: MLP) -> np.ndarray:
    return net._flat_params.copy()


class TestForward:
    def test_forward_matches_members(self):
        nets = _members(4, seed=0)
        stack = StackedNetworks(nets)
        rng = np.random.default_rng(1)
        X = rng.normal(size=(4, 16, SIZES[0]))
        out = stack.forward(X)
        for a, net in enumerate(nets):
            assert np.array_equal(out[a], net.forward(X[a]))

    def test_forward_rows_matches_members(self):
        nets = _members(5, seed=2)
        stack = StackedNetworks(nets)
        rng = np.random.default_rng(3)
        X = rng.normal(size=(5, SIZES[0]))
        out = stack.forward_rows(X)
        for a, net in enumerate(nets):
            assert np.array_equal(out[a], net.forward(X[a]).ravel())

    def test_forward_rejects_wrong_shapes(self):
        stack = StackedNetworks(_members(3, seed=4))
        with pytest.raises(DataError):
            stack.forward(np.zeros((2, 8, SIZES[0])))
        with pytest.raises(DataError):
            stack.forward(np.zeros((3, 8, SIZES[0] + 1)))


class TestTraining:
    @pytest.mark.parametrize("stack_optimizers", [False, True])
    def test_stacked_steps_match_member_steps(self, stack_optimizers):
        """Several stacked backward+Adam steps == each member training
        alone on its slice, parameters and losses bit for bit."""
        serial = _members(4, seed=10)
        stacked = _members(4, seed=10)
        stack = StackedNetworks(stacked, stack_optimizers=stack_optimizers)
        rng = np.random.default_rng(11)
        for _ in range(6):
            X = rng.normal(size=(4, 16, SIZES[0]))
            targets = rng.normal(size=(4, 16, SIZES[-1]))
            stack.forward(X, cache=True)
            losses = stack.train_from_cache(targets)
            for a, net in enumerate(serial):
                net.forward(X[a], cache=True)
                assert float(losses[a]) == net.train_from_cache(targets[a])
        for expected, actual in zip(serial, stacked):
            assert np.array_equal(_flat(actual), _flat(expected))

    def test_member_and_stacked_steps_interleave(self):
        """A per-member train_batch in between stacked steps lands on the
        shared storage — the trajectory stays identical to serial."""
        serial = _members(3, seed=20)
        stacked = _members(3, seed=20)
        stack = StackedNetworks(stacked, stack_optimizers=True)
        rng = np.random.default_rng(21)
        for step in range(4):
            X = rng.normal(size=(3, 8, SIZES[0]))
            targets = rng.normal(size=(3, 8, SIZES[-1]))
            if step % 2:
                for a, net in enumerate(stacked):
                    net.train_batch(X[a], targets[a])
                for a, net in enumerate(serial):
                    net.train_batch(X[a], targets[a])
            else:
                stack.forward(X, cache=True)
                stack.train_from_cache(targets)
                for a, net in enumerate(serial):
                    net.train_batch(X[a], targets[a])
        for expected, actual in zip(serial, stacked):
            assert np.array_equal(_flat(actual), _flat(expected))

    def test_substack_adopt_cache_matches_member_training(self):
        """The joint online+target pattern: one parent forward over all
        members, then backward only through the first half via substack +
        adopt_cache. Trained rows match serial training; the passive rows
        stay untouched."""
        serial = _members(4, seed=30)
        stacked = _members(4, seed=30)
        stack = StackedNetworks(stacked)
        online = stack.substack(0, 2, stack_optimizers=True)
        rng = np.random.default_rng(31)
        for _ in range(5):
            X = rng.normal(size=(4, 12, SIZES[0]))
            targets = rng.normal(size=(2, 12, SIZES[-1]))
            out = stack.forward(X, cache=True)
            for a in (2, 3):  # passive (target-net) rows still served
                assert np.array_equal(out[a], serial[a].forward(X[a]))
            online.adopt_cache(stack, 0, 2)
            online.train_from_cache(targets)
            for a in (0, 1):
                serial[a].forward(X[a], cache=True)
                serial[a].train_from_cache(targets[a])
        for expected, actual in zip(serial, stacked):
            assert np.array_equal(_flat(actual), _flat(expected))

    def test_release_detaches_members(self):
        nets = _members(2, seed=40)
        stack = StackedNetworks(nets, stack_optimizers=True)
        rng = np.random.default_rng(41)
        stack.forward(rng.normal(size=(2, 8, SIZES[0])), cache=True)
        stack.train_from_cache(rng.normal(size=(2, 8, SIZES[-1])))
        before = [_flat(net) for net in nets]
        stack.release()
        stack._params2[:] = 0.0
        for net, expected in zip(nets, before):
            assert np.array_equal(net._flat_params, expected)
        # Members keep training normally on their private storage.
        nets[0].train_batch(
            rng.normal(size=(8, SIZES[0])), rng.normal(size=(8, SIZES[-1]))
        )


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            StackedNetworks([])

    def test_rejects_shape_mismatch(self):
        nets = [MLP(SIZES, seed=0), MLP((5, 4, 3), seed=1)]
        with pytest.raises(ConfigurationError):
            StackedNetworks(nets)

    def test_optimizer_stacking_requires_adam(self):
        nets = [MLP(SIZES, optimizer=SGD(), seed=i) for i in range(2)]
        with pytest.raises(ConfigurationError):
            StackedNetworks(nets, stack_optimizers=True)

    def test_optimizer_stacking_requires_matching_hyperparameters(self):
        nets = [
            MLP(SIZES, optimizer=Adam(1e-3), seed=0),
            MLP(SIZES, optimizer=Adam(1e-2), seed=1),
        ]
        with pytest.raises(ConfigurationError):
            StackedNetworks(nets, stack_optimizers=True)

    def test_substack_range_checked(self):
        stack = StackedNetworks(_members(3, seed=50))
        with pytest.raises(ConfigurationError):
            stack.substack(2, 2)
        with pytest.raises(ConfigurationError):
            stack.substack(0, 4)


class TestFusedEpochs:
    def test_mlp_regressor_fit_matches_manual_loop(self):
        """MLPRegressor.fit rides the fused driver; replaying its scaling
        and schedule through naive train_batch gives identical weights."""
        rng = np.random.default_rng(70)
        X = rng.normal(size=(120, 6))
        y = np.sin(X @ rng.normal(size=6)) + 0.1 * rng.normal(size=120)
        model = MLPRegressor(
            hidden_sizes=(8,), epochs=6, batch_size=16, seed=3
        ).fit(X, y)
        scaled_x = StandardScaler().fit(X).transform(X)
        scaled_y = ((y - y.mean()) / (y.std() or 1.0)).reshape(-1, 1)
        naive = MLP((6, 8, 1), optimizer=Adam(1e-3), seed=3)
        loop_rng = as_rng(3)
        for _ in range(6):
            order = loop_rng.permutation(len(X))
            for start in range(0, len(X), 16):
                index = order[start : start + 16]
                naive.train_batch(scaled_x[index], scaled_y[index])
        assert np.array_equal(model.network_._flat_params, naive._flat_params)
