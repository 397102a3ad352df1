"""SharedArrayStore lifecycle: refcounts, versioning, leaks, degradation."""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from repro.parallel import (
    ParallelTrainer,
    SharedArrayStore,
    SharedBlobRef,
    get_shared_store,
    resolve_shared,
    shutdown_worker_pool,
)
from repro.parallel import shm as shm_module
from repro.telemetry import MetricsRegistry, use_registry


def _segments() -> list[str]:
    return sorted(glob.glob(f"/dev/shm/{shm_module.SEGMENT_PREFIX}*"))


def _sum_shared(payload) -> float:
    """Worker fn: attach the shared block and reduce it (picklable)."""
    data = resolve_shared(payload)
    return float(data["matrix"].sum())


@pytest.fixture
def store():
    s = SharedArrayStore()
    yield s
    s.release_all()


class TestShareLoad:
    def test_zero_copy_round_trip(self, store):
        matrix = np.arange(12.0).reshape(3, 4)
        ref = store.share("t.matrix", {"matrix": matrix})
        assert isinstance(ref, SharedBlobRef)
        assert ref.name is not None and ref.name.startswith(shm_module.SEGMENT_PREFIX)
        loaded = ref.load()
        assert np.array_equal(loaded["matrix"], matrix)
        # Shared pages are attached read-only — workers cannot corrupt the
        # publisher's data.
        assert not loaded["matrix"].flags.writeable
        # The block holds the array out-of-band, so it is at least as
        # large as the raw array data (not a pickle-of-a-copy).
        assert ref.nbytes >= matrix.nbytes

    def test_resolve_shared_passthrough(self, store):
        plain = {"matrix": np.ones(3)}
        assert resolve_shared(plain) is plain
        ref = store.share("t.res", plain)
        assert np.array_equal(resolve_shared(ref)["matrix"], plain["matrix"])

    def test_segment_visible_while_shared(self, store):
        ref = store.share("t.vis", np.zeros(1024))
        assert f"/dev/shm/{ref.name}" in _segments()


class TestRefcounts:
    def test_share_is_idempotent_and_acquires(self, store):
        a = store.share("t.rc", np.ones(8))
        b = store.share("t.rc", np.ones(8))
        assert a.token == b.token and a.name == b.name
        assert store.refcount("t.rc") == 2

    def test_release_unlinks_at_zero(self, store):
        ref = store.share("t.rel", np.ones(8))
        store.share("t.rel", np.ones(8))
        store.release("t.rel")
        assert store.refcount("t.rel") == 1
        assert f"/dev/shm/{ref.name}" in _segments()
        store.release("t.rel")
        assert store.refcount("t.rel") == 0
        assert f"/dev/shm/{ref.name}" not in _segments()

    def test_release_unknown_key_is_noop(self, store):
        store.release("never.shared")

    def test_new_version_drops_stale_block(self, store):
        old = store.share("t.ver", np.ones(8), version=0)
        new = store.share("t.ver", np.ones(8) * 2, version=1)
        assert old.token != new.token
        assert f"/dev/shm/{old.name}" not in _segments()
        assert np.array_equal(new.load(), np.ones(8) * 2)


class TestLeaksAndShutdown:
    def test_no_leaked_segments_after_pool_shutdown(self):
        before = _segments()
        shared = get_shared_store()
        matrix = np.arange(64.0).reshape(8, 8)
        ref = shared.share("t.leak", {"matrix": matrix})
        trainer = ParallelTrainer(_sum_shared, jobs=2)
        assert trainer.map([ref, ref]) == [float(matrix.sum())] * 2
        assert len(_segments()) >= len(before)
        shutdown_worker_pool()  # releases the shared plane too
        assert _segments() == [] or set(_segments()) <= set(before)

    def test_release_all_is_idempotent(self, store):
        store.share("a", np.ones(4))
        store.share("b", np.ones(4))
        store.release_all()
        store.release_all()
        assert len(store) == 0


class TestDegradation:
    def test_inline_fallback_when_shared_memory_unavailable(self, monkeypatch):
        """No /dev/shm → slower inline pickling, identical results."""

        def refuse(*args, **kwargs):
            raise OSError("shared memory unavailable")

        monkeypatch.setattr(shm_module.shared_memory, "SharedMemory", refuse)
        registry = MetricsRegistry()
        store = SharedArrayStore()
        matrix = np.arange(6.0)
        with use_registry(registry):
            ref = store.share("t.fallback", {"matrix": matrix})
        assert ref.name is None and ref.inline is not None
        assert np.array_equal(ref.load()["matrix"], matrix)
        assert _sum_shared(ref) == float(matrix.sum())
        fallbacks = [
            float(sum(child.value for child in family.children.values()))
            for family in registry.families()
            if family.name == "repro_shm_fallbacks_total"
        ]
        assert fallbacks == [1.0]
        store.release_all()  # inline blocks release without unlink errors
