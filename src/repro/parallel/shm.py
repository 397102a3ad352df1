"""Shared-memory data plane for worker fan-outs (plasma-store style).

Re-pickling the full payload of every task into every worker lets
large read-only inputs dominate dispatch cost. No library code
publishes through it any more (perfbench's tracer still patches
:meth:`SharedArrayStore.share`). This module
moves that data onto a zero-copy plane, the shape Ray's plasma store
proved out (Moritz et al., see PAPERS.md):

- :meth:`SharedArrayStore.share` pickles an object **once** with
  protocol 5, spilling every contiguous buffer (numpy array data)
  out-of-band into a single ``multiprocessing.shared_memory`` block.
- The returned :class:`SharedBlobRef` is a tiny picklable handle; workers
  call :meth:`SharedBlobRef.load` to attach the block and rebuild the
  object with its arrays *backed by the shared pages* — no copy, marked
  read-only. Attachments are cached per process, so a long-lived pool
  worker unpickles each published object at most once.
- Blocks are **refcounted** in the publishing process (``share`` acquires,
  :meth:`~SharedArrayStore.release` drops; at zero the segment is
  unlinked) and **versioned**: a ref's token embeds the publisher's
  version, and sharing a key at a new version drops the old block, so a
  stale block can never be attached as current.
- When shared memory is unavailable (no ``/dev/shm``, permissions,
  exhausted space) the store degrades to carrying the pickled payload
  inline in the ref — slower, never wrong — and counts the fallback.

Metrics: ``repro_shm_bytes`` / ``repro_shm_blocks`` gauges,
``repro_shm_blocks_total`` / ``repro_shm_fallbacks_total`` counters.
"""

from __future__ import annotations

import atexit
import os
import pickle
import struct
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.telemetry import get_registry

try:  # pragma: no cover - exercised implicitly on every platform we run on
    from multiprocessing import shared_memory

    _SHM_AVAILABLE = True
except ImportError:  # pragma: no cover - stdlib always has it on CPython >= 3.8
    shared_memory = None
    _SHM_AVAILABLE = False

#: Prefix for every segment this process creates — makes leak checks
#: (`ls /dev/shm | grep repro_shm_`) and test assertions reliable.
SEGMENT_PREFIX = "repro_shm_"

#: Buffer alignment inside a block; keeps numpy views on cache lines.
_ALIGN = 64

_HEADER = struct.Struct("<Q")


def _pad(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _encode(obj) -> tuple[bytes, list]:
    """Pickle ``obj`` once, spilling contiguous buffers out-of-band."""
    buffers: list = []

    def spill(picklebuffer) -> bool:
        # A falsy return spills the buffer out-of-band (we carry it in the
        # shared block); truthy keeps it in-band (non-contiguous data).
        try:
            raw = picklebuffer.raw()
        except BufferError:
            return True
        buffers.append(raw)
        return False

    payload = pickle.dumps(obj, protocol=5, buffer_callback=spill)
    return payload, buffers


def _block_size(payload: bytes, buffers: list) -> tuple[int, list[int]]:
    lengths = [len(payload)] + [buffer.nbytes for buffer in buffers]
    index = pickle.dumps(lengths)
    offset = _pad(_HEADER.size + len(index))
    for length in lengths:
        offset = _pad(offset + length)
    return offset, lengths


def _write_block(view: memoryview, payload: bytes, buffers: list) -> None:
    lengths = [len(payload)] + [buffer.nbytes for buffer in buffers]
    index = pickle.dumps(lengths)
    view[: _HEADER.size] = _HEADER.pack(len(index))
    view[_HEADER.size : _HEADER.size + len(index)] = index
    offset = _pad(_HEADER.size + len(index))
    for chunk in [payload, *buffers]:
        size = chunk.nbytes if isinstance(chunk, memoryview) else len(chunk)
        view[offset : offset + size] = chunk
        offset = _pad(offset + size)


def _read_block(view: memoryview):
    (index_len,) = _HEADER.unpack_from(view, 0)
    lengths = pickle.loads(bytes(view[_HEADER.size : _HEADER.size + index_len]))
    offset = _pad(_HEADER.size + index_len)
    segments = []
    for length in lengths:
        segments.append(view[offset : offset + length].toreadonly())
        offset = _pad(offset + length)
    payload, buffers = bytes(segments[0]), segments[1:]
    return pickle.loads(payload, buffers=buffers)


# ----------------------------------------------------------------------
#: Per-process attachment cache: token -> (SharedMemory | None, object).
#: Bounded so long-lived pool workers do not accumulate dead objects.
_ATTACHED: OrderedDict[str, tuple] = OrderedDict()
_ATTACH_CACHE_SIZE = 32

#: SharedMemory handles whose mmap could not close because user code
#: still holds zero-copy views into it. Parking them here keeps __del__
#: from re-raising; the pages are reclaimed at process exit (the segment
#: itself is already unlinked by the publisher).
_unclosable: list = []


def _safe_close(shm) -> None:
    if shm is None:
        return
    try:
        shm.close()
    except BufferError:
        _unclosable.append(shm)
    except OSError:  # pragma: no cover - close is best-effort
        pass


def _cache_attachment(token: str, shm, obj) -> None:
    _ATTACHED[token] = (shm, obj)
    _ATTACHED.move_to_end(token)
    while len(_ATTACHED) > _ATTACH_CACHE_SIZE:
        _safe_close(_ATTACHED.popitem(last=False)[1][0])


@dataclass(frozen=True)
class SharedBlobRef:
    """Picklable handle to one published object.

    ``name`` is the shared-memory segment (``None`` means the pickled
    payload travels ``inline`` — the degraded mode). ``token`` is
    ``key@version`` and doubles as the worker-side cache key, so a
    republished object (new version) is never served from a stale
    attachment.
    """

    token: str
    name: str | None
    nbytes: int
    creator_pid: int
    inline: bytes | None = field(default=None, repr=False)

    def load(self):
        """The published object; zero-copy in shared mode, cached per process."""
        cached = _ATTACHED.get(self.token)
        if cached is not None:
            _ATTACHED.move_to_end(self.token)
            return cached[1]
        if self.name is None:
            obj = pickle.loads(self.inline)
            _cache_attachment(self.token, None, obj)
            return obj
        # NOTE on the resource tracker: with the fork start method every
        # process shares one tracker, and SharedMemory registration is a
        # set — worker attaches are idempotent no-ops there, and the
        # creator's unlink() is the single cleanup point. Explicitly
        # unregistering here would race that unlink (KeyError noise in
        # the tracker), so attachments are left registered.
        shm = shared_memory.SharedMemory(name=self.name)
        obj = _read_block(shm.buf)
        _cache_attachment(self.token, shm, obj)
        return obj


def resolve_shared(value):
    """``value.load()`` for refs, ``value`` unchanged otherwise.

    Worker functions call this on payload fields that may travel either
    inline (small objects) or by reference (published ones).
    """
    if isinstance(value, SharedBlobRef):
        return value.load()
    return value


@dataclass
class _Block:
    ref: SharedBlobRef
    shm: object  # SharedMemory | None (inline fallback)
    refs: int


class SharedArrayStore:
    """Publisher-side registry of shared blocks, refcounted and versioned.

    One store lives in the coordinating process (see
    :func:`get_shared_store`); worker processes only ever hold
    :class:`SharedBlobRef` handles. ``share`` is idempotent per
    ``(key, version)`` — re-sharing bumps the refcount and returns the
    existing ref; a *new* version drops the old block (once unreferenced)
    and publishes a fresh one.
    """

    def __init__(self) -> None:
        self._blocks: dict[str, _Block] = {}
        self._counter = 0
        self._pid = os.getpid()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._blocks)

    @property
    def total_bytes(self) -> int:
        return sum(block.ref.nbytes for block in self._blocks.values())

    def refcount(self, key: str) -> int:
        block = self._blocks.get(key)
        return block.refs if block is not None else 0

    def _segment_name(self) -> str:
        self._counter += 1
        return f"{SEGMENT_PREFIX}{self._pid}_{self._counter}"

    def _gauges(self) -> None:
        registry = get_registry()
        registry.gauge(
            "repro_shm_bytes", help="Bytes resident in shared-memory blocks"
        ).set(self.total_bytes)
        registry.gauge(
            "repro_shm_blocks", help="Live shared-memory blocks"
        ).set(len(self._blocks))

    # ------------------------------------------------------------------
    def share(self, key: str, obj, *, version: int = 0) -> SharedBlobRef:
        """Publish ``obj`` under ``key`` (idempotent per version) and acquire it."""
        token = f"{key}@{version}"
        block = self._blocks.get(key)
        if block is not None:
            if block.ref.token == token:
                block.refs += 1
                return block.ref
            self.drop(key)  # stale version: republish below
        payload, buffers = _encode(obj)
        size, _ = _block_size(payload, buffers)
        shm = None
        if _SHM_AVAILABLE:
            for _ in range(8):  # retry past stale same-name segments
                try:
                    shm = shared_memory.SharedMemory(
                        create=True, size=size, name=self._segment_name()
                    )
                    break
                except FileExistsError:
                    continue
                except OSError:
                    shm = None
                    break
        if shm is not None:
            _write_block(shm.buf, payload, buffers)
            ref = SharedBlobRef(
                token=token, name=shm.name, nbytes=size, creator_pid=self._pid
            )
            get_registry().counter(
                "repro_shm_blocks_total", help="Shared-memory blocks published"
            ).inc()
        else:
            ref = SharedBlobRef(
                token=token,
                name=None,
                nbytes=len(payload),
                creator_pid=self._pid,
                inline=pickle.dumps(obj),
            )
            get_registry().counter(
                "repro_shm_fallbacks_total",
                help="Objects published inline because shared memory was unavailable",
            ).inc()
        self._blocks[key] = _Block(ref=ref, shm=shm, refs=1)
        self._gauges()
        return ref

    def release(self, key: str) -> None:
        """Drop one reference; the block is unlinked when none remain."""
        block = self._blocks.get(key)
        if block is None:
            return
        block.refs -= 1
        if block.refs <= 0:
            self.drop(key)

    def drop(self, key: str) -> None:
        """Unlink ``key``'s block regardless of refcount (e.g. stale version)."""
        block = self._blocks.pop(key, None)
        if block is None:
            return
        attached = _ATTACHED.pop(block.ref.token, None)
        if attached is not None:
            _safe_close(attached[0])
        if block.shm is not None:
            try:
                block.shm.unlink()
            except OSError:  # pragma: no cover - already gone
                pass
            _safe_close(block.shm)
        self._gauges()

    def release_all(self) -> None:
        for key in list(self._blocks):
            self.drop(key)


# ----------------------------------------------------------------------
_shared_store: SharedArrayStore | None = None


def get_shared_store() -> SharedArrayStore:
    """The process-wide publisher store, created lazily."""
    global _shared_store
    if _shared_store is None or _shared_store._pid != os.getpid():
        _shared_store = SharedArrayStore()
    return _shared_store


def release_shared_store() -> None:
    """Unlink every block the ambient store published (idempotent)."""
    global _shared_store
    if _shared_store is not None and _shared_store._pid == os.getpid():
        _shared_store.release_all()


atexit.register(release_shared_store)
