"""A minimal deterministic discrete-event engine.

Events are ordered by (time, sequence number), the sequence number breaking
ties in insertion order so simulations are fully deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.errors import ConfigurationError, SimulationError


@dataclass(order=True)
class Event:
    """One scheduled event; ``payload`` is opaque to the queue."""

    time: float
    sequence: int
    kind: str = field(compare=False)
    payload: Any = field(compare=False, default=None)


class EventQueue:
    """Priority queue of events with deterministic tie-breaking."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()
        self.now = 0.0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, delay: float, kind: str, payload: Any = None) -> Event:
        """Schedule an event ``delay`` seconds after the current time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        event = Event(self.now + delay, next(self._counter), kind, payload)
        heapq.heappush(self._heap, event)
        return event

    def schedule_at(self, time: float, kind: str, payload: Any = None) -> Event:
        """Schedule an event at an absolute time >= now."""
        if time < self.now - 1e-12:
            raise SimulationError(f"cannot schedule into the past (t={time} < now={self.now})")
        event = Event(max(time, self.now), next(self._counter), kind, payload)
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the next event, advancing the clock."""
        if not self._heap:
            raise SimulationError("event queue is empty")
        event = heapq.heappop(self._heap)
        if event.time < self.now - 1e-12:
            raise SimulationError(
                f"event time {event.time} precedes current time {self.now}"
            )
        self.now = max(self.now, event.time)
        return event

    def run(self, handler: Callable[[Event], None], *, max_events: int = 10_000_000) -> int:
        """Drain the queue through ``handler``; returns events processed.

        The bound is checked *before* dispatch: the handler is invoked at most
        ``max_events`` times before :class:`SimulationError` is raised.
        """
        processed = 0
        while self._heap:
            if processed >= max_events:
                raise SimulationError(f"exceeded {max_events} events; runaway simulation?")
            handler(self.pop())
            processed += 1
        return processed


class CalendarQueue:
    """Bucketed event calendar for the fleet engine.

    Events are hashed into fixed-width time buckets (``bucket_s`` seconds
    wide). A small heap orders the *bucket ids* while each bucket holds
    columnar chunks of events — numpy arrays of times, kinds, and payload
    slots — so the fleet engine can pop a whole cohort of same-kind events
    and apply it as one vectorized batch instead of one ``heapq`` pop per
    event.

    Ordering is the same total order as :class:`EventQueue`: (time,
    insertion sequence). Within a bucket the chunks are concatenated and
    stably argsorted by time, which preserves insertion order among
    equal-time events because chunks are appended in schedule order. Events
    scheduled *into the currently draining bucket* (handlers scheduling at
    ``now + small delay``) collect in a pending list and are merged with
    the unprocessed remainder — one re-sort per pop, however many batches
    handlers scheduled in between — so the total order is never violated.

    Event kinds are small ints (the engine defines its own enum); payloads
    are parallel int64 columns (``a`` and ``b``) whose meaning depends on
    the kind.
    """

    def __init__(self, bucket_s: float = 1.0, start: float = 0.0) -> None:
        if bucket_s <= 0:
            raise ConfigurationError(f"bucket_s must be > 0, got {bucket_s}")
        self.bucket_s = float(bucket_s)
        self.now = float(start)
        self._seq = 0
        # bucket id -> list of (times, kinds, a, b, seqs) chunk tuples
        self._buckets: dict[int, list[tuple]] = {}
        self._bucket_heap: list[int] = []
        self._size = 0
        # Current drained-but-unprocessed cohort (columnar, sorted), plus
        # chunks scheduled into it since the last merge.
        self._cur: tuple | None = None
        self._cur_pos = 0
        self._cur_bucket = -1
        self._cur_pending: list[tuple] = []

    def __len__(self) -> int:
        pending = self._size
        if self._cur is not None:
            pending += len(self._cur[0]) - self._cur_pos
        pending += sum(len(chunk[0]) for chunk in self._cur_pending)
        return pending

    def schedule(self, time: float, kind: int, a: int = 0, b: int = 0) -> None:
        """Schedule one event at absolute ``time`` (clamped to now)."""
        self.schedule_batch(
            np.asarray([time], dtype=np.float64),
            np.asarray([kind], dtype=np.int32),
            np.asarray([a], dtype=np.int64),
            np.asarray([b], dtype=np.int64),
        )

    def schedule_batch(
        self,
        times: "np.ndarray",
        kinds: "np.ndarray",
        a: "np.ndarray",
        b: "np.ndarray",
    ) -> None:
        """Schedule a batch of events; times are clamped to ``now``.

        The batch is assigned consecutive sequence numbers in array order,
        matching :meth:`EventQueue.schedule` called in a loop.
        """
        n = len(times)
        if n == 0:
            return
        times = np.maximum(np.asarray(times, dtype=np.float64), self.now)
        if float(times.min()) < self.now - 1e-12:
            raise SimulationError("cannot schedule into the past")
        seqs = np.arange(self._seq, self._seq + n, dtype=np.int64)
        self._seq += n
        bucket_ids = (times / self.bucket_s).astype(np.int64)
        first = int(bucket_ids[0])
        if n == 1 or int(bucket_ids.min()) == int(bucket_ids.max()):
            self._push_chunk(first, (times, kinds, a, b, seqs))
        else:
            order = np.argsort(bucket_ids, kind="stable")
            sb = bucket_ids[order]
            edges = np.flatnonzero(np.diff(sb)) + 1
            starts = np.concatenate(([0], edges))
            ends = np.concatenate((edges, [n]))
            for s, e in zip(starts, ends):
                idx = order[s:e]
                self._push_chunk(
                    int(sb[s]), (times[idx], kinds[idx], a[idx], b[idx], seqs[idx])
                )

    def _push_chunk(self, bucket_id: int, chunk: tuple) -> None:
        if bucket_id == self._cur_bucket and self._cur is not None:
            # Late arrivals into the bucket being drained: queue for a lazy
            # merge — the next pop restores (time, seq) order in one sort.
            self._cur_pending.append(chunk)
            return
        bucket = self._buckets.get(bucket_id)
        if bucket is None:
            self._buckets[bucket_id] = [chunk]
            heapq.heappush(self._bucket_heap, bucket_id)
        else:
            bucket.append(chunk)
        self._size += len(chunk[0])

    def _merge_pending(self) -> None:
        p = self._cur_pos
        chunks = [tuple(col[p:] for col in self._cur)] + self._cur_pending
        self._cur_pending = []
        merged = tuple(
            np.concatenate([chunk[i] for chunk in chunks]) for i in range(5)
        )
        order = np.lexsort((merged[4], merged[0]))
        self._cur = tuple(col[order] for col in merged)
        self._cur_pos = 0

    def _load_next_bucket(self) -> bool:
        while self._bucket_heap:
            bucket_id = heapq.heappop(self._bucket_heap)
            chunks = self._buckets.pop(bucket_id, None)
            if not chunks:
                continue
            if len(chunks) == 1:
                times, kinds, a, b, seqs = chunks[0]
            else:
                times = np.concatenate([c[0] for c in chunks])
                kinds = np.concatenate([c[1] for c in chunks])
                a = np.concatenate([c[2] for c in chunks])
                b = np.concatenate([c[3] for c in chunks])
                seqs = np.concatenate([c[4] for c in chunks])
            order = np.lexsort((seqs, times))
            self._cur = (times[order], kinds[order], a[order], b[order], seqs[order])
            self._cur_pos = 0
            self._cur_bucket = bucket_id
            self._size -= len(times)
            return True
        return False

    def _ensure_current(self) -> bool:
        while True:
            if self._cur is not None:
                if self._cur_pending:
                    self._merge_pending()
                if self._cur_pos < len(self._cur[0]):
                    return True
                self._cur = None
                self._cur_bucket = -1
            if not self._load_next_bucket():
                return False

    def pop_event(self) -> tuple[float, int, int, int] | None:
        """Pop the single next event in (time, sequence) order.

        The fleet engine pops whole cohorts (:meth:`pop_cohort`); this
        per-event pop lets the property tests check the drain order
        against :class:`EventQueue`. Advances the clock.
        """
        if not self._ensure_current():
            return None
        times, kinds, a, b, _ = self._cur
        i = self._cur_pos
        self._cur_pos = i + 1
        t = float(times[i])
        self.now = max(self.now, t)
        return t, int(kinds[i]), int(a[i]), int(b[i])

    def pop_cohort(self) -> tuple | None:
        """Pop every unprocessed event of the head event's kind, this bucket.

        Returns ``(kind, times, a, b)`` arrays (time-sorted) or ``None``
        when the calendar is empty. Gathering a whole kind at once — not
        just the consecutive run — keeps cohorts large when kinds
        interleave; the cross-kind reordering this introduces relative to
        strict per-event interleaving is bounded by ``bucket_s`` and fully
        deterministic. The clock advances monotonically to the cohort's
        last event.
        """
        if not self._ensure_current():
            return None
        times, kinds, a, b, seqs = self._cur
        i = self._cur_pos
        kind = int(kinds[i])
        rest = kinds[i:]
        selected = rest == kind
        if selected.all():
            self._cur_pos = len(times)
            cohort = (times[i:], a[i:], b[i:])
        else:
            take = np.flatnonzero(selected) + i
            keep = np.flatnonzero(~selected) + i
            cohort = (times[take], a[take], b[take])
            self._cur = (times[keep], kinds[keep], a[keep], b[keep], seqs[keep])
            self._cur_pos = 0
        self.now = max(self.now, float(cohort[0][-1]))
        return kind, cohort[0], cohort[1], cohort[2]
