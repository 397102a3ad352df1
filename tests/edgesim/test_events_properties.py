"""Property tests: the event engines are deterministic total orders.

Both :class:`EventQueue` (per-event heap) and :class:`CalendarQueue`
(bucketed calendar) promise the same contract — events drain in
(time, insertion-sequence) order no matter how schedules interleave with
pops. Hypothesis drives randomized schedules at both engines and checks
the drained orders agree with a reference stable sort and with each
other.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edgesim.events import CalendarQueue, EventQueue

# Times from a coarse grid so equal-time collisions are common: the
# interesting property is tie-breaking, not float ordering.
_times = st.floats(min_value=0.0, max_value=8.0, allow_nan=False, width=16).map(
    lambda t: round(t * 4) / 4
)
_schedules = st.lists(_times, min_size=1, max_size=60)


@given(_schedules)
@settings(max_examples=200, deadline=None)
def test_equal_time_events_pop_in_insertion_order(times):
    queue = EventQueue()
    for index, time in enumerate(times):
        queue.schedule_at(time, "e", payload=index)
    drained = [queue.pop() for _ in range(len(times))]
    expected = sorted(range(len(times)), key=lambda i: (times[i], i))
    assert [e.payload for e in drained] == expected
    assert all(a.time <= b.time for a, b in zip(drained, drained[1:]))


@given(_schedules, st.lists(st.integers(min_value=0, max_value=3), max_size=20))
@settings(max_examples=200, deadline=None)
def test_schedule_at_clamping_never_reorders(times, pop_pattern):
    """Interleave pops with at-the-boundary schedules.

    ``schedule_at(now)`` (the clamp boundary — stale times are clamped up
    to ``now`` by callers, truly-past times raise) must never emit an
    event before anything already drained: the full drained sequence is
    non-decreasing in (time, sequence).
    """
    queue = EventQueue()
    drained = []
    pops = iter(pop_pattern + [0] * len(times))
    for index, time in enumerate(times):
        queue.schedule_at(max(time, queue.now), "e", payload=index)
        for _ in range(next(pops)):
            if len(queue):
                drained.append(queue.pop())
    while len(queue):
        drained.append(queue.pop())
    assert len(drained) == len(times)
    keys = [(e.time, e.sequence) for e in drained]
    assert keys == sorted(keys)


@given(_schedules, st.lists(st.integers(min_value=0, max_value=3), max_size=20))
@settings(max_examples=200, deadline=None)
def test_calendar_clamps_stale_times_without_reordering(times, pop_pattern):
    """CalendarQueue clamps past times to ``now`` instead of raising; the
    clamped events drain after everything already popped, in insertion
    order among themselves."""
    calendar = CalendarQueue(bucket_s=1.0)
    scheduled = 0
    drained = []
    pops = iter(pop_pattern + [0] * len(times))
    for time in times:
        calendar.schedule(time, 0, a=scheduled)  # may be < now: clamped
        scheduled += 1
        for _ in range(next(pops)):
            popped = calendar.pop_event()
            if popped is not None:
                drained.append(popped)
    while True:
        popped = calendar.pop_event()
        if popped is None:
            break
        drained.append(popped)
    assert len(drained) == scheduled
    drained_times = [t for t, _k, _a, _b in drained]
    assert drained_times == sorted(drained_times)


@given(_schedules, st.floats(min_value=0.25, max_value=4.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_calendar_queue_matches_event_queue_order(times, bucket_s):
    """CalendarQueue's scalar pop drains in EventQueue's exact order."""
    reference = EventQueue()
    calendar = CalendarQueue(bucket_s=bucket_s)
    for index, time in enumerate(times):
        reference.schedule_at(time, "e", payload=index)
        calendar.schedule(time, 0, a=index)
    expected = [(reference.pop().payload) for _ in range(len(times))]
    drained = []
    while True:
        popped = calendar.pop_event()
        if popped is None:
            break
        _t, _kind, a, _b = popped
        drained.append(a)
    assert drained == expected


@given(_schedules)
@settings(max_examples=100, deadline=None)
def test_calendar_queue_len_tracks_schedule_and_pop(times):
    calendar = CalendarQueue(bucket_s=1.0)
    for index, time in enumerate(times):
        calendar.schedule(time, 0, a=index)
    assert len(calendar) == len(times)
    popped = 0
    while calendar.pop_event() is not None:
        popped += 1
        assert len(calendar) == len(times) - popped
    assert popped == len(times)


@given(_schedules, st.lists(st.integers(min_value=0, max_value=2), max_size=30))
@settings(max_examples=150, deadline=None)
def test_calendar_queue_mid_drain_schedules_keep_total_order(times, extra_gaps):
    """Events scheduled while draining (handler-style) never violate the
    (time, sequence) total order, even landing in the current bucket."""
    calendar = CalendarQueue(bucket_s=1.0)
    for index, time in enumerate(times):
        calendar.schedule(time, 0, a=index)
    gaps = iter(extra_gaps + [0] * (len(times) * 3))
    next_id = len(times)
    drained = []
    while True:
        popped = calendar.pop_event()
        if popped is None:
            break
        t, _kind, a, _b = popped
        drained.append((t, a))
        gap = next(gaps)
        if gap and next_id < len(times) * 2:
            calendar.schedule(t + gap * 0.25, 0, a=next_id)
            next_id += 1
    assert len(drained) == next_id
    drained_times = [t for t, _ in drained]
    assert drained_times == sorted(drained_times)
