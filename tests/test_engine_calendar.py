"""The single event core: ``EventQueue`` ordering, cancellation and a reference model.

Both engines run on the binary-heap :class:`~repro.sim.events.EventQueue`
(``repro.engine.calendar.CalendarQueue`` is now only an alias of it).  The
whole bit-identity story rests on its pop order being exactly the ``(time,
priority, sequence)`` order, with FIFO among equal times and priorities.
The property test at the bottom drives the queue through random interleaved
push/cancel/pop workloads against a naive sorted-list reference and compares
every pop, ``peek_time`` and ``len``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.events import EventQueue


class TestBasics:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        for t in [5.0, 1.0, 3.0, 2.0, 4.0]:
            queue.push(t, lambda: None)
        assert [queue.pop().time for _ in range(5)] == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert len(queue) == 0 and not queue

    def test_fifo_within_same_timestamp(self):
        queue = EventQueue()
        events = [queue.push(1.0, lambda: None) for _ in range(10)]
        popped = [queue.pop() for _ in range(10)]
        assert [e.sequence for e in popped] == [e.sequence for e in events]

    def test_priority_breaks_timestamp_ties(self):
        queue = EventQueue()
        late = queue.push(1.0, lambda: None, priority=5)
        early = queue.push(1.0, lambda: None, priority=-5)
        assert queue.pop() is early
        assert queue.pop() is late

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-0.5, lambda: None)

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()
        assert EventQueue().peek_time() is None

    def test_clear(self):
        queue = EventQueue()
        for t in range(20):
            queue.push(float(t), lambda: None)
        queue.clear()
        assert len(queue) == 0
        assert queue.peek_time() is None
        # the sequence counter keeps running across a clear
        assert queue.push(1.0, lambda: None).sequence == 20


class TestCancellation:
    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        second = queue.push(2.0, lambda: None)
        first.cancel()
        queue.note_cancelled()
        assert len(queue) == 1
        assert queue.peek_time() == 2.0
        assert queue.pop() is second

    def test_cancel_after_peek_invalidates_cache(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        second = queue.push(2.0, lambda: None)
        assert queue.peek_time() == 1.0
        first.cancel()
        queue.note_cancelled()
        assert queue.peek_time() == 2.0
        assert queue.pop() is second

    def test_only_cancelled_entries_left(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        event.cancel()
        queue.note_cancelled()
        assert queue.peek_time() is None
        with pytest.raises(IndexError):
            queue.pop()

    def test_iter_pending_excludes_cancelled(self):
        queue = EventQueue()
        keep = queue.push(1.0, lambda: None)
        drop = queue.push(2.0, lambda: None)
        drop.cancel()
        queue.note_cancelled()
        assert list(queue.iter_pending()) == [keep]


class TestCalendarMechanics:
    """Access patterns the batched engine's event traffic produces."""

    def test_push_earlier_than_scan_position_is_found(self):
        # A nearer event pushed after peeking a far-future one pops first.
        queue = EventQueue()
        far = queue.push(1000.0, lambda: None)
        assert queue.peek_time() == 1000.0
        near = queue.push(3.0, lambda: None)
        assert queue.pop() is near
        assert queue.pop() is far

    def test_burst_at_single_timestamp(self):
        queue = EventQueue()
        for _ in range(200):
            queue.push(42.0, lambda: None)
        assert [queue.pop().sequence for _ in range(200)] == list(range(200))

    def test_interleaved_pop_and_push(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        queue.push(10.0, lambda: None)
        assert queue.pop().time == 1.0
        # push at the exact popped timestamp (schedule-at-now pattern)
        queue.push(1.0, lambda: None)
        assert queue.pop().time == 1.0
        assert queue.pop().time == 10.0

    def test_drives_a_simulator(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(2.0, lambda: fired.append(sim.now))
        sim.schedule_in(1.0, lambda: fired.append(sim.now))
        handle = sim.schedule_at(1.5, lambda: fired.append(-1.0))
        sim.cancel(handle)
        sim.run(until=10.0)
        assert fired == [1.0, 2.0]
        assert sim.now == 10.0


# Weighted toward collisions: repeated timestamps and priorities exercise the
# (priority, sequence) tie-breaking; the float range exercises heap order.
_times = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5, 7.25, 64.0, 1000.0]),
    st.floats(min_value=0.0, max_value=200.0, allow_nan=False, allow_infinity=False),
)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _times, st.sampled_from([-1, 0, 0, 0, 3])),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10 ** 6), st.just(0)),
        st.tuples(st.just("pop"), st.just(0.0), st.just(0)),
    ),
    min_size=1,
    max_size=120,
)


class TestHeapEquivalenceProperty:
    """``EventQueue`` pops exactly what a sorted list of live keys says."""

    @given(_ops)
    @settings(max_examples=200, deadline=None)
    def test_identical_pop_sequences(self, ops):
        queue = EventQueue()
        live = {}  # (time, priority, sequence) -> event, the reference model
        pushed = 0
        for kind, value, priority in ops:
            if kind == "push":
                event = queue.push(value, lambda: None, priority=priority)
                assert (event.time, event.priority, event.sequence) == (value, priority, pushed)
                live[(value, priority, pushed)] = event
                pushed += 1
            elif kind == "cancel" and live:
                key = sorted(live)[value % len(live)]
                live.pop(key).cancel()
                queue.note_cancelled()
            elif kind == "pop":
                if live:
                    expected = min(live)
                    event = queue.pop()
                    assert (event.time, event.priority, event.sequence) == expected
                    assert live.pop(expected) is event
                else:
                    with pytest.raises(IndexError):
                        queue.pop()
            reference = sorted(live)
            assert queue.peek_time() == (reference[0][0] if reference else None)
            assert len(queue) == len(reference)
        # drain completely, in reference order
        for expected in sorted(live):
            event = queue.pop()
            assert (event.time, event.priority, event.sequence) == expected
        assert not queue
        assert queue.peek_time() is None
