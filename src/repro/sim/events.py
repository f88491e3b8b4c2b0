"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` couples a firing time with a callback.  Events are ordered
by ``(time, priority, sequence)`` which makes the schedule fully deterministic:
two events scheduled for the same instant fire in the order they were
scheduled unless an explicit priority says otherwise.

Cancellation is *lazy*: cancelled events stay in the heap but are skipped when
popped.  This is the standard technique for binary-heap based schedulers where
arbitrary removal would be ``O(n)``.

:class:`EventQueue` is the simulator's single event core, on both the scalar
and the batched engine.  Its heap holds ``(time, priority, sequence, event)``
tuples rather than the events themselves, so every heap comparison is a
C-level tuple comparison; ``sequence`` is unique, so the trailing event is
never compared and the pop order is exactly the ``(time, priority,
sequence)`` order of :class:`Event`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional, Tuple


#: Default priority used when the caller does not care about intra-timestamp
#: ordering.  Lower numbers fire first.
DEFAULT_PRIORITY = 0


@dataclass(order=True)
class Event:
    """A single scheduled callback.

    Attributes
    ----------
    time:
        Simulation time (seconds) at which the event fires.
    priority:
        Tie-breaker for events sharing the same timestamp; lower fires first.
    sequence:
        Monotonically increasing insertion index; makes ordering total.
    callback:
        Zero-argument callable invoked when the event fires.
    name:
        Optional human readable label, used in traces and error messages.
    cancelled:
        Lazily-set cancellation flag.
    """

    time: float
    priority: int
    sequence: int
    callback: Callable[[], Any] = field(compare=False)
    name: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        label = self.name or getattr(self.callback, "__name__", "<callback>")
        return f"Event(t={self.time:.6f}, prio={self.priority}, {label}, {state})"


class EventHandle:
    """Opaque handle returned by :meth:`Simulator.schedule`.

    Exposes cancellation and inspection without giving callers access to the
    mutable heap entry itself.
    """

    __slots__ = ("_event",)

    def __init__(self, event: Event) -> None:
        self._event = event

    @property
    def time(self) -> float:
        """Scheduled firing time."""
        return self._event.time

    @property
    def name(self) -> str:
        """Label supplied at scheduling time."""
        return self._event.name

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._event.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if already fired/cancelled)."""
        self._event.cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventHandle({self._event!r})"


class EventQueue:
    """Binary-heap priority queue of :class:`Event` objects.

    The queue is deliberately independent of the engine so it can be unit- and
    property-tested in isolation (ordering, stability, cancellation).
    """

    def __init__(self) -> None:
        #: ``(time, priority, sequence, event)`` entries; see the module notes
        self._heap: list[Tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: float,
        callback: Callable[[], Any],
        *,
        priority: int = DEFAULT_PRIORITY,
        name: str = "",
    ) -> Event:
        """Insert a new event and return the underlying entry."""
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        time = float(time)
        sequence = next(self._counter)
        event = Event(time, priority, sequence, callback, name)
        heapq.heappush(self._heap, (time, priority, sequence, event))
        self._live += 1
        return event

    def pop(self) -> Event:
        """Remove and return the earliest live event.

        Raises
        ------
        IndexError
            If the queue contains no live events.
        """
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[3]
            if event.cancelled:
                continue
            self._live -= 1
            return event
        raise IndexError("pop from an empty EventQueue")

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the next live event, or ``None``."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def note_cancelled(self) -> None:
        """Inform the queue that one previously-pushed event was cancelled.

        The engine calls this so ``len(queue)`` keeps reflecting live events;
        the entry itself is discarded lazily on pop.
        """
        if self._live > 0:
            self._live -= 1

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
        self._live = 0

    def iter_pending(self) -> Iterator[Event]:
        """Yield live events in heap (not chronological) order.

        Intended for diagnostics and tests only.
        """
        return (entry[3] for entry in self._heap if not entry[3].cancelled)
