"""The discrete-event simulation engine.

:class:`Simulator` owns the clock and the event queue.  Everything in the
world model (nodes, radios, stimulus updates, metric sampling) runs by
scheduling callbacks on a shared simulator instance.

Design notes
------------
* Time is a ``float`` number of seconds.  The engine never advances time
  except by popping events, so the simulation is exactly reproducible given
  the same schedule.
* ``run(until=...)`` processes events whose time is ``<= until`` and then sets
  the clock to ``until`` so that energy integration over "the rest of the
  window" is well defined.
* Exceptions raised by callbacks abort the run and are re-raised wrapped in
  :class:`SimulationError` carrying the offending event name and time, which
  makes debugging long scenario runs tractable.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.obs import telemetry as _telemetry
from repro.sim.events import DEFAULT_PRIORITY, EventHandle, EventQueue


def _event_kind(name: str) -> str:
    """Coarse telemetry key for an event name.

    Per-node names share one kind (``node42:arrival`` -> ``arrival``,
    ``deliver->42`` -> ``deliver``); already-coarse names (``deliver-batch``,
    ``coverage-recheck``) pass through unchanged.
    """
    if not name:
        return "unnamed"
    colon = name.rfind(":")
    if colon >= 0:
        return name[colon + 1 :] or "unnamed"
    arrow = name.find("->")
    if arrow >= 0:
        return name[:arrow]
    return name


class SimulationError(RuntimeError):
    """Raised when an event callback fails during :meth:`Simulator.run`."""


class StopSimulation(Exception):
    """Raise inside a callback to stop the run cleanly at the current time."""


class Simulator:
    """Deterministic single-threaded discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial clock value in seconds (default ``0.0``).

    Events live in one binary-heap :class:`~repro.sim.events.EventQueue`,
    the event core of both the scalar and the batched engine.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule_at(2.0, lambda: fired.append(sim.now))
    >>> _ = sim.schedule_in(1.0, lambda: fired.append(sim.now))
    >>> sim.run(until=10.0)
    >>> fired
    [1.0, 2.0]
    """

    def __init__(self, start_time: float = 0.0) -> None:
        if start_time < 0:
            raise ValueError("start_time must be non-negative")
        self._now = float(start_time)
        self._queue = EventQueue()
        self._running = False
        self._stopped = False
        self._events_processed = 0
        #: arbitrary key/value scratch space for cooperating components
        self.context: Dict[str, Any] = {}
        self._trace_hooks: List[Callable[[float, str], None]] = []

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of callbacks executed so far (including synthetic ones)."""
        return self._events_processed

    def note_synthetic_events(self, count: int) -> None:
        """Account for logical events a batching component coalesced away.

        The batched message bus delivers one broadcast fan-out as a single
        event where the scalar medium schedules one event per receiver.
        Recording the elided events here keeps :attr:`events_processed` --
        and therefore the run summary -- independent of the engine choice.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        self._events_processed += count

    @property
    def pending_events(self) -> int:
        """Number of live events still waiting in the queue."""
        return len(self._queue)

    # -------------------------------------------------------------- schedule
    def schedule_at(
        self,
        time: float,
        callback: Callable[[], Any],
        *,
        priority: int = DEFAULT_PRIORITY,
        name: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` at absolute simulation time ``time``.

        Scheduling in the past is an error; scheduling exactly at ``now`` is
        allowed and fires during the current/next run.
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule event '{name}' at {time:.6f}; "
                f"current time is {self._now:.6f}"
            )
        event = self._queue.push(time, callback, priority=priority, name=name)
        return EventHandle(event)

    def schedule_in(
        self,
        delay: float,
        callback: Callable[[], Any],
        *,
        priority: int = DEFAULT_PRIORITY,
        name: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` after a relative ``delay`` (seconds)."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(
            self._now + delay, callback, priority=priority, name=name
        )

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a previously scheduled event (idempotent)."""
        if not handle.cancelled:
            handle.cancel()
            self._queue.note_cancelled()

    # ------------------------------------------------------------------- run
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Process events in chronological order.

        Parameters
        ----------
        until:
            Stop once the next event would fire strictly after this time and
            fast-forward the clock to it.  ``None`` means run until the queue
            drains.
        max_events:
            Optional safety valve for tests; stop after this many callbacks.

        Returns
        -------
        float
            The simulation time when the run stopped.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        if until is not None and until < self._now:
            raise ValueError(
                f"'until' ({until}) must not be earlier than current time ({self._now})"
            )
        self._running = True
        self._stopped = False
        # Telemetry is resolved once per run: the disabled path below is the
        # original loop, byte for byte, so instrumentation costs nothing
        # when no telemetry is active (the common case).
        telemetry = _telemetry.active()
        try:
            if telemetry is None:
                self._run_events(until, max_events)
            else:
                self._run_events_traced(telemetry, until, max_events)
        finally:
            self._running = False
        if until is not None and not self._stopped and self._now < until:
            self._now = float(until)
        return self._now

    def _run_events(self, until: Optional[float], max_events: Optional[int]) -> None:
        """The uninstrumented event loop (telemetry disabled)."""
        processed_this_run = 0
        while self._queue:
            next_time = self._queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                break
            if max_events is not None and processed_this_run >= max_events:
                break
            event = self._queue.pop()
            self._now = event.time
            try:
                event.callback()
            except StopSimulation:
                self._stopped = True
                break
            except Exception as exc:  # noqa: BLE001 - rewrap with context
                raise SimulationError(
                    f"event '{event.name or event.callback!r}' failed at "
                    f"t={event.time:.6f}: {exc}"
                ) from exc
            self._events_processed += 1
            processed_this_run += 1
            for hook in self._trace_hooks:
                hook(self._now, event.name)

    def _run_events_traced(
        self,
        telemetry,
        until: Optional[float],
        max_events: Optional[int],
    ) -> None:
        """The instrumented event loop: identical semantics plus telemetry.

        Per event: an ``event_pop`` span around the queue pop, a per-kind
        count and an ``event:<kind>`` span around the callback (nested
        phases -- ``bus_delivery``, ``estimation_kernel``, ... -- subtract
        from its self-time).  Queue depth is sampled every 256 events into
        the ``queue_depth`` series.  None of this touches RNG streams or
        event order, so seeded results stay bit-identical to the plain loop.
        """
        processed_this_run = 0
        while self._queue:
            next_time = self._queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                break
            if max_events is not None and processed_this_run >= max_events:
                break
            with telemetry.phase("event_pop"):
                event = self._queue.pop()
            self._now = event.time
            kind = _event_kind(event.name)
            telemetry.count("events." + kind)
            try:
                with telemetry.phase("event:" + kind):
                    event.callback()
            except StopSimulation:
                self._stopped = True
                break
            except Exception as exc:  # noqa: BLE001 - rewrap with context
                raise SimulationError(
                    f"event '{event.name or event.callback!r}' failed at "
                    f"t={event.time:.6f}: {exc}"
                ) from exc
            self._events_processed += 1
            processed_this_run += 1
            if processed_this_run & 255 == 0:
                telemetry.observe("queue_depth", len(self._queue))
            for hook in self._trace_hooks:
                hook(self._now, event.name)

    def step(self) -> bool:
        """Process exactly one event.  Returns ``False`` if the queue is empty."""
        if not self._queue:
            return False
        self.run(max_events=1)
        return True

    def stop(self) -> None:
        """Request a clean stop; takes effect via :class:`StopSimulation`.

        Only meaningful from inside an event callback, where :meth:`run`
        catches the :class:`StopSimulation` it raises.  Calling it while the
        simulator is not running would leak the control-flow exception to the
        caller, so that is rejected with a descriptive error instead.
        """
        if not self._running:
            raise SimulationError(
                "Simulator.stop() called while the simulator is not running; "
                "it may only be called from inside an event callback"
            )
        raise StopSimulation()

    # ----------------------------------------------------------------- hooks
    def add_trace_hook(self, hook: Callable[[float, str], None]) -> None:
        """Register ``hook(time, event_name)`` called after every event."""
        self._trace_hooks.append(hook)

    def clear(self) -> None:
        """Drop all pending events (the clock is left untouched)."""
        self._queue.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self._now:.6f}, pending={self.pending_events}, "
            f"processed={self._events_processed})"
        )
