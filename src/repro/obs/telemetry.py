"""Process-local simulation telemetry: counters, phase timers, trace sink.

The instrumentation subsystem behind ``pas-sim profile`` and the fleet
progress reporting.  A :class:`Telemetry` instance is a registry of

* **counters** -- monotonically growing named totals
  (:meth:`Telemetry.count`), e.g. ``events.arrival``;
* **phase timers** -- wall-clock spans opened with :meth:`Telemetry.phase`,
  nestable like a call stack.  Each phase accumulates *total* (inclusive)
  and *self* (exclusive: total minus time spent in nested phases) seconds,
  so the self-times of all phases partition the instrumented wall time and
  a profile breakdown never double-counts;
* **series** -- count/sum/max summaries of observed values
  (:meth:`Telemetry.observe`), e.g. broadcast fan-out widths or event-queue
  depth;
* an optional sampled structured **trace sink**
  (:class:`~repro.obs.trace.TraceSink`, JSONL).

Phase taxonomy
--------------
The hook points threaded through the simulator use a fixed vocabulary so
profiles are comparable across engines and runs:

``event_pop``
    Pulling the next event out of the binary-heap event queue.
``event:<kind>``
    Executing one event callback, keyed by the event-name kind
    (``arrival``, ``wake``, ``deliver``, ``deliver-batch``, ...).  Nested
    phases below subtract from its self-time.
``bus_delivery``
    The batched medium's whole-batch delivery (eligibility masks, grouped
    RX charging, fan-in dispatch).
``estimation_kernel``
    Vectorized estimation kernels answering a REQUEST/RESPONSE batch.
``apply_loop``
    The per-receiver Python apply loop that consumes kernel results (or the
    scalar-estimation per-controller loop).
``coverage_recheck`` / ``occupancy_sample``
    The periodic world-model ticks.
``setup`` / ``run_loop``
    Top-level phases opened by the profile harness around simulation
    construction and execution.

Zero overhead when disabled
---------------------------
Exactly one telemetry instance per process may be *active*
(:func:`enable` / :func:`disable` / :func:`session`).  Hot paths ask
:func:`active` once and skip all instrumentation when it returns ``None``;
the convenience :func:`phase` returns a shared no-op span when inactive.
Nothing here ever touches a random stream or the simulation clock -- seeded
:class:`~repro.metrics.summary.RunSummary` output is bit-identical with
telemetry enabled or disabled (enforced by tests/test_obs_neutrality.py).

Not thread-safe: a telemetry instance belongs to the (single-threaded)
simulation process that enabled it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.trace import TraceSink

#: Schema tag embedded in :meth:`Telemetry.snapshot` payloads.
SNAPSHOT_SCHEMA = "pas-sim-telemetry/1"


@dataclass
class PhaseStat:
    """Accumulated wall-clock statistics for one named phase."""

    #: Completed spans.
    count: int = 0
    #: Inclusive seconds (contains nested phases; a phase nested under
    #: itself is counted once per span, so recursive totals over-count --
    #: ``self_s`` is always partition-exact).
    total_s: float = 0.0
    #: Exclusive seconds: inclusive minus time spent in nested spans.
    self_s: float = 0.0


class _Span:
    """One open phase span; a context manager pushed on the phase stack."""

    __slots__ = ("_telemetry", "name", "_start", "_child_s")

    def __init__(self, telemetry: "Telemetry", name: str) -> None:
        self._telemetry = telemetry
        self.name = name
        self._start = 0.0
        self._child_s = 0.0

    def __enter__(self) -> "_Span":
        self._child_s = 0.0
        self._telemetry._stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> bool:
        elapsed = time.perf_counter() - self._start
        telemetry = self._telemetry
        stack = telemetry._stack
        stack.pop()
        stat = telemetry.phases.get(self.name)
        if stat is None:
            stat = telemetry.phases[self.name] = PhaseStat()
        stat.count += 1
        stat.total_s += elapsed
        stat.self_s += elapsed - self._child_s
        if stack:
            stack[-1]._child_s += elapsed
        sink = telemetry.sink
        if sink is not None:
            sink.span(self.name, elapsed)
        return False


class _NullSpan:
    """Shared no-op span returned by :func:`phase` when telemetry is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Telemetry:
    """One process-local registry of counters, phase timers and a trace sink.

    Construct it, optionally with a :class:`~repro.obs.trace.TraceSink`,
    then :func:`enable` it (or use :func:`session`) so the hook points all
    over the simulator find it via :func:`active`.
    """

    def __init__(self, *, sink: Optional[TraceSink] = None) -> None:
        self.counters: Dict[str, float] = {}
        self.phases: Dict[str, PhaseStat] = {}
        #: name -> [count, total, max] of observed values.
        self.series: Dict[str, List[float]] = {}
        self.sink = sink
        self._stack: List[_Span] = []

    # --------------------------------------------------------------- record
    def count(self, name: str, by: float = 1) -> None:
        """Increment counter ``name`` by ``by``."""
        self.counters[name] = self.counters.get(name, 0) + by

    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into the count/sum/max series ``name``."""
        record = self.series.get(name)
        if record is None:
            self.series[name] = [1, float(value), float(value)]
        else:
            record[0] += 1
            record[1] += value
            if value > record[2]:
                record[2] = value

    def phase(self, name: str) -> _Span:
        """Open a nestable wall-clock span; use as a context manager."""
        return _Span(self, name)

    def trace(self, kind: str, **fields: Any) -> None:
        """Emit one explicit (sampled) trace event when a sink is attached."""
        if self.sink is not None:
            self.sink.event(kind, fields)

    # ------------------------------------------------------------- snapshot
    def snapshot(self) -> Dict[str, Any]:
        """JSON-compatible dump of everything recorded so far."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "counters": {name: self.counters[name] for name in sorted(self.counters)},
            "phases": {
                name: {
                    "count": stat.count,
                    "total_s": stat.total_s,
                    "self_s": stat.self_s,
                }
                for name, stat in sorted(self.phases.items())
            },
            "series": {
                name: {
                    "count": int(record[0]),
                    "total": record[1],
                    "mean": record[1] / record[0] if record[0] else 0.0,
                    "max": record[2],
                }
                for name, record in sorted(self.series.items())
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Telemetry(counters={len(self.counters)}, phases={len(self.phases)}, "
            f"series={len(self.series)}, sink={self.sink!r})"
        )


# ------------------------------------------------------------------ registry
#: The process's active telemetry, or ``None`` (the default, no-op state).
_ACTIVE: Optional[Telemetry] = None


def active() -> Optional[Telemetry]:
    """The currently enabled telemetry instance, or ``None`` when disabled.

    Hot paths call this once per batch/run and skip all instrumentation on
    ``None`` -- the only cost the disabled state ever pays.
    """
    return _ACTIVE


def enable(telemetry: Optional[Telemetry] = None) -> Telemetry:
    """Make ``telemetry`` (or a fresh instance) the process-active registry."""
    global _ACTIVE
    if telemetry is None:
        telemetry = Telemetry()
    _ACTIVE = telemetry
    return telemetry


def disable() -> Optional[Telemetry]:
    """Deactivate telemetry; returns the previously active instance."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = None
    return previous


@contextmanager
def session(telemetry: Optional[Telemetry] = None) -> Iterator[Telemetry]:
    """Enable ``telemetry`` for the duration of a ``with`` block.

    Restores whatever was active before (usually ``None``) on exit, so
    nested sessions and test isolation both work.
    """
    global _ACTIVE
    previous = _ACTIVE
    enabled = enable(telemetry)
    try:
        yield enabled
    finally:
        _ACTIVE = previous


def phase(name: str):
    """Span on the active telemetry, or a shared no-op when disabled.

    For warm (per-batch, per-tick) call sites that want a one-liner::

        with obs.phase("coverage_recheck"):
            ...

    The disabled cost is one function call plus a no-op context manager.
    Per-*event* call sites should instead branch on :func:`active` once
    (see ``Simulator.run``) so the disabled path stays literally unchanged.
    """
    telemetry = _ACTIVE
    if telemetry is None:
        return _NULL_SPAN
    return _Span(telemetry, name)
