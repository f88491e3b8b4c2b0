"""Import-compatibility alias for the retired calendar event queue.

The batched engine now runs on the same binary-heap
:class:`~repro.sim.events.EventQueue` as the scalar engine.  This alias
exists only for the benchmark's ``calendar.push`` / ``calendar.pop`` spans,
which import ``repro.engine.calendar.CalendarQueue``; through it they wrap
``EventQueue`` itself.  A later benchmark change retargets those spans at
``EventQueue`` and deletes this module.
"""

from repro.sim.events import EventQueue

CalendarQueue = EventQueue
