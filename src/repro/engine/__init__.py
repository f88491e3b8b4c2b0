"""Batched protocol engine: the columnar message bus.

This package is the large-fleet fast path for protocol-heavy PAS/SAS runs:
:class:`~repro.engine.bus.BatchMedium` is a broadcast medium that coalesces
each sender's fan-out into vectorised operations over the columnar
:class:`~repro.world.state.WorldState` and delivers same-tick arrivals as
per-receiver arrays to batch-aware controllers
(:meth:`~repro.core.controller.NodeController.handle_batch`).  Both engines
share one event core, the binary-heap :class:`~repro.sim.events.EventQueue`.

The bus is bit-identity preserving: a seeded run produces the same
:class:`~repro.metrics.summary.RunSummary` JSON whether it executes on the
scalar reference engine or the batched one (``repro.world.builder`` selects
between them via its ``engine`` parameter; the CLI exposes ``--engine``).
"""

from repro.engine.bus import BatchMedium

#: Engine names accepted by ``build_simulation(..., engine=...)`` and the CLI.
ENGINES = ("scalar", "batched")

__all__ = ["BatchMedium", "ENGINES"]
