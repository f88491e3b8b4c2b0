"""Which public entry points the traced run wraps, and the per-layer metrics.

Each row of :func:`span_table` names one boundary of this repository's
modules and the span it records.  :func:`layer_metrics` turns the tracer's
per-span totals into the per-layer metrics listed in ``BENCHMARK.json``;
``perfbench/README.md`` gives, for each, the end-to-end metric and workload
it should move.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.geometry.deployment as deployment_module
import repro.world.builder as builder_module
from repro.core.controller import NodeController
from repro.core.estimation import EstimationColumns
from repro.core.pas import PASController
from repro.engine.bus import BatchMedium
from repro.engine.calendar import CalendarQueue
from repro.exec.queue import WorkQueue
from repro.exec.specs import RunSpec
from repro.geometry.spatial_index import GridIndex
from repro.network.medium import BroadcastMedium
from repro.network.topology import Topology
from repro.node.sensing import SensingModel
from repro.sim.engine import Simulator
from repro.stimulus.base import StimulusModel

from tracing import Patch, Tracer, traced_patches

#: Root span of a traced run; its self time is the ``other`` bucket.
ROOT = "trace.root"
#: Span around ``build_simulation``; its self time is ``setup.other_s``.
SETUP = "setup"
#: Span around each ``RunSpec.execute`` of the campaign's in-process pass.
CELL = "cell.execute"

ESTIMATION_KERNELS = (
    "arrival_times_many",
    "expected_arrival_time_many",
    "expected_velocity_many",
    "actual_velocity_many",
    "sas_arrival_time_many",
    "record_response_batch",
    "pas_request_responders",
)


def _first_array_rows(self, first, *args, **kwargs) -> int:
    # Kernels take the receiver rows (or a padded (idx, mask) pair) first;
    # record_response_batch takes the sender id, then the receiver rows.
    if isinstance(first, tuple):
        return int(first[0].shape[0])
    if np.ndim(first) == 0 and args:
        return int(np.size(args[0]))
    return int(np.size(first))


def _batch_rows(cls, est, receiver_ids, *args, **kwargs) -> int:
    return int(np.size(receiver_ids))


Row = Tuple[object, str, str, Optional[Callable[..., int]]]


def span_table() -> List[Row]:
    """``(owner, attribute, span name, rows)`` for every wrapped entry point."""
    rows: List[Row] = [
        # set-up: world.builder, geometry.deployment, network.topology, stimulus
        (builder_module, "build_simulation", SETUP, None),
        (builder_module, "make_deployment", "setup.deployment", None),
        (deployment_module, "make_deployment", "setup.deployment", None),
        (Topology, "__init__", "setup.topology", None),
        (Topology, "neighbour_table", "setup.topology", None),
        (StimulusModel, "arrival_times", "setup.arrivals", None),
        # event core: sim.engine, engine.calendar
        (Simulator, "run", "sim.run", None),
        (CalendarQueue, "push", "calendar.push", None),
        (CalendarQueue, "pop", "calendar.pop", None),
        # sleep/wake timers: core.controller
        (NodeController, "sleep_node", "controller.sleep", None),
        (NodeController, "wake_node", "controller.wake", None),
        # message bus: network.medium, engine.bus (handler wrapped below)
        (BroadcastMedium, "broadcast", "bus.broadcast", None),
        # protocol apply: core.pas, core.sas (SAS inherits the classmethod)
        (PASController, "handle_batch_columnar", "pas.apply", _batch_rows),
        # coverage: stimulus, node.sensing (the recession recheck asks a
        # disk-shaped stimulus for its disk and queries the spatial index)
        (StimulusModel, "covers_many", "coverage", None),
        (StimulusModel, "coverage_disk", "coverage", None),
        (GridIndex, "query_radius", "coverage", None),
        (SensingModel, "sense_many", "coverage", None),
        # campaigns: exec.specs, exec.queue
        (RunSpec, "spec_hash", "exec.spec_hash", None),
        (RunSpec, "execute", CELL, None),
        (WorkQueue, "enqueue", "queue.enqueue", None),
        (WorkQueue, "load_result", "queue.load_result", None),
    ]
    # columnar estimation kernels: core.estimation
    rows += [
        (EstimationColumns, name, "estimation.kernel", _first_array_rows)
        for name in ESTIMATION_KERNELS
    ]
    return rows


def patches(tracer: Tracer) -> List[Patch]:
    """Every wrapper of the traced run, including the bus batch handler."""

    def wrap_registration(register):
        def register_traced(self, handler):
            return register(self, tracer.wrap("bus.handler", handler))

        return register_traced

    return traced_patches(tracer, span_table()) + [
        (BatchMedium, "register_batch_handler", wrap_registration)
    ]


#: Per-layer metric name -> unit, in the order they are reported.
PER_LAYER_UNITS: Dict[str, str] = {
    "setup.deployment_s": "s",
    "setup.topology_s": "s",
    "setup.arrivals_s": "s",
    "setup.other_s": "s",
    "topology.edges": "count",
    "sim.events": "count",
    "sim.run_self_s": "s",
    "calendar.push_calls": "count",
    "calendar.pop_calls": "count",
    "calendar.self_s": "s",
    "controller.sleep_calls": "count",
    "controller.wake_calls": "count",
    "controller.self_s": "s",
    "bus.broadcast_calls": "count",
    "bus.broadcast_self_s": "s",
    "bus.handler_self_s": "s",
    "bus.deliveries": "count",
    "bus.useful_share": "ratio",
    "pas.batch_calls": "count",
    "pas.batch_rows": "count",
    "pas.apply_self_s": "s",
    "estimation.kernel_calls": "count",
    "estimation.rows_per_call": "rows",
    "estimation.kernel_self_s": "s",
    "coverage.calls": "count",
    "coverage.self_s": "s",
    "exec.spec_hash_s": "s",
    "queue.enqueue_s": "s",
    "queue.load_result_s": "s",
    "fleet.worker_busy_share": "ratio",
    "fleet.retried": "count",
    "artifact.bytes_per_cell": "B",
    "cell.execute_p50_s": "s",
    "cell.execute_p95_s": "s",
    "trace.wall_s": "s",
    "trace.other_s": "s",
    "trace.overhead_share": "ratio",
}


def layer_metrics(tracer: Tracer, summaries, extra: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced run.

    ``summaries`` are the traced run's ``RunSummary`` objects (their event
    and delivery counters are the bases of ``sim.events`` and
    ``bus.useful_share``); ``extra`` carries the values measured outside the
    spans (fleet statistics, edge count, tracing overhead).
    """
    spans = tracer.summarize()

    def self_s(*names: str) -> float:
        return sum(spans.get(name, {}).get("self_s", 0.0) for name in names)

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def rows(name: str) -> int:
        return spans.get(name, {}).get("rows", 0)

    messages: Dict[str, int] = {}
    events = 0
    for summary in summaries:
        events += int(summary.extra.get("events_processed", 0))
        for key, value in summary.messages.items():
            messages[key] = messages.get(key, 0) + int(value)
    deliveries = messages.get("deliveries", 0)
    attempts = deliveries + sum(
        messages.get(key, 0) for key in ("skipped_sleeping", "skipped_failed", "losses")
    )
    kernel_calls = calls("estimation.kernel")
    executes = tracer.durations(CELL)
    root = tracer.durations(ROOT)

    metrics = {
        "setup.deployment_s": self_s("setup.deployment"),
        "setup.topology_s": self_s("setup.topology"),
        "setup.arrivals_s": self_s("setup.arrivals"),
        "setup.other_s": self_s(SETUP),
        "sim.events": events,
        "sim.run_self_s": self_s("sim.run"),
        "calendar.push_calls": calls("calendar.push"),
        "calendar.pop_calls": calls("calendar.pop"),
        "calendar.self_s": self_s("calendar.push", "calendar.pop"),
        "controller.sleep_calls": calls("controller.sleep"),
        "controller.wake_calls": calls("controller.wake"),
        "controller.self_s": self_s("controller.sleep", "controller.wake"),
        "bus.broadcast_calls": calls("bus.broadcast"),
        "bus.broadcast_self_s": self_s("bus.broadcast"),
        "bus.handler_self_s": self_s("bus.handler"),
        "bus.deliveries": deliveries,
        "bus.useful_share": deliveries / attempts if attempts else 0.0,
        "pas.batch_calls": calls("pas.apply"),
        "pas.batch_rows": rows("pas.apply"),
        "pas.apply_self_s": self_s("pas.apply"),
        "estimation.kernel_calls": kernel_calls,
        "estimation.rows_per_call": (
            rows("estimation.kernel") / kernel_calls if kernel_calls else 0.0
        ),
        "estimation.kernel_self_s": self_s("estimation.kernel"),
        "coverage.calls": calls("coverage"),
        "coverage.self_s": self_s("coverage"),
        "exec.spec_hash_s": self_s("exec.spec_hash"),
        "queue.enqueue_s": self_s("queue.enqueue"),
        "queue.load_result_s": self_s("queue.load_result"),
        "cell.execute_p50_s": float(np.percentile(executes, 50)) if executes.size else 0.0,
        "cell.execute_p95_s": float(np.percentile(executes, 95)) if executes.size else 0.0,
        "trace.wall_s": float(root.sum()),
        # Glue outside every layer: the root's own time plus what
        # RunSpec.execute spends around build_simulation and Simulator.run.
        "trace.other_s": self_s(ROOT, CELL),
        "fleet.worker_busy_share": 0.0,
        "fleet.retried": 0,
        "artifact.bytes_per_cell": 0.0,
        "topology.edges": 0,
        "trace.overhead_share": 0.0,
    }
    metrics.update(extra)
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def partition_gap(tracer: Tracer) -> float:
    """|sum of all self times - root wall| / root wall (0 when they partition)."""
    spans = tracer.summarize()
    wall = float(tracer.durations(ROOT).sum())
    total = sum(entry["self_s"] for entry in spans.values())
    return abs(total - wall) / wall if wall > 0 else 0.0
