"""Protocol-path benchmarks: the batched message bus at 5k-node scale.

PR 2 vectorised the ground-truth kernel, which left the scalar protocol
layer -- ``BroadcastMedium.broadcast`` walking neighbours one Python
iteration at a time plus one heap event per delivery -- as the dominant cost
of PAS/SAS runs at large fleet sizes.  These benchmarks pin the batched
engine's advantage on exactly that message path:

* ``test_message_path_speedup_5000_nodes`` drives an identical REQUEST/
  RESPONSE-sized broadcast wave (every node transmits once to its
  neighbourhood) through the scalar ``BroadcastMedium`` and the columnar
  ``BatchMedium`` over the same deployments, both on a plain
  ``Simulator()`` (one binary-heap event core), asserts delivery-count
  parity, and requires the batched path to be >= 5x faster at 5,000
  nodes.  It records a speedup *trajectory* over fleet sizes in a
  ``BENCH_protocol.json`` artifact.
* ``test_batched_end_to_end_run_matches_and_wins`` runs a full PAS scenario
  under both engines, re-asserting summary bit-identity at benchmark scale
  and reporting the end-to-end wall-clock ratio.

Both are marked ``slow``.  ``KERNEL_BENCH_TINY=1`` (the same switch the
kernel benchmarks use) shrinks the fleets and drops the hard wall-clock
assertions so CI can smoke the files on noisy shared runners.  The artifact
is written next to the current working directory unless
``BENCH_ARTIFACT_DIR`` points elsewhere.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.pas import PASScheduler
from repro.engine import BatchMedium
from repro.geometry.deployment import DeploymentConfig, make_deployment
from repro.geometry.vec import Vec2
from repro.network.medium import BroadcastMedium
from repro.network.messages import Response
from repro.network.topology import Topology
from repro.node.sensor import SensorNode
from repro.sim.engine import Simulator
from repro.world.builder import build_simulation
from repro.world.presets import large_plume
from repro.world.state import WorldState

#: Tiny-N smoke mode for CI (shared with benchmarks/test_large_scale.py).
TINY = os.environ.get("KERNEL_BENCH_TINY") == "1"

#: Fleet-size trajectory recorded into the artifact; the last size carries
#: the hard speedup assertion.
SIZES = [200, 400] if TINY else [1000, 2500, 5000]

#: Paper-density jittered grid: ~0.012 nodes/m^2, 20 m range => avg degree ~15,
#: matching the large_grid / large_plume presets.
_DENSITY = 0.012
_TX_RANGE = 20.0


def _build_world(num_nodes, batched, seed=0):
    """One medium (scalar or batched) over a preset-density deployment."""
    side = float(np.sqrt(num_nodes / _DENSITY))
    config = DeploymentConfig(
        kind="jittered_grid", num_nodes=num_nodes, width=side, height=side, jitter=0.3
    )
    positions = make_deployment(config, np.random.default_rng(seed))
    nodes = {i: SensorNode(i, Vec2(float(x), float(y))) for i, (x, y) in enumerate(positions)}
    topology = Topology(positions, _TX_RANGE)
    delivered = [0]
    sim = Simulator()
    if batched:
        medium = BatchMedium(sim, topology, nodes)
        world_state = WorldState(list(nodes), positions)
        for node in nodes.values():
            node.power_listener = world_state.set_power
            world_state.sync_from_node(node)
        medium.bind_world_state(world_state)
        medium.register_batch_handler(
            lambda ids, msg: delivered.__setitem__(0, delivered[0] + ids.size)
        )
    else:
        medium = BroadcastMedium(sim, topology, nodes)
        handler = lambda rid, msg: delivered.__setitem__(0, delivered[0] + 1)  # noqa: E731
        for node_id in nodes:
            medium.register_handler(node_id, handler)
    return sim, medium, delivered


def _broadcast_wave(sim, medium, num_nodes):
    """Every node broadcasts one RESPONSE-sized frame; flush all deliveries."""
    now = sim.now
    for sender in range(num_nodes):
        medium.broadcast(sender, Response(sender_id=sender, timestamp=now))
    sim.run(until=sim.now + 1.0)


def _best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _artifact_path():
    return Path(os.environ.get("BENCH_ARTIFACT_DIR", ".")) / "BENCH_protocol.json"


@pytest.mark.slow
def test_message_path_speedup_5000_nodes():
    """Batched bus must beat the scalar message path by >= 5x at 5k nodes."""
    trajectory = []
    for num_nodes in SIZES:
        scalar_sim, scalar_medium, scalar_count = _build_world(num_nodes, batched=False)
        batched_sim, batched_medium, batched_count = _build_world(num_nodes, batched=True)

        repeats = 2 if num_nodes >= 5000 else 3
        scalar_s = _best_of(
            lambda: _broadcast_wave(scalar_sim, scalar_medium, num_nodes), repeats
        )
        batched_s = _best_of(
            lambda: _broadcast_wave(batched_sim, batched_medium, num_nodes), repeats
        )
        # Same topology, same all-awake fleet: both paths must have delivered
        # the identical frame count (per wave).
        assert scalar_count[0] == batched_count[0] > 0
        assert scalar_medium.stats.as_dict() == batched_medium.stats.as_dict()

        speedup = scalar_s / batched_s
        trajectory.append(
            {
                "nodes": num_nodes,
                "deliveries_per_wave": scalar_count[0] // repeats,
                "scalar_s": scalar_s,
                "batched_s": batched_s,
                "speedup": speedup,
            }
        )
        print(
            f"\n{num_nodes}-node broadcast wave: scalar {scalar_s * 1e3:.1f} ms, "
            f"batched {batched_s * 1e3:.1f} ms, speedup {speedup:.1f}x"
        )

    artifact = {
        "benchmark": "protocol_message_path",
        "tiny": TINY,
        "tx_range_m": _TX_RANGE,
        "density_nodes_per_m2": _DENSITY,
        "trajectory": trajectory,
    }
    _artifact_path().write_text(json.dumps(artifact, indent=2))

    if not TINY:
        final = trajectory[-1]
        assert final["nodes"] == 5000
        assert final["speedup"] >= 5.0, (
            f"batched message path only {final['speedup']:.1f}x faster at 5k nodes"
        )


@pytest.mark.slow
def test_batched_end_to_end_run_matches_and_wins():
    """A full PAS run at benchmark scale: identical summary, no regression.

    600 nodes over a 12 s plume window keeps the scalar reference run in the
    tens of seconds; the bit-identity assertion is the point here -- the
    hard speedup number lives in the message-path benchmark above.  (End to
    end the win is Amdahl-limited: once the bus is ~9x faster, PAS's
    per-receiver arrival-estimation math dominates the remaining profile.)
    """
    scenario = large_plume(seed=0, duration=12.0)
    scenario = scenario.with_overrides(
        deployment=DeploymentConfig(
            kind="jittered_grid",
            num_nodes=400 if TINY else 600,
            width=183.0 if TINY else 224.0,
            height=183.0 if TINY else 224.0,
            jitter=0.3,
        )
    )
    timings = {}
    summaries = {}
    for engine in ("scalar", "batched"):
        simulation = build_simulation(scenario, PASScheduler(), engine=engine)
        start = time.perf_counter()
        summaries[engine] = simulation.run()
        timings[engine] = time.perf_counter() - start
    assert summaries["scalar"].to_json() == summaries["batched"].to_json()
    ratio = timings["scalar"] / timings["batched"]
    print(
        f"\n{scenario.deployment.num_nodes}-node PAS plume run: "
        f"scalar {timings['scalar']:.2f} s, batched {timings['batched']:.2f} s "
        f"({ratio:.2f}x end to end)"
    )
    if not TINY:
        # Soft floor with noise headroom: the batched engine must never make
        # a protocol-heavy run meaningfully slower.
        assert ratio > 0.9, "batched engine regressed end-to-end wall clock"
