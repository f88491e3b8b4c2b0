"""BatchMedium: vectorised fan-out/fan-in versus the scalar BroadcastMedium.

Every test builds twin worlds -- identical nodes, topology and (seeded)
channel -- drives the same broadcasts through ``BroadcastMedium`` and
``BatchMedium``, and asserts identical deliveries, counters and energy.
"""

import numpy as np
import pytest

from repro.engine.bus import BatchMedium
from repro.geometry.vec import Vec2
from repro.network.channel import LossyChannel, PerfectChannel
from repro.network.medium import BroadcastMedium
from repro.network.messages import Request, Response
from repro.network.topology import Topology
from repro.node.sensor import SensorNode
from repro.sim.engine import Simulator
from repro.world.state import WorldState

#: A line of five nodes 5 m apart with a 6 m range: each node hears its
#: immediate neighbours only, so fan-outs have 1-2 receivers.
LINE_POSITIONS = [(0.0, 0.0), (5.0, 0.0), (10.0, 0.0), (15.0, 0.0), (20.0, 0.0)]


def _make_world(medium_cls, *, channel=None, positions=LINE_POSITIONS, rng_range=6.0):
    sim = Simulator()
    nodes = {i: SensorNode(i, Vec2(x, y)) for i, (x, y) in enumerate(positions)}
    topology = Topology(np.asarray(positions, dtype=float), rng_range)
    medium = medium_cls(sim, topology, nodes, channel=channel)
    received = []
    for node_id in nodes:
        medium.register_handler(
            node_id, lambda rid, msg, _r=received: _r.append((rid, msg.sender_id))
        )
    if medium_cls is BatchMedium:
        world_state = WorldState(
            list(nodes), np.asarray(positions, dtype=float)
        )
        for node in nodes.values():
            node.power_listener = world_state.set_power
            world_state.sync_from_node(node)
        medium.bind_world_state(world_state)
    return sim, nodes, medium, received


def _flush(sim):
    sim.run(until=sim.now + 1.0)


class TestBroadcastParity:
    def test_awake_neighbours_receive(self):
        for cls in (BroadcastMedium, BatchMedium):
            sim, nodes, medium, received = _make_world(cls)
            count = medium.broadcast(1, Request(sender_id=1, timestamp=0.0))
            assert count == 2  # nodes 0 and 2
            _flush(sim)
            assert sorted(rid for rid, _ in received) == [0, 2]
            assert medium.stats.broadcasts == 1
            assert medium.stats.deliveries == 2

    def test_sleeping_and_failed_neighbours_skipped_at_send(self):
        for cls in (BroadcastMedium, BatchMedium):
            sim, nodes, medium, received = _make_world(cls)
            nodes[0].go_to_sleep(0.0)
            nodes[2].fail(0.0)
            assert medium.broadcast(1, Request(sender_id=1, timestamp=0.0)) == 0
            _flush(sim)
            assert received == []
            assert medium.stats.skipped_sleeping == 1
            assert medium.stats.skipped_failed == 1

    def test_failed_sender_transmits_nothing(self):
        for cls in (BroadcastMedium, BatchMedium):
            sim, nodes, medium, received = _make_world(cls)
            nodes[1].fail(0.0)
            assert medium.broadcast(1, Request(sender_id=1, timestamp=0.0)) == 0
            assert medium.stats.broadcasts == 0

    def test_sleep_and_failure_during_air_time(self):
        """Both media classify late skips as sleeping vs failed correctly."""
        for cls in (BroadcastMedium, BatchMedium):
            sim, nodes, medium, received = _make_world(cls)
            medium.broadcast(1, Request(sender_id=1, timestamp=0.0))
            # The frame is in flight; receivers change state before delivery.
            nodes[0].go_to_sleep(sim.now)
            nodes[2].fail(sim.now)
            _flush(sim)
            assert received == []
            assert medium.stats.deliveries == 0
            assert medium.stats.skipped_sleeping == 1
            assert medium.stats.skipped_failed == 1

    def test_rx_energy_and_counters_match_scalar(self):
        results = {}
        for cls in (BroadcastMedium, BatchMedium):
            sim, nodes, medium, received = _make_world(cls)
            medium.broadcast(1, Response(sender_id=1, timestamp=0.0))
            medium.broadcast(2, Request(sender_id=2, timestamp=0.0))
            _flush(sim)
            results[cls] = {
                node_id: (
                    node.radio.stats.as_dict(),
                    node.energy.breakdown.rx_j,
                    node.energy.breakdown.tx_j,
                )
                for node_id, node in nodes.items()
            }
        assert results[BroadcastMedium] == results[BatchMedium]

    def test_lossy_channel_consumes_identical_stream(self):
        results = {}
        for cls in (BroadcastMedium, BatchMedium):
            channel = LossyChannel(0.5, rng=np.random.default_rng(1234))
            sim, nodes, medium, received = _make_world(cls, channel=channel)
            for sender in range(5):
                medium.broadcast(sender, Request(sender_id=sender, timestamp=0.0))
            _flush(sim)
            results[cls] = (sorted(received), medium.stats.as_dict())
        assert results[BroadcastMedium] == results[BatchMedium]
        assert results[BroadcastMedium][1]["losses"] > 0

    def test_jitter_channel_consumes_identical_stream(self):
        results = {}
        for cls in (BroadcastMedium, BatchMedium):
            channel = LossyChannel(
                0.3, jitter_s=0.25, rng=np.random.default_rng(77)
            )
            sim, nodes, medium, received = _make_world(cls, channel=channel)
            for sender in range(5):
                medium.broadcast(sender, Request(sender_id=sender, timestamp=0.0))
            _flush(sim)
            results[cls] = (received, medium.stats.as_dict())
        # jitter spreads arrivals: delivery *order* must match too
        assert results[BroadcastMedium] == results[BatchMedium]

    def test_events_processed_is_engine_independent(self):
        counts = {}
        for cls in (BroadcastMedium, BatchMedium):
            sim, nodes, medium, received = _make_world(cls)
            medium.broadcast(1, Request(sender_id=1, timestamp=0.0))
            medium.broadcast(3, Request(sender_id=3, timestamp=0.0))
            _flush(sim)
            counts[cls] = sim.events_processed
        assert counts[BroadcastMedium] == counts[BatchMedium]


class TestBatchFanIn:
    def test_batch_handler_receives_receiver_array(self):
        sim, nodes, medium, received = _make_world(BatchMedium)
        batches = []
        medium.register_batch_handler(
            lambda ids, msg: batches.append((ids.tolist(), msg.message_id))
        )
        message = Request(sender_id=1, timestamp=0.0)
        medium.broadcast(1, message)
        _flush(sim)
        assert batches == [([0, 2], message.message_id)]
        assert received == []  # batch handler supersedes per-node handlers

    def test_taps_keep_scalar_interleaving(self):
        sim, nodes, medium, received = _make_world(BatchMedium)
        medium.register_batch_handler(lambda ids, msg: pytest.fail("tap path must bypass batch handler"))
        order = []
        medium.add_tap(lambda s, r, m: order.append(("tap", r)))
        for node_id in nodes:
            medium.register_handler(
                node_id, lambda rid, msg: order.append(("handler", rid))
            )
        medium.broadcast(1, Request(sender_id=1, timestamp=0.0))
        _flush(sim)
        assert order == [("handler", 0), ("tap", 0), ("handler", 2), ("tap", 2)]

    def test_unbound_batch_medium_falls_back_to_scalar_path(self):
        sim = Simulator()
        nodes = {i: SensorNode(i, Vec2(x, y)) for i, (x, y) in enumerate(LINE_POSITIONS)}
        topology = Topology(np.asarray(LINE_POSITIONS, dtype=float), 6.0)
        medium = BatchMedium(sim, topology, nodes)
        received = []
        for node_id in nodes:
            medium.register_handler(node_id, lambda rid, msg: received.append(rid))
        assert medium.broadcast(1, Request(sender_id=1, timestamp=0.0)) == 2
        _flush(sim)
        assert sorted(received) == [0, 2]

    def test_bind_rejects_mismatched_world_state(self):
        sim, nodes, medium, _ = _make_world(BroadcastMedium)
        batch = BatchMedium(sim, medium.topology, nodes)
        wrong = WorldState([0, 1], np.zeros((2, 2)))
        with pytest.raises(ValueError):
            batch.bind_world_state(wrong)


class TestChannelBatchApi:
    def test_perfect_channel_delivers_all_with_zero_latency(self):
        delivered, extra = PerfectChannel().transmit_many(0, [1, 2, 3], [1.0, 2.0, 3.0])
        assert delivered.all() and not extra.any()

    def test_lossy_vectorised_matches_scalar_draws(self):
        distances = [1.0, 4.0, 9.0, 2.0]
        scalar = LossyChannel(0.4, distance_factor=0.05, rng=np.random.default_rng(5))
        outcomes = [scalar.delivered(0, r, d) for r, d in enumerate(distances)]
        batched = LossyChannel(0.4, distance_factor=0.05, rng=np.random.default_rng(5))
        delivered, extra = batched.transmit_many(0, list(range(len(distances))), distances)
        assert delivered.tolist() == outcomes
        assert not extra.any()

    def test_jitter_falls_back_to_interleaved_scalar_draws(self):
        distances = [1.0, 2.0, 3.0]
        scalar = LossyChannel(0.3, jitter_s=0.5, rng=np.random.default_rng(6))
        expected = []
        for r, d in enumerate(distances):
            if scalar.delivered(0, r, d):
                expected.append((r, scalar.extra_latency(0, r, d)))
        batched = LossyChannel(0.3, jitter_s=0.5, rng=np.random.default_rng(6))
        delivered, extra = batched.transmit_many(0, list(range(len(distances))), distances)
        got = [(r, extra[r]) for r in range(len(distances)) if delivered[r]]
        assert got == expected

    def test_base_transmit_many_empty(self):
        delivered, extra = PerfectChannel().transmit_many(0, [], [])
        assert delivered.size == 0 and extra.size == 0


class TestNeighbourTable:
    def test_csr_matches_neighbour_queries(self):
        positions = np.asarray(LINE_POSITIONS, dtype=float)
        topology = Topology(positions, 6.0)
        indptr, ids, dists = topology.neighbour_table()
        assert indptr[-1] == sum(topology.degree(i) for i in range(topology.num_nodes))
        for i in range(topology.num_nodes):
            row = ids[indptr[i] : indptr[i + 1]]
            assert tuple(row.tolist()) == topology.neighbours(i)
            for j, d in zip(row, dists[indptr[i] : indptr[i + 1]]):
                assert d == topology.link_distance(i, int(j))
        # cached: same arrays returned
        assert topology.neighbour_table()[0] is indptr
