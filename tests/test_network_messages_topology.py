"""Unit tests for protocol messages and the unit-disk topology."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.messages import MessageType, Request, Response
from repro.network.topology import Topology


class TestMessages:
    def test_request_has_minimal_payload(self):
        req = Request(sender_id=3, timestamp=1.5)
        assert req.kind is MessageType.REQUEST
        assert req.payload_bytes == 1
        assert req.sender_id == 3

    def test_response_payload_size(self):
        resp = Response(sender_id=1, timestamp=2.0)
        assert resp.kind is MessageType.RESPONSE
        assert resp.payload_bytes == 50

    def test_response_defaults(self):
        resp = Response(sender_id=1, timestamp=0.0)
        assert resp.velocity is None
        assert math.isinf(resp.predicted_arrival)
        assert resp.detection_time is None
        assert resp.state == "safe"

    def test_response_carries_stimulus_knowledge(self):
        resp = Response(
            sender_id=2,
            timestamp=5.0,
            position=(1.0, 2.0),
            state="covered",
            velocity=(0.5, -0.5),
            predicted_arrival=7.0,
            detection_time=5.0,
        )
        assert resp.position == (1.0, 2.0)
        assert resp.velocity == (0.5, -0.5)
        assert resp.detection_time == 5.0

    def test_message_ids_are_unique_and_increasing(self):
        a = Request(sender_id=0, timestamp=0.0)
        b = Request(sender_id=0, timestamp=0.0)
        assert b.message_id > a.message_id

    def test_messages_are_frozen(self):
        req = Request(sender_id=0, timestamp=0.0)
        with pytest.raises((AttributeError, TypeError)):
            req.sender_id = 5  # type: ignore[misc]


class TestTopology:
    def test_neighbours_within_range_only(self):
        positions = np.array([[0.0, 0.0], [5.0, 0.0], [20.0, 0.0]])
        topo = Topology(positions, transmission_range=10.0)
        assert topo.neighbours(0) == (1,)
        assert topo.neighbours(1) == (0,)
        assert topo.neighbours(2) == ()

    def test_neighbours_exclude_self(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0]])
        topo = Topology(positions, transmission_range=5.0)
        assert 0 not in topo.neighbours(0)

    def test_degree_and_average_degree(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        topo = Topology(positions, transmission_range=1.5)
        assert topo.degree(1) == 2
        assert topo.average_degree() == pytest.approx((1 + 2 + 1) / 3)

    def test_distance_and_connectivity(self):
        positions = np.array([[0.0, 0.0], [3.0, 4.0]])
        topo = Topology(positions, transmission_range=10.0)
        assert topo.distance(0, 1) == pytest.approx(5.0)
        assert topo.are_connected(0, 1)
        assert not topo.are_connected(0, 0)

    def test_edges_listed_once(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        topo = Topology(positions, transmission_range=1.5)
        assert set(topo.edges()) == {(0, 1), (1, 2)}

    def test_connected_components(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [50.0, 50.0]])
        topo = Topology(positions, transmission_range=2.0)
        comps = topo.connected_components()
        assert len(comps) == 2
        assert {0, 1} in comps and {2} in comps
        assert not topo.is_connected()

    def test_is_connected_chain(self):
        positions = np.array([[float(i) * 5, 0.0] for i in range(6)])
        topo = Topology(positions, transmission_range=6.0)
        assert topo.is_connected()

    def test_single_node_is_connected(self):
        topo = Topology(np.array([[0.0, 0.0]]), transmission_range=1.0)
        assert topo.is_connected()
        assert topo.average_degree() == 0.0

    def test_nodes_within_arbitrary_point(self):
        positions = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
        topo = Topology(positions, transmission_range=5.0)
        assert list(topo.nodes_within([9.0, 0.0], 2.0)) == [1]

    def test_matches_brute_force_neighbourhoods(self, rng):
        positions = rng.uniform(0, 50, size=(40, 2))
        r = 10.0
        topo = Topology(positions, transmission_range=r)
        for i in range(40):
            expected = {
                j
                for j in range(40)
                if j != i and np.hypot(*(positions[i] - positions[j])) <= r + 1e-12
            }
            assert set(topo.neighbours(i)) == expected

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            Topology(np.zeros((3, 3)), transmission_range=1.0)
        with pytest.raises(ValueError):
            Topology(np.zeros((3, 2)), transmission_range=0.0)
        topo = Topology(np.zeros((2, 2)), transmission_range=1.0)
        with pytest.raises(KeyError):
            topo.neighbours(5)


# Random deployments: a few coincident and collinear points come from the
# small coordinate pool, arbitrary floats from the continuous range.
_coordinate = st.one_of(
    st.sampled_from([0.0, 1.0, 5.0, 10.0]),
    st.floats(min_value=0.0, max_value=60.0, allow_nan=False, allow_infinity=False),
)
_deployments = st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=60)


class TestNeighbourTableProperty:
    """The NumPy-built CSR and the lazily-built scalar views agree bit for bit."""

    @given(_deployments, st.floats(min_value=0.5, max_value=25.0))
    @settings(max_examples=100, deadline=None)
    def test_csr_matches_scalar_queries(self, points, transmission_range):
        positions = np.asarray(points, dtype=float)
        n = len(positions)
        topo = Topology(positions, transmission_range)
        indptr, ids, dists = topo.neighbour_table()
        assert indptr.shape == (n + 1,) and indptr[0] == 0
        assert ids.dtype == np.int64 and dists.dtype == np.float64
        for i in range(n):
            row = ids[indptr[i] : indptr[i + 1]]
            assert tuple(row.tolist()) == topo.neighbours(i)
            scalar = np.array([topo.link_distance(i, j) for j in row.tolist()], dtype=float)
            assert scalar.tobytes() == dists[indptr[i] : indptr[i + 1]].tobytes()
            for j in row.tolist():
                assert topo.link_distance(i, j) == topo.distance(min(i, j), max(i, j))
        degrees = [topo.degree(i) for i in range(n)]
        assert topo.average_degree() == sum(degrees) / n
        # edges(): every pair i < j within range (the spatial hash's
        # squared-distance test), sorted, each listed once
        d2 = np.sum((positions[:, None, :] - positions[None, :, :]) ** 2, axis=2)
        r2 = transmission_range * transmission_range + 1e-12
        expected = [(i, j) for i in range(n) for j in range(i + 1, n) if d2[i, j] <= r2]
        assert topo.edges() == expected
        assert int(indptr[-1]) == 2 * len(expected)
