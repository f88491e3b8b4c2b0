"""Scalar vs vectorized estimator bit-identity (hypothesis property tests).

The columnar kernels of ``repro.core.estimation`` must reproduce the scalar
reference estimators of ``repro.core.arrival`` / ``repro.core.velocity``
bit-for-bit over arbitrary neighbour tables -- including the awkward lanes:
co-located nodes, zero and sub-``MIN_SPEED`` velocities, ``inf`` / ``None``
references, and reports sitting exactly on the staleness boundary.

The tables here are *bound* to the columns, so the scalar mirror path
(``NeighborTable.update`` -> ``EstimationColumns.record_update``) is the one
populating the arrays the kernels read.
"""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arrival import (
    arrival_time_from_neighbor,
    expected_arrival_time,
    sas_arrival_time,
)
from repro.core.estimation import EstimationColumns
from repro.core.neighbors import NeighborInfo, NeighborTable
from repro.core.pas import PASScheduler
from repro.core.states import ProtocolState
from repro.core.velocity import actual_velocity, expected_velocity, outward_velocity
from repro.experiments.runner import default_scenario
from repro.geometry.vec import Vec2
from repro.world.builder import build_simulation
from repro.world.state import WorldState

NOW = 10.0
STALENESS = 5.0


def complete_csr(n):
    """CSR neighbour table of the complete graph on ``n`` nodes."""
    indptr = np.arange(n + 1, dtype=np.intp) * (n - 1)
    neighbour_ids = np.array(
        [j for i in range(n) for j in range(n) if j != i], dtype=np.int64
    )
    return indptr, neighbour_ids


# Coordinate palette biased towards collisions (co-located receiver/reporter).
coords = st.one_of(
    st.sampled_from([0.0, 1.0, -2.5]),
    st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
)
# Velocity components spanning zero, sub-MIN_SPEED and ordinary magnitudes.
vel_component = st.one_of(
    st.sampled_from([0.0, 5e-10, 1e-9, 1.0, -2.0]),
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
)
# Report times straddling the staleness boundary (NOW - STALENESS == 5.0).
report_times = st.sampled_from([0.0, 4.9, 5.0, 5.1, NOW])
# Detection times overlapping the receiver detection palette, so elapsed
# times of exactly zero (MIN_ELAPSED boundary) occur.
detections = st.one_of(
    st.none(), st.sampled_from([0.0, 3.0, 7.0]), st.floats(0.0, 10.0)
)
predictions = st.one_of(
    st.sampled_from([math.inf, 12.0, 8.0]), st.floats(0.0, 100.0)
)


@st.composite
def estimation_case(draw):
    n = draw(st.integers(2, 5))
    positions = [(draw(coords), draw(coords)) for _ in range(n)]
    limit = draw(st.sampled_from([None, STALENESS]))
    records = []
    for receiver in range(n):
        for neighbour in range(n):
            if neighbour == receiver or not draw(st.booleans()):
                continue
            if draw(st.booleans()):
                reported_position = Vec2(*positions[neighbour])
            else:
                reported_position = Vec2(draw(coords), draw(coords))
            velocity = draw(
                st.one_of(st.none(), st.tuples(vel_component, vel_component))
            )
            records.append(
                (
                    receiver,
                    NeighborInfo(
                        node_id=neighbour,
                        position=reported_position,
                        state=draw(st.sampled_from(list(ProtocolState))),
                        velocity=None if velocity is None else Vec2(*velocity),
                        predicted_arrival=draw(predictions),
                        detection_time=draw(detections),
                        report_time=draw(report_times),
                    ),
                )
            )
    own_detections = [draw(detections) for _ in range(n)]
    return n, positions, limit, records, own_detections


def build(n, positions, limit, records):
    ws = WorldState(list(range(n)), np.array(positions, dtype=float))
    indptr, neighbour_ids = complete_csr(n)
    est = EstimationColumns(ws, indptr, neighbour_ids, staleness_limit=limit)
    tables = [NeighborTable(staleness_limit=limit) for _ in range(n)]
    for row, table in enumerate(tables):
        table.bind_columns(est, row)
    for receiver, info in records:
        tables[receiver].update(info)
    return ws, est, tables, indptr, neighbour_ids


def same_bits(a, b):
    """Bit-level float equality: -0.0 differs from 0.0, NaN equals NaN."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def assert_mean_bits(scalar_vec, x, y, n, label):
    """A kernel mean lane matches a scalar estimator bit for bit."""
    if scalar_vec is None:
        assert n == 0, label
    else:
        assert n > 0, label
        assert same_bits(x, scalar_vec.x) and same_bits(y, scalar_vec.y), (
            label, (x, y), scalar_vec
        )


@given(estimation_case())
@settings(max_examples=80, deadline=None)
def test_kernels_bit_identical_to_scalar(case):
    n, positions, limit, records, own_detections = case
    ws, est, tables, indptr, neighbour_ids = build(n, positions, limit, records)
    rows = np.arange(n, dtype=np.intp)
    pad = est.padded(rows)
    informative = est.informative_mask(pad, NOW)
    covered = est.covered_mask(pad, NOW)

    # Per-slot arrival estimates: every unmasked lane matches the scalar
    # per-neighbour function, every masked lane is inf.
    matrix = est.arrival_times_many(rows, pad, informative, NOW)
    for r in range(n):
        position = Vec2(*positions[r])
        slots = neighbour_ids[indptr[r] : indptr[r + 1]]
        for k, neighbour in enumerate(slots):
            if informative[r, k]:
                record = tables[r].get(int(neighbour))
                assert matrix[r, k] == arrival_time_from_neighbor(
                    position, record, NOW
                )
            else:
                assert matrix[r, k] == math.inf

    for min_reports in (1, 2):
        predicted = est.expected_arrival_time_many(
            rows, pad, informative, NOW, min_reports=min_reports
        )
        for r in range(n):
            scalar = expected_arrival_time(
                Vec2(*positions[r]),
                tables[r].informative_neighbors(NOW),
                NOW,
                min_reports=min_reports,
            )
            assert predicted[r] == scalar

    vx, vy, vn = est.expected_velocity_many(pad, informative)
    cx, cy, cn = est.expected_velocity_many(pad, covered)
    dets = np.array(
        [np.nan if d is None else d for d in own_detections], dtype=float
    )
    bx, by, bn = est.actual_velocity_many(rows, dets, pad, covered)
    fx, fy, fn = est.actual_velocity_many(rows, dets, pad, covered, outward=True)
    for r in range(n):
        position = Vec2(*positions[r])
        informative_records = tables[r].informative_neighbors(NOW)
        covered_records = tables[r].covered_neighbors(NOW)
        assert_mean_bits(
            expected_velocity(informative_records), vx[r], vy[r], vn[r], "expected"
        )
        assert_mean_bits(
            expected_velocity(covered_records), cx[r], cy[r], cn[r], "covered-mean"
        )
        if own_detections[r] is None:
            assert bn[r] == 0 and fn[r] == 0
        else:
            assert_mean_bits(
                actual_velocity(position, own_detections[r], covered_records),
                bx[r], by[r], bn[r], "actual",
            )
            assert_mean_bits(
                outward_velocity(position, own_detections[r], covered_records),
                fx[r], fy[r], fn[r], "outward",
            )

    for fallback in (None, 0.0, 2.0):
        sas = est.sas_arrival_time_many(
            rows, pad, covered, NOW, fallback_speed=fallback
        )
        for r in range(n):
            scalar = sas_arrival_time(
                Vec2(*positions[r]),
                tables[r].covered_neighbors(NOW),
                NOW,
                fallback_speed=fallback,
            )
            assert sas[r] == scalar


def assert_batch_kernels_match(est, tables, positions, own_detections, covered_rows):
    """``pas_response_estimates`` / ``sas_response_estimates`` vs the scalar
    estimators, receiver by receiver, for every row of the fleet."""
    n = len(tables)
    rows = np.arange(n, dtype=np.intp)
    dets = np.array(
        [np.nan if d is None else d for d in own_detections], dtype=float
    )
    for min_reports in (1, 2):
        (bx, by, fx, fy, mx, my), (bn, fn, mn), arrival = est.pas_response_estimates(
            rows, np.asarray(covered_rows, dtype=bool), dets, NOW,
            min_reports=min_reports,
        )
        for r in range(n):
            position = Vec2(*positions[r])
            covered = tables[r].covered_neighbors(NOW)
            informative = tables[r].informative_neighbors(NOW)
            if own_detections[r] is None:
                assert bn[r] == 0 and fn[r] == 0
            else:
                assert_mean_bits(
                    actual_velocity(position, own_detections[r], covered),
                    bx[r], by[r], bn[r], "actual",
                )
                assert_mean_bits(
                    outward_velocity(position, own_detections[r], covered),
                    fx[r], fy[r], fn[r], "outward",
                )
            assert_mean_bits(
                expected_velocity(covered if covered_rows[r] else informative),
                mx[r], my[r], mn[r], "mean",
            )
            assert same_bits(
                arrival[r],
                expected_arrival_time(
                    position, informative, NOW, min_reports=min_reports
                ),
            )
    sas = est.sas_response_estimates(rows, NOW)
    for r in range(n):
        assert same_bits(
            sas[r],
            sas_arrival_time(Vec2(*positions[r]), tables[r].covered_neighbors(NOW), NOW),
        )


@given(estimation_case(), st.lists(st.booleans(), min_size=5, max_size=5))
@settings(max_examples=80, deadline=None)
def test_batch_kernels_bit_identical_to_scalar(case, covered_draw):
    n, positions, limit, records, own_detections = case
    ws, est, tables, _, _ = build(n, positions, limit, records)
    assert_batch_kernels_match(est, tables, positions, own_detections, covered_draw[:n])


class TestBatchKernelEdgeCases:
    """Explicit lanes the summation rewrite must get right."""

    def _covered_report(self, node, x, y, detection, velocity=None):
        return NeighborInfo(
            node_id=node, position=Vec2(x, y), state=ProtocolState.COVERED,
            velocity=velocity, detection_time=detection, report_time=NOW,
        )

    def test_all_negative_zero_contributions_sum_to_positive_zero(self):
        # Receiver 0 sits at x = -0.0 and both neighbours at x = +0.0, so
        # every backward x term is (-0.0 - 0.0) / elapsed = -0.0; their
        # velocities are (-0.0, -0.0).  The scalar sums start at +0.0.
        positions = [(-0.0, 0.0), (0.0, 3.0), (0.0, -4.0)]
        minus_zero = Vec2(-0.0, -0.0)
        records = [
            (0, self._covered_report(1, 0.0, 3.0, 1.0, minus_zero)),
            (0, self._covered_report(2, 0.0, -4.0, 2.0, minus_zero)),
        ]
        _, est, tables, _, _ = build(3, positions, None, records)
        (bx, _, _, _, mx, my), (bn, _, mn), _ = est.pas_response_estimates(
            np.array([0]), np.array([True]), np.array([5.0]), NOW
        )
        assert bn[0] == 2 and mn[0] == 2
        for value in (bx[0], mx[0], my[0]):
            assert same_bits(value, 0.0)
        assert_batch_kernels_match(est, tables, positions, [5.0, None, None], [True] * 3)

    def test_isolated_receivers_in_a_wider_batch(self):
        # Node 2 has no neighbours; it shares a batch with node 0.
        ws = WorldState([0, 1, 2], np.array([[0.0, 0.0], [1.0, 0.0], [9.0, 9.0]]))
        indptr = np.array([0, 1, 2, 2], dtype=np.intp)
        est = EstimationColumns(ws, indptr, np.array([1, 0], dtype=np.int64))
        tables = [NeighborTable() for _ in range(3)]
        for row, table in enumerate(tables):
            table.bind_columns(est, row)
        tables[0].update(
            NeighborInfo(node_id=1, position=Vec2(1.0, 0.0),
                         state=ProtocolState.ALERT, velocity=Vec2(-1.0, 0.0),
                         predicted_arrival=12.0, report_time=NOW)
        )
        positions = [(0.0, 0.0), (1.0, 0.0), (9.0, 9.0)]
        assert_batch_kernels_match(est, tables, positions, [None] * 3, [False, True, False])
        _, (_, _, mn), arrival = est.pas_response_estimates(
            np.array([2, 0]), np.array([False, False]), np.full(2, np.nan), NOW
        )
        assert mn == [0.0, 1.0] and arrival == [math.inf, 13.0]
        # The per-quantity kernels pad the same way.
        rows = np.array([2, 0])
        pad = est.padded(rows)
        assert pad[1].tolist() == [[False], [True]]
        informative = est.informative_mask(pad, NOW)
        assert est.expected_arrival_time_many(rows, pad, informative, NOW).tolist() == [
            math.inf, 13.0
        ]
        assert est.expected_velocity_many(pad, informative)[2].tolist() == [0.0, 1.0]
        covered = est.covered_mask(pad, NOW)
        assert not covered.any()
        assert est.sas_arrival_time_many(rows, pad, covered, NOW).tolist() == [
            math.inf, math.inf
        ]

    def test_zero_width_batch(self):
        # No edges at all: the padded slot matrix has width 0, where an
        # accumulate-then-take-last would fail.
        ws = WorldState([0, 1], np.zeros((2, 2)))
        est = EstimationColumns(
            ws, np.zeros(3, dtype=np.intp), np.array([], dtype=np.int64)
        )
        rows = np.array([0, 1])
        means, counts, arrival = est.pas_response_estimates(
            rows, np.array([True, False]), np.array([1.0, np.nan]), NOW
        )
        assert means == [[0.0, 0.0]] * 6
        assert counts == [[0.0, 0.0]] * 3
        assert arrival == [math.inf, math.inf]
        assert est.sas_response_estimates(rows, NOW) == [math.inf, math.inf]

    def test_mixed_batch_with_nan_detection_times(self):
        # Four receivers around a covered core: covered with and without an
        # own detection time, alert and safe, estimated in one batch.
        positions = [(0.0, 0.0), (2.0, 0.0), (4.0, 1.0), (6.0, -1.0)]
        records = []
        for receiver in range(4):
            for neighbour in range(4):
                if neighbour == receiver:
                    continue
                x, y = positions[neighbour]
                records.append(
                    (receiver, self._covered_report(
                        neighbour, x, y, float(neighbour), Vec2(1.0, 0.25)
                    ))
                )
        _, est, tables, _, _ = build(4, positions, STALENESS, records)
        own = [0.5, None, 2.5, None]
        assert_batch_kernels_match(est, tables, positions, own, [True, True, False, False])
        _, (bn, fn, _), _ = est.pas_response_estimates(
            np.arange(4), np.array([True, True, False, False]),
            np.array([0.5, np.nan, 2.5, np.nan]), NOW,
        )
        assert bn[0] == 0 and fn[0] == 3  # detected before every neighbour
        assert bn[1] == fn[1] == 0  # no own detection time: no finite difference
        assert bn[2] == 2 and fn[2] == 1


class TestWorldLifetime:
    """A finished batched+columnar world must be collectable.

    The controllers and their ``EstimationColumns`` point at each other; the
    cycle is only collectable when every link is visible to the cyclic GC.
    """

    def _refs(self, simulation):
        est = simulation._estimation
        assert est is not None
        controller = next(iter(simulation.controllers.values()))
        return weakref.ref(est), weakref.ref(controller)

    def _assert_collected(self, refs):
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_built_world_is_collected(self):
        scenario = default_scenario(seed=3, duration=10.0)
        simulation = build_simulation(
            scenario, PASScheduler(), engine="batched", estimation="columnar"
        )
        refs = self._refs(simulation)
        del simulation
        self._assert_collected(refs)

    def test_run_world_is_collected(self):
        scenario = default_scenario(seed=3, duration=10.0)
        simulation = build_simulation(
            scenario, PASScheduler(), engine="batched", estimation="columnar"
        )
        refs = self._refs(simulation)
        simulation.run()
        del simulation
        self._assert_collected(refs)


class TestColumnMirror:
    def test_stale_report_rejected_by_columns_too(self):
        """The dict's report_time>= overwrite rule gates the column write."""
        ws = WorldState([0, 1], np.zeros((2, 2)))
        indptr, neighbour_ids = complete_csr(2)
        est = EstimationColumns(ws, indptr, neighbour_ids)
        table = NeighborTable()
        table.bind_columns(est, 0)
        newer = NeighborInfo(
            node_id=1, position=Vec2(3.0, 4.0), state=ProtocolState.COVERED,
            detection_time=2.0, report_time=2.0,
        )
        older = NeighborInfo(
            node_id=1, position=Vec2(9.0, 9.0), state=ProtocolState.ALERT,
            report_time=1.0,
        )
        table.update(newer)
        table.update(older)
        assert est.px[0] == 3.0 and est.py[0] == 4.0
        assert bool(est.has_det[0])

    def test_bind_replays_existing_records(self):
        ws = WorldState([0, 1], np.zeros((2, 2)))
        indptr, neighbour_ids = complete_csr(2)
        est = EstimationColumns(ws, indptr, neighbour_ids)
        table = NeighborTable()
        table.update(
            NeighborInfo(node_id=1, position=Vec2(1.0, 2.0),
                         state=ProtocolState.ALERT, velocity=Vec2(1.0, 0.0))
        )
        assert not est.valid.any()
        table.bind_columns(est, 0)
        assert bool(est.valid[0]) and est.px[0] == 1.0

    def test_clear_invalidates_row(self):
        ws = WorldState([0, 1], np.zeros((2, 2)))
        indptr, neighbour_ids = complete_csr(2)
        est = EstimationColumns(ws, indptr, neighbour_ids)
        table = NeighborTable()
        table.bind_columns(est, 0)
        table.update(
            NeighborInfo(node_id=1, position=Vec2(1.0, 2.0),
                         state=ProtocolState.COVERED, detection_time=1.0)
        )
        assert est.valid[0]
        table.clear()
        assert not est.valid[0]

    def test_non_neighbour_update_raises(self):
        ws = WorldState([0, 1], np.zeros((2, 2)))
        indptr, neighbour_ids = complete_csr(2)
        est = EstimationColumns(ws, indptr, neighbour_ids)
        table = NeighborTable()
        table.bind_columns(est, 0)
        with pytest.raises(ValueError, match="not a topology neighbour"):
            table.update(
                NeighborInfo(node_id=7, position=Vec2(0, 0),
                             state=ProtocolState.SAFE)
            )

    def test_permuted_world_rows_rejected(self):
        ws = WorldState([5, 3], np.zeros((2, 2)))
        indptr, neighbour_ids = complete_csr(2)
        with pytest.raises(ValueError, match="identity"):
            EstimationColumns(ws, indptr, neighbour_ids)


class TestRequestFastPath:
    def _make(self, n=4):
        ws = WorldState(list(range(n)), np.zeros((n, 2)))
        indptr, neighbour_ids = complete_csr(n)
        est = EstimationColumns(ws, indptr, neighbour_ids)
        for name in ("safe", "alert", "covered"):
            ws.code_of(name)
        return ws, est

    def test_pas_responders_state_and_knowledge_gating(self):
        ws, est = self._make()
        # 0: safe without knowledge (quiet), 1: safe with knowledge,
        # 2: alert, 3: covered.
        ws.set_protocol_state(0, "safe")
        ws.set_protocol_state(1, "safe")
        ws.set_protocol_state(2, "alert")
        ws.set_protocol_state(3, "covered")
        est.set_knowledge(1, True)
        receivers = np.arange(4)
        assert est.pas_request_responders(receivers).tolist() == [1, 2, 3]

    def test_pas_responders_skip_asleep_and_failed(self):
        ws, est = self._make()
        for row in range(4):
            ws.set_protocol_state(row, "covered")
        from repro.node.sensor import PowerState

        ws.set_power(1, PowerState.ASLEEP)
        ws.set_power(2, PowerState.FAILED)
        assert est.pas_request_responders(np.arange(4)).tolist() == [0, 3]

    def test_sas_responders_covered_only(self):
        ws, est = self._make()
        ws.set_protocol_state(0, "safe")
        ws.set_protocol_state(1, "alert")
        ws.set_protocol_state(2, "covered")
        ws.set_protocol_state(3, "covered")
        est.set_knowledge(0, True)
        est.set_knowledge(1, True)
        assert est.sas_request_responders(np.arange(4)).tolist() == [2, 3]

    def test_delivery_order_preserved(self):
        ws, est = self._make()
        for row in range(4):
            ws.set_protocol_state(row, "covered")
        receivers = np.array([3, 0, 2, 1])
        assert est.pas_request_responders(receivers).tolist() == [3, 0, 2, 1]
