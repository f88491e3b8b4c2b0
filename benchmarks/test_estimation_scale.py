"""Estimation-path benchmarks: columnar PAS/SAS kernels at 5k-node scale.

PR 3 made the message *bus* fast, which left per-neighbour controller
estimation -- ``expected_arrival_time`` and friends walking one Python
``NeighborInfo`` at a time for every delivered RESPONSE -- as the dominant
term of a batched PAS run's profile.  This file pins the columnar
estimation layer (:mod:`repro.core.estimation`) on exactly that cost,
mirroring the message-path/end-to-end split of
``benchmarks/test_protocol_scale.py``:

* ``test_estimation_wave_speedup_5000_nodes`` populates every node's
  neighbour table over a preset-density deployment, then computes the
  full PAS + SAS estimator set for the whole fleet -- once through the
  scalar per-neighbour reference estimators and once through the
  vectorized kernels -- asserts the results are bit-identical, and
  requires the kernels to be >= 3x faster at 5,000 nodes.  The speedup
  trajectory over fleet sizes lands in ``BENCH_estimation.json``.
* ``test_narrow_batch_fused_vs_per_quantity`` times RESPONSE fan-in
  batches shaped like the ``plume_storm`` benchmark workload's -- 8
  receivers (one sender's neighbourhood) padded to the fleet's maximum
  degree (16-19 slots), thousands of times -- once through the per-quantity call sequence the batch path used
  to make (pad each receiver partition, one kernel call per quantity) and
  once through the fused ``pas_response_estimates`` kernel (one gather,
  one sequential sum).  At this width per-call overhead, not per-row math,
  is the cost, which the 1k-5k wide waves above hide.  The per-batch
  microseconds land in ``BENCH_estimation.json`` under ``narrow_batch``.
* ``test_columnar_end_to_end_matches_and_wins`` runs a full seeded PAS
  plume scenario on the batched engine under ``estimation="scalar"`` and
  ``estimation="columnar"``, re-asserting summary bit-identity at
  benchmark scale and a no-regression wall-clock floor.  (End to end the
  win is Amdahl-limited: RESPONSE fan-in batches are neighbourhood-sized
  (~15 receivers), and the per-receiver apply loop -- state machine,
  sleep policy, event scheduling -- stays Python; see ROADMAP open
  item 1.)

All are marked ``slow``.  ``KERNEL_BENCH_TINY=1`` shrinks the fleets and
drops the hard wall-clock assertions so CI can smoke the file on noisy
shared runners.  The artifact is written to the current working directory
unless ``BENCH_ARTIFACT_DIR`` points elsewhere.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.arrival import expected_arrival_time, sas_arrival_time
from repro.core.estimation import EstimationColumns
from repro.core.neighbors import NeighborInfo, NeighborTable
from repro.core.pas import PASScheduler
from repro.core.states import ProtocolState
from repro.core.velocity import expected_velocity
from repro.geometry.deployment import DeploymentConfig, make_deployment
from repro.geometry.vec import Vec2
from repro.network.topology import Topology
from repro.world.builder import build_simulation
from repro.world.presets import large_plume
from repro.world.state import WorldState

#: Tiny-N smoke mode for CI (shared with the other benchmark files).
TINY = os.environ.get("KERNEL_BENCH_TINY") == "1"

#: Fleet-size trajectory recorded into the artifact; the last size carries
#: the hard speedup assertion.
SIZES = [200, 400] if TINY else [1000, 2500, 5000]

#: Paper-density jittered grid: ~0.012 nodes/m^2 at 20 m range => avg
#: degree ~15, matching the large_plume preset and protocol benchmarks.
_DENSITY = 0.012
_TX_RANGE = 20.0

NOW = 10.0


def _populated_world(num_nodes, seed=0):
    """A preset-density fleet with every neighbour table fully populated.

    Tables are *bound* to the columns, so the scalar dicts and the CSR
    arrays are filled through the same ``NeighborTable.update`` mirror the
    simulation uses -- both paths then estimate from identical knowledge.
    """
    side = float(np.sqrt(num_nodes / _DENSITY))
    config = DeploymentConfig(
        kind="jittered_grid", num_nodes=num_nodes, width=side, height=side, jitter=0.3
    )
    rng = np.random.default_rng(seed)
    positions = make_deployment(config, rng)
    topology = Topology(positions, _TX_RANGE)
    indptr, neighbour_ids, _ = topology.neighbour_table()
    world_state = WorldState(list(range(num_nodes)), positions)
    est = EstimationColumns(world_state, indptr, neighbour_ids)
    tables = [NeighborTable() for _ in range(num_nodes)]
    for row, table in enumerate(tables):
        table.bind_columns(est, row)
    states = [ProtocolState.COVERED, ProtocolState.ALERT, ProtocolState.SAFE]
    for row, table in enumerate(tables):
        for neighbour in neighbour_ids[indptr[row] : indptr[row + 1]]:
            neighbour = int(neighbour)
            x, y = positions[neighbour]
            state = states[int(rng.integers(3))]
            has_velocity = rng.random() < 0.7
            has_detection = state is ProtocolState.COVERED and rng.random() < 0.8
            table.update(
                NeighborInfo(
                    node_id=neighbour,
                    position=Vec2(float(x), float(y)),
                    state=state,
                    velocity=(
                        Vec2(float(rng.normal(2.0, 1.0)), float(rng.normal(0.0, 1.0)))
                        if has_velocity
                        else None
                    ),
                    predicted_arrival=(
                        float(NOW + rng.uniform(0.0, 30.0))
                        if rng.random() < 0.6
                        else math.inf
                    ),
                    detection_time=(
                        float(rng.uniform(0.0, NOW)) if has_detection else None
                    ),
                    report_time=float(rng.uniform(0.0, NOW)),
                )
            )
    return positions, est, tables


def _scalar_estimation_wave(positions, tables):
    """The per-neighbour reference estimators, once per node."""
    arrivals, sas, velocities = [], [], []
    for row, table in enumerate(tables):
        position = Vec2(float(positions[row][0]), float(positions[row][1]))
        informative = table.informative_neighbors(NOW)
        arrivals.append(expected_arrival_time(position, informative, NOW))
        velocities.append(expected_velocity(informative))
        sas.append(sas_arrival_time(position, table.covered_neighbors(NOW), NOW))
    return arrivals, sas, velocities


def _columnar_estimation_wave(est, num_nodes):
    """The vectorized kernels, whole fleet in one batch."""
    rows = np.arange(num_nodes, dtype=np.intp)
    pad = est.padded(rows)
    informative = est.informative_mask(pad, NOW)
    covered = est.covered_mask(pad, NOW)
    arrivals = est.expected_arrival_time_many(rows, pad, informative, NOW)
    vx, vy, vn = est.expected_velocity_many(pad, informative)
    sas = est.sas_arrival_time_many(rows, pad, covered, NOW)
    return arrivals, sas, (vx, vy, vn)


def _best_of(fn, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _artifact_path():
    return Path(os.environ.get("BENCH_ARTIFACT_DIR", ".")) / "BENCH_estimation.json"


def _update_artifact(entries):
    """Merge ``entries`` into the artifact (each test owns its own keys)."""
    path = _artifact_path()
    artifact = json.loads(path.read_text()) if path.exists() else {}
    artifact.update(entries)
    path.write_text(json.dumps(artifact, indent=2))


@pytest.mark.slow
def test_estimation_wave_speedup_5000_nodes():
    """Columnar kernels must beat the scalar estimators by >= 3x at 5k."""
    trajectory = []
    for num_nodes in SIZES:
        positions, est, tables = _populated_world(num_nodes)
        repeats = 3
        scalar_s, scalar_out = _best_of(
            lambda: _scalar_estimation_wave(positions, tables), repeats
        )
        columnar_s, columnar_out = _best_of(
            lambda: _columnar_estimation_wave(est, num_nodes), repeats
        )

        # Bit-identity: every estimate must match the scalar reference
        # exactly (inf included); velocity means match where defined.
        arrivals, sas, velocities = scalar_out
        k_arrivals, k_sas, (vx, vy, vn) = columnar_out
        for row in range(num_nodes):
            assert k_arrivals[row] == arrivals[row]
            assert k_sas[row] == sas[row]
            if velocities[row] is None:
                assert vn[row] == 0
            else:
                assert vx[row] == velocities[row].x
                assert vy[row] == velocities[row].y

        speedup = scalar_s / columnar_s
        trajectory.append(
            {
                "nodes": num_nodes,
                "table_entries": int(est.valid.sum()),
                "scalar_s": scalar_s,
                "columnar_s": columnar_s,
                "speedup": speedup,
            }
        )
        print(
            f"\n{num_nodes}-node estimation wave: scalar {scalar_s * 1e3:.1f} ms, "
            f"columnar {columnar_s * 1e3:.1f} ms, speedup {speedup:.1f}x"
        )

    _update_artifact(
        {
            "benchmark": "columnar_estimation_wave",
            "tiny": TINY,
            "tx_range_m": _TX_RANGE,
            "density_nodes_per_m2": _DENSITY,
            "trajectory": trajectory,
        }
    )

    if not TINY:
        final = trajectory[-1]
        assert final["nodes"] == 5000
        assert final["speedup"] >= 3.0, (
            f"columnar estimation only {final['speedup']:.1f}x faster at 5k nodes"
        )


#: Narrow-batch shape: receivers per RESPONSE batch and batches timed.
NARROW_RECEIVERS = 8
NARROW_BATCHES = 200 if TINY else 2000


def _narrow_batches(est, num_nodes, seed=1):
    """Sender-neighbourhood receiver batches with mixed covered states."""
    rng = np.random.default_rng(seed)
    batches = []
    while len(batches) < NARROW_BATCHES:
        sender = int(rng.integers(num_nodes))
        receivers = est.nbr_ids[est.indptr[sender] : est.indptr[sender + 1]]
        if len(receivers) < NARROW_RECEIVERS:
            continue
        rows = np.sort(
            rng.choice(receivers, NARROW_RECEIVERS, replace=False)
        ).astype(np.intp)
        covered = rng.random(NARROW_RECEIVERS) < 2 / 3
        detections = np.where(covered, rng.uniform(0.0, NOW, NARROW_RECEIVERS), np.nan)
        batches.append((rows, covered, detections))
    return batches


def _per_quantity_batch(est, rows, covered, detections):
    """The pre-fusion call sequence of one RESPONSE batch."""
    results = []
    if covered.any():
        cov_rows = rows[covered]
        pad = est.padded(cov_rows)
        mask = est.covered_mask(pad, NOW)
        dets = detections[covered]
        results.append(est.actual_velocity_many(cov_rows, dets, pad, mask))
        results.append(
            est.actual_velocity_many(cov_rows, dets, pad, mask, outward=True)
        )
        results.append(est.expected_velocity_many(pad, mask))
    if not covered.all():
        unc_rows = rows[~covered]
        pad = est.padded(unc_rows)
        mask = est.informative_mask(pad, NOW)
        results.append(est.expected_velocity_many(pad, mask))
        results.append(est.expected_arrival_time_many(unc_rows, pad, mask, NOW))
    return results


def _fused_batch(est, rows, covered, detections):
    return est.pas_response_estimates(rows, covered, detections, NOW)


@pytest.mark.slow
def test_narrow_batch_fused_vs_per_quantity():
    """Per-batch cost of plume-sized RESPONSE batches, old shape vs fused.

    The per-quantity kernels share the fused kernel's formulas, so the two
    legs differ only in call shape (padding per partition and one kernel
    call per quantity vs one gather and one sum).  Their results must
    agree exactly.  The timing is recorded, not gated: on a shared 2-vCPU
    host the ratio ranged 1.3-2.8x between runs of this test.
    """
    num_nodes = 400 if TINY else 1000
    _, est, _ = _populated_world(num_nodes)
    batches = _narrow_batches(est, num_nodes)

    for rows, covered, detections in batches[:50]:
        old = _per_quantity_batch(est, rows, covered, detections)
        (bx, by, fx, fy, mx, my), (bn, fn, mn), arrival = _fused_batch(
            est, rows, covered, detections
        )
        if covered.any():
            (cbx, cby, cbn), (cfx, cfy, cfn), (cmx, cmy, cmn) = old[:3]
            k = np.flatnonzero(covered)
            assert np.array_equal(cbn, np.take(bn, k))
            assert np.array_equal(cfn, np.take(fn, k))
            assert np.array_equal(cmn, np.take(mn, k))
            for kernel, fused in ((cbx, bx), (cby, by), (cfx, fx), (cfy, fy),
                                  (cmx, mx), (cmy, my)):
                assert kernel.tolist() == np.take(fused, k).tolist()
        if not covered.all():
            (ux, uy, un), upred = old[-2:]
            k = np.flatnonzero(~covered)
            assert np.array_equal(un, np.take(mn, k))
            assert ux.tolist() == np.take(mx, k).tolist()
            assert uy.tolist() == np.take(my, k).tolist()
            assert upred.tolist() == np.take(arrival, k).tolist()

    # Interleave the legs so host-speed drift hits both alike.
    old_s = fused_s = float("inf")
    for _ in range(5):
        for leg in (_per_quantity_batch, _fused_batch):
            start = time.perf_counter()
            for batch in batches:
                leg(est, *batch)
            elapsed = time.perf_counter() - start
            if leg is _fused_batch:
                fused_s = min(fused_s, elapsed)
            else:
                old_s = min(old_s, elapsed)
    widths = [est.padded(rows)[0].shape[1] for rows, _, _ in batches]
    entry = {
        "tiny": TINY,
        "receivers": NARROW_RECEIVERS,
        "slots": float(np.mean(widths)),
        "batches": len(batches),
        "per_quantity_us_per_batch": old_s / len(batches) * 1e6,
        "fused_us_per_batch": fused_s / len(batches) * 1e6,
        "speedup": old_s / fused_s,
    }
    _update_artifact({"narrow_batch": entry})
    print(
        f"\nnarrow batches ({NARROW_RECEIVERS} receivers x {entry['slots']:.0f} "
        f"slots): per-quantity {entry['per_quantity_us_per_batch']:.0f} us, "
        f"fused {entry['fused_us_per_batch']:.0f} us per batch "
        f"({entry['speedup']:.1f}x)"
    )


@pytest.mark.slow
def test_columnar_end_to_end_matches_and_wins():
    """A full PAS run at benchmark scale: identical summary, no regression.

    1,000 nodes over a 6 s plume window keeps the scalar-estimation
    reference leg in the tens of seconds; the bit-identity assertion is
    the point here -- the hard speedup number lives in the wave benchmark
    above, and the end-to-end ratio it reports feeds ROADMAP open item 1
    (the residual per-receiver apply loop).
    """
    scenario = large_plume(seed=0, duration=2.0 if TINY else 6.0)
    num_nodes = 200 if TINY else 1000
    side = float(np.sqrt(num_nodes / _DENSITY))
    scenario = scenario.with_overrides(
        deployment=DeploymentConfig(
            kind="jittered_grid",
            num_nodes=num_nodes,
            width=side,
            height=side,
            jitter=0.3,
        )
    )
    timings = {}
    summaries = {}
    for estimation in ("scalar", "columnar"):
        simulation = build_simulation(
            scenario, PASScheduler(), engine="batched", estimation=estimation
        )
        start = time.perf_counter()
        summaries[estimation] = simulation.run()
        timings[estimation] = time.perf_counter() - start
    assert summaries["scalar"].to_json() == summaries["columnar"].to_json()
    ratio = timings["scalar"] / timings["columnar"]
    print(
        f"\n{num_nodes}-node PAS plume run: scalar estimation "
        f"{timings['scalar']:.2f} s, columnar {timings['columnar']:.2f} s "
        f"({ratio:.2f}x end to end)"
    )
    if not TINY:
        # Soft floor with noise headroom: the columnar path must never make
        # a protocol-heavy run meaningfully slower.
        assert ratio > 0.9, "columnar estimation regressed end-to-end wall clock"
