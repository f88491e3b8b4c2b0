"""Columnar controller-estimation layer: struct-of-arrays neighbour knowledge.

Why this exists
---------------
The batched message bus (PR 3) made delivery cheap, leaving per-receiver
estimation math -- ``expected_arrival_time`` / ``actual_velocity`` loops run
one neighbour at a time inside every ``_handle_response`` -- as the dominant
cost of a large PAS/SAS run (>90% of wall-clock at 1k nodes).  This module
keeps the same neighbour knowledge as contiguous NumPy columns so a whole
RESPONSE fan-in batch is estimated with a handful of kernel calls, and a
REQUEST batch is answered from boolean columns without touching most Python
controller objects.

Columnar layout
---------------
One CSR edge table over the communication topology, aligned with
``Topology.neighbour_table()``: edge slot ``k`` in
``indptr[i]:indptr[i + 1]`` holds what receiver ``i`` last heard *about* its
``k``-th neighbour (neighbour ids ascending per row, the same order as
``NeighborTable`` iteration).  Per-edge columns:

* ``valid``    -- bool; a report is cached in this slot.
* ``px, py``   -- reported neighbour position.
* ``vx, vy``   -- reported velocity components (NaN when none).
* ``has_vel``  -- bool; a velocity was reported.
* ``speed``    -- the reported velocity's norm (0 when none).
* ``pred``     -- reported predicted arrival (inf when unknown).
* ``det``      -- reported detection time (NaN when none).
* ``has_det``  -- bool; a detection time was reported.
* ``ref``      -- the arrival reference: ``det`` when reported, else ``pred``.
* ``report``   -- when the report was received (staleness filtering).
* ``covered``  -- bool; the reported state is COVERED.
* ``informs``  -- bool; an informative report (COVERED/ALERT with a
  velocity, detection time or finite prediction) if fresh.
* ``aims``     -- bool; the report can anchor an arrival estimate (a
  velocity of at least ``MIN_SPEED`` and a reference time).

``speed``, ``ref`` and the last three flags depend on the report alone, so
they are derived once per write rather than once per receiver and batch.
The float and the bool columns are the rows of two matrices, and one extra
never-written (so never valid) slot pads every receiver row to the fleet's
maximum degree, so a receiver batch is gathered by one ``take`` each.

Plus one per-node column ``knows`` mirroring
``PASController._has_knowledge`` for the REQUEST fast path, written through
the controller's velocity / predicted-arrival / detection-time setters.

Sync contract
-------------
The columns are a *mirror* of the per-controller ``NeighborTable`` dicts
(which stay authoritative for the scalar code paths).  Two writers keep them
exact:

* ``NeighborTable.update`` on a bound table calls :meth:`record_update` for
  every stored record (the scalar path, also exercised when taps force the
  bus back to per-receiver delivery);
* the batched RESPONSE path mirrors a whole receiver group in one
  vectorized :meth:`record_response_batch` write, then stores the shared
  record dict-side via ``NeighborTable.store_newest``.

Bit-identity contract
---------------------
Every kernel reproduces its scalar reference (:mod:`repro.core.arrival`,
:mod:`repro.core.velocity`) bit-for-bit:

* the scalar spec uses only operations NumPy matches exactly on float64
  (``sqrt`` norms, clipped-ratio cosines, ``+ - * /``, ``min``/``max``);
* sums take the last element of ``np.add.accumulate`` (what ``np.cumsum``
  computes) along the padded slot axis, which adds strictly in sequence --
  bit-equal to the scalar loops' ascending-id sums (``np.sum`` /
  ``np.add.reduce`` add pairwise and are deliberately not used).  The scalar loops start from
  ``Vec2.zero()``, so their total is ``+0.0`` when every contribution is
  ``-0.0``, where the accumulation alone would give ``-0.0``: adding a
  trailing ``+ 0.0`` maps ``-0.0`` to ``+0.0`` and leaves every other value
  (NaN included) unchanged, so the two agree on signed zeros too.  For the
  same reason a zero contribution's sign never matters, which lets the
  outward finite difference reuse the backward one's ``dx/elapsed``
  quotients: ``(-a)/(-b) == a/b`` exactly, and only the masks differ;
* masked-out lanes contribute the exact identity element (0.0 for sums, inf
  for mins), so padding cannot perturb a result.

RESPONSE fan-in batches are tiny (a neighbourhood, ~5-15 receivers), so
per-call overhead, not per-row math, is what they cost.
:meth:`EstimationColumns.pas_response_estimates` therefore answers a whole
batch from one :meth:`~EstimationColumns.gather` (every edge column read
once, displacements computed once) and one stacked sum for all of its
means, and hands the results back as Python lists for the apply loop
(:meth:`~EstimationColumns.sas_response_estimates` does the same for SAS);
the per-quantity ``*_many`` kernels share its formulas and serve the
property tests and fleet-wide estimation waves.

``tests/test_estimation_vectorized.py`` pins the equivalence property-based
per kernel; ``tests/test_engine_equivalence.py`` pins it end-to-end.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.neighbors import NeighborInfo
from repro.core.states import ProtocolState
from repro.obs import telemetry as _telemetry

from repro.core.arrival import COS_TOLERANCE, MIN_SPEED, ZERO_DISPLACEMENT
from repro.core.velocity import MIN_ELAPSED_S

#: A padded view over a receiver subset: ``idx`` is the (rows, max_degree)
#: matrix of edge-slot indices (the always-invalid padding slot where a
#: row has fewer neighbours) and ``in_bounds`` masks the real slots.
PaddedSlots = Tuple[np.ndarray, np.ndarray]

#: Per-edge float and bool columns (see the module docstring), in storage
#: order: the rows of ``EstimationColumns._floats`` / ``._flags``.
FLOAT_COLUMNS = ("px", "py", "vx", "vy", "speed", "ref", "det", "pred", "report")
FLAG_COLUMNS = ("valid", "has_vel", "has_det", "covered", "informs", "aims")

_PX, _PY, _VX, _VY, _SPEED, _REF, _DET, _PRED, _REPORT = range(9)
_VALID, _HAS_VEL, _HAS_DET, _IS_COVERED, _INFORMS, _AIMS = range(6)


class SlotBatch(NamedTuple):
    """Every edge column of a receiver subset, gathered once.

    ``floats`` / ``flags`` are (column, rows, slots) stacks in
    :data:`FLOAT_COLUMNS` / :data:`FLAG_COLUMNS` order, so each column is a
    contiguous (rows, slots) matrix; ``dx``, ``dy`` are the
    receiver-minus-reporter displacement and ``dist`` its norm.  Built by
    :meth:`EstimationColumns.gather`.
    """

    floats: np.ndarray
    flags: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    dist: np.ndarray


class ResponseEstimates(NamedTuple):
    """:meth:`EstimationColumns.pas_response_estimates` output.

    Python lists, each indexed by batch position.  ``means`` holds the
    backward finite-difference x and y, outward finite-difference x and y
    and mean-velocity x and y lists; ``counts`` the backward, outward and
    mean-velocity contribution counts (0 where the scalar estimator returns
    ``None``); ``arrival`` the expected arrival times.
    """

    means: List[List[float]]
    counts: List[List[float]]
    arrival: List[float]


class EstimationColumns:
    """Struct-of-arrays neighbour knowledge plus the vectorized estimators.

    Parameters
    ----------
    world_state:
        The :class:`repro.world.state.WorldState` mirror; supplies receiver
        positions and the awake/failed/protocol-state columns for gating.
        Its rows must be identity (``ids[i] == i``, the standard builder
        layout) so topology ids index the columns directly.
    indptr, neighbour_ids:
        The CSR neighbour table from ``Topology.neighbour_table()``.
    staleness_limit:
        The (uniform) ``NeighborTable.staleness_limit`` of the bound tables.
    """

    def __init__(
        self,
        world_state,
        indptr: np.ndarray,
        neighbour_ids: np.ndarray,
        *,
        staleness_limit: Optional[float] = None,
    ) -> None:
        n = world_state.num_nodes
        if not world_state.identity_rows:
            raise ValueError(
                "EstimationColumns requires identity world-state rows "
                "(ids[i] == i); got a permuted fleet"
            )
        if len(indptr) != n + 1:
            raise ValueError(f"indptr describes {len(indptr) - 1} nodes, world has {n}")
        self.ws = world_state
        self.indptr = np.asarray(indptr, dtype=np.intp)
        self.nbr_ids = np.asarray(neighbour_ids, dtype=np.int64)
        self.staleness_limit = staleness_limit
        nnz = len(self.nbr_ids)

        # The columns are the rows of two matrices, so one ``take`` gathers
        # every column of a slot set, and each gathered column comes out
        # contiguous.  Slot ``nnz`` is a padding slot that is never written
        # (so never valid): padded lanes point at it and drop out of every
        # mask without an in-bounds test.  The named column attributes are
        # views over the real slots.
        self._floats = np.zeros((len(FLOAT_COLUMNS), nnz + 1))
        self._floats[[_VX, _VY, _REF, _DET]] = np.nan
        self._floats[_PRED] = np.inf
        self._flags = np.zeros((len(FLAG_COLUMNS), nnz + 1), dtype=bool)
        (
            self.px, self.py, self.vx, self.vy, self.speed,
            self.ref, self.det, self.pred, self.report,
        ) = self._floats[:, :nnz]
        (
            self.valid, self.has_vel, self.has_det,
            self.covered, self.informs, self.aims,
        ) = self._flags[:, :nnz]

        # Every node's slots padded to the fleet's maximum degree: a batch
        # pads with one row gather (RESPONSE receivers neighbour a common
        # sender, so their degrees sit close to the maximum anyway).
        degree = np.diff(self.indptr)
        width = int(degree.max()) if n else 0
        offsets = np.arange(width, dtype=np.intp)
        self._slots = np.where(
            offsets < degree[:, None], self.indptr[:-1, None] + offsets, nnz
        )

        #: per-node mirror of PASController._has_knowledge
        self.knows = np.zeros(n, dtype=bool)
        #: per-node controller objects, filled by register_controller.  A
        #: plain list, not an object array: the controllers point back here,
        #: and the cyclic GC cannot see references held by NumPy object
        #: arrays, so that cycle would keep every finished world alive.
        self.controllers: List[object] = [None] * n

        # Transpose map: edge k = (owner i -> neighbour j) mirrors to the slot
        # of (j -> i).  Keys i*n + j are ascending (owners ascending, ids
        # ascending per row), so one searchsorted inverts the whole table.
        owners = np.repeat(np.arange(n, dtype=np.int64), degree)
        forward = owners * n + self.nbr_ids
        backward = self.nbr_ids * n + owners
        self._mirror = np.searchsorted(forward, backward)
        if nnz and not np.array_equal(forward[self._mirror], backward):
            raise ValueError("neighbour table is not symmetric")

        # WorldState protocol-state codes for the receiver-side gating.  The
        # safe/covered codes already exist at build time; interning "alert"
        # here gives it the same code the first ALERT transition would.
        self._ws_safe = world_state.code_of(ProtocolState.SAFE.value)
        self._ws_covered = world_state.code_of(ProtocolState.COVERED.value)
        self._ws_alert = world_state.code_of(ProtocolState.ALERT.value)

    # ----------------------------------------------------------------- wiring
    def register_controller(self, row: int, controller) -> None:
        """Attach the controller owning ``row`` (for batch dispatch)."""
        self.controllers[row] = controller

    def controllers_of(self, rows: np.ndarray) -> list:
        """The controllers owning ``rows``, in order."""
        controllers = self.controllers
        return [controllers[row] for row in rows.tolist()]

    def set_knowledge(self, row: int, knows: bool) -> None:
        """Mirror one controller's ``_has_knowledge`` bit."""
        self.knows[row] = knows

    # ----------------------------------------------------------------- writes
    def _write(self, slots, info: NeighborInfo) -> None:
        """Store one record into an edge slot or an array of edge slots."""
        velocity = info.velocity
        detection = info.detection_time
        predicted = info.predicted_arrival
        if velocity is None:
            vx = vy = math.nan
            speed = 0.0
        else:
            vx, vy = velocity.x, velocity.y
            speed = math.sqrt(vx * vx + vy * vy)
        has_ref = detection is not None or math.isfinite(predicted)
        state = info.state
        # ``.T[slots]`` addresses (columns,) for one slot and (k, columns)
        # for k slots, so the same row of values broadcasts into either.
        self._floats.T[slots] = (
            info.position.x,
            info.position.y,
            vx,
            vy,
            speed,
            predicted if detection is None else detection,
            math.nan if detection is None else detection,
            predicted,
            info.report_time,
        )
        self._flags.T[slots] = (
            True,
            velocity is not None,
            detection is not None,
            state is ProtocolState.COVERED,
            (state is ProtocolState.COVERED or state is ProtocolState.ALERT)
            and (velocity is not None or has_ref),
            velocity is not None and not speed < MIN_SPEED and has_ref,
        )

    def record_update(self, owner_row: int, info: NeighborInfo) -> None:
        """Mirror one stored ``NeighborTable`` record into its edge slot."""
        start = self.indptr[owner_row]
        end = self.indptr[owner_row + 1]
        pos = np.searchsorted(self.nbr_ids[start:end], info.node_id)
        slot = start + pos
        if pos >= end - start or self.nbr_ids[slot] != info.node_id:
            raise ValueError(
                f"node {info.node_id} is not a topology neighbour of row {owner_row}"
            )
        self._write(slot, info)

    def record_response_batch(
        self, sender_id: int, receiver_ids: np.ndarray, info: NeighborInfo
    ) -> None:
        """Mirror one RESPONSE into every receiver's (receiver, sender) slot.

        ``info`` is the shared record built from the response;
        ``info.report_time`` is the current time and therefore at least as
        new as anything previously stored, so the write is unconditional
        (matching the ``report_time >=`` overwrite rule of the dict side).
        """
        telemetry = _telemetry.active()
        if telemetry is not None:
            telemetry.count("est.mirror_batches")
            telemetry.observe("est.mirror_width", int(receiver_ids.size))
        start = self.indptr[sender_id]
        end = self.indptr[sender_id + 1]
        block = self.nbr_ids[start:end]
        pos = np.searchsorted(block, receiver_ids)
        # A receiver past the end of the block clips onto its last (smaller)
        # id, so the one comparison also catches out-of-range positions.
        if pos.size and (
            end == start
            or bool((block.take(pos, mode="clip") != receiver_ids).any())
        ):
            raise ValueError(
                f"batch receivers are not all topology neighbours of {sender_id}"
            )
        self._write(self._mirror[start + pos], info)

    def clear_row(self, owner_row: int) -> None:
        """Invalidate every cached report of one receiver (table.clear())."""
        self.valid[self.indptr[owner_row] : self.indptr[owner_row + 1]] = False
    # ------------------------------------------------------------ REQUEST path
    def alive_rows(self, receiver_ids: np.ndarray) -> np.ndarray:
        """Awake-and-not-failed subset of a receiver batch, order preserved.

        Mirrors the per-controller ``node.is_failed or not node.is_awake``
        guard of the scalar ``handle_batch`` loop (the power columns are
        exact mirrors of the node objects).
        """
        ws = self.ws
        mask = ws.awake[receiver_ids]
        if ws.any_failed:
            mask = mask & ~ws.failed[receiver_ids]
        if mask.all():
            return receiver_ids
        return receiver_ids[mask]

    def pas_request_responders(self, receiver_ids: np.ndarray) -> np.ndarray:
        """Receivers that answer a PAS REQUEST, from columns alone.

        PAS rule: every awake, unfailed node answers unless it is SAFE with
        nothing to report (``_has_knowledge`` false) -- the state codes and
        the ``knows`` column are exact mirrors of the controller state, so no
        Python controller object is touched for the silent majority.
        """
        ws = self.ws
        mask = ws.awake[receiver_ids]
        if ws.any_failed:
            mask = mask & ~ws.failed[receiver_ids]
        quiet = (ws.state_codes[receiver_ids] == self._ws_safe) & ~self.knows[
            receiver_ids
        ]
        return receiver_ids[mask & ~quiet]

    def sas_request_responders(self, receiver_ids: np.ndarray) -> np.ndarray:
        """Receivers that answer a SAS REQUEST: awake, unfailed and COVERED."""
        ws = self.ws
        mask = ws.awake[receiver_ids]
        if ws.any_failed:
            mask = mask & ~ws.failed[receiver_ids]
        return receiver_ids[mask & (ws.state_codes[receiver_ids] == self._ws_covered)]

    def covered_receiver_mask(self, receiver_rows: np.ndarray) -> np.ndarray:
        """Which receivers are currently in the COVERED protocol state."""
        return self.ws.state_codes[receiver_rows] == self._ws_covered

    # ----------------------------------------------------------- kernel inputs
    def padded(self, rows: np.ndarray) -> PaddedSlots:
        """Pad the subset's CSR rows into a dense (len(rows), max_deg) matrix."""
        idx = self._slots.take(rows, axis=0)
        return idx, idx < len(self.nbr_ids)

    def gather(self, rows: np.ndarray, padded: Optional[PaddedSlots] = None) -> SlotBatch:
        """Read every edge column of ``rows`` once (padding them if needed)."""
        idx = self._slots.take(rows, axis=0) if padded is None else padded[0]
        floats = self._floats.take(idx, axis=1)
        positions = self.ws.positions.take(rows, axis=0)
        dx = positions[:, :1] - floats[_PX]
        dy = positions[:, 1:] - floats[_PY]
        return SlotBatch(
            floats, self._flags.take(idx, axis=1), dx, dy, np.sqrt(dx * dx + dy * dy)
        )

    def _fresh(self, valid: np.ndarray, report: np.ndarray, now: float) -> np.ndarray:
        """Valid, non-stale slots (NeighborTable.fresh_records)."""
        if self.staleness_limit is None:
            return valid
        return valid & ((now - report) <= self.staleness_limit)

    def _slot_masks(self, padded: PaddedSlots, now: float) -> Tuple[np.ndarray, np.ndarray]:
        """Gathered flag columns and fresh mask of a padded receiver subset."""
        flags = self._flags.take(padded[0], axis=1)
        report = self._floats[_REPORT].take(padded[0])
        return flags, self._fresh(flags[_VALID], report, now)

    def covered_mask(self, padded: PaddedSlots, now: float) -> np.ndarray:
        """Slots mirroring ``NeighborTable.covered_neighbors``."""
        flags, fresh = self._slot_masks(padded, now)
        return fresh & flags[_IS_COVERED]

    def informative_mask(self, padded: PaddedSlots, now: float) -> np.ndarray:
        """Slots mirroring ``NeighborTable.informative_neighbors``."""
        flags, fresh = self._slot_masks(padded, now)
        return fresh & flags[_INFORMS]

    # --------------------------------------------------------- batch kernels
    def pas_response_estimates(
        self,
        rows: np.ndarray,
        covered_rows: np.ndarray,
        detection_times: np.ndarray,
        now: float,
        *,
        min_reports: int = 1,
    ) -> ResponseEstimates:
        """Everything a PAS RESPONSE batch needs, from one gather.

        ``covered_rows`` marks the COVERED receivers (they refresh their
        actual velocity: ``_refresh_actual_velocity``); the others recompute
        their expected velocity and arrival time (``_recompute_prediction``).
        ``detection_times`` holds each receiver's own detection time (NaN
        when it has none).  Every quantity is computed for every receiver;
        a receiver's apply step reads only the ones its state uses.
        """
        if min_reports < 1:
            raise ValueError("min_reports must be at least 1")
        b = self.gather(rows)
        flags = b.flags
        fresh = self._fresh(flags[_VALID], b.floats[_REPORT], now)
        covered = fresh & flags[_IS_COVERED]
        informative = fresh & flags[_INFORMS]
        colocated = b.dist < ZERO_DISPLACEMENT
        # Three means, each summing x terms, y terms and ones (the count):
        # the backward and outward finite differences over the covered
        # reports, then the mean reported velocity (over the covered reports
        # for a covered receiver, else over the informative ones).
        use = np.empty((3,) + colocated.shape, dtype=bool)
        values = np.empty((3, 3) + colocated.shape)
        _finite_differences(b, detection_times, covered, colocated, values, use)
        np.logical_and(
            np.where(covered_rows[:, None], covered, informative),
            flags[_HAS_VEL],
            out=use[2],
        )
        values[2, :2] = b.floats[_VX : _VY + 1]
        values[2, 2] = 1.0
        means, counts = _masked_means(values, use)
        with np.errstate(divide="ignore", invalid="ignore"):
            estimates = _arrival_estimates(b, informative & flags[_AIMS], colocated)
        return ResponseEstimates(
            means.reshape(6, -1).tolist(),
            counts.tolist(),
            _earliest(estimates, now, min_reports).tolist(),
        )

    def sas_response_estimates(self, rows: np.ndarray, now: float) -> List[float]:
        """SAS arrival estimates for a RESPONSE batch, from one gather."""
        b = self.gather(rows)
        fresh = self._fresh(b.flags[_VALID], b.floats[_REPORT], now)
        covered = fresh & b.flags[_IS_COVERED]
        return _sas_arrival(b, covered, now, None).tolist()

    # ----------------------------------------------------- per-quantity kernels
    def arrival_times_many(
        self, rows: np.ndarray, padded: PaddedSlots, mask: np.ndarray, now: float
    ) -> np.ndarray:
        """Per-slot ``arrival_time_from_neighbor`` over a receiver subset.

        Returns the (len(rows), max_deg) matrix of absolute arrival
        estimates, ``inf`` in uninformative or masked-out lanes.
        """
        b = self.gather(rows, padded)
        with np.errstate(divide="ignore", invalid="ignore"):
            return _arrival_estimates(
                b, mask & b.flags[_AIMS], b.dist < ZERO_DISPLACEMENT
            )

    def expected_arrival_time_many(
        self,
        rows: np.ndarray,
        padded: PaddedSlots,
        mask: np.ndarray,
        now: float,
        *,
        min_reports: int = 1,
    ) -> np.ndarray:
        """Vectorized ``expected_arrival_time`` over a receiver subset."""
        if min_reports < 1:
            raise ValueError("min_reports must be at least 1")
        estimates = self.arrival_times_many(rows, padded, mask, now)
        return _earliest(estimates, now, min_reports)

    def expected_velocity_many(
        self, padded: PaddedSlots, mask: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized ``expected_velocity``: masked mean of reported velocities.

        Returns ``(mean_x, mean_y, count)``; a receiver with ``count == 0``
        has no estimate (scalar returns ``None``) and its mean lanes are 0.
        """
        idx = padded[0]
        use = mask & self._flags[_HAS_VEL].take(idx)
        values = np.ones((1, 3) + idx.shape)
        values[0, :2] = self._floats[_VX : _VY + 1].take(idx, axis=1)
        means, count = _masked_means(values, use[None])
        return means[0, 0], means[0, 1], count[0]

    def actual_velocity_many(
        self,
        rows: np.ndarray,
        detection_times: np.ndarray,
        padded: PaddedSlots,
        mask: np.ndarray,
        *,
        outward: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized ``actual_velocity`` / ``outward_velocity``.

        ``detection_times`` holds each receiver's own detection time (NaN for
        receivers without one, which yields ``count == 0`` exactly like the
        scalar early return).  ``outward=True`` gives ``outward_velocity``.
        """
        b = self.gather(rows, padded)
        use = np.empty((2,) + b.dist.shape, dtype=bool)
        values = np.empty((2, 3) + b.dist.shape)
        _finite_differences(
            b, detection_times, mask, b.dist < ZERO_DISPLACEMENT, values, use
        )
        means, count = _masked_means(values, use)
        lane = 1 if outward else 0
        return means[lane, 0], means[lane, 1], count[lane]

    def sas_arrival_time_many(
        self,
        rows: np.ndarray,
        padded: PaddedSlots,
        mask: np.ndarray,
        now: float,
        fallback_speed: Optional[float] = None,
    ) -> np.ndarray:
        """Vectorized ``sas_arrival_time`` over a receiver subset."""
        return _sas_arrival(self.gather(rows, padded), mask, now, fallback_speed)


# -------------------------------------------------------------- formulas
# Shared by the batch kernels and the per-quantity kernels, so each
# estimator's vectorized spelling exists exactly once.


def _finite_differences(
    b: SlotBatch,
    detection_times: np.ndarray,
    mask: np.ndarray,
    colocated: np.ndarray,
    values: np.ndarray,
    use: np.ndarray,
) -> None:
    """``actual_velocity`` / ``outward_velocity`` terms over the ``mask`` slots.

    Fills lanes 0 (backward) and 1 (outward) of the :func:`_masked_means`
    inputs ``values`` (x and y quotients, ones) and ``use``.  The outward
    elapsed time is exactly ``-elapsed`` (negation is exact), so its
    ``-elapsed >= MIN_ELAPSED_S`` test is ``elapsed <= -MIN_ELAPSED_S`` and
    its quotient ``(-d)/(-elapsed)`` is exactly the backward ``d/elapsed``.
    A NaN detection time (none of its own) fails both tests.
    """
    elapsed = detection_times[:, None] - b.floats[_DET]
    np.greater_equal(elapsed, MIN_ELAPSED_S, out=use[0])
    np.less_equal(elapsed, -MIN_ELAPSED_S, out=use[1])
    use[:2] &= mask & b.flags[_HAS_DET] & ~colocated
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(b.dx, elapsed, out=values[0, 0])
        np.divide(b.dy, elapsed, out=values[0, 1])
    values[0, 2] = 1.0
    values[1] = values[0]


def _arrival_estimates(b: SlotBatch, ready: np.ndarray, colocated: np.ndarray) -> np.ndarray:
    """Per-slot ``arrival_time_from_neighbor`` (inf where not ``ready``).

    ``ready`` must already include the ``aims`` flag.  Call under
    ``np.errstate(divide="ignore", invalid="ignore")``: co-located and
    velocity-less lanes divide by zero, and are discarded by the selection.
    """
    floats = b.floats
    speed = floats[_SPEED]
    ref = floats[_REF]
    cos_theta = (floats[_VX] * b.dx + floats[_VY] * b.dy) / (speed * b.dist)
    cos_theta = np.minimum(1.0, np.maximum(-1.0, cos_theta))
    estimate = np.where(colocated, ref, ref + b.dist * cos_theta / speed)
    return np.where(ready & (colocated | (cos_theta > COS_TOLERANCE)), estimate, np.inf)


def _earliest(estimates: np.ndarray, now: float, min_reports: int) -> np.ndarray:
    """``expected_arrival_time``: the earliest of at least ``min_reports``
    finite per-slot estimates, clamped to ``now``; inf otherwise."""
    if estimates.shape[1] == 0:
        return np.full(estimates.shape[0], np.inf)
    count = np.isfinite(estimates).sum(axis=1)
    # min is order-insensitive (no rounding), so the axis reduction is
    # bit-equal to the scalar sequential min; inf lanes are the identity.
    best = estimates.min(axis=1)
    return np.where(count >= min_reports, np.maximum(now, best), np.inf)


def _sas_arrival(
    b: SlotBatch, mask: np.ndarray, now: float, fallback_speed: Optional[float]
) -> np.ndarray:
    """``sas_arrival_time``: straight-line distance over scalar speed."""
    if b.dist.shape[1] == 0:
        return np.full(b.dist.shape[0], np.inf)
    speed = b.floats[_SPEED]  # 0 where no velocity was reported
    slow = speed < MIN_SPEED
    usable = mask & b.flags[_HAS_DET]
    if fallback_speed is None or fallback_speed < MIN_SPEED:
        usable &= ~slow
    else:
        speed = np.where(slow, fallback_speed, speed)
    with np.errstate(divide="ignore", invalid="ignore"):
        candidate = np.where(usable, b.floats[_DET] + b.dist / speed, np.inf)
    best = candidate.min(axis=1)
    return np.where(np.isfinite(best), np.maximum(now, best), np.inf)


def _masked_means(values: np.ndarray, use: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Masked means over the slot axis, bit-equal to the scalar loops.

    ``values`` is a (lanes, 3, rows, slots) stack of x terms, y terms and
    ones, and ``use`` the (lanes, rows, slots) mask; returns the (lanes, 2,
    rows) means and (lanes, rows) contribution counts (as floats: the sum of
    the used ones, exact for any realistic count).  Masked lanes add exactly
    0.0; the sum is the sequential ``np.add.accumulate`` plus ``+ 0.0`` (see
    the module docstring), so it equals the scalar ``Vec2.zero()``-started
    sum over the used terms in ascending-id order.
    """
    if use.shape[-1] == 0:
        total = np.zeros(values.shape[:-1])
    else:
        masked = np.where(use[:, None], values, 0.0)
        total = np.add.accumulate(masked, axis=-1)[..., -1] + 0.0
    count = total[:, 2]
    return total[:, :2] / np.maximum(count, 1.0)[:, None], count
