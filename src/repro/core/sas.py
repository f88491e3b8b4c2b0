"""The SAS baseline (Stimulus-based Adaptive Sleeping, Ngan et al., ICPP'05).

The paper positions SAS as the only prior scheme comparable to PAS and
describes the differences it exploits:

* SAS uses "a simple method for the local velocity estimation" -- implemented
  here as a scalar (direction-less) speed averaged from the covered
  neighbours' detection times.
* SAS exchanges stimulus information only in the immediate neighbourhood of
  covered sensors: alert/safe nodes do not relay estimates, so the alerted
  region is at most one hop beyond the front ("PAS allows the DS information
  to be exchanged in a larger field of sensors than SAS", §3.1).
* The paper's analysis sees SAS as PAS with a sharply reduced alert
  threshold.

Consequently :class:`SASController` reuses the PAS state machine and sleeping
machinery but (a) anchors its arrival estimate on covered neighbours only,
using straight-line distance over scalar speed, and (b) never re-broadcasts
estimates from the alert state.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.arrival import sas_arrival_time, time_to_arrival
from repro.core.config import SASConfig
from repro.core.controller import WorldServices
from repro.core.pas import PASController
from repro.core.scheduler_base import SleepScheduler
from repro.core.states import ProtocolState
from repro.core.velocity import scalar_speed_estimate
from repro.geometry.vec import Vec2
from repro.network.messages import Response
from repro.node.sensor import SensorNode


class SASController(PASController):
    """Per-node SAS logic (a deliberately degenerate PAS)."""

    # ------------------------------------------------------------ estimation
    def _recompute_prediction(self) -> None:
        """SAS estimate: covered neighbours only, scalar speed, straight line."""
        if not self.neighbors:
            # Empty table: sas_arrival_time(..., []) is inf.
            self.predicted_arrival = math.inf
            return
        now = self.world.now
        covered = self.neighbors.covered_neighbors(now)
        self.predicted_arrival = sas_arrival_time(self.node.position, covered, now)
        # SAS keeps no vector velocity for uncovered nodes.

    # ----------------------------------------------------- columnar batching
    @classmethod
    def _request_responder_rows(cls, est, receiver_ids):
        """SAS rule: only COVERED receivers answer a REQUEST."""
        return est.sas_request_responders(receiver_ids)

    @classmethod
    def _batch_estimates(cls, est, rows, covered, controllers, now: float):
        """SAS: covered-neighbour arrival estimates (covered receivers ignore
        the batch, so theirs go unused)."""
        return est.sas_response_estimates(rows, now)

    @staticmethod
    def _apply_batch(controllers, covered, estimates) -> None:
        for controller, is_covered, pred in zip(controllers, covered, estimates):
            if not is_covered:
                controller._apply_sas_prediction(pred)

    def _apply_sas_prediction(self, pred: float) -> None:
        """Apply a precomputed SAS arrival estimate (uncovered receiver)."""
        self.predicted_arrival = pred
        if self.machine.state == ProtocolState.ALERT:
            self._evaluate_alert_membership()

    def _after_covered_listen(self) -> None:
        """On detection SAS estimates a scalar local speed and announces it."""
        self._decision_handle = None
        if self.machine.state != ProtocolState.COVERED:
            return
        covered = self.neighbors.covered_neighbors(self.world.now)
        speed = scalar_speed_estimate(self.node.position, self.detection_time, covered)
        if speed is not None:
            # Encode the scalar estimate as a vector of that magnitude pointing
            # away from the neighbourhood centroid so the message format stays
            # shared; receivers only use its norm.
            direction = self._away_from_neighbors(covered)
            self.velocity = direction * speed
        self._send_response()

    def _away_from_neighbors(self, covered) -> Vec2:
        """Unit vector pointing from the covered neighbours towards this node."""
        if not covered:
            return Vec2(1.0, 0.0)
        cx = sum(info.position.x for info in covered) / len(covered)
        cy = sum(info.position.y for info in covered) / len(covered)
        offset = self.node.position - Vec2(cx, cy)
        if offset.is_zero():
            return Vec2(1.0, 0.0)
        return offset.normalized()

    # -------------------------------------------------------------- messages
    def _handle_response(self, response: Response) -> None:
        """SAS nodes use responses but never relay estimates from ALERT."""
        self.neighbors.update_from_response(response, self.world.now)
        state = self.machine.state
        if state == ProtocolState.COVERED:
            return
        self._recompute_prediction()
        if state == ProtocolState.ALERT:
            self._evaluate_alert_membership()

    def _handle_request(self) -> None:
        """Only covered nodes answer REQUESTs in SAS."""
        if self.machine.state != ProtocolState.COVERED:
            return
        self._send_response()

    # ---------------------------------------------------------- safe handling
    def _after_safe_listen(self) -> None:
        """Same wake-up decision as PAS but without the alert announcement."""
        self._decision_handle = None
        if self.machine.state != ProtocolState.SAFE or not self.node.is_awake:
            return
        now = self.world.now
        if self.world.sense(self.node.id):
            self._become_covered(now)
            return
        self._recompute_prediction()
        remaining = time_to_arrival(self.predicted_arrival, now)
        if remaining <= self.config.alert_threshold:
            self.machine.transition(ProtocolState.ALERT, now, "arrival imminent")
            self.sleep_policy.reset()
            return
        self._go_safe_sleep()


class SASScheduler(SleepScheduler):
    """Factory building :class:`SASController` instances."""

    name = "SAS"

    def __init__(self, config: Optional[SASConfig] = None) -> None:
        super().__init__(config or SASConfig())

    def create_controller(self, node: SensorNode, world: WorldServices) -> SASController:
        return SASController(node, world, self.config)  # type: ignore[arg-type]
