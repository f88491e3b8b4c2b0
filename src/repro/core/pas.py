"""The PAS scheduler: Prediction-based Adaptive Sleeping.

The controller follows §3.2--§3.4 of the paper.

State behaviour
---------------
* **COVERED** -- stays awake; answers REQUESTs with a RESPONSE carrying its
  actual-velocity estimate and detection time; leaves for SAFE after the
  stimulus recedes and the detection timeout expires.
* **ALERT** -- stays awake.  On detecting the stimulus it broadcasts a
  REQUEST, computes the *actual velocity* from its covered neighbours'
  responses and then broadcasts a RESPONSE announcing the change.  On a
  REQUEST it answers with a RESPONSE.  On a RESPONSE it recomputes its
  expected arrival time and re-broadcasts a RESPONSE when the estimate changed
  significantly; if the arrival estimate rises above the alert threshold it
  drops back to SAFE and resumes sleeping.
* **SAFE** -- sleeps.  On wake-up it samples its sensor: if the stimulus is
  present it becomes COVERED (this is where detection delay is accrued).
  Otherwise it broadcasts a REQUEST, listens for ``listen_window`` seconds,
  recomputes the expected arrival time and either promotes itself to ALERT
  (estimate below the threshold) or grows its sleep interval by ``delta t``
  -- capped at the maximum sleeping interval -- and goes back to sleep.

The alert threshold is the knob of Figs. 5 and 7: a large threshold enlarges
the awake "alert belt" around the front (low delay, more energy); shrinking
it degenerates PAS towards SAS.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.arrival import expected_arrival_time, time_to_arrival
from repro.core.config import PASConfig
from repro.core.controller import NodeController, WorldServices
from repro.core.neighbors import NeighborInfo, NeighborTable
from repro.core.scheduler_base import SleepScheduler
from repro.core.sleep_policy import make_sleep_policy
from repro.core.states import ProtocolState, StateMachine
from repro.core.velocity import (
    actual_velocity,
    blend_velocities,
    expected_velocity,
    outward_velocity,
)
from repro.geometry.vec import Vec2
from repro.network.messages import Message, Request, Response
from repro.node.sensor import SensorNode
from repro.obs import telemetry as _telemetry
from repro.sim.events import EventHandle


#: Golden-ratio conjugate used to derive per-node clock phases: consecutive
#: node ids map to maximally spread fractions of the base sleep interval.
_PHASE_RATIO = 0.6180339887498949


class PASController(NodeController):
    """Per-node PAS logic."""

    # Every effective SAFE/ALERT/COVERED transition flows through the state
    # machine's change hook into world.notify_state_change, so the columnar
    # world state can mirror this controller exactly (see repro.world.state).
    state_sync = "reported"

    # The batched engine may wire the columnar estimation layer
    # (repro.core.estimation) for fleets of this controller class: RESPONSE
    # fan-in batches are then estimated by vectorized kernels and REQUEST
    # batches answered from WorldState-style columns (handle_batch_columnar).
    columnar_estimation = True

    def __init__(self, node: SensorNode, world: WorldServices, config: PASConfig) -> None:
        super().__init__(node, world)
        self.config = config
        self.machine = StateMachine(
            ProtocolState.SAFE, on_change=self._record_state_change
        )
        self.neighbors = NeighborTable()
        self.sleep_policy = make_sleep_policy(config)
        #: bound EstimationColumns (None on the scalar path); set before the
        #: estimate fields so their setters can consult it
        self._est = None
        #: current spreading-velocity estimate (actual or expected)
        self._velocity: Optional[Vec2] = None
        #: absolute predicted arrival time of the stimulus at this node
        self._predicted_arrival: float = math.inf
        #: absolute time of this node's own stimulus detection
        self._detection_time: Optional[float] = None
        #: pending "decide after listen window" event
        self._decision_handle: Optional[EventHandle] = None
        #: pending covered -> safe timeout event
        self._timeout_handle: Optional[EventHandle] = None
        # message counters used by tests and the metrics layer
        self.requests_sent = 0
        self.responses_sent = 0

    # --------------------------------------------------------------- helpers
    @property
    def state(self) -> ProtocolState:
        """Current protocol state."""
        return self.machine.state

    # The three knowledge fields are write-through properties: when the
    # columnar estimation layer is bound, every assignment refreshes the
    # per-node ``knows`` column so REQUEST batches can evaluate
    # ``_has_knowledge`` without touching this object.
    @property
    def velocity(self) -> Optional[Vec2]:
        """Current spreading-velocity estimate (actual or expected)."""
        return self._velocity

    @velocity.setter
    def velocity(self, value: Optional[Vec2]) -> None:
        self._velocity = value
        if self._est is not None:
            self._est.set_knowledge(self.node.id, self._has_knowledge())

    @property
    def predicted_arrival(self) -> float:
        """Absolute predicted arrival time of the stimulus at this node."""
        return self._predicted_arrival

    @predicted_arrival.setter
    def predicted_arrival(self, value: float) -> None:
        self._predicted_arrival = value
        if self._est is not None:
            self._est.set_knowledge(self.node.id, self._has_knowledge())

    @property
    def detection_time(self) -> Optional[float]:
        """Absolute time of this node's own stimulus detection."""
        return self._detection_time

    @detection_time.setter
    def detection_time(self, value: Optional[float]) -> None:
        self._detection_time = value
        if self._est is not None:
            self._est.set_knowledge(self.node.id, self._has_knowledge())

    def bind_estimation(self, est) -> None:
        """Attach the fleet's :class:`~repro.core.estimation.EstimationColumns`."""
        self._est = est
        est.register_controller(self.node.id, self)
        est.set_knowledge(self.node.id, self._has_knowledge())
        self.neighbors.bind_columns(est, self.node.id)

    @property
    def state_name(self) -> str:
        return self.machine.state.value

    def _record_state_change(
        self, time: float, old: ProtocolState, new: ProtocolState, reason: str
    ) -> None:
        self.world.notify_state_change(self.node.id, time, old.value, new.value)

    def _build_response(self) -> Response:
        velocity = None if self.velocity is None else (self.velocity.x, self.velocity.y)
        return Response(
            sender_id=self.node.id,
            timestamp=self.world.now,
            position=(self.node.position.x, self.node.position.y),
            state=self.machine.state.value,
            velocity=velocity,
            predicted_arrival=self.predicted_arrival,
            detection_time=self.detection_time,
        )

    def _send_request(self) -> None:
        self.requests_sent += 1
        self.world.broadcast(
            self.node.id, Request(sender_id=self.node.id, timestamp=self.world.now)
        )

    def _send_response(self) -> None:
        self.responses_sent += 1
        self.world.broadcast(self.node.id, self._build_response())

    def _cancel_decision(self) -> None:
        if self._decision_handle is not None:
            self.world.cancel(self._decision_handle)
            self._decision_handle = None

    def _cancel_timeout(self) -> None:
        if self._timeout_handle is not None:
            self.world.cancel(self._timeout_handle)
            self._timeout_handle = None

    # -------------------------------------------------------------- lifecycle
    def _initial_phase(self) -> float:
        """Per-node clock phase for the very first sleep.

        Sensor nodes are never booted at the exact same instant and their
        clocks drift, so their wake-up schedules are mutually desynchronised.
        Without this offset every node would wake at identical times and two
        neighbouring nodes would detect the stimulus *simultaneously*, which
        starves the actual-velocity estimator of the elapsed-time signal it
        needs (`t_I` in the §3.3 formula would always be zero).  The phase is
        a deterministic function of the node id so that a scenario replayed
        with a different scheduler sees the exact same clock offsets.
        """
        frac = (self.node.id * _PHASE_RATIO) % 1.0
        return (0.1 + 0.9 * frac) * self.config.base_sleep_interval

    def start(self) -> None:
        """All nodes start SAFE; immediately enter the sleep/probe cycle."""
        now = self.world.now
        if self.world.sense(self.node.id):
            self._become_covered(now)
            return
        self.sleep_node(self._initial_phase(), self._on_safe_wake)

    def finalize(self, end_time: float) -> None:
        self._cancel_decision()
        self._cancel_timeout()
        super().finalize(end_time)

    # --------------------------------------------------------------- sensing
    def on_stimulus_arrival(self) -> None:
        """The stimulus reached an awake node (covered/alert -> covered)."""
        if self.node.is_failed:
            return
        if self.machine.state == ProtocolState.COVERED:
            return
        self._become_covered(self.world.now)

    def on_stimulus_departure(self) -> None:
        """The stimulus receded from a covered node: arm the detection timeout.

        The world model may report the departure repeatedly (it re-checks
        covered nodes periodically); the countdown must keep running across
        those repeats, so an already armed timeout is left alone.
        """
        if self.machine.state != ProtocolState.COVERED:
            return
        if self._timeout_handle is not None:
            return
        self._timeout_handle = self.world.schedule_in(
            self.config.detection_timeout,
            self._on_detection_timeout,
            name=f"node{self.node.id}:detection-timeout",
        )

    def _on_detection_timeout(self) -> None:
        self._timeout_handle = None
        if self.machine.state != ProtocolState.COVERED:
            return
        # The stimulus may have come back during the timeout window.
        if self.world.sense(self.node.id):
            return
        self.machine.transition(ProtocolState.SAFE, self.world.now, "detection timeout")
        self.detection_time = None
        self.sleep_policy.reset()
        self._go_safe_sleep()

    # -------------------------------------------------------------- messages
    def on_message(self, message: Message) -> None:
        if self.node.is_failed or not self.node.is_awake:
            return
        if isinstance(message, Request):
            self._handle_request()
        elif isinstance(message, Response):
            self._handle_response(message)

    @classmethod
    def handle_batch(cls, controllers, message: Message) -> None:
        """Batched fan-in: one type dispatch for the whole receiver group.

        Behaviourally identical to calling :meth:`on_message` per controller
        in order (the batched bus's bit-identity contract); the per-receiver
        ``isinstance`` dispatch is hoisted out of the loop.  SAS inherits
        this verbatim -- its overridden ``_handle_request`` /
        ``_handle_response`` supply the divergent behaviour.
        """
        with _telemetry.phase("apply_loop"):
            if isinstance(message, Request):
                for controller in controllers:
                    node = controller.node
                    if node.is_failed or not node.is_awake:
                        continue
                    controller._handle_request()
            elif isinstance(message, Response):
                for controller in controllers:
                    node = controller.node
                    if node.is_failed or not node.is_awake:
                        continue
                    controller._handle_response(message)
            else:  # unknown message kinds keep the scalar path
                for controller in controllers:
                    controller.on_message(message)

    # ----------------------------------------------------- columnar batching
    @classmethod
    def handle_batch_columnar(cls, est, receiver_ids, message: Message, now: float) -> None:
        """Columnar fan-in: answer a whole batch with vectorized kernels.

        Behaviourally identical to :meth:`handle_batch` (and hence to
        per-receiver ``on_message`` in delivery order); ``est`` is the
        fleet's :class:`~repro.core.estimation.EstimationColumns`.

        * REQUEST batches take the fast path: the responder set is computed
          from the awake/failed/state/knowledge columns and only actual
          responders run any Python controller code.
        * RESPONSE batches are mirrored into the columns with one vectorized
          write, estimated by one batch kernel call over all receivers, and
          the results applied per receiver *in delivery order* -- preserving
          the broadcast (and hence RNG-draw and event-insertion) order of
          the scalar loop.
        """
        if isinstance(message, Request):
            with _telemetry.phase("estimation_kernel"):
                responders = est.controllers_of(
                    cls._request_responder_rows(est, receiver_ids)
                )
            with _telemetry.phase("apply_loop"):
                for controller in responders:
                    controller._send_response()
        elif isinstance(message, Response):
            cls._handle_response_batch(est, receiver_ids, message, now)
        else:  # unknown message kinds keep the object path
            cls.handle_batch(est.controllers_of(receiver_ids), message)

    @classmethod
    def _request_responder_rows(cls, est, receiver_ids):
        """Receivers that answer a REQUEST (PAS rule; SAS overrides)."""
        return est.pas_request_responders(receiver_ids)

    @classmethod
    def _handle_response_batch(cls, est, receiver_ids, response: Response, now: float) -> None:
        rows = est.alive_rows(receiver_ids)
        if rows.size == 0:
            return
        # One shared immutable record serves every receiver's table (the
        # scalar path builds per-receiver copies with identical contents).
        info = NeighborInfo.from_response(response, now)
        est.record_response_batch(response.sender_id, rows, info)
        controllers = est.controllers_of(rows)
        for controller in controllers:
            controller.neighbors.store_newest(info)
        cls._estimate_and_apply(est, rows, controllers, now)

    @classmethod
    def _estimate_and_apply(cls, est, rows, controllers, now: float) -> None:
        """Kernel phase + delivery-ordered apply phase for a RESPONSE batch.

        Receivers are independent within a batch (a controller owns exactly
        one node and broadcasts only schedule *future* deliveries), so all
        estimates may be computed up front; only the apply loop -- which
        broadcasts and transitions states -- must run in delivery order.
        The scheduler-specific halves are :meth:`_batch_estimates` and
        :meth:`_apply_batch`.
        """
        telemetry = _telemetry.active()
        if telemetry is not None:
            telemetry.count("est.response_batches")
            telemetry.observe("est.fanin", int(rows.size))
        with _telemetry.phase("estimation_kernel"):
            covered = est.covered_receiver_mask(rows)
            estimates = cls._batch_estimates(est, rows, covered, controllers, now)
        with _telemetry.phase("apply_loop"):
            cls._apply_batch(controllers, covered.tolist(), estimates)

    @classmethod
    def _batch_estimates(cls, est, rows, covered, controllers, now: float):
        """PAS: actual-velocity refresh inputs and arrival predictions."""
        detection_times = np.array(
            [
                np.nan if c._detection_time is None else c._detection_time
                for c in controllers
            ],
            dtype=float,
        )
        return est.pas_response_estimates(
            rows,
            covered,
            detection_times,
            now,
            min_reports=controllers[0].config.min_neighbors_for_estimate,
        )

    @staticmethod
    def _apply_batch(controllers, covered, estimates) -> None:
        means, counts, arrival = estimates
        for controller, is_covered, bx, by, fx, fy, mx, my, bn, fn, mn, pred in zip(
            controllers, covered, *means, *counts, arrival
        ):
            if is_covered:
                controller._apply_covered_refresh(bx, by, bn, fx, fy, fn, mx, my, mn)
            else:
                controller._apply_prediction(mx, my, mn, pred)

    def _apply_covered_refresh(
        self, bx, by, bn, fx, fy, fn, mx, my, mn
    ) -> None:
        """Apply precomputed kernels exactly as ``_refresh_actual_velocity``.

        ``(bx, by, bn)`` / ``(fx, fy, fn)`` / ``(mx, my, mn)`` are the
        backward finite-difference, outward finite-difference and
        covered-mean velocity (x, y, contribution count) for this receiver,
        as Python floats; a zero count means the scalar estimator would have
        returned ``None``.
        """
        if self._detection_time is None:
            return
        had_estimate = self._velocity is not None
        if bn:
            estimate = Vec2(bx, by)
        elif fn:
            estimate = Vec2(fx, fy)
        else:
            estimate = None
        if estimate is not None:
            self.velocity = blend_velocities(self._velocity, estimate, 0.5)
        elif self._velocity is None:
            self.velocity = Vec2(mx, my) if mn else None
        if self._velocity is not None and not had_estimate:
            self._send_response()

    def _apply_prediction(self, vx, vy, vn, pred) -> None:
        """Apply precomputed kernels exactly as the uncovered RESPONSE path."""
        previous = self._predicted_arrival
        if vn:
            self.velocity = Vec2(vx, vy)
        self.predicted_arrival = pred
        if self.machine.state == ProtocolState.ALERT:
            if self._changed_significantly(previous, pred):
                self._send_response()
            self._evaluate_alert_membership()

    def _handle_request(self) -> None:
        """Any awake node answers a REQUEST with its current knowledge."""
        if self.machine.state == ProtocolState.SAFE and not self._has_knowledge():
            # A safe node with nothing to report stays quiet; answering with
            # an empty RESPONSE would only burn energy.
            return
        self._send_response()

    def _has_knowledge(self) -> bool:
        return (
            self._velocity is not None
            or self._detection_time is not None
            or math.isfinite(self._predicted_arrival)
        )

    def _handle_response(self, response: Response) -> None:
        self.neighbors.update_from_response(response, self.world.now)
        state = self.machine.state
        if state == ProtocolState.COVERED:
            # Covered nodes only refine their velocity estimate.
            self._refresh_actual_velocity()
            return
        previous = self.predicted_arrival
        self._recompute_prediction()
        if state == ProtocolState.ALERT:
            if self._changed_significantly(previous, self.predicted_arrival):
                self._send_response()
            self._evaluate_alert_membership()
        elif state == ProtocolState.SAFE and self.node.is_awake:
            # A safe node that is briefly awake (listen window) just keeps the
            # refreshed estimate; the pending decision event will act on it.
            pass

    def _changed_significantly(self, old: float, new: float) -> bool:
        if math.isinf(old) and math.isinf(new):
            return False
        if math.isinf(old) != math.isinf(new):
            return True
        reference = max(abs(old - self.world.now), self.config.listen_window)
        return abs(new - old) > self.config.significant_change * reference

    # ------------------------------------------------------------ estimation
    def _recompute_prediction(self) -> None:
        """Refresh the expected velocity and expected arrival time."""
        if not self.neighbors and self.config.min_neighbors_for_estimate >= 1:
            # Empty table: expected_velocity([]) is None (velocity unchanged)
            # and expected_arrival_time(..., []) is inf -- skip the filtering
            # and estimator calls entirely.
            self.predicted_arrival = math.inf
            return
        now = self.world.now
        informative = self.neighbors.informative_neighbors(now)
        velocity = expected_velocity(informative)
        if velocity is not None:
            self.velocity = velocity
        self.predicted_arrival = expected_arrival_time(
            self.node.position,
            informative,
            now,
            min_reports=self.config.min_neighbors_for_estimate,
        )

    def _refresh_actual_velocity(self) -> None:
        """Recompute the actual velocity as fresh covered reports arrive.

        A covered node keeps refining its estimate over its whole covered
        lifetime: backwards from earlier-covered neighbours (§3.3), forwards
        from later-covered neighbours (the first sensors engulfed have no
        earlier neighbour to learn from), and -- failing both -- by adopting
        the mean of the velocities its covered neighbours report.  When this
        turns a node without any estimate into one with an estimate, it
        announces the change with a single RESPONSE so the knowledge keeps
        propagating towards the boundary.
        """
        if self.detection_time is None:
            return
        had_estimate = self.velocity is not None
        now = self.world.now
        covered = self.neighbors.covered_neighbors(now)
        estimate = actual_velocity(self.node.position, self.detection_time, covered)
        if estimate is None:
            estimate = outward_velocity(self.node.position, self.detection_time, covered)
        if estimate is not None:
            self.velocity = blend_velocities(self.velocity, estimate, 0.5)
        elif self.velocity is None:
            self.velocity = expected_velocity(covered)
        if self.velocity is not None and not had_estimate:
            self._send_response()

    # ------------------------------------------------------- covered handling
    def _become_covered(self, now: float) -> None:
        """Detection: record it, estimate the actual velocity, announce it."""
        self.cancel_pending_wake()
        self._cancel_decision()
        self.wake_node()
        self.detection_time = now
        self.predicted_arrival = now
        self.machine.transition(ProtocolState.COVERED, now, "stimulus detected")
        self.world.notify_detection(self.node.id, now)
        # §3.2 alert-state detection behaviour: REQUEST first, then compute the
        # actual velocity from the responses, then announce with a RESPONSE.
        self._send_request()
        self._decision_handle = self.world.schedule_in(
            self.config.listen_window,
            self._after_covered_listen,
            name=f"node{self.node.id}:covered-listen",
        )

    def _after_covered_listen(self) -> None:
        self._decision_handle = None
        if self.machine.state != ProtocolState.COVERED:
            return
        covered = self.neighbors.covered_neighbors(self.world.now)
        estimate = actual_velocity(self.node.position, self.detection_time, covered)
        if estimate is not None:
            self.velocity = estimate
        self._send_response()

    # --------------------------------------------------------- alert handling
    def _evaluate_alert_membership(self) -> None:
        """Check whether an alert node should stay alert or fall back to safe."""
        remaining = time_to_arrival(self.predicted_arrival, self.world.now)
        if remaining <= self.config.alert_threshold:
            return
        self.machine.transition(ProtocolState.SAFE, self.world.now, "arrival receded")
        self.sleep_policy.reset()
        self._go_safe_sleep()

    # ---------------------------------------------------------- safe handling
    def _go_safe_sleep(self) -> None:
        """Sleep for the policy's next interval, then run the wake-up routine."""
        duration = self.sleep_policy.next_interval()
        self.sleep_node(duration, self._on_safe_wake)

    def _on_safe_wake(self) -> None:
        """§3.2 safe-state behaviour on wake-up."""
        now = self.world.now
        if self.node.is_failed:
            return
        if self.world.sense(self.node.id):
            self._become_covered(now)
            return
        # Probe the neighbourhood, then decide after the listen window.
        self._send_request()
        self._cancel_decision()
        self._decision_handle = self.world.schedule_in(
            self.config.listen_window,
            self._after_safe_listen,
            name=f"node{self.node.id}:safe-listen",
        )

    def _after_safe_listen(self) -> None:
        self._decision_handle = None
        if self.machine.state != ProtocolState.SAFE or not self.node.is_awake:
            return
        now = self.world.now
        # The stimulus may have arrived during the listen window.
        if self.world.sense(self.node.id):
            self._become_covered(now)
            return
        self._recompute_prediction()
        remaining = time_to_arrival(self.predicted_arrival, now)
        if remaining <= self.config.alert_threshold:
            self.machine.transition(ProtocolState.ALERT, now, "arrival imminent")
            self.sleep_policy.reset()
            # Announce the new alert estimate so sleeping neighbours that wake
            # later can pick it up ("helps distribute the estimations", §3.1).
            self._send_response()
            return
        # Still safe: grow the sleep interval and go back to sleep (§3.4).
        self._go_safe_sleep()


class PASScheduler(SleepScheduler):
    """Factory building :class:`PASController` instances."""

    name = "PAS"

    def __init__(self, config: Optional[PASConfig] = None) -> None:
        super().__init__(config or PASConfig())

    def create_controller(self, node: SensorNode, world: WorldServices) -> PASController:
        return PASController(node, world, self.config)  # type: ignore[arg-type]
