"""Scenario configuration.

A scenario captures the world the paper's §4.1 describes -- "a number of
sensors are employed to monitor stimulus diffusion in a specified region" --
independently of which sleep scheduler is being evaluated, so that a sweep
can replay the *identical* deployment and stimulus for PAS, SAS and NS.

The paper's default setup (30 nodes, 10 m transmission range) is encoded as
the default values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Sequence

from repro.geometry.deployment import DeploymentConfig


@dataclass(frozen=True)
class StimulusConfig:
    """Declarative description of the stimulus used in a scenario.

    Attributes
    ----------
    kind:
        One of ``"circular"``, ``"anisotropic"``, ``"plume"``,
        ``"advection_diffusion"``.
    source:
        Release point; ``None`` places the source at the region centre.
    speed:
        Radial speed (m/s) for the circular model, or the mean sector speed
        for the anisotropic model.
    start_time:
        Release time (seconds after simulation start).
    anisotropy:
        Relative spread of per-sector speeds for the anisotropic model
        (0 = isotropic, 0.5 = sector speeds vary +/-50 % around ``speed``).
    num_sectors:
        Number of direction sectors for the anisotropic model.
    extra:
        Passed through to the model constructor (plume / PDE parameters).
    """

    kind: str = "circular"
    source: Optional[Sequence[float]] = None
    speed: float = 1.0
    start_time: float = 0.0
    anisotropy: float = 0.4
    num_sectors: int = 8
    extra: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ("circular", "anisotropic", "plume", "advection_diffusion"):
            raise ValueError(f"unknown stimulus kind {self.kind!r}")
        if self.speed <= 0:
            raise ValueError("speed must be positive")
        if self.start_time < 0:
            raise ValueError("start_time must be non-negative")
        if not 0 <= self.anisotropy < 1:
            raise ValueError("anisotropy must lie in [0, 1)")
        if self.num_sectors < 3:
            raise ValueError("num_sectors must be at least 3")


@dataclass(frozen=True)
class FaultConfig:
    """Fault-injection settings (paper future work; disabled by default).

    Attributes
    ----------
    node_failure_rate:
        Mean failures per node per hour (exponential inter-failure model);
        0 disables node failures.
    message_loss_probability:
        Per-frame loss probability of the lossy channel; 0 keeps the perfect
        channel.
    channel_jitter_s:
        Upper bound of per-frame extra latency for the lossy channel.
    """

    node_failure_rate: float = 0.0
    message_loss_probability: float = 0.0
    channel_jitter_s: float = 0.0

    def __post_init__(self) -> None:
        if self.node_failure_rate < 0:
            raise ValueError("node_failure_rate must be non-negative")
        if not 0 <= self.message_loss_probability <= 1:
            raise ValueError("message_loss_probability must lie in [0, 1]")
        if self.channel_jitter_s < 0:
            raise ValueError("channel_jitter_s must be non-negative")

    @property
    def any_faults(self) -> bool:
        """True when any fault mechanism is enabled."""
        return (
            self.node_failure_rate > 0
            or self.message_loss_probability > 0
            or self.channel_jitter_s > 0
        )


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything about the monitored world except the sleep scheduler.

    Attributes
    ----------
    deployment:
        Node placement description (30 uniformly random nodes by default, as
        in §4.2).
    transmission_range:
        Unit-disk communication range in metres (10 m in the paper).
    stimulus:
        Stimulus description.
    duration:
        Simulated wall-clock length of the run in seconds; ``None`` chooses a
        duration long enough for the default circular stimulus to sweep the
        deployment diagonal plus a 20 % margin.
    seed:
        Master seed for every random stream in the run.
    sensing_noise:
        Optional ``(miss_probability, false_alarm_probability)``; ``None``
        keeps perfect sensing.
    faults:
        Fault-injection settings.
    label:
        Free-form tag carried into run summaries (sweep bookkeeping).
    """

    deployment: DeploymentConfig = field(default_factory=DeploymentConfig)
    transmission_range: float = 10.0
    stimulus: StimulusConfig = field(default_factory=StimulusConfig)
    duration: Optional[float] = None
    seed: int = 0
    sensing_noise: Optional[Sequence[float]] = None
    faults: FaultConfig = field(default_factory=FaultConfig)
    label: str = ""

    def __post_init__(self) -> None:
        # Non-finite values are rejected here: an infinite duration never
        # ends, and NaN slips past every ``<= 0`` check.
        if not math.isfinite(self.transmission_range):
            raise ValueError("transmission_range must be finite")
        if self.transmission_range <= 0:
            raise ValueError("transmission_range must be positive")
        if self.duration is not None and not math.isfinite(self.duration):
            raise ValueError("duration must be finite when given")
        if self.duration is not None and self.duration <= 0:
            raise ValueError("duration must be positive when given")
        if self.sensing_noise is not None:
            miss, false_alarm = self.sensing_noise
            if not 0 <= miss <= 1 or not 0 <= false_alarm <= 1:
                raise ValueError("sensing_noise probabilities must lie in [0, 1]")

    # ------------------------------------------------------------ conveniences
    def effective_duration(self) -> float:
        """The run length to simulate (derives a default from the geometry)."""
        if self.duration is not None:
            return self.duration
        diagonal = math.hypot(self.deployment.width, self.deployment.height)
        return self.stimulus.start_time + 1.2 * diagonal / self.stimulus.speed

    def stimulus_source(self) -> Sequence[float]:
        """The stimulus release point (region centre when unspecified)."""
        if self.stimulus.source is not None:
            return self.stimulus.source
        return (self.deployment.width / 2.0, self.deployment.height / 2.0)

    def with_overrides(self, **changes: Any) -> "ScenarioConfig":
        """Copy with top-level fields replaced (sweep helper)."""
        return replace(self, **changes)

    def describe(self) -> Dict[str, Any]:
        """Flat description used in run summaries."""
        return {
            "num_nodes": self.deployment.num_nodes,
            "area": f"{self.deployment.width}x{self.deployment.height}",
            "deployment": self.deployment.kind,
            "transmission_range": self.transmission_range,
            "stimulus": self.stimulus.kind,
            "stimulus_speed": self.stimulus.speed,
            "duration_s": self.effective_duration(),
            "seed": self.seed,
            "label": self.label,
        }
