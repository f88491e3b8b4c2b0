"""Build and run monitoring simulations from declarative configurations."""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from repro.core.scheduler_base import SleepScheduler
from repro.engine import ENGINES, BatchMedium
from repro.faults.failure import NodeFailureInjector
from repro.geometry.deployment import make_deployment
from repro.geometry.vec import Vec2
from repro.metrics.summary import RunSummary
from repro.network.channel import ChannelModel, LossyChannel, PerfectChannel
from repro.network.medium import BroadcastMedium
from repro.network.topology import Topology
from repro.node.sensing import NoisySensing, PerfectSensing, SensingModel
from repro.node.sensor import SensorNode
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.stimulus.advection_diffusion import AdvectionDiffusionStimulus
from repro.stimulus.anisotropic import AnisotropicFrontStimulus
from repro.stimulus.base import StimulusModel
from repro.stimulus.circular import CircularFrontStimulus
from repro.stimulus.plume import GaussianPlumeStimulus
from repro.world.scenario import ScenarioConfig, StimulusConfig
from repro.world.simulation import MonitoringSimulation


def build_stimulus(
    config: StimulusConfig, scenario: ScenarioConfig, rng: np.random.Generator
) -> StimulusModel:
    """Materialise the stimulus model described by ``config``.

    The anisotropic model draws its per-sector speeds from the ``stimulus``
    random stream so that, for a fixed seed, every scheduler sees the same
    irregular front.
    """
    source = scenario.stimulus_source()
    if config.kind == "circular":
        return CircularFrontStimulus(
            source, speed=config.speed, start_time=config.start_time, **config.extra
        )
    if config.kind == "anisotropic":
        if config.anisotropy > 0:
            factors = rng.uniform(
                1.0 - config.anisotropy, 1.0 + config.anisotropy, size=config.num_sectors
            )
        else:
            factors = np.ones(config.num_sectors)
        speeds = np.clip(config.speed * factors, 1e-3, None)
        return AnisotropicFrontStimulus(
            source, speeds, start_time=config.start_time, **config.extra
        )
    if config.kind == "plume":
        extra = dict(config.extra)
        extra.setdefault("wind", (config.speed, 0.0))
        return GaussianPlumeStimulus(source, start_time=config.start_time, **extra)
    if config.kind == "advection_diffusion":
        extra = dict(config.extra)
        extra.setdefault("velocity", (config.speed * 0.5, 0.0))
        return AdvectionDiffusionStimulus(
            (scenario.deployment.width, scenario.deployment.height),
            source=source,
            start_time=config.start_time,
            **extra,
        )
    raise ValueError(f"unknown stimulus kind {config.kind!r}")


def build_sensing(config: ScenarioConfig, rng: np.random.Generator) -> SensingModel:
    """Perfect sensing unless the scenario requests noise."""
    if config.sensing_noise is None:
        return PerfectSensing()
    miss, false_alarm = config.sensing_noise
    return NoisySensing(miss, false_alarm, rng=rng)


def build_channel(config: ScenarioConfig, rng: np.random.Generator) -> ChannelModel:
    """Perfect channel unless the fault configuration enables loss/jitter."""
    faults = config.faults
    if faults.message_loss_probability > 0 or faults.channel_jitter_s > 0:
        return LossyChannel(
            faults.message_loss_probability,
            jitter_s=faults.channel_jitter_s,
            rng=rng,
        )
    return PerfectChannel()


def build_simulation(
    scenario: ScenarioConfig,
    scheduler: SleepScheduler,
    *,
    occupancy_sample_interval: Optional[float] = None,
    engine: str = "scalar",
    estimation: str = "columnar",
) -> MonitoringSimulation:
    """Assemble a runnable :class:`MonitoringSimulation`.

    The same ``scenario`` (same seed) always yields the same deployment,
    stimulus and fault schedule regardless of the scheduler, which is what
    makes the PAS / SAS / NS comparison in the figures apples-to-apples.

    ``engine`` selects the message path: ``"scalar"`` is the reference
    per-receiver broadcast loop; ``"batched"`` swaps in the columnar message
    bus from :mod:`repro.engine`.  Both run on the same binary-heap event
    core.  Seeded results are bit-identical either way -- the engine is a
    speed knob, not a model change.

    ``estimation`` selects the controller-estimation path on the batched
    engine: ``"columnar"`` (default) answers whole REQUEST/RESPONSE batches
    with the vectorized kernels of :mod:`repro.core.estimation`;
    ``"scalar"`` keeps the per-neighbour reference estimators.  Also a pure
    speed knob -- seeded results are bit-identical -- kept selectable so the
    equivalence suite and benchmarks can compare the two paths.  The scalar
    engine always uses scalar estimation.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    streams = RandomStreams(scenario.seed)
    positions = make_deployment(scenario.deployment, streams.get("deployment"))
    stimulus = build_stimulus(scenario.stimulus, scenario, streams.get("stimulus"))
    sensing = build_sensing(scenario, streams.get("sensing"))
    channel = build_channel(scenario, streams.get("channel"))

    nodes: Dict[int, SensorNode] = {
        i: SensorNode(i, Vec2(float(x), float(y))) for i, (x, y) in enumerate(positions)
    }
    topology = Topology(positions, scenario.transmission_range)
    sim = Simulator()
    if engine == "batched":
        medium: BroadcastMedium = BatchMedium(sim, topology, nodes, channel=channel)
    else:
        medium = BroadcastMedium(sim, topology, nodes, channel=channel)
    duration = scenario.effective_duration()

    description = scenario.describe()
    description["scheduler_config"] = scheduler.describe()

    simulation = MonitoringSimulation(
        sim,
        nodes,
        topology,
        medium,
        stimulus,
        sensing,
        scheduler,
        duration,
        scenario_description=description,
        occupancy_sample_interval=occupancy_sample_interval,
        estimation=estimation,
    )

    if scenario.faults.node_failure_rate > 0:
        injector = NodeFailureInjector(
            sim,
            nodes,
            failure_rate_per_hour=scenario.faults.node_failure_rate,
            rng=streams.get("failures"),
            horizon=duration,
        )
        injector.schedule_failures()
        simulation.scenario_description["node_failure_rate"] = scenario.faults.node_failure_rate

    return simulation


def run_scenario(
    scenario: ScenarioConfig,
    scheduler: SleepScheduler,
    *,
    occupancy_sample_interval: Optional[float] = None,
    engine: str = "scalar",
    estimation: str = "columnar",
) -> RunSummary:
    """Build, run and summarise a scenario in one call."""
    simulation = build_simulation(
        scenario,
        scheduler,
        occupancy_sample_interval=occupancy_sample_interval,
        engine=engine,
        estimation=estimation,
    )
    return simulation.run()
