"""Unit tests for scenario configuration and the simulation builder."""

import math

import numpy as np
import pytest

from repro.core.pas import PASScheduler
from repro.core.config import PASConfig
from repro.geometry.deployment import DeploymentConfig
from repro.stimulus.advection_diffusion import AdvectionDiffusionStimulus
from repro.stimulus.anisotropic import AnisotropicFrontStimulus
from repro.stimulus.circular import CircularFrontStimulus
from repro.stimulus.plume import GaussianPlumeStimulus
from repro.node.sensing import NoisySensing, PerfectSensing
from repro.network.channel import LossyChannel, PerfectChannel
from repro.sim.rng import RandomStreams
from repro.world.builder import (
    build_channel,
    build_sensing,
    build_simulation,
    build_stimulus,
    run_scenario,
)
from repro.world.scenario import FaultConfig, ScenarioConfig, StimulusConfig


class TestStimulusConfig:
    def test_defaults(self):
        config = StimulusConfig()
        assert config.kind == "circular"
        assert config.speed == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "tsunami"},
            {"speed": 0.0},
            {"start_time": -1.0},
            {"anisotropy": 1.0},
            {"num_sectors": 2},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            StimulusConfig(**kwargs)


class TestFaultConfig:
    def test_defaults_disable_faults(self):
        config = FaultConfig()
        assert not config.any_faults

    def test_any_faults_detection(self):
        assert FaultConfig(node_failure_rate=1.0).any_faults
        assert FaultConfig(message_loss_probability=0.1).any_faults
        assert FaultConfig(channel_jitter_s=0.01).any_faults

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"node_failure_rate": -1.0},
            {"message_loss_probability": 1.5},
            {"channel_jitter_s": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultConfig(**kwargs)


class TestScenarioConfig:
    def test_defaults_match_paper(self):
        config = ScenarioConfig()
        assert config.deployment.num_nodes == 30
        assert config.transmission_range == 10.0

    def test_effective_duration_default_covers_diagonal(self):
        config = ScenarioConfig()
        diagonal = math.hypot(config.deployment.width, config.deployment.height)
        assert config.effective_duration() >= diagonal / config.stimulus.speed

    def test_effective_duration_explicit(self):
        config = ScenarioConfig(duration=123.0)
        assert config.effective_duration() == 123.0

    def test_stimulus_source_defaults_to_centre(self):
        config = ScenarioConfig(
            deployment=DeploymentConfig(num_nodes=10, width=40.0, height=20.0)
        )
        assert config.stimulus_source() == (20.0, 10.0)

    def test_stimulus_source_explicit(self):
        config = ScenarioConfig(stimulus=StimulusConfig(source=(1.0, 2.0)))
        assert config.stimulus_source() == (1.0, 2.0)

    def test_with_overrides(self):
        config = ScenarioConfig(seed=0)
        other = config.with_overrides(seed=5)
        assert other.seed == 5 and config.seed == 0

    def test_describe_keys(self):
        desc = ScenarioConfig(label="x").describe()
        assert desc["num_nodes"] == 30
        assert desc["label"] == "x"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"transmission_range": 0.0},
            {"duration": 0.0},
            {"sensing_noise": (1.5, 0.0)},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioConfig(**kwargs)

    @pytest.mark.parametrize("field_name", ["duration", "transmission_range"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, field_name, value):
        # An infinite duration would never end; NaN passes every ``<= 0`` check.
        with pytest.raises(ValueError, match="finite"):
            ScenarioConfig(**{field_name: value})

    def test_non_finite_rejected_through_overrides(self):
        with pytest.raises(ValueError, match="finite"):
            ScenarioConfig().with_overrides(duration=math.inf)


class TestBuildStimulus:
    def _scenario(self, stim):
        return ScenarioConfig(stimulus=stim)

    def test_circular(self):
        stim = build_stimulus(
            StimulusConfig(kind="circular", speed=2.0),
            self._scenario(StimulusConfig(kind="circular", speed=2.0)),
            np.random.default_rng(0),
        )
        assert isinstance(stim, CircularFrontStimulus)
        assert stim.speed == 2.0

    def test_anisotropic_uses_rng_sectors(self):
        cfg = StimulusConfig(kind="anisotropic", speed=1.0, anisotropy=0.5, num_sectors=6)
        stim = build_stimulus(cfg, self._scenario(cfg), np.random.default_rng(0))
        assert isinstance(stim, AnisotropicFrontStimulus)

    def test_anisotropic_zero_anisotropy_is_isotropic(self):
        cfg = StimulusConfig(kind="anisotropic", speed=1.5, anisotropy=0.0)
        stim = build_stimulus(cfg, self._scenario(cfg), np.random.default_rng(0))
        assert stim.speed_in_direction(0.3) == pytest.approx(1.5)

    def test_plume(self):
        cfg = StimulusConfig(kind="plume", speed=0.5)
        stim = build_stimulus(cfg, self._scenario(cfg), np.random.default_rng(0))
        assert isinstance(stim, GaussianPlumeStimulus)
        assert stim.wind == (0.5, 0.0)

    def test_advection_diffusion(self):
        cfg = StimulusConfig(kind="advection_diffusion", speed=1.0)
        stim = build_stimulus(cfg, self._scenario(cfg), np.random.default_rng(0))
        assert isinstance(stim, AdvectionDiffusionStimulus)


class TestBuildHelpers:
    def test_sensing_perfect_by_default(self):
        assert isinstance(build_sensing(ScenarioConfig(), np.random.default_rng(0)), PerfectSensing)

    def test_sensing_noisy_when_configured(self):
        scen = ScenarioConfig(sensing_noise=(0.1, 0.05))
        sensing = build_sensing(scen, np.random.default_rng(0))
        assert isinstance(sensing, NoisySensing)
        assert sensing.miss_probability == 0.1

    def test_channel_perfect_by_default(self):
        assert isinstance(build_channel(ScenarioConfig(), np.random.default_rng(0)), PerfectChannel)

    def test_channel_lossy_when_configured(self):
        scen = ScenarioConfig(faults=FaultConfig(message_loss_probability=0.3))
        channel = build_channel(scen, np.random.default_rng(0))
        assert isinstance(channel, LossyChannel)


class TestBuildSimulation:
    def test_build_produces_matching_node_count(self):
        scen = ScenarioConfig(
            deployment=DeploymentConfig(num_nodes=12, width=30, height=30), duration=20.0
        )
        sim = build_simulation(scen, PASScheduler(PASConfig()))
        assert len(sim.nodes) == 12
        assert len(sim.controllers) == 12
        assert sim.duration == 20.0

    def test_same_seed_gives_same_deployment_across_schedulers(self):
        scen = ScenarioConfig(duration=10.0, seed=7)
        sim_a = build_simulation(scen, PASScheduler(PASConfig()))
        sim_b = build_simulation(scen, PASScheduler(PASConfig(alert_threshold=5.0)))
        pos_a = np.array([[n.position.x, n.position.y] for n in sim_a.nodes.values()])
        pos_b = np.array([[n.position.x, n.position.y] for n in sim_b.nodes.values()])
        assert np.allclose(pos_a, pos_b)

    def test_different_seed_gives_different_deployment(self):
        sim_a = build_simulation(ScenarioConfig(duration=10.0, seed=1), PASScheduler())
        sim_b = build_simulation(ScenarioConfig(duration=10.0, seed=2), PASScheduler())
        pos_a = np.array([[n.position.x, n.position.y] for n in sim_a.nodes.values()])
        pos_b = np.array([[n.position.x, n.position.y] for n in sim_b.nodes.values()])
        assert not np.allclose(pos_a, pos_b)

    def test_failure_injection_wired_when_configured(self):
        scen = ScenarioConfig(
            duration=30.0,
            faults=FaultConfig(node_failure_rate=3600.0),  # ~1 failure per second per node
        )
        sim = build_simulation(scen, PASScheduler())
        assert "node_failure_rate" in sim.scenario_description

    def test_run_scenario_end_to_end(self):
        scen = ScenarioConfig(
            deployment=DeploymentConfig(num_nodes=10, width=30, height=30),
            duration=40.0,
            seed=3,
        )
        summary = run_scenario(scen, PASScheduler(PASConfig()))
        assert summary.scheduler == "PAS"
        assert summary.duration_s == pytest.approx(40.0)
        assert summary.average_energy_j > 0
