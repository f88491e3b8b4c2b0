"""Scalar vs. batched engine: seeded runs must be byte-identical.

The batched engine (columnar message bus, ``repro.engine``, on the shared
binary-heap event core) is a pure speed knob: for any seeded scenario the
:class:`~repro.metrics.summary.RunSummary` JSON must match the scalar
reference engine bit for bit -- across schedulers, stimuli, noisy sensing,
node failures, lossy channels and jitter.  This is the contract that lets
``RunSpec.spec_hash`` ignore the engine and one result cache serve both.
"""

import pytest

from repro.core.baselines import NoSleepScheduler, PeriodicDutyCycleScheduler
from repro.core.pas import PASScheduler
from repro.core.sas import SASScheduler
from repro.experiments.runner import default_scenario
from repro.exec.specs import RunSpec, SchedulerSpec
from repro.world.builder import build_simulation, run_scenario
from repro.world.scenario import FaultConfig


def _scenario(seed, *, noise=None, faults=None, **kwargs):
    scenario = default_scenario(seed=seed, **kwargs)
    overrides = {}
    if noise is not None:
        overrides["sensing_noise"] = noise
    if faults is not None:
        overrides["faults"] = faults
    return scenario.with_overrides(**overrides) if overrides else scenario


#: (label, scenario, scheduler factory) grid covering every divergence risk:
#: all stimuli, stochastic sensing, channel loss (vectorised draw path),
#: jitter (interleaved draw path), node failures (mid-air state changes)
#: and every scheduler family (reported / power / detect state sync).
CASES = [
    ("pas-circular", _scenario(11), PASScheduler),
    ("pas-anisotropic", _scenario(12, stimulus_kind="anisotropic"), PASScheduler),
    ("pas-plume", _scenario(13, stimulus_kind="plume", duration=60.0), PASScheduler),
    (
        "pas-advection",
        _scenario(14, stimulus_kind="advection_diffusion", duration=50.0),
        PASScheduler,
    ),
    ("pas-noisy", _scenario(15, noise=(0.1, 0.02)), PASScheduler),
    (
        "pas-failures-loss",
        _scenario(
            16,
            faults=FaultConfig(node_failure_rate=20.0, message_loss_probability=0.2),
        ),
        PASScheduler,
    ),
    (
        "pas-jitter",
        _scenario(
            17,
            faults=FaultConfig(message_loss_probability=0.15, channel_jitter_s=0.05),
        ),
        PASScheduler,
    ),
    ("sas-circular", _scenario(18), SASScheduler),
    (
        "sas-noisy-plume-failures",
        _scenario(
            19,
            stimulus_kind="plume",
            duration=60.0,
            noise=(0.05, 0.01),
            faults=FaultConfig(node_failure_rate=10.0),
        ),
        SASScheduler,
    ),
    ("ns", _scenario(20), NoSleepScheduler),
    ("periodic", _scenario(21), PeriodicDutyCycleScheduler),
]


class TestRunSummaryBitIdentity:
    @pytest.mark.parametrize(
        "scenario, scheduler_cls",
        [case[1:] for case in CASES],
        ids=[case[0] for case in CASES],
    )
    def test_summary_json_identical(self, scenario, scheduler_cls):
        """Three-way: scalar engine == batched+scalar == batched+columnar."""
        scalar = run_scenario(scenario, scheduler_cls(), engine="scalar")
        batched = run_scenario(
            scenario, scheduler_cls(), engine="batched", estimation="scalar"
        )
        columnar = run_scenario(
            scenario, scheduler_cls(), engine="batched", estimation="columnar"
        )
        assert scalar.to_json() == batched.to_json()
        assert scalar.to_json() == columnar.to_json()

    def test_occupancy_samples_identical(self):
        """Beyond the summary: the sampled occupancy trajectory matches too."""
        scenario = _scenario(30, stimulus_kind="plume", duration=60.0)
        trajectories = []
        for engine, estimation in (
            ("scalar", "scalar"),
            ("batched", "scalar"),
            ("batched", "columnar"),
        ):
            simulation = build_simulation(
                scenario,
                PASScheduler(),
                occupancy_sample_interval=2.0,
                engine=engine,
                estimation=estimation,
            )
            simulation.run()
            trajectories.append(
                [
                    (s.time, tuple(sorted(s.counts.items())), s.awake, s.asleep)
                    for s in simulation.metrics.occupancy
                ]
            )
        assert trajectories[0] == trajectories[1]
        assert trajectories[0] == trajectories[2]
        assert len(trajectories[0]) > 5

    def test_summary_surfaces_full_medium_stats(self):
        """Satellite: MediumStats ride in RunSummary.messages and round-trip."""
        from repro.metrics.summary import RunSummary

        summary = run_scenario(_scenario(31), PASScheduler())
        for key in (
            "broadcasts",
            "deliveries",
            "losses",
            "skipped_sleeping",
            "skipped_failed",
            "tx_messages",
            "rx_messages",
        ):
            assert key in summary.messages, key
        # PAS REQUESTs routinely hit sleeping neighbours: the new counters
        # are live data, not zeros.
        assert summary.messages["skipped_sleeping"] > 0
        restored = RunSummary.from_json(summary.to_json())
        assert restored.messages == summary.messages
        assert restored.to_json() == summary.to_json()


class TestRunSpecEngine:
    def test_execute_respects_engine(self):
        scenario = _scenario(32)
        spec_scalar = RunSpec(scenario=scenario, scheduler=SchedulerSpec("PAS"))
        spec_batched = RunSpec(
            scenario=scenario, scheduler=SchedulerSpec("PAS"), engine="batched"
        )
        assert spec_scalar.execute().to_json() == spec_batched.execute().to_json()

    def test_engine_excluded_from_spec_hash(self):
        scenario = _scenario(33)
        scalar = RunSpec(scenario=scenario, scheduler=SchedulerSpec("PAS"))
        batched = RunSpec(
            scenario=scenario, scheduler=SchedulerSpec("PAS"), engine="batched"
        )
        # bit-identical results => one cache entry must serve both engines
        assert scalar.spec_hash() == batched.spec_hash()

    def test_estimation_excluded_from_spec_hash(self):
        scenario = _scenario(33)
        hashes = {
            RunSpec(
                scenario=scenario,
                scheduler=SchedulerSpec("PAS"),
                engine="batched",
                estimation=estimation,
            ).spec_hash()
            for estimation in ("scalar", "columnar")
        }
        assert len(hashes) == 1

    def test_unknown_estimation_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown estimation"):
            RunSpec(
                scenario=_scenario(34),
                scheduler=SchedulerSpec("PAS"),
                estimation="psychic",
            )

    def test_builder_rejects_unknown_estimation(self):
        with pytest.raises(ValueError, match="unknown estimation"):
            build_simulation(_scenario(35), PASScheduler(), estimation="nope")

    def test_unknown_engine_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown engine"):
            RunSpec(
                scenario=_scenario(34),
                scheduler=SchedulerSpec("PAS"),
                engine="warp-drive",
            )

    def test_builder_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            build_simulation(_scenario(35), PASScheduler(), engine="nope")
