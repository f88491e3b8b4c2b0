"""The benchmark's three workloads, their seeded inputs and their checks.

* ``plume_storm`` -- PAS simulations of several seeded drifting-plume
  scenarios on the batched engine with columnar estimation: the
  REQUEST/RESPONSE storm.
* ``duty_grid`` -- one PERIODIC duty-cycle simulation of a large jittered
  grid on the batched engine: sleep/wake timer churn, no messages.
* ``campaign`` -- a closed batch of paper-scale cells (PAS/SAS/NS x the
  Fig. 4/6 maximum-sleep axis x seeds) through ``FleetBackend`` with one
  worker per core, cold and then resumed over the finished queue.

Every input is derived from the workload seed; the program only ever sees
the resulting ``ScenarioConfig``/``RunSpec`` values.  An operation (one
simulation, or one campaign cell) fails if it raises, is poisoned, or its
``RunSummary.to_json()`` SHA-256 differs from the reference path's: the
scalar engine with scalar estimation on the same spec.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import time
import traceback
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.world.builder as builder
from repro.core.config import PASConfig, SASConfig, SchedulerConfig
from repro.exec.fleet import FleetBackend
from repro.exec.queue import WorkQueue
from repro.exec.specs import RunSpec, SchedulerSpec
from repro.experiments.figures import DEFAULT_MAX_SLEEP_VALUES, QUIET_PERIOD_S
from repro.experiments.runner import default_scenario
from repro.metrics.summary import RunSummary
from repro.world.presets import large_grid, large_plume
from repro.world.scenario import StimulusConfig

import layers
from hostspeed import HostClock
from tracing import Tracer, install

WORKLOADS = ("plume_storm", "duty_grid", "campaign")

#: Campaign workers: one per core, as a user's ``--jobs $(nproc)`` sweep.
NPROC = os.cpu_count() or 1

#: Fewest timed operations (or campaign passes) a run makes.  Peak RSS is
#: read when this many are done, so it measures a fixed amount of work and
#: not however many operations the host managed in ``--seconds``: a program
#: that leaks per simulation would otherwise report a peak that depends on
#: the host's speed.
MIN_OPS = 3


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; ``check_*`` are the downsized reference instances."""

    plume_nodes: int
    plume_duration: float
    #: Seeded plume scenarios per run.  Their work differs by several per
    #: cent from seed to seed; the run's mean over them is much steadier.
    plume_scenarios: int
    #: Timed ``build_simulation`` calls per plume operation (set-up is cheap).
    plume_setup_reps: int
    grid_nodes: int
    grid_duration: float
    campaign_seeds: int
    check_plume_nodes: int
    check_grid_nodes: int
    check_campaign_seeds: int
    #: Resume samples timed after each round's operations or cold pass.
    resume_reps: int


SCALES: Dict[str, Sizes] = {
    "full": Sizes(
        plume_nodes=80,
        plume_duration=5.0,
        plume_scenarios=4,
        plume_setup_reps=5,
        grid_nodes=20_000,
        grid_duration=20.0,
        campaign_seeds=8,
        check_plume_nodes=40,
        check_grid_nodes=1_000,
        check_campaign_seeds=1,
        resume_reps=8,
    ),
    # Harness self-test only (perfbench/selftest.py).
    "toy": Sizes(
        plume_nodes=40,
        plume_duration=3.0,
        plume_scenarios=2,
        plume_setup_reps=2,
        grid_nodes=400,
        grid_duration=5.0,
        campaign_seeds=1,
        check_plume_nodes=25,
        check_grid_nodes=100,
        check_campaign_seeds=1,
        resume_reps=2,
    ),
}


# ------------------------------------------------------------------ inputs
def derive_seeds(seed: int, tag: str, count: int) -> List[int]:
    """``count`` scenario seeds derived from the workload seed."""
    state = np.random.SeedSequence([seed, zlib.crc32(tag.encode())]).generate_state(count)
    return [int(value) for value in state]


def _rescaled(scenario, num_nodes: int, duration: float):
    # The density-preserving rescale of ``pas-sim profile --nodes``.
    deployment = scenario.deployment
    scale = math.sqrt(num_nodes / deployment.num_nodes)
    return scenario.with_overrides(
        duration=duration,
        deployment=dataclasses.replace(
            deployment,
            num_nodes=num_nodes,
            width=deployment.width * scale,
            height=deployment.height * scale,
        ),
    )


def single_specs(
    workload: str, seed: int, sizes: Sizes, *, downsized: bool = False
) -> List[RunSpec]:
    """The simulations of ``plume_storm`` (one per scenario) or ``duty_grid`` (one)."""
    if workload == "plume_storm":
        nodes = sizes.check_plume_nodes if downsized else sizes.plume_nodes
        return [
            RunSpec(
                _rescaled(large_plume(seed=scenario_seed), nodes, sizes.plume_duration),
                SchedulerSpec("PAS"),
                engine="batched",
                estimation="columnar",
            )
            for scenario_seed in derive_seeds(seed, workload, sizes.plume_scenarios)
        ]
    (scenario_seed,) = derive_seeds(seed, workload, 1)
    nodes = sizes.check_grid_nodes if downsized else sizes.grid_nodes
    scenario = _rescaled(large_grid(seed=scenario_seed), nodes, sizes.grid_duration)
    return [RunSpec(scenario, SchedulerSpec("PERIODIC"), engine="batched")]


def _campaign_schedulers(max_sleep: float) -> List[SchedulerSpec]:
    # The NS/PAS/SAS cells of Figs. 4 and 6 (alert threshold 20, sleep
    # increment scaled so the cap is reached within the quiet period).
    increment = max(0.5, max_sleep / 4.0)
    cap = max(max_sleep, 1.0)
    return [
        SchedulerSpec(
            "PAS",
            PASConfig(max_sleep_interval=cap, sleep_increment=increment, alert_threshold=20.0),
        ),
        SchedulerSpec("SAS", SASConfig(max_sleep_interval=cap, sleep_increment=increment)),
        SchedulerSpec("NS", SchedulerConfig(max_sleep_interval=cap)),
    ]


def campaign_specs(seed: int, count: int) -> List[RunSpec]:
    """The campaign's cells for the first ``count`` derived seeds.

    Each cell is the 30-node paper scenario with a quiet period before a
    circular front, on the default engine, as ``pas-sim figure`` builds it.
    """
    specs = []
    for cell_seed in derive_seeds(seed, "campaign", count):
        for max_sleep in DEFAULT_MAX_SLEEP_VALUES:
            scenario = default_scenario(
                num_nodes=30,
                transmission_range=10.0,
                seed=cell_seed,
                label=f"campaign max_sleep={max_sleep}",
            ).with_overrides(
                stimulus=StimulusConfig(kind="circular", speed=1.0, start_time=QUIET_PERIOD_S)
            )
            for scheduler in _campaign_schedulers(max_sleep):
                specs.append(RunSpec(scenario=scenario, scheduler=scheduler))
    return specs


# --------------------------------------------------------------- reference
def digest(summary: RunSummary) -> str:
    return hashlib.sha256(summary.to_json().encode("utf-8")).hexdigest()


def combined_digest(digests: Sequence[str]) -> str:
    """One digest standing for a whole campaign's per-cell digests."""
    return hashlib.sha256("\n".join(digests).encode("ascii")).hexdigest()


def reference_summary(spec: RunSpec) -> RunSummary:
    """The reference path: scalar engine, scalar estimation, same spec."""
    return dataclasses.replace(spec, engine="scalar", estimation="scalar").execute()


def load_pins(path: Path, scale: str, workload: str) -> Dict[str, object]:
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle).get(scale, {}).get(workload, {})


class Tally:
    """Attempted and failed operations, with the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)


# ------------------------------------------------------------------ helpers
def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def fleet(queue_dir: Path) -> FleetBackend:
    return FleetBackend(workers=NPROC, queue_dir=queue_dir, progress=False)


def median(values: Sequence[float]) -> float:
    """The median sample of a run.

    The shared hosts this runs on swing between faster and slower spells of
    a second or so.  The median of many samples spread over the whole run
    stays put; the fastest sample depends on whether a run happened to catch
    a fast spell.  (Slower swings over minutes are ``hostspeed``'s job.)
    """
    return float(statistics.median(values))


#: Shortest resume sample.  A pass over a few stored artifacts takes a couple
#: of milliseconds, so a sample sums passes until this many seconds are
#: timed and outlasts timer ticks and collector pauses.
RESUME_SAMPLE_S = 0.05

#: Resume samples between host-speed probes.  Samples this short follow the
#: host's swings closely, so they get probes of their own rather than
#: sharing the probes around a whole batch.
RESUME_SAMPLES_PER_PROBE = 2


def timed_resumes(
    specs: List[RunSpec],
    queue_dir: Path,
    resumes: List[float],
    count: int,
    clock: HostClock,
    expected_json: List[str],
    tally: Tally,
) -> None:
    """Record ``count`` samples of seconds per resume pass in ``resumes``.

    Each pass runs ``FleetBackend.run`` over every spec, in process (every
    artifact is already stored, so no worker starts); a sample sums passes
    until ``RESUME_SAMPLE_S`` seconds are timed.  Every pass's summaries
    must be byte-identical to ``expected_json``, checked outside the timing.

    The heap left by the run's earlier simulations is frozen out of the
    cyclic collector meanwhile, so the passes pay for collecting their own
    objects, as in a fresh ``pas-sim`` process, and not for rescanning a
    heap whose size depends on how many rounds the run has made.
    """
    gc.collect()
    gc.freeze()
    try:
        for sample in range(count):
            if sample % RESUME_SAMPLES_PER_PROBE == 0:
                clock.probe()
            passes, elapsed = 0, 0.0
            while elapsed < RESUME_SAMPLE_S:
                start = time.perf_counter()
                resumed = fleet(queue_dir).run(specs)
                elapsed += time.perf_counter() - start
                passes += 1
                for index, summary in enumerate(resumed):
                    tally.check(
                        summary.to_json() == expected_json[index],
                        f"resumed cell {index} differs from its first result",
                    )
            clock.record(resumes, elapsed / passes)
    finally:
        gc.unfreeze()


def build(spec: RunSpec):
    return builder.build_simulation(
        spec.resolved_scenario(),
        spec.scheduler.build(),
        engine=spec.engine,
        estimation=spec.estimation,
    )


# ----------------------------------------------------------- single workloads
def _single_expected(
    workload: str, seed: int, sizes: Sizes, pins, tally: Tally
) -> List[Optional[str]]:
    """Per-simulation reference digests; ``None`` where the first run decides.

    A pinned seed returns its pinned digests.  Any other seed compares the
    benchmarked path with the reference path on the downsized instances (one
    operation each); the caller then holds every full-size run of a
    simulation to its first one.  Either way a downsized run warms lazily
    initialised code before timing starts.
    """
    small = single_specs(workload, seed, sizes, downsized=True)
    warm = build(small[0]).run()
    pinned = pins.get(str(seed))
    if pinned is not None:
        return list(pinned)
    for index, spec in enumerate(small):
        got = warm if index == 0 else build(spec).run()
        tally.check(
            digest(got) == digest(reference_summary(spec)),
            f"downsized {workload} seed {seed} scenario {index} differs from the reference path",
        )
    return [None] * len(small)


def run_single(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: Sizes,
    pins,
    workdir: Path,
    clock: HostClock,
) -> Tuple[Dict[str, float], Tally, Optional[Tracer]]:
    tally = Tally()
    specs = single_specs(workload, seed, sizes)
    expected = _single_expected(workload, seed, sizes, pins, tally)
    if len(expected) != len(specs):
        raise ValueError(
            f"{workload} seed {seed}: {len(expected)} pinned digests for {len(specs)} simulations"
        )

    def check(index: int, summary: RunSummary, what: str) -> None:
        got = digest(summary)
        if expected[index] is None:
            expected[index] = got
        tally.check(
            got == expected[index], f"{what} digest {got[:12]} != reference {expected[index][:12]}"
        )

    if trace:
        return _trace_single(specs, check, tally)

    setup_reps = sizes.plume_setup_reps if workload == "plume_storm" else 1
    queue_dir = workdir / "resume"
    queue = WorkQueue(queue_dir)
    setups: List[List[float]] = [[] for _ in specs]
    runs: List[List[float]] = [[] for _ in specs]
    resumes: List[float] = []
    peak = None

    def one_round() -> None:
        finished = []
        for index, spec in enumerate(specs):
            # Collect the previous world before timing, so builds do not pay
            # for their predecessors' garbage.
            gc.collect()
            clock.probe()
            for _ in range(setup_reps):
                start = time.perf_counter()
                simulation = build(spec)
                clock.record(setups[index], time.perf_counter() - start)
            start = time.perf_counter()
            summary = simulation.run()
            clock.record(runs[index], time.perf_counter() - start)
            del simulation
            check(index, summary, f"{workload} scenario {index} run {len(runs[index])}")
            finished.append(summary)

        # Resume: the finished simulations served back by FleetBackend from a
        # queue directory holding their artifacts, in process (no workers).
        for spec, summary in zip(specs, finished):
            if not queue.has_result(spec.spec_hash()):
                queue.enqueue(spec)
                queue.publish(spec.spec_hash(), summary)
        finished_json = [summary.to_json() for summary in finished]
        timed_resumes(specs, queue_dir, resumes, sizes.resume_reps, clock, finished_json, tally)

    rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds < MIN_OPS or time.perf_counter() < deadline:
        try:
            one_round()
        except Exception as exc:  # noqa: BLE001 - a raising operation is a failed one
            traceback.print_exc()
            tally.check(False, f"{workload} round {rounds} raised {exc!r}")
        rounds += 1
        if rounds == MIN_OPS:
            peak = peak_rss_mb()
    clock.probe()  # scales the last round's timings
    if not all(runs) or not resumes:
        raise RuntimeError(f"every {workload} operation failed: {tally.problems}")
    # Each simulation's median, averaged over the scenarios: seconds per
    # simulation of the workload's seeded mix, at the reference host speed.
    setup_s = statistics.fmean(median(samples) for samples in setups)
    run_s = statistics.fmean(median(samples) for samples in runs)
    metrics = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak,
        "cells_per_s": 1.0 / (setup_s + run_s),
        "resume_cells_per_s": len(specs) / median(resumes),
    }
    return metrics, tally, None


def _trace_single(specs: List[RunSpec], check, tally: Tally):
    start = time.perf_counter()
    untraced = [build(spec).run() for spec in specs]
    untraced_wall = time.perf_counter() - start
    for index, summary in enumerate(untraced):
        check(index, summary, f"untraced run of scenario {index}")
    tracer = Tracer()
    simulations, traced = [], []
    with install(layers.patches(tracer)):
        for spec in specs:
            with tracer.span(layers.ROOT):
                simulations.append(build(spec))
                traced.append(simulations[-1].run())
    for index, summary in enumerate(traced):
        tally.check(
            summary.to_json() == untraced[index].to_json(),
            f"traced run of scenario {index} differs from the untraced run",
        )
    traced_wall = float(tracer.durations(layers.ROOT).sum())
    extra = {
        "topology.edges": sum(len(simulation.topology.edges()) for simulation in simulations),
        "trace.overhead_share": (traced_wall - untraced_wall) / untraced_wall,
    }
    return layers.layer_metrics(tracer, traced, extra), tally, tracer

# ------------------------------------------------------------------ campaign
def _campaign_references(specs: List[RunSpec], seed: int, sizes: Sizes, pins):
    """What the campaign's cells are checked against, computed before timing.

    Returns ``(pin, references)``: the pinned combined digest (or ``None``)
    and, for a seed without a pin, the reference-path digests of the
    downsized campaign -- the cells of the first ``check_campaign_seeds``
    seeds, which ``derive_seeds`` keeps as a prefix.  Either way one cell
    runs in process first, so workers fork from a warmed-up interpreter.
    """
    pinned = pins.get(str(seed))
    if pinned is not None:
        specs[0].execute()
        return pinned, []
    checked = len(specs) * sizes.check_campaign_seeds // sizes.campaign_seeds
    return None, [digest(reference_summary(spec)) for spec in specs[:checked]]


def _campaign_expected(
    specs: List[RunSpec], first: List[RunSummary], references, seed: int, tally: Tally
) -> List[str]:
    """Per-cell reference digests to hold every pass of the campaign to.

    A pinned seed accepts the first cold pass when its combined digest
    matches the pin; otherwise every cell's reference is recomputed, and a
    pin that disagrees with the recomputed references is itself reported as
    a failed operation.  Any other seed holds the downsized campaign's cells
    to their references and the remaining cells to the first pass.
    """
    pinned, subset = references
    got = [digest(summary) for summary in first]
    if pinned is None:
        return subset + got[len(subset) :]
    if combined_digest(got) == pinned:
        return got
    expected = [digest(reference_summary(spec)) for spec in specs]
    tally.check(
        combined_digest(expected) == pinned,
        f"pinned campaign digest for seed {seed} disagrees with the reference path",
    )
    return expected


def _cold_pass(specs, queue_dir: Path) -> Tuple[float, List[RunSummary], FleetBackend]:
    shutil.rmtree(queue_dir, ignore_errors=True)
    backend = fleet(queue_dir)
    start = time.perf_counter()
    results = backend.run(specs)
    return time.perf_counter() - start, results, backend


def _check_pass(
    tally: Tally,
    hashes: List[str],
    results: List[RunSummary],
    expected: List[str],
    queue_dir: Path,
    what: str,
) -> None:
    poisoned = set(WorkQueue(queue_dir).failed_hashes())
    for index, summary in enumerate(results):
        tally.check(
            hashes[index] not in poisoned and digest(summary) == expected[index],
            f"{what} cell {index} was poisoned or differs from the reference",
        )


#: Campaign set-ups timed per round (one takes tens of milliseconds).
SETUP_REPS = 5


def _campaign_setup(seed: int, sizes: Sizes) -> float:
    """Seconds to derive the campaign's cells from the seed and hash them.

    This is the work before anything is enqueued; enqueueing writes a file
    per cell and is timed with the cold pass (``queue.enqueue_s`` when
    traced), where the file system's own noise belongs.
    """
    start = time.perf_counter()
    for spec in campaign_specs(seed, sizes.campaign_seeds):
        spec.spec_hash()
    return time.perf_counter() - start


def run_campaign(
    seed: int, seconds: float, trace: bool, sizes: Sizes, pins, workdir: Path, clock: HostClock
) -> Tuple[Dict[str, float], Tally, Optional[Tracer]]:
    tally = Tally()
    specs = campaign_specs(seed, sizes.campaign_seeds)
    hashes = [spec.spec_hash() for spec in specs]
    queue_dir = workdir / "queue"
    if trace:
        return _trace_campaign(specs, hashes, seed, sizes, pins, tally, workdir)

    references = _campaign_references(specs, seed, sizes, pins)
    setups: List[float] = []
    colds: List[float] = []
    resumes: List[float] = []
    expected: Optional[List[str]] = None
    peak = None

    def one_round() -> None:
        nonlocal expected
        clock.probe()
        for _ in range(SETUP_REPS):
            clock.record(setups, _campaign_setup(seed, sizes))
        clock.probe()
        wall, results, _ = _cold_pass(specs, queue_dir)
        if expected is None:
            expected = _campaign_expected(specs, results, references, seed, tally)
        _check_pass(tally, hashes, results, expected, queue_dir, f"cold pass {len(colds)}")
        clock.record(colds, wall)
        cold_json = [summary.to_json() for summary in results]
        timed_resumes(specs, queue_dir, resumes, sizes.resume_reps, clock, cold_json, tally)

    rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds < MIN_OPS or time.perf_counter() < deadline:
        try:
            one_round()
        except Exception as exc:  # noqa: BLE001 - every cell of a raising pass fails
            traceback.print_exc()
            for index in range(len(specs)):
                tally.check(False, f"campaign round {rounds} raised {exc!r} (cell {index})")
        rounds += 1
        if rounds == MIN_OPS:
            peak = peak_rss_mb(include_children=True)
    clock.probe()  # scales the last round's timings
    shutil.rmtree(queue_dir, ignore_errors=True)
    if not colds or not resumes:
        raise RuntimeError(f"every campaign pass failed: {tally.problems}")
    metrics = {
        "setup_s": median(setups),
        "run_s": median(colds),
        "peak_rss_mb": peak,
        "cells_per_s": len(specs) / median(colds),
        "resume_cells_per_s": len(specs) / median(resumes),
    }
    return metrics, tally, None


#: Fewest ``RunSpec.execute`` timings behind ``cell.execute_p95_s``, so that
#: ten lie beyond it; the in-process pass repeats until there are as many.
MIN_CELL_TIMINGS = 200


def _trace_campaign(specs, hashes, seed: int, sizes: Sizes, pins, tally: Tally, workdir: Path):
    references = _campaign_references(specs, seed, sizes, pins)
    untraced_dir = workdir / "queue-untraced"
    _, untraced, _ = _cold_pass(specs, untraced_dir)
    expected = _campaign_expected(specs, untraced, references, seed, tally)
    _check_pass(tally, hashes, untraced, expected, untraced_dir, "untraced pass")
    # The first pass pays one-off file-system and fork warm-up; time a second.
    untraced_wall, _, _ = _cold_pass(specs, untraced_dir)

    queue_dir = workdir / "queue-traced"
    tracer = Tracer()
    with install(layers.patches(tracer)):
        with tracer.span(layers.ROOT):
            traced_wall, traced, backend = _cold_pass(specs, queue_dir)
            resumed = fleet(queue_dir).run(specs)
            in_process = [
                spec.execute()
                for _ in range(math.ceil(MIN_CELL_TIMINGS / len(specs)))
                for spec in specs
            ]
    for what, results in (
        ("traced pass", traced),
        ("resumed pass", resumed),
        ("in-process pass", in_process),
    ):
        for index, summary in enumerate(results):
            tally.check(
                summary.to_json() == untraced[index % len(specs)].to_json(),
                f"{what} cell {index} differs from the untraced pass",
            )

    stats = backend.stats
    artifacts = list((queue_dir / "results").glob("*.json"))
    extra = {
        "fleet.worker_busy_share": (
            stats.worker_busy_s / (NPROC * stats.elapsed_s) if stats.elapsed_s else 0.0
        ),
        "fleet.retried": stats.reclaimed_leases + stats.corrupt_artifacts + stats.stragglers_inline,
        "artifact.bytes_per_cell": sum(path.stat().st_size for path in artifacts) / len(artifacts),
        "trace.overhead_share": (traced_wall - untraced_wall) / untraced_wall,
    }
    return layers.layer_metrics(tracer, in_process, extra), tally, tracer


# ---------------------------------------------------------------------- entry
def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    scale: str,
    pins_path: Path,
    workdir: Path,
) -> Dict[str, object]:
    """Run one workload; returns the result object the benchmark prints."""
    sizes = SCALES[scale]
    pins = load_pins(pins_path, scale, workload)
    run_dir = workdir / f"work-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    clock = HostClock()
    try:
        if workload == "campaign":
            metrics, tally, tracer = run_campaign(
                seed, seconds, trace, sizes, pins, run_dir, clock
            )
        else:
            metrics, tally, tracer = run_single(
                workload, seed, seconds, trace, sizes, pins, run_dir, clock
            )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if tracer is not None:
        gap = layers.partition_gap(tracer)
        if gap > 1e-6:
            raise RuntimeError(f"layer self times miss the traced wall time by {gap:.2e}")
        trace_dir = workdir / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_dir / f"{workload}-seed{seed}.npz")
    return {
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "host_probe_s": clock.median_probe() if clock.probes else None,
    }
