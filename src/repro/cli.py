"""Command-line interface: ``pas-sim``.

Subcommands
-----------
* ``pas-sim run`` -- run one scenario with a chosen scheduler and print the
  run summary.
* ``pas-sim compare`` -- run NS / PAS / SAS on the identical scenario and
  print a comparison table.
* ``pas-sim figure {4,5,6,7}`` -- regenerate one of the paper's figures as a
  text table.
* ``pas-sim table1`` -- print the Telos hardware characteristics in use.
* ``pas-sim export`` -- run the NS/PAS/SAS comparison and write the rows to a
  CSV file.
* ``pas-sim field`` -- run one PAS scenario and print ASCII snapshots of the
  field (node states + stimulus) at a few instants.
* ``pas-sim profile`` -- run one preset under the telemetry layer
  (:mod:`repro.obs`) and write a ``PROFILE_<preset>.json`` phase-breakdown
  artifact ranking where the Python cycles go (optionally with ``--cprofile``
  for a function-level ranking and ``--trace`` for a JSONL span trace).

Global flags: ``--log-level {debug,info,warning,error}`` routes the
``repro.*`` loggers (fleet reclaim/straggler events, corrupt-artifact
quarantines) to stderr; ``--quiet`` silences the fleet backend's live
progress line.  Both go before the subcommand.

The simulation-running subcommands (``run``, ``compare``, ``figure``,
``export``) accept ``--jobs N`` to execute their run grids on a process pool
and ``--cache-dir DIR`` to memoise run summaries on disk keyed by spec hash
(see :mod:`repro.exec`); results are identical regardless of either flag.
``--backend fleet`` (with ``--queue-dir``, ``--lease-timeout`` and
``--max-attempts``) runs the grid on the fault-tolerant worker fleet
instead, and ``pas-sim worker --queue-dir DIR`` attaches an extra worker
process to such a fleet's shared queue from any machine that can see the
directory.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.registry import get_registration, scheduler_names
from repro.engine import ENGINES
from repro.exec.backends import ExecutionBackend, make_backend
from repro.exec.specs import RunSpec, SchedulerSpec
from repro.experiments.figures import figure4, figure5, figure6, figure7
from repro.experiments.runner import default_scenario, run_comparison
from repro.experiments.table1 import print_table1
from repro.metrics.summary import format_table
from repro.obs import LOG_LEVELS, configure_logging
from repro.world.presets import get_preset, preset_names


def _make_scheduler_spec(name: str, max_sleep: float, alert_threshold: float) -> SchedulerSpec:
    """Describe the requested scheduler declaratively (resolved via the registry).

    Any registered scheduler name works; ``--alert-threshold`` applies to PAS
    only (SAS keeps its deliberately small default, the baselines have no
    threshold), matching the paper's parameterisation.
    """
    registration = get_registration(name)  # unknown names raise with choices
    kwargs = {"max_sleep_interval": max_sleep}
    if registration.name == "PAS":
        kwargs["alert_threshold"] = alert_threshold
    return SchedulerSpec(registration.name, registration.config_cls(**kwargs))


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for simulation runs (default: serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory to cache run summaries by spec hash (default: no cache)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        choices=["serial", "pool", "fleet"],
        help=(
            "execution backend (default: serial, or a process pool when "
            "--jobs > 1); 'fleet' runs the grid on the fault-tolerant "
            "leased work queue with --jobs local workers"
        ),
    )
    parser.add_argument(
        "--queue-dir",
        default=None,
        help=(
            "shared queue directory for --backend fleet (default: a fresh "
            "temporary directory); reuse one to resume an interrupted "
            "campaign or to let external 'pas-sim worker' processes join"
        ),
    )
    parser.add_argument(
        "--lease-timeout",
        type=float,
        default=30.0,
        help=(
            "fleet only: seconds without a worker heartbeat before its "
            "lease is reclaimed and the cell retried (default: 30)"
        ),
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help=(
            "fleet only: executions per cell before it is quarantined as a "
            "poison task and finished in-process (default: 3)"
        ),
    )


def _backend_from_args(args: argparse.Namespace) -> ExecutionBackend:
    return make_backend(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        backend=args.backend,
        queue_dir=args.queue_dir,
        lease_timeout=args.lease_timeout,
        max_attempts=args.max_attempts,
        progress=False if getattr(args, "quiet", False) else None,
    )


def _add_engine_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine",
        default="scalar",
        choices=list(ENGINES),
        help=(
            "simulation engine: 'scalar' reference path or 'batched' "
            "columnar message bus (bit-identical results, much faster at "
            "large fleet sizes)"
        ),
    )


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--preset",
        default=None,
        choices=preset_names(),
        help=(
            "named scenario preset (e.g. large_grid); overrides the individual "
            "scenario flags except --seed and --duration"
        ),
    )
    parser.add_argument("--nodes", type=int, default=30, help="number of sensors")
    parser.add_argument("--area", type=float, default=50.0, help="square region edge (m)")
    parser.add_argument("--range", type=float, default=10.0, help="transmission range (m)")
    parser.add_argument("--speed", type=float, default=1.0, help="stimulus speed (m/s)")
    parser.add_argument(
        "--stimulus",
        default="circular",
        choices=["circular", "anisotropic", "plume", "advection_diffusion"],
        help="stimulus model",
    )
    parser.add_argument("--seed", type=int, default=0, help="master random seed")
    parser.add_argument("--duration", type=float, default=None, help="run length (s)")


def _scenario_from_args(args: argparse.Namespace):
    if getattr(args, "preset", None):
        overrides = {"seed": args.seed}
        if args.duration is not None:
            overrides["duration"] = args.duration
        return get_preset(args.preset, **overrides)
    return default_scenario(
        num_nodes=args.nodes,
        area=args.area,
        transmission_range=args.range,
        stimulus_speed=args.speed,
        stimulus_kind=args.stimulus,
        duration=args.duration,
        seed=args.seed,
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="pas-sim",
        description="PAS reproduction: prediction-based adaptive sleeping simulator",
    )
    parser.add_argument(
        "--log-level",
        default="warning",
        choices=list(LOG_LEVELS),
        help="stderr logging threshold for the repro.* loggers (default: warning)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the fleet backend's live progress line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario with one scheduler")
    _add_scenario_arguments(run_p)
    _add_execution_arguments(run_p)
    _add_engine_argument(run_p)
    run_p.add_argument(
        "--scheduler",
        default="PAS",
        help=f"one of {', '.join(scheduler_names())}",
    )
    run_p.add_argument("--max-sleep", type=float, default=10.0, help="max sleep interval (s)")
    run_p.add_argument("--alert-threshold", type=float, default=20.0, help="alert threshold (s)")

    cmp_p = sub.add_parser("compare", help="run NS, PAS and SAS on the same scenario")
    _add_scenario_arguments(cmp_p)
    _add_execution_arguments(cmp_p)
    _add_engine_argument(cmp_p)
    cmp_p.add_argument("--max-sleep", type=float, default=10.0)
    cmp_p.add_argument("--alert-threshold", type=float, default=20.0)

    fig_p = sub.add_parser("figure", help="regenerate a paper figure as a table")
    fig_p.add_argument("number", type=int, choices=[4, 5, 6, 7])
    fig_p.add_argument("--repetitions", type=int, default=1)
    fig_p.add_argument("--seed", type=int, default=0)
    _add_execution_arguments(fig_p)

    sub.add_parser("table1", help="print the Telos hardware characteristics")

    export_p = sub.add_parser("export", help="run the NS/PAS/SAS comparison and write CSV")
    _add_scenario_arguments(export_p)
    _add_execution_arguments(export_p)
    _add_engine_argument(export_p)
    export_p.add_argument("--max-sleep", type=float, default=10.0)
    export_p.add_argument("--alert-threshold", type=float, default=20.0)
    export_p.add_argument("--output", required=True, help="CSV file to write")

    worker_p = sub.add_parser(
        "worker",
        help="join a fleet: pull run specs from a shared queue directory",
        description=(
            "Pull-execute-upload worker loop over a fleet work queue "
            "(see repro.exec.fleet).  Claims one spec at a time under a "
            "heartbeated lease, uploads checksummed RunSummary artifacts, "
            "and exits when the queue drains or on SIGTERM."
        ),
    )
    worker_p.add_argument(
        "--queue-dir", required=True, help="shared fleet queue directory"
    )
    worker_p.add_argument(
        "--worker-id",
        default=None,
        help="lease owner id (default: <hostname>-<pid>-<random>)",
    )
    worker_p.add_argument(
        "--heartbeat-interval",
        type=float,
        default=1.0,
        help="seconds between lease refreshes (default: 1.0; keep this "
        "well under the supervisor's --lease-timeout)",
    )
    worker_p.add_argument(
        "--poll-interval",
        type=float,
        default=0.25,
        help="seconds between claim attempts when nothing is claimable",
    )
    worker_p.add_argument(
        "--max-tasks",
        type=int,
        default=None,
        help="exit after completing this many tasks (default: unlimited)",
    )
    worker_p.add_argument(
        "--keep-polling",
        action="store_true",
        help="keep waiting for late-arriving work instead of exiting when "
        "the queue drains",
    )

    profile_p = sub.add_parser(
        "profile",
        help="run one preset under telemetry and write PROFILE_<preset>.json",
        description=(
            "Execute a preset scenario with the repro.obs telemetry layer "
            "enabled, then rank simulation phases by self-time and write the "
            "profile artifact.  See repro.obs.profile for how to read it."
        ),
    )
    profile_p.add_argument(
        "--preset",
        default="large_plume",
        choices=preset_names(),
        help="scenario preset to profile (default: large_plume)",
    )
    profile_p.add_argument(
        "--nodes",
        type=int,
        default=None,
        help=(
            "override the preset's fleet size; the region is rescaled to "
            "keep the preset's deployment density"
        ),
    )
    profile_p.add_argument("--duration", type=float, default=None, help="run length (s)")
    profile_p.add_argument("--seed", type=int, default=0, help="master random seed")
    profile_p.add_argument(
        "--scheduler",
        default="PAS",
        help=f"one of {', '.join(scheduler_names())}",
    )
    profile_p.add_argument("--max-sleep", type=float, default=10.0)
    profile_p.add_argument("--alert-threshold", type=float, default=20.0)
    profile_p.add_argument(
        "--engine",
        default="batched",
        choices=list(ENGINES),
        help="simulation engine to profile (default: batched)",
    )
    profile_p.add_argument(
        "--estimation",
        default="columnar",
        choices=["scalar", "columnar"],
        help="estimation path under the batched engine (default: columnar)",
    )
    profile_p.add_argument(
        "--occupancy-interval",
        type=float,
        default=None,
        help="enable periodic occupancy sampling at this interval (s)",
    )
    profile_p.add_argument(
        "--cprofile",
        action="store_true",
        help="also run under cProfile and include a function-level ranking",
    )
    profile_p.add_argument(
        "--trace",
        default=None,
        help="also stream sampled span records to this JSONL trace file",
    )
    profile_p.add_argument(
        "--trace-sample-every",
        type=int,
        default=100,
        help="keep every Nth trace record per key (default: 100)",
    )
    profile_p.add_argument(
        "--output",
        default=None,
        help="profile artifact path (default: PROFILE_<preset>.json)",
    )

    field_p = sub.add_parser("field", help="print ASCII snapshots of a PAS run")
    _add_scenario_arguments(field_p)
    _add_engine_argument(field_p)
    field_p.add_argument("--max-sleep", type=float, default=10.0)
    field_p.add_argument("--alert-threshold", type=float, default=20.0)
    field_p.add_argument(
        "--snapshots", type=int, default=3, help="number of evenly spaced snapshots"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.  Returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.log_level)

    if args.command == "profile":
        import dataclasses
        import math

        from repro.obs import format_profile, run_profile, write_profile

        overrides = {"seed": args.seed}
        if args.duration is not None:
            overrides["duration"] = args.duration
        scenario = get_preset(args.preset, **overrides)
        if args.nodes is not None and args.nodes != scenario.deployment.num_nodes:
            deployment = scenario.deployment
            scale = math.sqrt(args.nodes / deployment.num_nodes)
            scenario = scenario.with_overrides(
                deployment=dataclasses.replace(
                    deployment,
                    num_nodes=args.nodes,
                    width=deployment.width * scale,
                    height=deployment.height * scale,
                )
            )
        scheduler = _make_scheduler_spec(
            args.scheduler, args.max_sleep, args.alert_threshold
        ).build()
        report = run_profile(
            scenario,
            scheduler,
            engine=args.engine,
            estimation=args.estimation,
            occupancy_sample_interval=args.occupancy_interval,
            trace_path=args.trace,
            trace_sample_every=args.trace_sample_every,
            cprofile=args.cprofile,
        )
        output = args.output or f"PROFILE_{args.preset}.json"
        write_profile(report, output)
        print(format_profile(report))
        print(f"wrote {output}")
        return 0

    if args.command == "table1":
        print(print_table1())
        return 0

    if args.command == "worker":
        from repro.exec.worker import worker_main

        return worker_main(
            args.queue_dir,
            worker_id=args.worker_id,
            heartbeat_interval=args.heartbeat_interval,
            poll_interval=args.poll_interval,
            max_tasks=args.max_tasks,
            keep_polling=args.keep_polling,
        )

    if args.command == "run":
        scenario = _scenario_from_args(args)
        scheduler = _make_scheduler_spec(args.scheduler, args.max_sleep, args.alert_threshold)
        backend = _backend_from_args(args)
        summary = backend.run_one(
            RunSpec(scenario=scenario, scheduler=scheduler, engine=args.engine)
        )
        rows = [
            {"metric": "scheduler", "value": summary.scheduler},
            {"metric": "average detection delay (s)", "value": summary.average_delay_s},
            {"metric": "average energy (J/node)", "value": summary.average_energy_j},
            {"metric": "nodes reached", "value": summary.delay.num_reached},
            {"metric": "nodes detected", "value": summary.delay.num_detected},
            {"metric": "messages sent", "value": summary.messages.get("tx_messages", 0)},
        ]
        print(format_table(rows, columns=["metric", "value"]))
        return 0

    if args.command == "compare":
        scenario = _scenario_from_args(args)
        results = run_comparison(
            scenario,
            max_sleep_interval=args.max_sleep,
            alert_threshold=args.alert_threshold,
            backend=_backend_from_args(args),
            engine=args.engine,
        )
        rows = [
            {
                "scheduler": name,
                "delay_s": summary.average_delay_s,
                "energy_j": summary.average_energy_j,
                "tx_messages": summary.messages.get("tx_messages", 0),
            }
            for name, summary in results.items()
        ]
        print(format_table(rows, columns=["scheduler", "delay_s", "energy_j", "tx_messages"]))
        return 0

    if args.command == "figure":
        generators = {4: figure4, 5: figure5, 6: figure6, 7: figure7}
        result = generators[args.number](
            repetitions=args.repetitions,
            base_seed=args.seed,
            backend=_backend_from_args(args),
        )
        print(result.render())
        return 0

    if args.command == "export":
        from repro.experiments.reporting import summary_rows, write_csv

        scenario = _scenario_from_args(args)
        results = run_comparison(
            scenario,
            max_sleep_interval=args.max_sleep,
            alert_threshold=args.alert_threshold,
            backend=_backend_from_args(args),
            engine=args.engine,
        )
        path = write_csv(summary_rows(results.values()), args.output)
        print(f"wrote {len(results)} rows to {path}")
        return 0

    if args.command == "field":
        import numpy as np

        from repro.viz.ascii import render_field
        from repro.world.builder import build_simulation

        scenario = _scenario_from_args(args)
        scheduler = _make_scheduler_spec("PAS", args.max_sleep, args.alert_threshold).build()
        simulation = build_simulation(scenario, scheduler, engine=args.engine)
        positions = np.array(
            [[n.position.x, n.position.y] for _, n in sorted(simulation.nodes.items())]
        )
        simulation.start()
        snapshots = max(1, args.snapshots)
        for i in range(1, snapshots + 1):
            t = simulation.duration * i / (snapshots + 1)
            simulation.sim.run(until=t)
            states = {nid: c.state_name for nid, c in simulation.controllers.items()}
            print(f"\n--- t = {t:.1f} s ---")
            print(
                render_field(
                    positions,
                    states,
                    width=scenario.deployment.width,
                    height=scenario.deployment.height,
                    stimulus=simulation.stimulus,
                    time=t,
                )
            )
        simulation.sim.run(until=simulation.duration)
        summary = simulation.finalize()
        print(
            f"\naverage delay {summary.average_delay_s:.2f} s, "
            f"average energy {summary.average_energy_j:.3f} J/node"
        )
        return 0

    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(main())
