"""Repository benchmark: ``python3 perfbench/run.py --workload NAME --seed N``.

Runs one workload (``plume_storm``, ``duty_grid`` or ``campaign``; see
``perfbench/README.md``) in this fresh interpreter against the program in
``src/``, prints a table of its metrics, then, as the last line, one JSON
object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds with
tracing off; ``--trace 1`` makes one untraced and one traced run and reports
the per-layer metrics instead.  ``failed_share`` is ``failed / attempted``.
Scratch queues and span files go under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metric -> unit (``BENCHMARK.json`` lists the same set).
END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "cells_per_s": "1/s",
    "resume_cells_per_s": "1/s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "toy"),
        default="full",
        help="workload sizes; 'toy' is for the harness self-test",
    )
    parser.add_argument(
        "--digests",
        type=Path,
        default=HERE / "digests.json",
        help="pinned reference digests (default: perfbench/digests.json)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads  # imports the program under test
        from hostspeed import REFERENCE_S
        from layers import PER_LAYER_UNITS
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"expected one of {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    result = workloads.run(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        scale=args.scale,
        pins_path=args.digests,
        workdir=ROOT / ".perfbench",
    )
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {
        name: {"value": float(result["metrics"][name]), "unit": unit}
        for name, unit in units.items()
    }
    attempted, failed = result["attempted"], result["failed"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  scale {args.scale}")
    for name, entry in metrics.items():
        print(f"  {name:<28} {entry['value']:>16.6g} {entry['unit']}")
    print(f"  {'failed_share':<28} {failed / attempted:>16.6g} ratio  ({failed}/{attempted})")
    if result["host_probe_s"] is not None:
        print(
            f"  times at the reference host speed: the probe's median here was "
            f"{result['host_probe_s']:.4f} s against {REFERENCE_S} s"
        )
    for problem in result["problems"]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
