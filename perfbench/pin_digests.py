"""Regenerate ``perfbench/digests.json``: reference digests for pinned seeds.

    python3 perfbench/pin_digests.py --seeds 0-15

For every workload and seed this runs the reference path (scalar engine,
scalar estimation) at the ``full`` sizes and stores the SHA-256 of each
``RunSummary.to_json()``: a list with one digest per simulation for the
single-simulation workloads, and for a campaign one digest over its cells'
digests, in cell order.  Benchmark runs on a pinned seed compare against
these instead of re-running the slow reference path.  Regenerate only when
the simulated model itself changes on purpose.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str):
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-15"))
    parser.add_argument("--scale", default="full")
    parser.add_argument(
        "--workload",
        action="append",
        help="pin only this workload (repeatable; default: every workload)",
    )
    parser.add_argument("--output", type=Path, default=HERE / "digests.json")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads as wl

    sizes = wl.SCALES[args.scale]
    pins = json.loads(args.output.read_text()) if args.output.exists() else {}
    table = pins.setdefault(args.scale, {})
    for workload in args.workload or wl.WORKLOADS:
        for seed in args.seeds:
            if workload == "campaign":
                specs = wl.campaign_specs(seed, sizes.campaign_seeds)
                value = wl.combined_digest(
                    [wl.digest(wl.reference_summary(spec)) for spec in specs]
                )
            else:
                value = [
                    wl.digest(wl.reference_summary(spec))
                    for spec in wl.single_specs(workload, seed, sizes)
                ]
            table.setdefault(workload, {})[str(seed)] = value
            print(f"{workload} seed {seed}: {value}", flush=True)
            args.output.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
