"""Command line entry point for the benchmark harness.

Desk-scale defaults keep runs within one machine's process budget; --full
switches to full-scale fleet shapes (up to 128 processes), which take much
longer.
"""

from __future__ import annotations

import argparse
import sys

from .bench import (
    BenchConfig,
    emit_csv,
    print_summary,
    run_scale_in_bench,
    run_scale_out_bench,
)

DESK_DEFAULTS = {
    "scale-out": {"initial": 16, "deltas": (4, 16, 48)},
    "scale-in": {"initial": 64, "deltas": (8, 16, 32, 48)},
}
FULL_DEFAULTS = {
    "scale-out": {"initial": 16, "deltas": (16, 48, 80, 112)},
    "scale-in": {"initial": 128, "deltas": (16, 32, 48, 64, 80, 96, 112)},
}


def _parse_deltas(text: str):
    try:
        deltas = tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"deltas must be comma-separated integers, got {text!r}") from None
    if not deltas:
        raise argparse.ArgumentTypeError("deltas must not be empty")
    return deltas


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Time scale-out and scale-in events over a worker fleet.")
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in ("scale-out", "scale-in"):
        p = sub.add_parser(name, help=f"run the {name} scenario")
        p.add_argument("--initial", type=int, default=None,
                       help="number of initial workers")
        p.add_argument("--deltas", type=_parse_deltas, default=None,
                       help="comma-separated list of processes to add/remove")
        p.add_argument("--trials", type=int, default=5,
                       help="trials per delta (default 5)")
        p.add_argument("--slots-per-host", type=int, default=32,
                       help="worker slots per emulated host (default 32)")
        p.add_argument("--child", default=None,
                       help="worker executable (default: this interpreter "
                            "running the bundled worker)")
        p.add_argument("--out", default=f"{name.replace('-', '_')}.csv",
                       help="CSV output path")
        p.add_argument("--full", action="store_true",
                       help="use full-scale fleet sizes instead of "
                            "desk-scale defaults")
        p.add_argument("--quiet", action="store_true",
                       help="suppress the per-delta summary table")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    defaults = (FULL_DEFAULTS if args.full else DESK_DEFAULTS)[args.scenario]
    initial = args.initial if args.initial is not None else defaults["initial"]
    deltas = args.deltas if args.deltas is not None else defaults["deltas"]

    try:
        config = BenchConfig(initial=initial, deltas=deltas,
                             trials=args.trials,
                             slots_per_host=args.slots_per_host,
                             child_program=args.child)
        runner = (run_scale_out_bench if args.scenario == "scale-out"
                  else run_scale_in_bench)
        config.validate_for(args.scenario.replace("-", "_"))
    except ValueError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    records = runner(config, log=sys.stderr)
    emit_csv(records, args.out)
    if not args.quiet:
        print_summary(records)
        print(f"wrote {len(records)} records to {args.out}")
    failures = sum(1 for r in records if r.failed)
    if failures:
        print(f"bench: {failures} trial(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
