"""Benchmark harness: time scale-out and scale-in events over real worker
fleets and emit the results as CSV.

Each trial starts a fresh fleet, barriers it, performs one scaling event,
and records the rank-0 worker's wall-clock phases (monotonic clock). Host
labels emulate packed placement: slots_per_host consecutive slots share one
logical host, so hosts_used tracks how many machines the fleet would touch.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass

from .driver import Driver, default_worker_command
from .errors import EGroupError

SCENARIO_SCALE_OUT = "scale_out"
SCENARIO_SCALE_IN = "scale_in"
SCENARIOS = (SCENARIO_SCALE_OUT, SCENARIO_SCALE_IN)

CSV_HEADER = ["scenario", "initial", "delta", "trial",
              "total_s", "spawn_s", "other_s", "hosts_used"]

# Accounting slack between total and spawn+other on one record.
BREAKDOWN_SLACK_S = 0.001


@dataclass(frozen=True)
class BenchRecord:
    """One timed scaling event."""

    scenario: str
    initial: int
    delta: int
    trial: int
    total_s: float
    spawn_s: float
    other_s: float
    hosts_used: int

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.failed:
            return
        if self.total_s < 0:
            raise ValueError(f"total_s must be non-negative, got {self.total_s}")
        if abs(self.total_s - (self.spawn_s + self.other_s)) > BREAKDOWN_SLACK_S:
            raise ValueError(
                f"phase breakdown inconsistent: total {self.total_s} vs "
                f"spawn {self.spawn_s} + other {self.other_s}")

    @property
    def failed(self) -> bool:
        return math.isnan(self.total_s)


@dataclass(frozen=True)
class BenchConfig:
    """Scenario parameters shared by both benchmark runners."""

    initial: int
    deltas: tuple
    trials: int = 5
    slots_per_host: int = 32
    child_program: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "deltas", tuple(self.deltas))
        if self.initial < 1:
            raise ValueError(f"initial must be positive, got {self.initial}")
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")
        if not self.deltas:
            raise ValueError("deltas must not be empty")

    def validate_for(self, scenario: str) -> None:
        for delta in self.deltas:
            if scenario == SCENARIO_SCALE_OUT and delta < 1:
                raise ValueError(
                    f"scale-out delta must be at least 1, got {delta}")
            if scenario == SCENARIO_SCALE_IN and not (1 <= delta <= self.initial - 1):
                raise ValueError(
                    f"scale-in delta must leave at least one member: "
                    f"got {delta} of {self.initial}")

    def worker_command(self) -> list:
        if self.child_program:
            return [self.child_program]
        return default_worker_command()


def hosts_for(members: int, slots_per_host: int) -> int:
    return -(-members // slots_per_host) if members > 0 else 0


def run_scale_out_bench(config: BenchConfig, log=None) -> list:
    """For each delta and trial, grow a fresh fleet of ``initial`` workers
    by ``delta`` and record the phase breakdown."""
    return _run_bench(SCENARIO_SCALE_OUT, config, log)


def run_scale_in_bench(config: BenchConfig, log=None) -> list:
    """For each delta and trial, start ``initial`` workers and remove the
    ``delta`` highest-ranked ones."""
    return _run_bench(SCENARIO_SCALE_IN, config, log)


def _run_bench(scenario, config, log) -> list:
    config.validate_for(scenario)
    return [_trial(scenario, config, delta, trial, log)
            for delta in config.deltas for trial in range(config.trials)]


def _trial(scenario, config, delta, trial, log) -> BenchRecord:
    growing = scenario == SCENARIO_SCALE_OUT
    members_after = config.initial + (delta if growing else -delta)
    hosts_used = hosts_for(members_after, config.slots_per_host)
    try:
        with Driver(worker_command=config.worker_command(),
                    slots_per_host=config.slots_per_host) as driver:
            driver.start_fleet(config.initial)
            driver.barrier()
            if growing:
                reply = driver.scale_out(delta)
            else:
                reply = driver.scale_in(delta)
            driver.stop_all()
    except (EGroupError, OSError) as exc:
        if log is not None:
            print(f"{scenario} delta={delta} trial={trial} failed: {exc}",
                  file=log)
        nan = float("nan")
        return BenchRecord(scenario=scenario, initial=config.initial,
                           delta=delta, trial=trial, total_s=nan, spawn_s=nan,
                           other_s=nan, hosts_used=hosts_used)
    total = float(reply["total_s"])
    spawn = float(reply["spawn_s"]) if growing else 0.0
    return BenchRecord(scenario=scenario, initial=config.initial, delta=delta,
                       trial=trial, total_s=total, spawn_s=spawn,
                       other_s=max(0.0, total - spawn), hosts_used=hosts_used)


# -- CSV -----------------------------------------------------------------------

def emit_csv(records, path) -> None:
    """Write records with 6-decimal duration columns; parse_csv inverts this."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow([
                r.scenario, r.initial, r.delta, r.trial,
                f"{r.total_s:.6f}", f"{r.spawn_s:.6f}", f"{r.other_s:.6f}",
                r.hosts_used,
            ])


def parse_csv(path) -> list:
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r}")
        for row in reader:
            if len(row) != len(CSV_HEADER):
                raise ValueError(f"malformed CSV row {row!r}")
            records.append(BenchRecord(
                scenario=row[0], initial=int(row[1]), delta=int(row[2]),
                trial=int(row[3]), total_s=float(row[4]),
                spawn_s=float(row[5]), other_s=float(row[6]),
                hosts_used=int(row[7])))
    return records


# -- summaries -----------------------------------------------------------------

def mean_by_delta(records) -> dict:
    """{(scenario, initial, delta): {"total_s": mean, "spawn_s": mean,
    "other_s": mean, "trials": n, "failures": f}} over successful trials."""
    grouped = {}
    for r in records:
        grouped.setdefault((r.scenario, r.initial, r.delta), []).append(r)
    summary = {}
    for key, rows in sorted(grouped.items()):
        good = [r for r in rows if not r.failed]
        entry = {"trials": len(rows), "failures": len(rows) - len(good)}
        for attr in ("total_s", "spawn_s", "other_s"):
            values = [getattr(r, attr) for r in good]
            entry[attr] = sum(values) / len(values) if values else float("nan")
        summary[key] = entry
    return summary


def print_summary(records, out=None) -> None:
    out = out if out is not None else sys.stdout
    summary = mean_by_delta(records)
    print(f"{'scenario':<10} {'initial':>7} {'delta':>5} {'trials':>6} "
          f"{'mean total_s':>12} {'mean spawn_s':>12} {'mean other_s':>12}",
          file=out)
    for (scenario, initial, delta), entry in summary.items():
        print(f"{scenario:<10} {initial:>7} {delta:>5} {entry['trials']:>6} "
              f"{entry['total_s']:>12.6f} {entry['spawn_s']:>12.6f} "
              f"{entry['other_s']:>12.6f}", file=out)
        if entry["failures"]:
            print(f"  ({entry['failures']} failed trial(s) excluded from means)",
                  file=out)
