#!/usr/bin/env python3
"""Fleet benchmark for egroup.

Drives real worker fleets (stock ``python -m egroup.worker``) through
egroup.driver.Driver from one closed-loop driver thread, times every command
from outside, checks every reply, and prints each metric by name and unit.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload grow-shrink --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload wide-grow-one --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --smoke

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports the
per-layer metrics: in-process timings of each module's public functions, and
a traced run of the workload whose per-member, per-phase breakdown of every
scale event goes to ``perfbench/out/``. ``--smoke`` runs every workload and
every layer measurement once, briefly; it is the benchmark's own test.

Run it from the root of a checkout: it imports egroup from ``src/`` there and
nowhere else.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

END_TO_END = (
    ("setup_s", "s", "setup_s"),
    ("scale_out_ms", "ms", "scale_out"),
    ("scale_in_ms", "ms", "scale_in"),
    ("first_allgather_ms", "ms", "first_allgather"),
    ("allgather_ms", "ms", "allgather"),
    ("fleet_threads", "threads", "fleet_threads"),
    ("fleet_pss_mb", "MB", "fleet_pss_mb"),
)
PING_COUNT = 200


def use_checkout_source():
    """Import egroup from this checkout's src/ only, in this process and in
    every worker it starts."""
    if not os.path.isfile(os.path.join(SRC, "egroup", "__init__.py")):
        sys.exit(f"perfbench: no egroup package under {SRC}")
    sys.path.insert(0, SRC)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    import egroup
    if not os.path.abspath(egroup.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported egroup from {egroup.__file__}, "
                 f"not from {SRC}")


def end_to_end(workload, rec):
    metrics = {}
    for name, unit, key in END_TO_END:
        if rec.samples.get(key):
            metrics[name] = (statistics.median(rec.samples[key]), unit)
    if workload.delta == 0:
        samples = sorted(rec.samples["allgather"])
        metrics["allgather_p99_ms"] = (
            statistics.quantiles(samples, n=100)[98], "ms")
        metrics["allgather_samples"] = (len(samples), "count")
    return metrics


def traced_run(workload, inputs, seed, seconds):
    """The workload again, with every worker started by traced_worker.py."""
    import fleet
    import traces
    trace_dir = os.path.join(OUT, f"trace-{workload.name}-{seed}")
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    os.environ["PERFBENCH_TRACE_DIR"] = trace_dir
    rec = fleet.Recorder()
    try:
        fleet.run_workload(workload, inputs, seconds, rec, setups=1,
                           worker_command=[sys.executable, os.path.join(
                               HERE, "traced_worker.py")])
    finally:
        del os.environ["PERFBENCH_TRACE_DIR"]
    metrics, events = traces.analyse(trace_dir, rec.windows, workload.initial,
                                     workload.delta)
    for name, unit, key in END_TO_END:
        if unit == "ms" and rec.samples.get(key):
            metrics["trace." + name] = (statistics.median(rec.samples[key]), unit)
    report = os.path.join(OUT, f"trace-{workload.name}-{seed}.json")
    with open(report, "w") as f:
        json.dump({"workload": workload.name, "seed": seed, "events": events},
                  f, indent=1)
    print(f"per-member phases of {len(events)} scale events: {report}")
    for line in traces.summary_lines(events):
        print(line)
    return rec, metrics


def per_layer(workload, inputs, seed, seconds, scale):
    import fleet
    import micro
    metrics = micro.measure_all(scale, seed)
    metrics["driver.ping_ms"] = (
        fleet.ping_fleet(workload, inputs, PING_COUNT * scale // 5), "ms")
    threads, pss = fleet.idle_worker()
    metrics["worker.threads"] = (threads, "threads")
    metrics["worker.pss_mb"] = (pss, "MB")
    rec, traced = traced_run(workload, inputs, seed, seconds)
    metrics.update(traced)
    return rec, metrics


def cpu_times():
    """Aggregate CPU counters (user, nice, system, idle, iowait, irq,
    softirq, steal) from /proc/stat."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:9]]


def probe_ms():
    """Median of five timings of a fixed pure-Python loop: how fast this
    machine runs Python right now."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        x = 0
        for i in range(200_000):
            x += i * i % 7
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def measure(workload_name, seed, seconds, trace, scale=5):
    """One run; returns (correct, attempted, failed, metrics)."""
    import fleet
    probe_before, cpu_before = probe_ms(), cpu_times()
    workload = fleet.WORKLOADS[workload_name]
    inputs = fleet.make_inputs(workload, seed)
    os.makedirs(OUT, exist_ok=True)
    rec = fleet.Recorder()
    correct, metrics = True, {}
    try:
        if trace:
            rec, metrics = per_layer(workload, inputs, seed, seconds, scale)
        else:
            fleet.run_workload(workload, inputs, seconds, rec)
            metrics = end_to_end(workload, rec)
    except fleet.CheckFailed as exc:
        print(f"CHECK FAILED: {exc}")
        correct = False
    except fleet.OpFailed as exc:
        print(f"OPERATION FAILED: {exc}")
        traceback.print_exc()
    except Exception:
        traceback.print_exc()
        correct = False
    finally:
        fleet.reap_all()
    used = [b - a for a, b in zip(cpu_before, cpu_times())]
    # The speed of this machine drifts; these say how it ran during the run.
    print(f"machine: probe loop {probe_before:.1f} ms before the run, "
          f"{probe_ms():.1f} ms after; {100 * used[7] / max(1, sum(used)):.1f}% "
          f"of CPU time stolen, {100 * used[3] / max(1, sum(used)):.1f}% idle")
    return correct, rec.attempted, rec.failed, metrics


def report(workload_name, seed, correct, attempted, failed, metrics):
    print(f"workload {workload_name} seed {seed}: correct {correct}, "
          f"{attempted} operations attempted, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.4f} {unit}")


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}})


def smoke():
    """Every workload, untraced and traced, one cycle each, plus every layer
    measurement at a small scale; checks each listed workload reports exactly
    the metrics BENCHMARK.json names."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = {w["name"] for w in spec["workloads"]}
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    import fleet
    ok = True
    for name in fleet.WORKLOADS:
        for trace in (0, 1):
            start = time.monotonic()
            correct, attempted, failed, metrics = measure(
                name, 1, 0.0, trace, scale=1)
            report(name, 1, correct, attempted, failed, metrics)
            problems = []
            if not correct or failed or not attempted:
                problems.append("run not correct or an operation failed")
            if name in listed and set(metrics) != want[trace]:
                problems.append(
                    f"missing {sorted(want[trace] - set(metrics))}, "
                    f"unlisted {sorted(set(metrics) - want[trace])}")
            print(f"smoke {name} trace {trace}: "
                  f"{'ok' if not problems else '; '.join(problems)} "
                  f"({time.monotonic() - start:.1f} s)")
            ok = ok and not problems
    print("smoke: " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    use_checkout_source()
    if args.smoke:
        return smoke()
    import fleet
    if args.workload not in fleet.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(fleet.WORKLOADS)}")
    correct, attempted, failed, metrics = measure(
        args.workload, args.seed, args.seconds, args.trace)
    report(args.workload, args.seed, correct, attempted, failed, metrics)
    print(result_line(correct, attempted, failed, metrics))
    return 0 if correct and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
