"""Per-member, per-phase breakdown of every scale event of a traced run.

Spans come from the files traced_worker.py writes; the driver's own command
windows (from fleet.Recorder) say which event each span belongs to, since
every process stamps its spans with the same system-wide monotonic clock.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
from bisect import bisect_left, bisect_right
from collections import defaultdict
from itertools import accumulate

from fleet import CheckFailed, require

NAME, START, END, PARENT, RANK, EPOCH, INFO = range(7)
MESH_SPANS = ("transport.Endpoint.connect", "transport.Endpoint.await_channel")


class Process:
    """One worker's trace file, with its spans indexed by parent."""

    def __init__(self, record):
        self.pid = record["pid"]
        self.boot = record["boot"]
        self.imported = record["imported"]
        self.env = record["env"]
        self.spans = record["spans"]
        self.frames_out = record["frames_out"]
        self.bytes_out = record["bytes_out"]
        self.kids = defaultdict(list)
        for index, span in enumerate(self.spans):
            self.kids[span[PARENT]].append(index)

    def child(self, index, name):
        """Index of the first span named ``name`` directly under ``index``."""
        for k in self.kids[index]:
            if self.spans[k][NAME] == name:
                return k
        raise CheckFailed(f"pid {self.pid}: span {self.spans[index][NAME]} "
                          f"has no {name} inside it")

    def ms(self, index, name=None):
        """Duration of span ``index``, or of its child named ``name``."""
        span = self.spans[index if name is None else self.child(index, name)]
        return (span[END] - span[START]) * 1e3

    def mesh_ms(self, index):
        """Time covered by connect/await_channel spans inside the merge
        span directly under ``index``."""
        stack, found = list(self.kids[self.child(index, "collectives.merge")]), []
        while stack:
            k = stack.pop()
            stack.extend(self.kids[k])
            if self.spans[k][NAME] in MESH_SPANS:
                found.append(self.spans[k])
        return _union_ms(found)

    def starting_in(self, name, window):
        """Indices of the spans named ``name`` that start inside the
        driver command ``window`` (kind, start, end)."""
        return [i for i, s in enumerate(self.spans)
                if s[NAME] == name and window[1] <= s[START] <= window[2]]


def load(directory):
    procs = []
    for path in sorted(glob.glob(os.path.join(directory, "spans-*.json"))):
        with open(path) as f:
            procs.append(Process(json.load(f)))
    return procs


def _union_ms(spans):
    total, reach = 0.0, None
    for start, end in sorted((s[START], s[END]) for s in spans):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total * 1e3


class Frames:
    """Fleet-wide frames sent (wire.pack calls) on one timeline."""

    def __init__(self, procs):
        pairs = sorted((t, n) for p in procs
                       for t, n in zip(p.frames_out, p.bytes_out))
        self.times = [t for t, _ in pairs]
        self.cum_bytes = [0] + list(accumulate(n for _, n in pairs))

    def count(self, window):
        lo = bisect_left(self.times, window[1])
        hi = bisect_right(self.times, window[2])
        return hi - lo, self.cum_bytes[hi] - self.cum_bytes[lo]


def _scale_out_members(procs, window, launches):
    members = []
    for p in procs:
        for i in p.starting_in("scaling.scale_out", window):
            phases = {"total": p.ms(i),
                      "barrier": p.ms(i, "collectives.barrier"),
                      "spawn": p.ms(i, "spawner.spawn"),
                      "merge": p.ms(i, "collectives.merge"),
                      "mesh": p.mesh_ms(i)}
            members.append({"pid": p.pid, "rank": p.spans[i][RANK],
                            "role": "old", "phases": phases})
        for i in p.starting_in("scaling.init_new_process", window):
            key = (int(p.env["EG_PARENT_EPOCH"]), int(p.env["EG_CHILD_INDEX"]))
            require(key in launches, f"no launch span for child {key}")
            phases = {"total": p.ms(i),
                      "boot": (p.boot - launches[key]) * 1e3,
                      "import": (p.imported - p.boot) * 1e3,
                      "attach": p.ms(i, "spawner.attach_parent"),
                      "merge": p.ms(i, "collectives.merge"),
                      "mesh": p.mesh_ms(i)}
            members.append({"pid": p.pid, "rank": p.spans[i][RANK],
                            "role": "child", "phases": phases})
    return members


def _scale_in_members(procs, window):
    members = []
    for p in procs:
        for i in p.starting_in("scaling.scale_in", window):
            members.append({
                "pid": p.pid, "rank": p.spans[i][RANK], "role": "member",
                "phases": {"total": p.ms(i),
                           "occupancy": p.ms(i, "collectives.allgather"),
                           "split": p.ms(i, "collectives.split")}})
    return members


def _spread(members, phase):
    values = [m["phases"][phase] for m in members if phase in m["phases"]]
    return max(values), statistics.median(values)


def analyse(directory, windows, initial, delta):
    """Returns (per-layer metrics, per-event report). Checks that every
    scale event has spans from every member."""
    procs = load(directory)
    require(procs, f"no trace files in {directory}")
    frames = Frames(procs)

    launches = {}
    launch_ms, spawn_ms = [], []
    for p in procs:
        for s in p.spans:
            if s[NAME] == "spawner.LocalProcessLauncher.launch":
                launches[(s[INFO]["parent_epoch"], s[INFO]["index"])] = s[START]
                launch_ms.append((s[END] - s[START]) * 1e3)

    events, per_phase = [], defaultdict(list)
    counts = defaultdict(list)
    for number, window in enumerate(windows):
        kind = window[0]
        n_frames, n_bytes = frames.count(window)
        counts[kind].append((n_frames, n_bytes))
        if kind == "scale_out":
            members = _scale_out_members(procs, window, launches)
            old = [m for m in members if m["role"] == "old"]
            require(len(old) == initial and len(members) == initial + delta,
                    f"scale_out event {number}: spans from {len(old)} old "
                    f"members and {len(members) - len(old)} children")
            spawn_ms.extend(m["phases"]["spawn"] for m in old if m["rank"] == 0)
            phases = ("barrier", "merge", "mesh")
        elif kind == "scale_in":
            members = _scale_in_members(procs, window)
            require(len(members) == initial + delta,
                    f"scale_in event {number}: spans from {len(members)} "
                    f"members, expected {initial + delta}")
            phases = ("occupancy", "split")
        else:
            continue
        for phase in phases:
            per_phase[(kind, phase)].append(_spread(members, phase))
        events.append({"event": number, "kind": kind,
                       "driver_ms": (window[2] - window[1]) * 1e3,
                       "frames": n_frames, "bytes": n_bytes,
                       "members": sorted(members, key=lambda m: m["rank"])})

    metrics = {}

    def spread_metric(name, kind, phase):
        pairs = per_phase[(kind, phase)]
        if pairs:
            metrics[f"{name}.max"] = (statistics.median(p[0] for p in pairs), "ms")
            metrics[f"{name}.median"] = (statistics.median(p[1] for p in pairs),
                                         "ms")

    spread_metric("scaling.barrier_ms", "scale_out", "barrier")
    spread_metric("collectives.merge_ms", "scale_out", "merge")
    spread_metric("collectives.mesh_ms", "scale_out", "mesh")
    spread_metric("scaling.occupancy_ms", "scale_in", "occupancy")
    spread_metric("scaling.split_ms", "scale_in", "split")
    children = [m["phases"] for e in events if e["kind"] == "scale_out"
                for m in e["members"] if m["role"] == "child"]
    if children:
        for phase in ("boot", "import", "attach"):
            metrics[f"spawner.child_{phase}_ms"] = (
                statistics.median(c[phase] for c in children), "ms")
        metrics["spawner.launch_ms"] = (statistics.median(launch_ms), "ms")
        metrics["spawner.spawn_ms"] = (statistics.median(spawn_ms), "ms")
    for kind, name in (("scale_out", "wire.frames_per_scale_out"),
                       ("scale_in", "wire.frames_per_scale_in")):
        if counts[kind]:
            metrics[name] = (statistics.median(c[0] for c in counts[kind]),
                             "count")
    if counts["allgather"]:
        metrics["wire.bytes_per_allgather"] = (
            statistics.median(c[1] for c in counts["allgather"]), "bytes")
    return metrics, events


def summary_lines(events):
    """One line per scale event naming the slowest member of each phase."""
    for e in events:
        parts = []
        phases = sorted({ph for m in e["members"] for ph in m["phases"]})
        for phase in phases:
            have = [m for m in e["members"] if phase in m["phases"]]
            worst = max(have, key=lambda m: m["phases"][phase])
            parts.append(f"{phase} r{worst['rank']} "
                         f"{worst['phases'][phase]:.1f}")
        yield (f"  {e['kind']} #{e['event']} driver {e['driver_ms']:.1f} ms, "
               f"{e['frames']} frames; slowest (ms): " + ", ".join(parts))
