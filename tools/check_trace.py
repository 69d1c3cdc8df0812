#!/usr/bin/env python3
"""Validate a Chrome-trace export against the shape of the run.

  check_trace.py --trace trace.json [--expect-host] [--expect-chips N]
                 [--expect-links N]

Checks that the trace loads as Chrome trace-event JSON (known phases,
per-pid timestamp order, paired flow endpoints) and that its process
layout matches the run that wrote it:

--expect-host requires host telemetry: the pid-2 "cyclops-host"
process emitted under --host-obs with the host trace category.

--expect-chips N requires a merged multi-chip trace (cyclops-run
--chips / arch::System): exactly N chip processes named
"cyclops-chip0".."cyclops-chip<N-1>" on pids 10..10+N-1, each with at
least one event. Chip-process naming is checked whenever chip
processes appear.

--expect-links N requires the fabric process (pid 3,
"cyclops-fabric", emitted with the "net" trace category on multi-chip
runs) with exactly N per-link tracks ("link.<a>-><b>") and at least
one event.

Host events must sit on pid 2 and net events on pid 3, whatever the
flags. The stats JSON and epoch CSV are checked by gtests
(Observability.StatsCsvRoundTrips and the attribution-coverage tests),
not here. Exits non-zero with a message on the first violation.
"""

import argparse
import json
import sys


def fail(msg: str) -> None:
    print(f"check_trace: {msg}", file=sys.stderr)
    sys.exit(1)


def check_trace(path: str, expect_host: bool = False,
                expect_chips: int = 0, expect_links: int = 0) -> None:
    """Chrome trace-event JSON as Perfetto/about:tracing load it."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: missing traceEvents array")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail(f"{path}: traceEvents is not a list")
    # A trace with no events at all (empty ring export, or metadata
    # only) is valid Chrome-trace JSON: Perfetto loads it, and the
    # tracer emits it when nothing was recorded. Only the --expect-*
    # layout checks below can reject it.
    n_spans = 0
    n_host = 0
    n_flows = 0
    host_process_named = False
    fabric_process_named = False
    chip_procs = {}  # pid -> process_name for the 10+i chip tracks
    link_tracks = set()  # fabric (pid 3) thread names "link.<a>-><b>"
    flow_ids = {}  # flow id -> count of 's'/'f' endpoints
    for i, ev in enumerate(events):
        for key in ("ph", "pid"):
            if key not in ev:
                fail(f"{path}: event {i} missing '{key}'")
        ph = ev["ph"]
        if ph == "M":
            if "name" not in ev or "args" not in ev:
                fail(f"{path}: metadata event {i} malformed")
            if (ev["name"] == "process_name" and ev["pid"] == 2 and
                    ev["args"].get("name") == "cyclops-host"):
                host_process_named = True
            if (ev["name"] == "process_name" and ev["pid"] == 3 and
                    ev["args"].get("name") == "cyclops-fabric"):
                fabric_process_named = True
            if (ev["name"] == "thread_name" and ev["pid"] == 3 and
                    str(ev["args"].get("name", "")).startswith("link.")):
                link_tracks.add(ev["args"]["name"])
            if (ev["name"] == "process_name" and ev["pid"] >= 10 and
                    str(ev["args"].get("name", ""))
                    .startswith("cyclops-chip")):
                chip_procs[ev["pid"]] = ev["args"]["name"]
            continue
        for key in ("name", "tid", "ts", "cat"):
            if key not in ev:
                fail(f"{path}: event {i} missing '{key}'")
        if ev["cat"] == "host":
            # Host telemetry rides on its own dedicated process so
            # guest timelines never interleave with wall-clock spans.
            if ev["pid"] != 2:
                fail(f"{path}: host event {i} not on pid 2")
            n_host += 1
        elif ev["pid"] == 2:
            fail(f"{path}: non-host event {i} on the host pid")
        if ev["cat"] == "net":
            # Fabric events ride the dedicated pid-3 fabric process.
            if ev["pid"] != 3:
                fail(f"{path}: net event {i} not on pid 3")
        elif ev["pid"] == 3:
            fail(f"{path}: non-net event {i} on the fabric pid")
        if ph == "X":
            if "dur" not in ev or ev["dur"] < 0:
                fail(f"{path}: complete event {i} has bad duration")
            n_spans += 1
        elif ph == "C":
            if "args" not in ev:
                fail(f"{path}: counter event {i} missing args")
        elif ph == "i":
            if ev.get("s") not in ("t", "p", "g"):
                fail(f"{path}: instant event {i} missing scope")
        elif ph in ("s", "f"):
            # Flow events pair an injection ('s') with a delivery ('f')
            # through a shared id; 'f' must carry the enclosing-slice
            # binding point.
            if "id" not in ev:
                fail(f"{path}: flow event {i} missing 'id'")
            if ph == "f" and ev.get("bp") != "e":
                fail(f"{path}: flow-end event {i} missing bp=e")
            flow_ids[ev["id"]] = flow_ids.get(ev["id"], 0) + 1
            n_flows += 1
        else:
            fail(f"{path}: event {i} has unknown phase '{ph}'")
    # Chronological order is checked per process: guest events use the
    # simulated-cycle timebase, host events wall-clock nanoseconds, so
    # only within a pid is the order meaningful. The exporter sorts
    # each group; verify so regressions surface.
    by_pid = {}
    for ev in events:
        if ev["ph"] != "M":
            by_pid.setdefault(ev["pid"], []).append(ev["ts"])
    for pid, ts in by_pid.items():
        if ts != sorted(ts):
            fail(f"{path}: pid {pid} events not sorted by timestamp")
    if n_host and not host_process_named:
        fail(f"{path}: host events present but no cyclops-host "
             f"process_name metadata")
    if expect_host and not n_host:
        fail(f"{path}: no host telemetry events (expected --host-obs "
             f"with the host trace category)")
    # Multi-chip traces (arch::System) put each chip on its own
    # process: pid 10+i named "cyclops-chipI". The naming must match
    # the pid so Perfetto tracks line up with chip ids.
    for pid, name in sorted(chip_procs.items()):
        if name != f"cyclops-chip{pid - 10}":
            fail(f"{path}: chip process on pid {pid} named '{name}', "
                 f"want 'cyclops-chip{pid - 10}'")
    if expect_chips:
        want = {10 + i for i in range(expect_chips)}
        if set(chip_procs) != want:
            fail(f"{path}: chip processes on pids "
                 f"{sorted(chip_procs)} do not match --expect-chips "
                 f"{expect_chips} (want pids {sorted(want)})")
        for pid in sorted(want):
            if not by_pid.get(pid):
                fail(f"{path}: chip process pid {pid} "
                     f"(cyclops-chip{pid - 10}) has no events")
    # A flow id pairs one injection ('s') with one delivery ('f').
    # Ring-buffer drops can orphan an endpoint, but an id can never
    # appear more than twice.
    for fid, n in flow_ids.items():
        if n > 2:
            fail(f"{path}: flow id {fid} has {n} endpoints (max 2)")
    if link_tracks and not fabric_process_named:
        fail(f"{path}: fabric link tracks present but no "
             f"cyclops-fabric process_name metadata")
    if expect_links:
        if not fabric_process_named:
            fail(f"{path}: no cyclops-fabric process (pid 3); was the "
                 f"'net' trace category enabled on a --chips run?")
        if len(link_tracks) != expect_links:
            fail(f"{path}: {len(link_tracks)} fabric link tracks, "
                 f"want --expect-links {expect_links}")
        if not by_pid.get(3):
            fail(f"{path}: fabric process (pid 3) has no events")
    extra = f", {n_host} host" if n_host else ""
    if chip_procs:
        extra += f", {len(chip_procs)} chips"
    if link_tracks:
        extra += f", {len(link_tracks)} links, {n_flows} flow events"
    print(f"{path}: ok ({len(events)} events, {n_spans} spans{extra})")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", action="append", required=True,
                        help="Chrome-trace JSON file to validate")
    parser.add_argument("--expect-host", action="store_true",
                        help="require host telemetry in every trace")
    parser.add_argument("--expect-chips", type=int, default=0,
                        help="require N chip processes (pids 10..10+N-1)"
                             " in every trace")
    parser.add_argument("--expect-links", type=int, default=0,
                        help="require the fabric process (pid 3) with N "
                             "per-link tracks in every trace")
    args = parser.parse_args(argv)
    for path in args.trace:
        check_trace(path, expect_host=args.expect_host,
                    expect_chips=args.expect_chips,
                    expect_links=args.expect_links)


if __name__ == "__main__":
    main()
