#!/usr/bin/env python3
"""Host-speed benchmark of the cyclops simulator.

    python3 perfbench/run.py --workload stream_isa --seed 1 --seconds 20 --trace 0

Builds the benchmark driver (perfbench/CMakeLists.txt) into
.bench_build/ on first use, generates the workload's job list from the
seed, runs it, checks the simulator's outputs and prints a summary,
then one JSON line with the metrics as the last line of standard
output. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones. See perfbench/README.md for what each metric means.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench" / "perfbench"

DEFAULT_SEED = 1
HELD_OUT_SEED = 2002  # reserved for confirming claims; do not tune on it

WORKLOADS = ("stream_isa", "splash_exec", "halo_fabric")

# (name, unit, better) of every metric; BENCHMARK.json lists the same.
END_TO_END = [
    ("sim_mips", "MIPS", "higher"),
    ("sim_mcps", "Mcycles/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

ISOLATED = [
    ("isa.decode_ns", "ns"), ("isa.meta_ns", "ns"),
    ("thread_unit.alu_ns", "ns"), ("thread_unit.ldst_ns", "ns"),
    ("exec.op_ns", "ns"),
    ("dcache.hit_ns", "ns"), ("dcache.miss_ns", "ns"),
    ("memsys.local_ns", "ns"), ("memsys.remote_ns", "ns"),
    ("chip.mem_rw_ns", "ns"), ("membank.reserve_ns", "ns"),
    ("fpu.dispatch_ns", "ns"),
    ("fabric.inject_ns", "ns"), ("fabric.advance_ns", "ns"),
    ("chip.construct_ms", "ms"), ("chip.load_ms", "ms"),
    ("system.construct_ms", "ms"),
]

ATTR_CATS = ("run", "icacheMiss", "dcacheMiss", "bankContention",
             "fpuArb", "barrierWait", "remoteWait", "sleep")

COUNTS = [
    ("chip.sim_cycles", "cycles", "lower"),
    ("chip.instructions", "count", "lower"),
    ("dcache.accesses", "count", "lower"),
    ("dcache.hit_ratio", "ratio", "higher"),
    ("dcache.writebacks", "count", "lower"),
    ("dcache.port_wait_cycles", "cycles", "lower"),
    ("memsys.accesses", "count", "lower"),
    ("memsys.local_ratio", "ratio", "higher"),
    ("membank.accesses", "count", "lower"),
    ("membank.busy_ratio", "ratio", "lower"),
    ("membank.queue_cycles", "cycles", "lower"),
    ("fpu.ops", "count", "lower"),
    ("fpu.conflict_ratio", "ratio", "lower"),
    ("icache.hit_ratio", "ratio", "higher"),
    ("barrier.releases", "count", "lower"),
    ("fabric.messages", "count", "lower"),
    ("fabric.flits", "count", "lower"),
    ("fabric.queue_cycles", "cycles", "lower"),
    ("system.epochs", "count", "lower"),
] + [("attr." + c, "ratio", "higher" if c == "run" else "lower")
     for c in ATTR_CATS]

SHARE_LAYERS = ("thread_unit", "exec", "dcache", "memsys", "membank",
                "fpu", "fabric")

DERIVED = [(layer + ".est_share", "ratio", "lower")
           for layer in SHARE_LAYERS] + [
    ("host.cpu_wall_ratio", "ratio", "higher"),
    ("trace.overhead_pct", "%", "lower"),
]

PER_LAYER = [(n, u, "lower") for n, u in ISOLATED] + COUNTS + DERIVED

NOTES = (
    "model: no hardware reference exists; goldens are self-regressions "
    "and the paper is matched in shape only, so no error figure is "
    "reported",
    "caches: every job starts on a fresh machine with empty caches, "
    "except that STREAM differences a 2- and a 4-iteration run so its "
    "steady-state iterations see warm caches",
)

MASK64 = (1 << 64) - 1


class Rng:
    """splitmix64: the job lists depend on nothing but the seed."""

    def __init__(self, seed):
        self.state = seed & MASK64

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n):
        return self.next() % n

    def shuffled(self, items):
        items = list(items)
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


# Problem sizes per SPLASH-2 app (Barnes, FFT, FMM, LU, Ocean, Radix),
# cut down from the Figure 3 defaults so each job takes 0.1-0.4 s on
# one host core and no kernel dominates the workload's time.
SPLASH_SIZES = (256, 4096, 512, 96, 130, 32768)
SPLASH_TINY_SIZES = (32, 1024, 32, 32, 34, 1024)
HALO_SHAPES = ((2, 2, 2), (4, 2, 1), (4, 4, 1))


def make_jobs(workload, seed, tiny=False):
    """The job list of one run: a pure function of (workload, seed).

    Each list is one stratified pass: every STREAM kernel, every
    (SPLASH-2 app, thread count) pair and every torus shape appears
    equally often, so the seed changes order and sizes but not the mix
    that the host-speed figures average over.
    """
    rng = Rng(seed)
    if workload == "stream_isa":
        # Out-of-cache sizes: 1600-2000 elements per thread (Fig 4-6).
        lo, hi = (64, 96) if tiny else (1600, 2000)
        return ["stream %d %d" % (k, lo + 8 * rng.below((hi - lo) // 8 + 1))
                for k in rng.shuffled(range(4))]
    if workload == "splash_exec":
        sizes = SPLASH_TINY_SIZES if tiny else SPLASH_SIZES
        threads = (16,) if tiny else (16, 32, 64)
        pairs = [(a, t) for a in range(6) for t in threads]
        return ["splash %d %d %d" % (a, t, sizes[a])
                for a, t in rng.shuffled(pairs)]
    if workload == "halo_fabric":
        if tiny:
            return ["halo 2 2 1 32 4", "halo 2 1 1 32 4"]
        jobs = []
        for _ in range(2):
            jobs += ["halo %d %d %d 512 32" % s
                     for s in rng.shuffled(HALO_SHAPES)]
        return jobs
    raise ValueError("unknown workload " + workload)


def build():
    """Configure (once) and build the driver; False on failure."""
    def step(cmd):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        return done.returncode == 0

    build_dir = BUILD / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        if not step(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                     str(build_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]):
            return False
    jobs = str(min(os.cpu_count() or 1, 4))
    return step(["cmake", "--build", str(build_dir), "--target",
                 "perfbench", "-j", jobs])


def fnv_digest(hex_digests):
    """FNV-1a over per-job digests, as the driver mixes a u64."""
    h = 0xCBF29CE484222325
    for d in hex_digests:
        v = int(d, 16)
        for i in range(8):
            h ^= (v >> (8 * i)) & 0xFF
            h = (h * 0x100000001B3) & MASK64
    return "%016x" % h


def check_runs(report):
    """Failed runs and the workload digest.

    A run fails when the job reports a failure (unverified result, an
    exit other than all-halted, a guest error or exception) or when its
    digest differs from the first run of the same job-list position:
    repeats, the traced run and the final re-run of job 0 must all
    reproduce it exactly.
    """
    first = {}
    failed = []
    for r in report["runs"]:
        ref = first.setdefault(r["pos"], r["digest"])
        if not r["ok"]:
            failed.append("job %d (%s): %s" % (r["pos"], r["phase"],
                                               r["error"]))
        elif r["digest"] != ref:
            failed.append("job %d (%s): digest %s != %s" % (
                r["pos"], r["phase"], r["digest"], ref))
    digest = fnv_digest(first[p] for p in range(len(report["jobs"])))
    return failed, digest


def rate(runs, key, scale=1e6):
    wall = sum(r["wall_s"] for r in runs)
    return sum(r[key] for r in runs) / wall / scale


def timed_metrics(report):
    runs = [r for r in report["runs"] if r["phase"] == "timed"]
    return {
        "sim_mips": rate(runs, "instructions"),
        "sim_mcps": rate(runs, "chip_cycles"),
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
    }


STAT_RE = re.compile(r"^(dcache|icache|fpu|bank)\d+\.(\w+)$")


def read_stats(path):
    """Summed counters of one traced job, its stats files' total chip
    cycles and bank-cycles (banks x cycles, for the busy ratio)."""
    totals, cycles, bank_cycles = {}, 0, 0
    base = Path(path)
    files = [base] if base.exists() else sorted(
        base.parent.glob(base.name + ".chip*"))
    if not files:
        raise FileNotFoundError("no stats export at " + path)
    for f in files:
        doc = json.loads(f.read_text())
        banks = set()
        for name, value in doc["counters"].items():
            m = STAT_RE.match(name)
            if m:
                key = m.group(1) + "." + m.group(2)
                if m.group(1) == "bank":
                    banks.add(name.split(".")[0])
            elif name.startswith(("mem.", "barrier.")):
                key = name
            else:
                continue
            totals[key] = totals.get(key, 0) + value
        cycles += doc["cycles"]
        bank_cycles += doc["cycles"] * len(banks)
    return totals, cycles, bank_cycles


def ratio(a, b):
    return a / b if b else 0.0


def traced_metrics(report, workload):
    # A failed job may have no stats export; it already makes the run
    # incorrect, so the counts cover the jobs that finished.
    runs = [r for r in report["runs"] if r["ok"]]
    traced = [r for r in runs if r["phase"] == "traced"]
    untraced = [r for r in runs if r["phase"] == "untraced"]
    layers = {l["name"]: l["value"] for l in report["layers"]}

    c = {}
    bank_cycles = 0
    covered_s = 0.0  # traced host seconds the stats exports cover
    covered_instr = 0.0  # instructions retired in that time
    for r in traced:
        totals, cycles, bcycles = read_stats(r["stats"])
        for k, v in totals.items():
            c[k] = c.get(k, 0) + v
        bank_cycles += bcycles
        # STREAM exports its 4-iteration run only; weigh the job's host
        # time by the share of its chip-cycles the export covers.
        frac = min(1.0, cycles / r["chip_cycles"])
        covered_s += r["wall_s"] * frac
        covered_instr += r["instructions"] * frac
    g = lambda k: c.get(k, 0)

    m = dict(layers)
    instructions = sum(r["instructions"] for r in traced)
    m["chip.sim_cycles"] = sum(r["chip_cycles"] for r in traced)
    m["chip.instructions"] = instructions
    hits, misses = g("dcache.hits"), g("dcache.misses")
    m["dcache.accesses"] = hits + misses
    m["dcache.hit_ratio"] = ratio(hits, hits + misses)
    m["dcache.writebacks"] = g("dcache.writebacks")
    m["dcache.port_wait_cycles"] = g("dcache.portWaitCycles")
    local = g("mem.localHits") + g("mem.localMisses")
    remote = g("mem.remoteHits") + g("mem.remoteMisses")
    m["memsys.accesses"] = g("mem.loads") + g("mem.stores") + g("mem.atomics")
    m["memsys.local_ratio"] = ratio(local, local + remote)
    m["membank.accesses"] = g("bank.accesses")
    m["membank.busy_ratio"] = ratio(g("bank.busyCycles"), bank_cycles)
    m["membank.queue_cycles"] = g("bank.queueCycles")
    m["fpu.ops"] = g("fpu.ops")
    m["fpu.conflict_ratio"] = ratio(g("fpu.conflicts"), g("fpu.ops"))
    m["icache.hit_ratio"] = ratio(g("icache.hits"),
                                  g("icache.hits") + g("icache.misses"))
    m["barrier.releases"] = g("barrier.releases")
    for key, field in (("fabric.messages", "messages"),
                       ("fabric.flits", "flits"),
                       ("fabric.queue_cycles", "fabric_queue_cycles"),
                       ("system.epochs", "epochs")):
        m[key] = sum(r[field] for r in traced)
    attr = [sum(r["attr"][i] for r in traced) for i in range(len(ATTR_CATS))]
    for name, v in zip(ATTR_CATS, attr):
        m["attr." + name] = ratio(v, sum(attr))

    # Isolated cost x in-situ count over the covered traced host time.
    # Nested layers overlap (memsys contains dcache and membank), so
    # the shares show direction, not a partition.
    traced_s = sum(r["wall_s"] for r in traced)
    per_s = lambda ns_total, seconds: ratio(ns_total * 1e-9, seconds)
    isa = workload == "stream_isa"
    mem_ops = m["memsys.accesses"]
    m["thread_unit.est_share"] = per_s(
        layers["thread_unit.alu_ns"] * max(0.0, covered_instr - mem_ops) +
        layers["thread_unit.ldst_ns"] * mem_ops, covered_s) if isa else 0.0
    m["exec.est_share"] = 0.0 if isa else per_s(
        layers["exec.op_ns"] * instructions, traced_s)
    m["dcache.est_share"] = per_s(layers["dcache.hit_ns"] * hits +
                                  layers["dcache.miss_ns"] * misses,
                                  covered_s)
    m["memsys.est_share"] = per_s(layers["memsys.local_ns"] * local +
                                  layers["memsys.remote_ns"] * remote,
                                  covered_s)
    m["membank.est_share"] = per_s(layers["membank.reserve_ns"] *
                                   g("bank.accesses"), covered_s)
    m["fpu.est_share"] = per_s(layers["fpu.dispatch_ns"] * g("fpu.ops"),
                               covered_s)
    m["fabric.est_share"] = per_s(
        layers["fabric.inject_ns"] * m["fabric.messages"] +
        layers["fabric.advance_ns"] * m["system.epochs"], traced_s)
    m["host.cpu_wall_ratio"] = ratio(sum(r["cpu_s"] for r in untraced),
                                     sum(r["wall_s"] for r in untraced))
    m["trace.overhead_pct"] = (1 - ratio(rate(traced, "instructions"),
                                         rate(untraced, "instructions"))) * 100
    return m


def self_checks(report, metrics, trace):
    """Benchmark-internal invariants; any message makes correct false."""
    problems = []
    for name, value in metrics.items():
        if not isinstance(value, (int, float)) or value != value:
            problems.append("metric %s is not a number" % name)
    if trace:
        shares = sum(metrics["attr." + c] for c in ATTR_CATS)
        if abs(shares - 1.0) > 1e-9:
            problems.append("attr shares sum to %r" % shares)
        for l in report["layers"]:
            if l["ops"] <= 0 or l["value"] <= 0:
                problems.append("isolated timing %s has no operations"
                                % l["name"])
    else:
        for name in ("sim_mips", "sim_mcps", "setup_s", "peak_rss_mb"):
            if metrics[name] <= 0:
                problems.append("%s is not positive" % name)
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny sizes, for the benchmark's self-tests")
    args = ap.parse_args(argv)

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2

    jobs = make_jobs(args.workload, args.seed, args.tiny)
    out = BUILD / "runs" / ("%s-s%d-t%d-%d" % (args.workload, args.seed,
                                                args.trace, os.getpid()))
    out.mkdir(parents=True, exist_ok=True)
    (out / "jobs.txt").write_text("\n".join(jobs) + "\n")
    cmd = [str(BINARY), "--jobs", str(out / "jobs.txt"), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--out", str(out)]
    if args.tiny:
        cmd.append("--tiny")
    started = time.monotonic()
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, timeout=170)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print("perfbench: driver exited %d" % done.returncode,
              file=sys.stderr)
        return 1
    report = json.loads((out / "report.json").read_text())

    failed, digest = check_runs(report)
    if args.trace:
        metrics = traced_metrics(report, args.workload)
        specs = PER_LAYER
    else:
        metrics = timed_metrics(report)
        specs = END_TO_END
    problems = self_checks(report, metrics, args.trace)

    print("workload: %s  seed: %d (default %d, held-out %d)  trace: %d" % (
        args.workload, args.seed, DEFAULT_SEED, HELD_OUT_SEED, args.trace))
    print("jobs: %s" % json.dumps(report["jobs"]))
    print("nproc: %d  runs: %d  host seconds: %.1f" % (
        report["nproc"], len(report["runs"]), time.monotonic() - started))
    for r in report["runs"]:
        print("  job %2d %-8s wall %.4f s  cpu %.4f s  cycles %d  "
              "instructions %d  %s" % (
                  r["pos"], r["phase"], r["wall_s"], r["cpu_s"],
                  r["chip_cycles"], r["instructions"],
                  "ok" if r["ok"] else "FAILED: " + r["error"]))
    print("sim_digest: %s" % digest)
    print("fail_ratio: %d/%d" % (len(failed), len(report["runs"])))
    for line in failed + problems:
        print("  problem: " + line)
    for note in NOTES:
        print("note: " + note)
    if args.trace:
        print("spans: %s" % (out / "spans.json"))
    for name, unit, better in specs:
        print("  %-26s %14.6g %-10s (%s is better)" % (
            name, metrics[name], unit, better))

    result = {
        "correct": not failed and not problems,
        "attempted": len(report["runs"]),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
