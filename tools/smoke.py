#!/usr/bin/env python3
"""Smoke and golden tests: run one scenario end to end.

  smoke.py SCENARIO WORK_DIR PATH...

WORK_DIR is emptied first; the PATHs are the binaries and inputs the
scenario runs (see SCENARIOS). A scenario runs the tool, requires
byte-identical artifacts from repeated runs where the run must be
deterministic, and hands the files to the validators in this
directory, called in-process. Those validators only check across
files (heatmap vs stats JSON, folded stacks vs profile, trace layout
vs the run's shape, a run vs its golden or baseline); identities
inside one artifact are C++ assertions and gtests.

Exits 0 on success; on the first failure prints the reason and exits
non-zero. Each ctest smoke/golden test is one call, registered by
cyclops_smoke() in the top-level CMakeLists.txt.
"""

import filecmp
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check_fabric  # noqa: E402
import check_faultcamp  # noqa: E402
import check_goldens  # noqa: E402
import check_prof  # noqa: E402
import check_regress  # noqa: E402
import check_simperf  # noqa: E402
import check_trace  # noqa: E402


def fail(msg):
    print(f"smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, expect_rc=0, cwd=None):
    """Run cmd; require exit status expect_rc; return stdout, stderr."""
    cmd = [str(c) for c in cmd]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd)
    if p.returncode != expect_rc:
        fail(f"{' '.join(cmd)} exited {p.returncode}, want {expect_rc}:"
             f"\n{p.stdout}\n{p.stderr}")
    return p.stdout, p.stderr


def same_bytes(a, b, names):
    """Each named artifact must be byte-identical in dirs a and b."""
    for name in names:
        if not filecmp.cmp(a / name, b / name, shallow=False):
            fail(f"{name} differs between {a} and {b}: identical runs "
                 f"must write identical files")


def check(validator, *argv, expect_rc=0):
    """Call validator.main(argv) in-process; require its exit status."""
    argv = [str(a) for a in argv]
    try:
        rc = validator.main(argv) or 0
    except SystemExit as e:
        rc = e.code or 0
    if rc != expect_rc:
        fail(f"{validator.__name__} {' '.join(argv)} exited {rc}, "
             f"want {expect_rc}")


def manifest_ok(path):
    if json.loads(path.read_text()).get("schema") != "cyclops-manifest-v1":
        fail(f"{path} lacks the cyclops-manifest-v1 schema")


def observability(work, runner, program):
    """Every single-chip export, then host telemetry and a manifest."""
    run([runner, "-t", 4, "--trace-out", work / "trace.json",
         "--trace-cats", "all", "--stats-json", work / "stats.json",
         "--stats-csv", work / "series.csv", "--stats-interval", 100,
         program])
    check(check_trace, "--trace", work / "trace.json")
    for name in ("stats.json", "series.csv"):
        if not (work / name).stat().st_size:
            fail(f"{name} is empty")
    run([runner, "-t", 8, "--host-obs",
         "--trace-out", work / "host_trace.json", "--trace-cats", "all",
         "--stats-json", work / "host_stats.json",
         "--manifest", work / "manifest.json", program])
    check(check_trace, "--expect-host", "--trace", work / "host_trace.json")
    manifest_ok(work / "manifest.json")


def multichip(work, runner, program):
    """A 2x2x1 torus: one console, stats file and trace process per
    chip; a mesh run of the same program completes too."""
    out, _ = run([runner, "-t", 4, "--chips", "2,2,1",
                  "--trace-out", work / "trace.json", "--trace-cats", "all",
                  "--stats-json", work / "stats.json",
                  "--manifest", work / "manifest.json", program])
    for chip in range(4):
        if f"[chip {chip}]" not in out:
            fail(f"no console output from chip {chip}:\n{out}")
        stats = work / f"stats.json.chip{chip}"
        if "cycles" not in json.loads(stats.read_text()):
            fail(f"{stats} has no cycle count")
    check(check_trace, "--expect-chips", 4, "--trace", work / "trace.json")
    manifest_ok(work / "manifest.json")
    run([runner, "-t", 2, "--chips", "2x2x1", "--mesh", program])


def fabric_runs(work, runner, program, flags):
    """Two identical 2x2x1 runs with the fabric exports into a/ and b/;
    returns both dirs and both runs' stderr."""
    dirs = work / "a", work / "b"
    errs = []
    for d in dirs:
        d.mkdir()
        errs.append(run([runner, "-t", 4, "--chips", "2,2,1", *flags(d),
                         "--fabric-stats", d / "fabric.json",
                         "--fabric-heatmap", d / "heatmap.csv",
                         program])[1])
    return (*dirs, errs)


def fabric_obs(work, runner, program):
    """Deterministic fabric exports that agree with each other; a
    2x2x1 torus registers 8 directed links (extent-2 minus wires
    duplicate the plus wires)."""
    a, b, _ = fabric_runs(work, runner, program, lambda d: [
        "--trace-out", d / "trace.json", "--trace-cats", "all",
        "--stats-interval", 64])
    same_bytes(a, b, ["trace.json", "fabric.json", "heatmap.csv"])
    check(check_fabric, a / "fabric.json", "--heatmap", a / "heatmap.csv")
    check(check_trace, "--expect-chips", 4, "--expect-links", 8,
          "--trace", a / "trace.json")


def fabric_fault(work, runner, program):
    """A dead link and a seeded flaky link: the run completes, reports
    its faults, retransmits at least once (so the checksum/NACK/retry
    path runs), repeats byte for byte, and its exports agree."""
    a, b, errs = fabric_runs(work, runner, program, lambda d: [
        "--disable-link", "0->1", "--link-flaky", "1->0=800000",
        "--fabric-fault-seed", 7])
    for err in errs:
        summary = re.search(r"\[fabric faults: \d+ rerouted, (\d+) "
                            r"retransmits", err)
        if not summary:
            fail(f"degraded run printed no fault summary:\n{err}")
        if int(summary.group(1)) == 0:
            fail(f"flaky link caused no retransmit:\n{err}")
    same_bytes(a, b, ["fabric.json", "heatmap.csv"])
    check(check_fabric, a / "fabric.json", "--heatmap", a / "heatmap.csv")


def profiler(work, runner, program):
    """Two identical --prof-out runs: byte-identical, and the folded
    stacks carry the profile's samples."""
    for side in ("a", "b"):
        (work / side).mkdir()
        run([runner, "-t", 4, "--prof-out", work / side / "prof.json",
             "--prof-interval", 16, program])
    same_bytes(work / "a", work / "b",
               ["prof.json", "prof.json.folded", "prof.json.heatmap.csv"])
    base = work / "a" / "prof.json"
    check(check_prof, "--validate", base, "--report", base)


def simperf(work, bench):
    """A quick bench_simperf report must pass every check_simperf gate.
    Sanitizer builds instrument the fabric sampler far more heavily
    than the simulation loop, so the fabric overhead bound is 30%
    there instead of 10% (simCyclesDrift == 0 holds everywhere)."""
    run([bench, "--quick", "--jobs", 2], cwd=work)
    image = Path(bench).read_bytes()
    sanitized = b"__asan_init" in image or b"__tsan_init" in image
    check(check_simperf, work / "BENCH_simperf.json",
          "--max-fabric-overhead", 30 if sanitized else 10)


def regress(work, bench):
    """Two quick bench_simperf legs compare clean (reports and
    manifests), and a fabricated 10x slowdown is rejected. The 60%
    tolerance tests the comparison, not the host's stability."""
    for leg in ("baseline", "current"):
        (work / leg).mkdir()
        run([bench, "--quick", "--jobs", 2,
             "--manifest", work / leg / "manifest.json"], cwd=work / leg)
    for name in ("BENCH_simperf.json", "manifest.json"):
        check(check_regress, "--tolerance-pct", 60,
              work / "baseline" / name, work / "current" / name)
    # Only workload rows carry throughput numbers.
    text = (work / "current" / "BENCH_simperf.json").read_text()
    text = re.sub(r'"mips": [0-9.]+', '"mips": 0.0001', text)
    text = re.sub(r'"cyclesPerSec": [0-9.]+', '"cyclesPerSec": 1', text)
    (work / "current" / "slow.json").write_text(text)
    check(check_regress, "--tolerance-pct", 60,
          work / "baseline" / "BENCH_simperf.json",
          work / "current" / "slow.json", expect_rc=1)


def campaigns(work, runner, flags, jobs):
    """The same campaign at two job counts must be byte-identical and
    obey the outcome rules."""
    for side, j in zip(("a", "b"), jobs):
        (work / side).mkdir()
        run([runner, *flags, "--jobs", j, "--out", work / side / "camp.json"])
    same_bytes(work / "a", work / "b", ["camp.json"])
    check(check_faultcamp, work / "a" / "camp.json")


def faultcamp(work, runner):
    campaigns(work, runner, ["--seed", 3, "--iters", 40], (0, 1))


def faultcamp_link(work, runner):
    campaigns(work, runner,
              ["--kind", "link", "--seed", 9, "--iters", 8], (1, 2))


def golden(work, bench, golden_csv):
    """A figure bench's quick CSV against its committed golden."""
    out, _ = run([bench, "--quick", "--csv"])
    actual = work / Path(golden_csv).name
    actual.write_text(out)
    check(check_goldens, "--golden", golden_csv, "--actual", actual)


SCENARIOS = {f.__name__: f for f in (
    observability, multichip, fabric_obs, fabric_fault, profiler,
    simperf, regress, faultcamp, faultcamp_link, golden)}


def main():
    if len(sys.argv) < 3 or sys.argv[1] not in SCENARIOS:
        fail(f"usage: smoke.py {{{','.join(SCENARIOS)}}} WORK_DIR PATH...")
    work = Path(sys.argv[2])
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    SCENARIOS[sys.argv[1]](work, *sys.argv[3:])
    print(f"smoke: {sys.argv[1]}: ok")


if __name__ == "__main__":
    main()
