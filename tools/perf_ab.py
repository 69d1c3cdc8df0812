#!/usr/bin/env python3
"""Interleaved A/B host-speed comparison against a git revision.

    python3 tools/perf_ab.py --base HEAD~1 --workload stream_isa \\
        --pairs 10 --seconds 25 [--seed 1]

Checks <rev> out into a temporary git worktree and runs
`perfbench/run.py --trace 0` there ("base") and in this working tree
("change") in N pairs, alternating which side runs first. Then prints,
for every end-to-end metric, each side's median and quartiles, the
change/base ratio of the medians, how many pairs the change won (ties
count for neither side), and whether the gain rule holds: at least
nine tenths of the pairs won and a median gap wider than the base's
interquartile range. Last it checks that both sides report the same
sim_digest and no failed jobs.

Exit status: 0 when the digests agree and no job failed, 1 otherwise,
2 on a usage or setup error. The script only reads perfbench/; each
side builds its own .bench_build/ on first use.
"""

import argparse
import importlib.util
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_end_to_end(root):
    """(name, unit, better) rows of perfbench/run.py's END_TO_END."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", root / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.END_TO_END


def run_side(root, workload, seed, seconds):
    """One timed perfbench run in @p root: (digest, failed, metrics)."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise RuntimeError("perfbench failed in %s" % root)
    lines = done.stdout.splitlines()
    digest = next((l.split(":", 1)[1].strip() for l in lines
                   if l.startswith("sim_digest:")), None)
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return digest, result["failed"], metrics


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(specs, base_runs, change_runs):
    """Print one row per metric: medians, quartiles, wins, gain rule."""
    pairs = len(base_runs)
    print("%-12s %-9s %26s %26s %7s %5s  %s" % (
        "metric", "unit", "base median [q1, q3]",
        "change median [q1, q3]", "ratio", "wins", "gain rule"))
    for name, unit, better in specs:
        base = [m[name] for m in base_runs]
        change = [m[name] for m in change_runs]
        bmed, cmed = statistics.median(base), statistics.median(change)
        bq1, bq3 = quartiles(base)
        cq1, cq3 = quartiles(change)
        sign = 1 if better == "higher" else -1
        wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
        gain = (wins * 10 >= pairs * 9 and
                sign * (cmed - bmed) > (bq3 - bq1))
        print("%-12s %-9s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] "
              "%7.3f %2d/%-2d  %s" % (
                  name, unit, bmed, bq1, bq3, cmed, cq1, cq3,
                  cmed / bmed if bmed else float("nan"), wins, pairs,
                  "met" if gain else "not met"))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True,
                    help="git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        ap.error("--pairs must be >= 1 and --seconds > 0")

    rev = subprocess.run(["git", "rev-parse", "--verify",
                          args.base + "^{commit}"], cwd=ROOT,
                         capture_output=True, text=True)
    if rev.returncode != 0:
        print("perf_ab: unknown revision '%s'" % args.base,
              file=sys.stderr)
        return 2
    sha = rev.stdout.strip()

    tmp = Path(tempfile.mkdtemp(prefix="perf_ab-"))
    base_root = tmp / "base"
    subprocess.run(["git", "worktree", "add", "--detach", "--quiet",
                    str(base_root), sha], cwd=ROOT, check=True)
    try:
        specs = load_end_to_end(ROOT)
        sides = {"base": base_root, "change": ROOT}
        runs = {"base": [], "change": []}
        digests = {"base": set(), "change": set()}
        failed = {"base": 0, "change": 0}
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else \
                    ("change", "base")
            for side in order:
                digest, nfailed, metrics = run_side(
                    sides[side], args.workload, args.seed, args.seconds)
                runs[side].append(metrics)
                digests[side].add(digest)
                failed[side] += nfailed
            print("pair %2d (%s first): %s" % (
                pair + 1, order[0], "  ".join(
                    "%s %.4g/%.4g" % (n, runs["base"][-1][n],
                                      runs["change"][-1][n])
                    for n, _, _ in specs)), flush=True)

        print("\nworkload %s  seed %d  %d pairs x %g s  base %s" % (
            args.workload, args.seed, args.pairs, args.seconds, sha[:12]))
        summarize(specs, runs["base"], runs["change"])
        agree = (len(digests["base"]) == 1 and
                 digests["base"] == digests["change"])
        print("sim_digest: base %s  change %s  %s" % (
            ",".join(sorted(digests["base"])),
            ",".join(sorted(digests["change"])),
            "agree" if agree else "DIFFER"))
        print("failed jobs: base %d  change %d" % (failed["base"],
                                                  failed["change"]))
        return 0 if agree and failed["base"] == failed["change"] == 0 \
            else 1
    finally:
        subprocess.run(["git", "worktree", "remove", "--force",
                        str(base_root)], cwd=ROOT)
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
