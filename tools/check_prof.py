#!/usr/bin/env python3
"""Validate and summarize the simulator's profiler outputs.

A --prof-out run writes three files from one base path: the JSON
report (base), flamegraph folded stacks (base.folded) and the bank
heatmap (base.heatmap.csv).

  check_prof.py --validate prof.json      folded stacks vs JSON total
  check_prof.py --report prof.json        top symbols and bank utilization
  check_prof.py --report prof.json --top 5

Validation cross-checks the two sample views: the folded-stack weights
must sum to the JSON's "samples". The identities inside each file are
gtests: Profiler.StreamProfileTopSymbolIsKernelLoop (per-symbol and
per-thread sums, ordering, heatmap layout) and
Profiler.HeatmapColumnsSumToBankAccesses (access columns vs bank
counters). Exits non-zero with a message on the first violation.
"""

import argparse
import json
import sys


def fail(msg: str) -> None:
    print(f"check_prof: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path: str) -> dict:
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        fail(f"{path}: not a JSON object")
    return doc


def validate(base: str) -> None:
    """The folded stacks must carry exactly the JSON's samples."""
    doc = load(base)
    path = base + ".folded"
    total = 0
    with open(path) as f:
        for ln, line in enumerate(f, start=1):
            stack, _, count = line.rstrip("\n").rpartition(" ")
            if not stack.startswith("tu") or ";" not in stack or \
                    not count.isdigit():
                fail(f"{path}: line {ln} is not 'tuN;symbol count'")
            total += int(count)
    if total != doc["samples"]:
        fail(f"{path}: folded weights sum to {total}, "
             f"want {doc['samples']} samples from {base}")
    print(f"{path}: ok ({total} folded samples match {base})")


def report(base: str, top: int) -> None:
    doc = load(base)
    total = doc["samples"]
    print(f"profile: {doc['cycles']} cycles, {total} samples "
          f"(interval {doc['profInterval']}), "
          f"{len(doc['threads'])} sampled threads")
    print(f"\ntop {top} symbols:")
    print(f"  {'symbol':<24} {'samples':>10} {'pct':>7}")
    for s in doc["symbols"][:top]:
        print(f"  {s['symbol']:<24} {s['samples']:>10} "
              f"{s['pct']:>6.2f}%")

    banks = doc["banks"]
    total_acc = sum(b["accesses"] for b in banks)
    busy = sum(b["busyCycles"] for b in banks)
    queue = sum(b["queueCycles"] for b in banks)
    used = sum(1 for b in banks if b["accesses"] > 0)
    print(f"\nbank utilization: {used}/{len(banks)} banks used, "
          f"{total_acc} accesses, {busy} busy cycles, "
          f"{queue} queue cycles")
    if total_acc:
        hottest = max(banks, key=lambda b: b["accesses"])
        mean = total_acc / len(banks)
        print(f"  hottest bank {hottest['bank']}: "
              f"{hottest['accesses']} accesses "
              f"({hottest['accesses'] / mean:.2f}x the mean)")
    print("\nig class hit rates:")
    for c in doc["igClasses"]:
        if c["accesses"] == 0:
            continue
        lookups = c["hits"] + c["misses"]
        rate = 100.0 * c["hits"] / lookups if lookups else 0.0
        print(f"  {c['class']:<8} {c['accesses']:>10} accesses "
              f"{rate:>6.2f}% hit")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--validate", action="append", default=[],
                        metavar="BASE",
                        help="profile base path to validate (checks "
                             "BASE.folded against BASE)")
    parser.add_argument("--report", action="append", default=[],
                        metavar="BASE",
                        help="profile base path to summarize")
    parser.add_argument("--top", type=int, default=10,
                        help="symbols to show in --report (default 10)")
    args = parser.parse_args(argv)
    if not (args.validate or args.report):
        fail("nothing to do (use --validate/--report)")
    for base in args.validate:
        validate(base)
    for base in args.report:
        report(base, args.top)


if __name__ == "__main__":
    main()
