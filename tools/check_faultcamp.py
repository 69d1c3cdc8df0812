#!/usr/bin/env python3
"""Check a cyclops-faultcamp JSON report's outcome rules.

  check_faultcamp.py camp.json

The rules tie each fault's kind to what it may do to the run:
  - cache-line faults are architecturally inert (timing-directory
    caches; functional data lives in flat DRAM), so they must classify
    as masked;
  - a dead link (ppm == 0, escapePpm == 0) never classifies as sdc:
    only a checksum escape can corrupt data silently.

The report's own bookkeeping (counts equal the tally of outcomes,
iteration order, per-kind target fields, detail strings, the header)
is pinned by the Faultcamp.DeterministicAcrossJobCounts gtest, and
byte-determinism across job counts by the smoke tests
(tools/smoke.py).
"""

import argparse
import json
import sys

SCHEMA = "cyclops-faultcamp-v1"


def fail(msg):
    print(f"check_faultcamp: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check(path):
    with open(path) as f:
        camp = json.load(f)
    if camp.get("schema") != SCHEMA:
        fail(f"schema is {camp.get('schema')!r}, want {SCHEMA!r}")
    for i, inj in enumerate(camp["injections"]):
        where = f"injection {i}"
        if inj["kind"] == "cacheLine" and inj["outcome"] != "masked":
            fail(f"{where}: cache-line fault classified "
                 f"'{inj['outcome']}' (timing-only faults must be masked)")
        if inj["kind"] == "link" and inj["ppm"] == 0 and \
                inj["escapePpm"] == 0 and inj["outcome"] == "sdc":
            fail(f"{where}: dead link classified 'sdc' (a dead link "
                 "cannot corrupt data silently)")
    print(f"check_faultcamp: OK: {len(camp['injections'])} injections, " +
          " ".join(f"{k}={v}" for k, v in camp["counts"].items()))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("report", help="campaign JSON report")
    check(ap.parse_args(argv).report)


if __name__ == "__main__":
    main()
