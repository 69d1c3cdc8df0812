#!/usr/bin/env python3
"""Cross-check a fabric stats export against its congestion heatmap.

  check_fabric.py fabric.json --heatmap heatmap.csv

fabric.json is the cyclops-fabric-v1 file written by --fabric-stats
and heatmap.csv the file written by --fabric-heatmap of the same run
(DESIGN.md section 17). The CSV must agree with the JSON row for row:
pair rows are the (src, dst) traffic matrix, link rows the
per-directed-link congestion columns.

The identities inside the JSON are asserted in C++, not here: flit
conservation is fatal in net::Fabric::checkConservation on every
advance, and the per-pair/per-link sums, the latency split and the
healthy/degraded forms are pinned by the FabricObs.* and FabricFault.*
gtests on the same counters the writer prints.

Exits non-zero with a message on the first disagreement.
"""

import argparse
import json
import sys

HEATMAP_HEADER = ["# cyclops-fabric-heatmap-v1",
                  "kind,src,dst,dir,messages,bytes,flits,busyCycles,"
                  "stallCycles,occFlitCycles,occPeak"]


def fail(msg: str) -> None:
    print(f"check_fabric: {msg}", file=sys.stderr)
    sys.exit(1)


def check_heatmap(stats_path: str, heatmap_path: str) -> None:
    with open(stats_path) as f:
        doc = json.load(f)
    if doc.get("schema") != "cyclops-fabric-v1":
        fail(f"{stats_path}: schema '{doc.get('schema')}' is not "
             f"cyclops-fabric-v1")
    with open(heatmap_path) as f:
        lines = f.read().splitlines()
    if lines[:2] != HEATMAP_HEADER:
        fail(f"{heatmap_path}: missing cyclops-fabric-heatmap-v1 header")
    pair_rows = {}
    link_rows = {}
    for i, line in enumerate(lines[2:], start=3):
        kind, *cells = line.split(",")
        try:
            vals = [int(v) for v in cells]
        except ValueError:
            fail(f"{heatmap_path}: line {i} has a non-integer field")
        if len(vals) != 10 or kind not in ("pair", "link"):
            fail(f"{heatmap_path}: line {i} is not a pair or link row")
        rows = pair_rows if kind == "pair" else link_rows
        # pair: messages, bytes, flits; link: flits .. occPeak
        rows[(vals[0], vals[1])] = vals[3:6] if kind == "pair" else vals[5:]

    want_pairs = {(p["src"], p["dst"]):
                  [p["messages"], p["bytes"], p["flits"]]
                  for p in doc["pairs"]}
    if pair_rows != want_pairs:
        fail(f"{heatmap_path}: pair rows disagree with the JSON chip-pair "
             f"matrix")
    want_links = {(l["src"], l["dst"]):
                  [l["flits"], l["busyCycles"], l["stallCycles"],
                   l["occFlitCycles"], l["occPeak"]]
                  for l in doc["links"]}
    if link_rows != want_links:
        fail(f"{heatmap_path}: link rows disagree with the JSON links "
             f"array")
    counters = doc["counters"]
    note = ""
    if doc["faults"]["active"]:
        note = (f", {len(doc['faults']['links'])} faulty links: "
                f"{counters['fabric.rerouted']} rerouted, "
                f"{counters['fabric.retransmits']} retransmits, "
                f"{counters['fabric.droppedFlits']} flits dropped")
    print(f"{heatmap_path}: ok ({len(pair_rows)} pair rows, "
          f"{len(link_rows)} link rows agree with {stats_path}{note})")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("stats", help="cyclops-fabric-v1 JSON file")
    parser.add_argument("--heatmap", required=True,
                        help="congestion heatmap CSV of the same run")
    args = parser.parse_args(argv)
    check_heatmap(args.stats, args.heatmap)


if __name__ == "__main__":
    main()
