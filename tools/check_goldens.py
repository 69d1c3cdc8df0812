#!/usr/bin/env python3
"""Compare a benchmark CSV against its committed golden.

Structure (table count, row count, headers, non-numeric cells) must
match exactly. A numeric cell passes when

    |actual - golden| <= max(ABS_TOL, REL_TOL * |golden|)

The tolerance absorbs rounding of derived quantities (speedups and
percentages are printed with one decimal); raw cycle counts are exact
in a deterministic simulator but share the same band so a legitimate
timing-model change shows up as a controlled, reviewable golden update
rather than CI noise.
"""

import argparse
import sys

ABS_TOL = 2.0
REL_TOL = 0.05


def parse_number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def compare(golden_path, actual_path):
    with open(golden_path) as f:
        golden = f.read().splitlines()
    with open(actual_path) as f:
        actual = f.read().splitlines()

    errors = []
    if len(golden) != len(actual):
        errors.append(
            f"line count differs: golden {len(golden)}, actual {len(actual)}"
        )
    for lineno, (g, a) in enumerate(zip(golden, actual), start=1):
        gcells = g.split(",")
        acells = a.split(",")
        if len(gcells) != len(acells):
            errors.append(f"line {lineno}: column count differs")
            continue
        for col, (gc, ac) in enumerate(zip(gcells, acells), start=1):
            gnum = parse_number(gc)
            anum = parse_number(ac)
            if gnum is None or anum is None:
                if gc.strip() != ac.strip():
                    errors.append(
                        f"line {lineno} col {col}: '{ac}' != '{gc}'"
                    )
                continue
            tol = max(ABS_TOL, REL_TOL * abs(gnum))
            if abs(anum - gnum) > tol:
                errors.append(
                    f"line {lineno} col {col}: {anum} vs golden {gnum} "
                    f"(tol {tol:.3g})"
                )
    return errors


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--golden", required=True)
    ap.add_argument("--actual", required=True)
    args = ap.parse_args(argv)

    errors = compare(args.golden, args.actual)
    if errors:
        print(f"{args.actual} diverges from {args.golden}:")
        for e in errors[:20]:
            print(f"  {e}")
        if len(errors) > 20:
            print(f"  ... and {len(errors) - 20} more")
        return 1
    print(f"{args.actual}: matches golden within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
