#!/usr/bin/env python3
"""Checks the paper-reproduction benches against a committed golden file.

Usage (from the root of a checkout, after building):

    python3 tools/check_paper_benches.py build/bench
    python3 tools/check_paper_benches.py build/bench --update

Runs the twelve figure/table benches with `--json` and compares their JSONL
records, in order, with tools/paper_benches.golden.jsonl.  `wall_ms` is
dropped, `predicted_pages` may differ by a relative 1e-9 (the cost model's
floating-point arithmetic), and every other field must match exactly: the
measured page counts are logical and deterministic, so any difference is a
change in what the engine does.  `--update` rewrites the golden file from the
current build instead.

Exit status: 0 when every record matches, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

BENCHES = (
    "bench_fig1_fig2_drops",
    "bench_fig4_superset_mopt",
    "bench_fig5_superset_small_m",
    "bench_fig6_smart_superset_dt10",
    "bench_fig7_smart_superset_dt100",
    "bench_fig8_subset_trend",
    "bench_fig9_smart_subset_dt10",
    "bench_fig10_smart_subset_dt100",
    "bench_table5_nix_storage",
    "bench_table6_storage",
    "bench_table7_update",
    "bench_table7_batched",
)
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "paper_benches.golden.jsonl")
PREDICTED_RTOL = 1e-9


def run_benches(bench_dir):
    """Runs every bench and returns its records with wall_ms dropped."""
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for bench in BENCHES:
            out = os.path.join(tmp, bench + ".jsonl")
            subprocess.run([os.path.join(bench_dir, bench), "--json", out],
                           check=True, stdout=subprocess.DEVNULL)
            with open(out) as f:
                for line in f:
                    if line.strip():
                        record = json.loads(line)
                        record.pop("wall_ms", None)
                        records.append(record)
    return records


def close(a, b):
    if a is None or b is None:
        return a is b
    return abs(a - b) <= PREDICTED_RTOL * max(abs(a), abs(b))


def mismatch(got, want):
    """Returns why `got` differs from `want`, or None when they match."""
    if set(got) != set(want):
        return f"fields {sorted(got)} != {sorted(want)}"
    for key in want:
        if key == "predicted_pages":
            if not close(got[key], want[key]):
                return f"predicted_pages {got[key]} != {want[key]}"
        elif got[key] != want[key]:
            return f"{key} {got[key]} != {want[key]}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("bench_dir",
                        help="directory holding the bench binaries")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the golden file from this build")
    args = parser.parse_args()

    records = run_benches(args.bench_dir)
    if args.update:
        with open(GOLDEN, "w") as f:
            for record in records:
                f.write(json.dumps(record) + "\n")
        print(f"wrote {len(records)} records to {GOLDEN}")
        return 0

    with open(GOLDEN) as f:
        golden = [json.loads(line) for line in f if line.strip()]
    failures = 0
    if len(records) != len(golden):
        print(f"record count {len(records)} != golden {len(golden)}")
        failures += 1
    for i, (got, want) in enumerate(zip(records, golden)):
        why = mismatch(got, want)
        if why is not None:
            failures += 1
            print(f"record {i} ({want.get('bench')} {want.get('label')}): "
                  f"{why}")
    if failures:
        print(f"FAIL: {failures} mismatches against {GOLDEN}")
        return 1
    print(f"ok: {len(records)} paper bench records match {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
