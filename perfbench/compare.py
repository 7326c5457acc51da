"""Summarise or compare result records written by `run.py --out DIR`.

    python3 perfbench/compare.py DIR                      # spread of one set
    python3 perfbench/compare.py --base DIR1 --head DIR2  # head against base

For each workload and metric the summary gives the median, the
quartiles and the spread (interquartile distance over the median).  A
comparison checks every end-to-end metric against its bound in
BENCHMARK.json, and refuses to run when the two sets were made from
different inputs: each workload's input fingerprints, paired with their
seeds, must be identical in both sets.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import statistics
import sys
from typing import Any

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths: list[str]) -> dict[tuple[str, int], list[dict[str, Any]]]:
    """Records grouped by (workload, trace flag)."""
    groups: dict[tuple[str, int], list[dict[str, Any]]] = {}
    for path in paths:
        files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
        for f in files:
            with open(f, encoding="utf-8") as fh:
                rec = json.load(fh)
            groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return groups


def inputs_id(records: list[dict[str, Any]]) -> str:
    pairs = sorted((r["seed"], r["fingerprint"]) for r in records)
    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()


def stats(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def bounds() -> dict[str, dict[str, Any]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m for m in json.load(fh)["end_to_end"]}


def summarise(groups: dict) -> int:
    spec = bounds()
    for (workload, trace), recs in sorted(groups.items()):
        failed = sum(r["failed"] for r in recs)
        print(f"== {workload} trace={trace}: {len(recs)} runs, seeds {sorted(r['seed'] for r in recs)}, {failed} failed jobs")
        for name in recs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in recs]
            med, q1, q3, spread = stats(vals)
            bound = spec.get(name, {}).get("bound")
            note = "" if bound is None else f"  bound {bound:.2f} {'steady' if spread < bound / 3 else 'NOT steady'}"
            print(f"  {name:40s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:6.3f}{note}")
    return 0


def compare(base: dict, head: dict) -> int:
    spec = bounds()
    keys = sorted(k for k in set(base) & set(head) if not k[1])
    differ = [w for w, _ in keys if inputs_id(base[(w, 0)]) != inputs_id(head[(w, 0)])]
    if differ:
        print(f"refusing to compare: {', '.join(differ)} ran on different inputs in the two sets", file=sys.stderr)
        return 2
    worse = 0
    for key in keys:
        workload = key[0]
        print(f"== {workload}: base {len(base[key])} runs, head {len(head[key])} runs")
        for name, m in spec.items():
            b = [r["metrics"][name]["value"] for r in base[key]]
            h = [r["metrics"][name]["value"] for r in head[key]]
            bmed, _, _, bspread = stats(b)
            hmed = statistics.median(h)
            change = (hmed - bmed) / bmed if m["better"] == "lower" else (bmed - hmed) / bmed
            if change > m["bound"]:
                verdict, worse = "WORSE", worse + 1
            elif bspread > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"  {name:22s} base {bmed:12.6g}  head {hmed:12.6g}  worse by {change:+7.3f} (bound {m['bound']})  {verdict}")
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*", help="record files or directories to summarise")
    ap.add_argument("--base", nargs="+", default=None)
    ap.add_argument("--head", nargs="+", default=None)
    args = ap.parse_args(argv)
    if args.base or args.head:
        if not (args.base and args.head):
            ap.error("--base and --head go together")
        return compare(load(args.base), load(args.head))
    if not args.paths:
        ap.error("give record files or directories")
    return summarise(load(args.paths))


if __name__ == "__main__":
    sys.exit(main())
