#!/usr/bin/env python3
"""Paired benchmark of two revisions, over the unchanged perfbench/run.py.

    python3 scripts/bench_pairs.py --base REV [--head REV] --out BENCH_<pr>.json

Both revisions are exported with `git archive` into a temporary directory
(`--head` defaults to the working tree, run in place). The workloads and the
run length are the ones BENCHMARK.json fixes. For pair j = 0..k-1 every
workload runs once on each side with seed SEED_BASE + j, base first on even
pairs and head first on odd ones, so slow drift of a shared machine falls on
both sides alike. The JSON output holds, per workload, side and
end-to-end metric, the median, quartiles and IQR over the k runs, the
number of pairs in which head beat base (the direction comes from
BENCHMARK.json), whether the gap between the medians exceeds the base's
IQR, and every run's perfbench result and run record. The same verdicts
are printed as a table at the end.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED_BASE = 41


def export(rev: str, into: Path) -> Path:
    """A clean copy of the tree at `rev`."""
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench invocation: its result line plus its run record."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=True)
    *_, record, result = proc.stdout.strip().splitlines()
    return {**json.loads(result), **json.loads(record)}


def summarize(runs: list, metrics: list) -> dict:
    """Per workload: each side's median, quartiles and IQR per metric, the
    pairs in which head is better than base, and whether the medians differ
    by more than the base's IQR (a gain claimed on the metric needs that
    and at least nine tenths of the pairs)."""
    summary = {}
    for workload in sorted({r["workload"] for r in runs}):
        entry = {}
        for m in metrics:
            name = m["name"]
            sides = {side: [r["metrics"][name]["value"] for r in runs
                            if r["workload"] == workload and r["side"] == side]
                     for side in ("base", "head")}
            stats = {}
            for side, values in sides.items():
                q1, med, q3 = statistics.quantiles(values, n=4) \
                    if len(values) > 1 else values * 3
                stats[side] = {"median": med, "q1": q1, "q3": q3,
                               "iqr": q3 - q1, "values": values}
            sign = 1.0 if m["better"] == "lower" else -1.0
            stats["head_better_pairs"] = sum(
                sign * (h - b) < 0 for b, h in zip(sides["base"], sides["head"]))
            stats["head_over_base"] = (stats["head"]["median"]
                                       / stats["base"]["median"])
            stats["gap_beats_base_iqr"] = (abs(stats["head"]["median"]
                                               - stats["base"]["median"])
                                           > stats["base"]["iqr"])
            entry[name] = stats
        summary[workload] = entry
    return summary


def verdict_table(summary: dict, pairs: int) -> str:
    """One line per workload and metric: the medians, their ratio, the
    pairs head won and whether the median gap beats the base IQR."""
    lines = [f"{'workload':<16}{'metric':<14}{'base':>11}{'head':>11}"
             f"{'head/base':>11}{'won':>8}  gap > base IQR"]
    for workload, entry in summary.items():
        for name, s in entry.items():
            lines.append(f"{workload:<16}{name:<14}{s['base']['median']:>11.4g}"
                         f"{s['head']['median']:>11.4g}"
                         f"{s['head_over_base']:>11.3f}"
                         f"{s['head_better_pairs']:>5}/{pairs:<2}  "
                         f"{'yes' if s['gap_beats_base_iqr'] else 'no'}")
    return "\n".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare to")
    ap.add_argument("--head", default=None,
                    help="git revision to measure (default: the working tree)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"base": export(args.base, Path(tmp) / "base"),
                 "head": export(args.head, Path(tmp) / "head")
                 if args.head else ROOT}
        for pair in range(args.pairs):
            seed = SEED_BASE + pair
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for workload in (w["name"] for w in bench["workloads"]):
                for side in order:
                    run = run_once(trees[side], workload, seed, seconds)
                    runs.append({"workload": workload, "side": side,
                                 "pair": pair, "seed": seed, **run})
                    print(f"pair {pair} {workload} {side}: run_s "
                          f"{run['metrics']['run_s']['value']:.4g} s, "
                          f"failed {run['failed']}/{run['attempted']}",
                          flush=True)
    report = {"base": args.base, "head": args.head or "working tree",
              "pairs": args.pairs, "seconds": seconds,
              "summary": summarize(runs, bench["end_to_end"]), "runs": runs}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(verdict_table(report["summary"], args.pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
