#!/usr/bin/env python3
"""Benchmark of the hcmm experiment harness: one workload per invocation.

    python3 perfbench/run.py --workload quad_rate --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (`src/hcmm` must exist; nothing needs
installing). Workloads, defined in workloads.py:

- quad_rate:      `rate_study`, HCMM-1 on the noisy quadratic, T = 1e3..1e5
- logistic_grid:  `grid_search`, HCMM-2 on a mushrooms-shaped synthetic file
- logistic_scale: `run_experiment` for all four optimizers on a 50000-row
                  synthetic file, then `emit_plot`

With `--trace 0` it reports the end-to-end metrics setup_s (median of fresh-
process set-ups), run_s (median wall time of the main harness call),
steps_per_s and peak_rss_mb. With `--trace 1` it reports the per-layer
metrics of spans.py instead. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; the line before it is
the run record (machine, versions, source revision, seed). Generated data
and outputs live in .perfbench_work/ and are removed at exit; the spans of a
traced run are kept in .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANS = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
# the whole invocation must end within 180 s
DEADLINE_S = 170.0
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(HERE), str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    return env


def run_child(args: list, deadline: float) -> str:
    """Run a Python child to completion (killed at the deadline); its stdout."""
    proc = subprocess.run([sys.executable, *map(str, args)], env=child_env(),
                          stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{Path(str(args[0])).name} exited with {proc.returncode}")
    return proc.stdout


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def run_record(args) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "hcmm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": BLAS_THREADS,
            "git_sha": sha, "src_sha256": digest.hexdigest()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "hcmm" / "__init__.py").is_file():
        print(f"error: no hcmm sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        spec = {"workload": args.workload, "seed": args.seed,
                **WORKLOADS[args.workload].prepare(args.seed, work)}
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec))
        setups = [] if args.trace else [
            float(run_child([HERE / "setup_probe.py", spec_path], deadline))
            for _ in range(SETUP_REPEATS)]
        SPANS.mkdir(exist_ok=True)
        out = run_child([HERE / "worker.py", spec_path, work / "out", args.seconds,
                         args.trace, SPANS / f"spans_{args.workload}.npz"], deadline)
        report = json.loads(out.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    repeats = report["repeats"]
    failed = sum(bool(r["errors"]) for r in repeats)
    for index, repeat in enumerate(repeats, start=1):
        for error in repeat["errors"]:
            print(f"{args.workload} repeat {index}: FAILED: {error}", file=sys.stderr)

    if args.trace:
        metrics = report["layers"]
        for name, metric in metrics.items():
            print(f"{args.workload} {name}: {metric['value']:.6g} {metric['unit']}")
    else:
        run_s = [r["run_s"] for r in repeats]
        samples = {"setup_s": (setups, "s"), "run_s": (run_s, "s"),
                   "steps_per_s": ([spec["steps"] / t for t in run_s], "1/s")}
        metrics = {}
        for name, (values, unit) in samples.items():
            q1, median, q3 = quartiles(values)
            metrics[name] = {"value": median, "unit": unit}
            print(f"{args.workload} {name}: median {median:.6g} {unit} "
                  f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
        metrics["peak_rss_mb"] = {"value": report["peak_rss_mb"], "unit": "MB"}
        print(f"{args.workload} peak_rss_mb: {report['peak_rss_mb']:.6g} MB "
              f"({spec['steps']} steps per run)")
    print(json.dumps({"run_record": run_record(args)}))
    print(json.dumps({"correct": failed == 0, "attempted": len(repeats),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
