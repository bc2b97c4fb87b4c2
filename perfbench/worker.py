"""Worker process: repeats one workload's main harness call for a time budget.

    python3 perfbench/worker.py SPEC OUT_DIR SECONDS TRACE SPANS_FILE

SPEC is the JSON file `run.py` wrote. Untraced (TRACE = 0), the call is
repeated until the next repeat would likely overrun SECONDS. Traced
(TRACE = 1), traced and untraced repeats alternate (at least two traced and
one untraced), the spans go to SPANS_FILE, and the per-layer metrics are
derived from them. Prints one JSON line with every repeat's time, the output
check results and the process's peak resident memory.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import hcmm.harness
from spans import Tracer
from workloads import WORKLOADS


def capture_final_iterates(store: list):
    """Keep the y that `final_p` sees: the harness returns no final iterate."""
    original = hcmm.harness.final_p

    def final_p(config, problem, x, y):
        store.append(np.array(y))
        return original(config, problem, x, y)

    hcmm.harness.final_p = final_p


def count_rows(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def bytes_written(out: Path) -> int:
    return sum(f.stat().st_size for f in out.rglob("*") if f.is_file())


def main(argv) -> int:
    spec_path, out, seconds, trace, spans_file = argv
    spec = json.loads(Path(spec_path).read_text())
    workload = WORKLOADS[spec["workload"]]
    out, seconds, trace = Path(out), float(seconds), trace == "1"
    final_ys: list = []
    capture_final_iterates(final_ys)
    tracer = Tracer({m["problem.dataset_path"]: count_rows(m["problem.dataset_path"])
                     for m in spec["mappings"] if "problem.dataset_path" in m})

    repeats = []
    began = time.perf_counter()
    while True:
        # untraced first, so no traced repeat runs cold
        traced = trace and len(repeats) % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        final_ys.clear()
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = workload.job(spec, out, hcmm.harness)
            run_s = time.perf_counter() - t0
            errors = workload.check(spec, result, out, final_ys)
        except Exception:  # a failed run is counted, not fatal
            run_s = time.perf_counter() - t0
            errors = ["job raised:\n" + traceback.format_exc()]
        finally:
            if traced:
                tracer.uninstall()
                tracer.end_repeat()
        repeats.append({"run_s": run_s, "traced": traced, "errors": errors,
                        "bytes": bytes_written(out)})
        elapsed = time.perf_counter() - began
        n_traced = sum(r["traced"] for r in repeats)
        enough = not trace or n_traced >= 2
        if enough and elapsed + 0.5 * run_s >= seconds:
            break

    report = {"repeats": repeats,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if trace:
        counts = tracer.repeat_counts()
        for index, repeat_counts in enumerate(counts[1:], start=2):
            if repeat_counts != counts[0]:
                report["repeats"][2 * index - 1]["errors"].append(
                    f"traced repeat {index} call counts differ from repeat 1: "
                    f"{repeat_counts} vs {counts[0]}")
        if counts[0].get("optimizers.step.calls") != spec["steps"]:
            report["repeats"][1]["errors"].append(
                f"{counts[0].get('optimizers.step.calls')} optimizer steps, "
                f"expected {spec['steps']}")
        plain = statistics.median(r["run_s"] for r in repeats if not r["traced"])
        with_spans = statistics.median(r["run_s"] for r in repeats if r["traced"])
        report["layers"] = tracer.layer_metrics(
            [r["bytes"] for r in repeats if r["traced"]], with_spans / plain - 1.0)
        np.savez(spans_file, **tracer.arrays())
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
