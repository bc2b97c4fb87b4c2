#!/usr/bin/env python3
"""A fixed set of deterministic harness outputs, for diffing two revisions.

    PYTHONPATH=src python3 scripts/golden_outputs.py OUT

writes under OUT, through the public harness API only:

- `run_experiment` traces, summaries and config echoes of all four
  optimizers on the quadratic and the pl_toy testbeds at problem.seed 0 and
  1, with one `emit_plot` SVG per testbed and seed;
- one `grid_search` leaderboard;
- a theorem1 (HCMM-1, quadratic) and a theorem2 (HCMM-2, pl_toy)
  `rate_study`;
- the `unbounded_p_warning` text of every synthetic config, and the raw
  bytes (as SHA-256) of each testbed's M, p_hessian, inner max and
  objective at x0;
- a robust-logistic `run_experiment` on a file from perfbench/datagen.py,
  with n large enough that the run steps on a pooled restriction.

The config echoes record OUT, so to compare revision A with revision B, run
the script under the same relative OUT from two working directories:

    (cd DIR_A && PYTHONPATH=A/src python3 A/scripts/golden_outputs.py golden)
    (cd DIR_B && PYTHONPATH=B/src python3 A/scripts/golden_outputs.py golden)
    diff -r DIR_A/golden DIR_B/golden

It takes a few seconds.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

from hcmm.harness import (build_config, build_problem, emit_plot, grid_search,
                          rate_study, run_experiment, unbounded_p_warning)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from datagen import write_libsvm  # noqa: E402

OPTIMIZERS = {
    "hcmm1": {"schedule.mu_x": "0.02", "schedule.mu_y": "0.05",
              "schedule.beta_x": "0.1", "schedule.beta_y": "0.1",
              "schedule.N": "0.5", "schedule.N1": "0.4"},
    "hcmm2": {"schedule.mu_x": "0.02", "schedule.mu_y": "0.05",
              "schedule.beta_x": "0.1", "schedule.beta_y": "0.1"},
    "storm_gda": {"schedule.mu_x": "0.02", "schedule.mu_y": "0.05",
                  "schedule.beta_x": "0.1", "schedule.beta_y": "0.1"},
    "sagda": {"schedule.mu_x": "0.02", "schedule.mu_y": "0.05"},
}

PROBLEMS = {
    "quadratic": {"problem.kind": "quadratic", "problem.d": "5",
                  "problem.m": "4", "problem.noise_sigma": "0.1"},
    "pl_toy": {"problem.kind": "pl_toy", "problem.d": "5", "problem.m": "6",
               "problem.rank": "3", "problem.noise_sigma": "0.1"},
}


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def main(out: Path) -> None:
    results = []
    # every optimizer on each synthetic testbed and problem seed
    for kind, problem in PROBLEMS.items():
        for pseed in (0, 1):
            where = out / f"{kind}_seed{pseed}"
            for opt, schedule in OPTIMIZERS.items():
                config = build_config({
                    **problem, "problem.seed": str(pseed),
                    "optimizer.kind": opt, "schedule.kind": "explicit",
                    **schedule, "run.T": "300", "run.seeds": "0,1",
                    "run.eval_every": "7", "run.output_dir": str(where)})
                results.append(f"{where.name} {opt}: {run_experiment(config)}")
            emit_plot(str(where), str(where / "plot.svg"))
            results.append(f"{where.name} warning: {unbounded_p_warning(config)}")
            p, x0, _ = build_problem(config)
            r = p.inner_max(x0)
            results.append(
                f"{where.name} M {digest(p.M)} p_hessian {digest(p.p_hessian)} "
                f"inner_max {digest(r.y_star, r.p_value, r.grad_p)} "
                f"objective {digest(p.objective(x0, r.y_star))}")

    # one grid search
    board = grid_search(build_config({
        **PROBLEMS["quadratic"], "optimizer.kind": "storm_gda",
        "schedule.kind": "explicit", "grid.mu_x": "0.01,0.05",
        "grid.mu_y": "0.05,0.1", "grid.beta_x": "0.1", "grid.beta_y": "0.1",
        "run.T": "200", "run.seeds": "0,1",
        "run.output_dir": str(out / "grid")}))
    results.append(f"grid: {board}")

    # a rate study on each theorem schedule
    theorem1 = {**PROBLEMS["quadratic"], "problem.nu": "4.0",
                "problem.spectrum": "2.0,4.0", "problem.b_scale": "0.1",
                "optimizer.kind": "hcmm1", "optimizer.project_y": "false",
                "schedule.kind": "theorem1", "schedule.N1": "1.0",
                "constants.L_f": "4.004", "constants.L_h": "1e-3",
                "constants.nu": "4.0", "constants.sigma_h": "0.3",
                "run.T": "1000", "run.seeds": "0,1",
                "run.output_dir": str(out / "rate_theorem1")}
    theorem2 = {**PROBLEMS["pl_toy"], "optimizer.kind": "hcmm2",
                "schedule.kind": "theorem2", "constants.L_f": "2.0",
                "constants.delta": "0.5", "run.T": "1000", "run.seeds": "0,1",
                "run.output_dir": str(out / "rate_theorem2")}
    for name, mapping in (("theorem1", theorem1), ("theorem2", theorem2)):
        report = rate_study(build_config(mapping), [100, 300, 1000])
        results.append(f"rate {name}: {report}")

    # robust logistic on a pooled restriction: n = 3000 rows, at most 600 drawn
    data = write_libsvm(out / "data.libsvm", n=3000, d=40, groups=8, seed=5)
    for opt in ("hcmm2", "sagda"):
        config = build_config({
            "problem.kind": "robust_logistic", "problem.dataset_path": str(data),
            "optimizer.kind": opt, "schedule.kind": "explicit",
            **OPTIMIZERS[opt], "run.T": "300", "run.seeds": "0,1",
            "run.eval_every": "50", "run.output_dir": str(out / "logistic")})
        results.append(f"logistic {opt}: {run_experiment(config)}")

    (out / "results.txt").write_text("\n".join(results) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(f"usage: {sys.argv[0]} OUT")
    out_dir = Path(sys.argv[1])
    out_dir.mkdir(parents=True, exist_ok=True)
    main(out_dir)
