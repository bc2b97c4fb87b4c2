"""The three benchmark workloads: their inputs, harness calls and output checks.

Each workload is a closed loop: one single-threaded process runs one batch
job at a time, the way a researcher runs `hcmm rate`, `hcmm grid` or
`hcmm run` + `hcmm plot`.

- `prepare` runs in the parent benchmark process: it turns the workload seed
  into a JSON spec (config mappings plus any synthetic LIBSVM file).
- `job` is the timed main harness call, run in the worker process.
- `check` inspects a job's outputs with property checks (no byte goldens, so
  a change of the noise stream does not break them); it returns the list of
  problems found, empty when the outputs are correct.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import datagen

# mushrooms: 8124 rows, 112 one-hot features from 22 categorical attributes
MUSHROOMS_SHAPE = (8124, 112, 22)
# a9a/ijcnn1/w8a scale, same row layout
SCALE_SHAPE = (50000, 112, 22)

RATE_T_VALUES = (1000, 10_000, 100_000)
GRID_T = 1000
GRID_COMBOS = 6  # 3 mu_x x 2 beta_x
SCALE_T = 600
SCALE_OPTIMIZERS = ("hcmm1", "hcmm2", "storm_gda", "sagda")


def _finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


class QuadRate:
    """Criterion-8 rate study: HCMM-1, theorem1 schedule, noisy quadratic."""

    name = "quad_rate"

    @staticmethod
    def prepare(seed: int, work: Path) -> dict:
        from hcmm.problems import QuadraticMinimaxProblem
        # the theorem schedule needs this instance's L_f, as in criterion 8
        q = QuadraticMinimaxProblem.random(10, 10, nu=24.0, noise_sigma=1.0,
                                           seed=seed,
                                           a_eigs=(12.0, 24.0), b_scale=0.1)
        mapping = {
            "problem.kind": "quadratic",
            "problem.d": "10", "problem.m": "10", "problem.nu": "24.0",
            "problem.noise_sigma": "1.0", "problem.seed": str(seed),
            "problem.spectrum": "12.0,24.0", "problem.b_scale": "0.1",
            "optimizer.kind": "hcmm1",
            "optimizer.project_y": "false",
            "schedule.kind": "theorem1",
            "schedule.N1": "50.0",
            "constants.L_f": repr(float(q.lipschitz_L_f)),
            "constants.L_h": "1e-3", "constants.nu": "24.0",
            "constants.sigma": "1.0",
            "constants.sigma_h": repr(float(np.sqrt(20.0))),
            "run.T": str(RATE_T_VALUES[-1]),
            "run.seeds": str(seed),
        }
        return {"mappings": [mapping], "steps": sum(RATE_T_VALUES)}

    @staticmethod
    def job(spec: dict, out: Path, harness):
        config = harness.build_config({**spec["mappings"][0],
                                       "run.output_dir": str(out)})
        return harness.rate_study(config, list(RATE_T_VALUES))

    @staticmethod
    def check(spec: dict, report, out: Path, final_ys: list) -> list:
        errors = []
        if len(report.averaged_norms) != len(RATE_T_VALUES):
            errors.append(f"{len(report.averaged_norms)} averages, "
                          f"expected {len(RATE_T_VALUES)}")
        if not _finite(*report.averaged_norms):
            errors.append(f"non-finite average in {report.averaged_norms}")
        if not -0.5 <= report.slope <= -0.2:
            errors.append(f"slope {report.slope} outside [-0.5, -0.2]")
        if not (out / "rate_hcmm1.csv").is_file():
            errors.append("rate_hcmm1.csv not written")
        return errors


class LogisticGrid:
    """HCMM-2 mu/beta grid on a mushrooms-shaped file subsampled to n = 500."""

    name = "logistic_grid"

    @staticmethod
    def prepare(seed: int, work: Path) -> dict:
        n, d, groups = MUSHROOMS_SHAPE
        path = datagen.write_libsvm(work / "mushrooms_like.svm", n, d, groups,
                                    seed)
        mapping = {
            "problem.kind": "robust_logistic",
            "problem.dataset_path": str(path),
            "problem.subsample": "500",
            "problem.seed": str(seed),
            "problem.lambda2": "0.001",
            "problem.rho": "10",
            "optimizer.kind": "hcmm2",
            "schedule.kind": "explicit",
            "schedule.mu_y": "0.01",
            "schedule.beta_y": "0.01",
            "grid.mu_x": "0.1,0.01,0.001",
            "grid.beta_x": "0.01,0.001",
            "run.T": str(GRID_T),
            "run.seeds": f"{seed},{seed + 1}",
            "run.eval_every": str(GRID_T),
            "run.inner_tol": "1e-7",
        }
        return {"mappings": [mapping], "steps": GRID_COMBOS * 2 * GRID_T}

    @staticmethod
    def job(spec: dict, out: Path, harness):
        config = harness.build_config({**spec["mappings"][0],
                                       "run.output_dir": str(out)})
        return harness.grid_search(config)

    @staticmethod
    def check(spec: dict, result, out: Path, final_ys: list) -> list:
        best, board = result
        errors = []
        if len(board) != GRID_COMBOS:
            errors.append(f"{len(board)} leaderboard rows, expected {GRID_COMBOS}")
        for row in board:
            if not _finite(*row.values()):
                errors.append(f"non-finite leaderboard row {row}")
        if board:
            top = min(board, key=lambda r: r["mean_final_p"])
            if best != {k: top[k] for k in best}:
                errors.append(f"reported best {best} is not the row minimum {top}")
        if not (out / "leaderboard_hcmm2.csv").is_file():
            errors.append("leaderboard_hcmm2.csv not written")
        return errors


class LogisticScale:
    """All four optimizers via run_experiment on a 50000-row file, then a plot."""

    name = "logistic_scale"

    @staticmethod
    def prepare(seed: int, work: Path) -> dict:
        n, d, groups = SCALE_SHAPE
        path = datagen.write_libsvm(work / "scale_like.svm", n, d, groups, seed)
        base = {
            "problem.kind": "robust_logistic",
            "problem.dataset_path": str(path),
            "problem.lambda2": "0.001",
            "problem.rho": "10",
            "schedule.kind": "explicit",
            "schedule.mu_x": "0.01",
            "schedule.mu_y": "0.0001",
            "schedule.beta_x": "0.1",
            "schedule.beta_y": "0.1",
            "schedule.N": "10",
            "schedule.N1": "10",
            "run.T": str(SCALE_T),
            "run.seeds": str(seed),
            "run.eval_every": str(SCALE_T // 5),
            "run.inner_tol": "1e-6",
        }
        mappings = [{**base, "optimizer.kind": kind} for kind in SCALE_OPTIMIZERS]
        return {"mappings": mappings, "steps": len(SCALE_OPTIMIZERS) * SCALE_T}

    @staticmethod
    def job(spec: dict, out: Path, harness):
        finals = [harness.run_experiment(harness.build_config(
                      {**mapping, "run.output_dir": str(out)}))
                  for mapping in spec["mappings"]]
        harness.emit_plot(str(out), str(out / "curves.svg"))
        return finals

    @staticmethod
    def check(spec: dict, finals: list, out: Path, final_ys: list) -> list:
        errors = []
        seed = spec["mappings"][0]["run.seeds"]
        for kind, result in zip(SCALE_OPTIMIZERS, finals):
            if not _finite(result[seed]):
                errors.append(f"{kind}: final P {result[seed]} is not finite")
            trace = out / f"trace_{kind}_seed{seed}.csv"
            rows = trace.read_text().count("\n") - 1 if trace.is_file() else -1
            if rows != SCALE_T:
                errors.append(f"{kind}: {rows} trace rows, expected {SCALE_T}")
        if len(final_ys) != len(SCALE_OPTIMIZERS):
            errors.append(f"{len(final_ys)} final iterates seen, "
                          f"expected {len(SCALE_OPTIMIZERS)}")
        for kind, y in zip(SCALE_OPTIMIZERS, final_ys):
            total, low = float(np.sum(y)), float(np.min(y))
            if not (abs(total - 1.0) <= 1e-9 and low >= -1e-9):
                errors.append(f"{kind}: final y is off the simplex "
                              f"(sum {total!r}, min {low!r})")
        svg = out / "curves.svg"
        text = svg.read_text() if svg.is_file() else ""
        if not text.startswith("<svg") or text.count("<polyline") != len(SCALE_OPTIMIZERS):
            errors.append("curves.svg missing or without one curve per optimizer")
        return errors


WORKLOADS = {w.name: w for w in (QuadRate, LogisticGrid, LogisticScale)}
