#!/usr/bin/env python3
"""A fixed set of deterministic harness outputs, for diffing two revisions.

    PYTHONPATH=src python3 scripts/golden_outputs.py OUT

writes under OUT, through the public `hcmm.harness` and `hcmm.libsvm` API
only:

- `run_experiment` traces, summaries and config echoes of all four
  optimizers on the quadratic and the pl_toy testbeds at problem.seed 0 and
  1, with one `emit_plot` SVG per testbed and seed;
- one `grid_search` leaderboard and its best config;
- a theorem1 (HCMM-1, quadratic) and a theorem2 (HCMM-2, pl_toy)
  `rate_study`, the pl_toy one again at horizons that end one x past a
  block of x's, a block short of one x, one x past it and one x past two
  blocks, and a theorem1 HCMM-1 one at the shape of perfbench's quad_rate
  workload (d = m = 10, N1 = 50, T up to 10000);
- the `unbounded_p_warning` text of every synthetic config, and the raw
  bytes (as SHA-256) of each testbed's M, p_hessian, inner max and
  objective at x0;
- robust-logistic outputs on a file from perfbench/datagen.py:
  `run_experiment` of all four optimizers with n large enough that the
  runs step on a pooled restriction, one `run_experiment` on a 500-row
  subsample, where the restriction declines (fewer than MIN_POOLED rows go
  undrawn), one `run_experiment` on a copy of the file with a leading and
  a trailing comment line, one `grid_search` leaderboard and its best
  config, and a theorem2 HCMM-2 `rate_study` that steps on the pooled
  restriction (its CSV only: results.txt does not list it);
- `inner_max_hashes.txt`: the SHA-256 of `inner_max` (y*, P, grad P) on
  that file at three x's: 0, where every margin ties and every row is
  screened at once; one whose y* has more nonzero entries than
  `SCREEN_ROWS`, so that the screen widens; and HCMM-2's final x after a
  run, whose y* the first screen holds;
- `load_errors.txt`: the `load_dataset` error of each of a set of files
  with one fault each;
- `parse_hashes.txt`: the SHA-256 of the arrays (labels, data, indices,
  indptr) that `load_dataset` returns for the datagen file, its commented
  copy, a file of real values (decimals, exponents, signs) and a file
  whose comments hold ':', whose line ends mix LF, CR LF and CR and which
  has no final line end, plain and gzipped, so that a change to the parser
  shows in the diff even where no run reads a byte it changed;
- `lipschitz_L_f.txt`: `repr` of the robust-logistic `lipschitz_L_f` on
  each of those files, so that the bound's bits show in the diff and not
  only through `metric_ci`.

It works inside OUT, so every path it passes and records (config echoes,
best configs, load errors) is relative to OUT. To compare revision A with
revision B:

    PYTHONPATH=A/src python3 A/scripts/golden_outputs.py OUT_A
    PYTHONPATH=B/src python3 A/scripts/golden_outputs.py OUT_B
    diff -r OUT_A OUT_B

It takes a few seconds.
"""

from __future__ import annotations

import gzip
import hashlib
import os
import sys
from pathlib import Path

import numpy as np

from hcmm.harness import (build_config, build_problem, build_schedule,
                          emit_plot, grid_search, rate_study, run_experiment,
                          run_single, unbounded_p_warning)
from hcmm.libsvm import ParseError, load_dataset
from hcmm.problems import RobustLogisticProblem

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


# one fault each: every ParseError kind between a comment, a blank, a valid
# line and a valid last line; a non-finite value the array path's bytes
# allow; faults past the first read, with LF and with CR LF line ends
FAULTS = {f"line_{i}.svm": b"# comment\n\n+1 1:1 2:0.5\n" + bad + b"\n-1 1:1\n"
          for i, bad in enumerate([
              b"  spam 1:1", b"+1 2:1 23", b"+1 1:1 x:2", b"-1 0:1",
              b"+1 2:1 12:1 2:1", b"-1 1:1\t2:abc", b"-1 2147483648:1",
              b"+1 2:1 \xff", b"+1 1:nan 2:1", b"-1 3:1e999"])}
FAULTS.update({
    "late_lf.svm": b"+1 1:1 3:2\n" * 20000 + b"-1 3:1 3:2\n",
    "late_crlf.svm": b"+1 1:1 3:2\r\n" * 20000 + b"-1 0:1\r\n",
    "comments_only.svm": b"# no rows\n\n",
    "fault.svm.gz": gzip.compress(b"# c\n+1 1:1\n-1 3:1 3:2\n", mtime=0),
})


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def write_real_valued(path: Path) -> Path:
    """A fixed file whose values span decimals, exponents and integers."""
    rng = np.random.default_rng(11)
    lines = []
    for i in range(2000):
        cols = np.flatnonzero(rng.random(30) < 0.3) + 1
        vals = rng.standard_normal(cols.size) * 10.0 ** rng.integers(-7, 8,
                                                                     cols.size)
        text = [repr(float(v)) if k % 4 else str(int(v))
                for k, v in enumerate(vals)]
        lines.append(" ".join([("+1", "-1", "0", "2.5")[i % 4]]
                              + [f"{c}:{t}" for c, t in zip(cols, text)]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_mixed(path: Path) -> Path:
    """A fixed file whose comments hold ':' and whose line ends cycle
    through LF, CR LF and CR, with blank lines and no final line end. Its
    comments are in the first 64 KB only, so the chunks after it can take
    the array path."""
    rng = np.random.default_rng(12)
    ends = ("\n", "\r\n", "\r")
    lines = ["# mixed: n:3000 d:30"]
    for i in range(3000):
        cols = np.flatnonzero(rng.random(30) < 0.3) + 1
        vals = (rng.integers(-5, 6, cols.size).tolist() if i % 3
                else np.round(rng.standard_normal(cols.size), 3).tolist())
        line = " ".join([("+1", "-1")[i % 2]]
                        + [f"{c}:{v}" for c, v in zip(cols, vals)])
        if i < 400 and i % 7 == 0:
            line += " # seen: 12:30, tag:x"
        lines.append(line)
        if i % 50 == 0:
            lines.append(" " * (i % 3))
    path.write_bytes("".join(line + ends[i % 3] for i, line in enumerate(lines))
                     .rstrip("\r\n").encode())
    return path


def dataset_digest(path: Path) -> str:
    """SHA-256 over the dtype and bytes of each array of a loaded file."""
    ds = load_dataset(str(path))
    h = hashlib.sha256()
    for a in (ds.labels, ds.X.data, ds.X.indices, ds.X.indptr):
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return f"{path.name}: n {ds.n} d {ds.d} sha256 {h.hexdigest()}"


def inner_max_hashes(data: Path) -> str:
    """One line per x of the robust-logistic inner max on `data`: its y*
    support size and the SHA-256 of y*, P and grad P."""
    config = build_config({
        "problem.kind": "robust_logistic", "problem.dataset_path": str(data),
        "optimizer.kind": "hcmm2", "schedule.kind": "explicit",
        **OPTIMIZERS["hcmm2"], "run.T": "300", "run.seeds": "0"})
    problem, x0, y0 = build_problem(config)
    _, final = run_single(config, 0, problem, x0, y0, build_schedule(config),
                          collect_rows=False)
    lines = []
    for name, x in (("zero", np.zeros(problem.d)),
                    ("wide", 0.01 * np.linspace(-1.0, 1.0, problem.d)),
                    ("trained", final["final_x"])):
        r = problem.inner_max(x)
        lines.append(f"{name}: support {np.count_nonzero(r.y_star)} sha256 "
                     f"{digest(r.y_star, r.p_value, r.grad_p)}")
    return "\n".join(lines) + "\n"


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
                "optimizer.kind": "hcmm1", "schedule.kind": "theorem1",
                "schedule.N1": "1.0",
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
    # the theorem2 study at horizons of one x and around one and two blocks
    # of x's (harness.RATE_BLOCK_BYTES // (16 dim_x) = 819 at dim_x = 5)
    report = rate_study(build_config({
        **theorem2, "run.output_dir": str(out / "rate_pl_toy_blocks")}),
        [1, 818, 820, 1639])
    results.append(f"rate pl_toy blocks: {report}")
    # quad_rate's instance and theorem1 schedule; L_f is the instance's
    # own, as there, and any positive placeholder builds the instance
    quad_rate = {"problem.kind": "quadratic", "problem.d": "10",
                 "problem.m": "10", "problem.nu": "24.0",
                 "problem.noise_sigma": "1.0", "problem.seed": "0",
                 "problem.spectrum": "12.0,24.0", "problem.b_scale": "0.1",
                 "optimizer.kind": "hcmm1", "schedule.kind": "theorem1",
                 "schedule.N1": "50.0", "constants.L_f": "1.0",
                 "constants.L_h": "1e-3", "constants.nu": "24.0",
                 "constants.sigma_h": repr(float(np.sqrt(20.0))),
                 "run.T": "10000", "run.seeds": "0",
                 "run.output_dir": str(out / "rate_quad_rate")}
    problem = build_problem(build_config(quad_rate))[0]
    quad_rate["constants.L_f"] = repr(problem.lipschitz_L_f)
    report = rate_study(build_config(quad_rate), [1000, 3000, 10000])
    results.append(f"rate quad_rate: {report}")

    # robust logistic on a pooled restriction: n = 3000 rows, at most 600 drawn
    data = write_libsvm(out / "data.libsvm", n=3000, d=40, groups=8, seed=5)
    logistic = {"problem.kind": "robust_logistic",
                "problem.dataset_path": str(data), "schedule.kind": "explicit",
                "run.T": "300", "run.seeds": "0,1", "run.eval_every": "50"}
    for opt, schedule in OPTIMIZERS.items():
        config = build_config({**logistic, "optimizer.kind": opt, **schedule,
                               "run.output_dir": str(out / "logistic")})
        results.append(f"logistic {opt}: {run_experiment(config)}")
    # a 500-row subsample: fewer than MIN_POOLED rows go undrawn, so the
    # restriction declines and the run steps on the problem itself
    config = build_config({**logistic, "problem.subsample": "500",
                           "optimizer.kind": "hcmm1", **OPTIMIZERS["hcmm1"],
                           "run.output_dir": str(out / "logistic_declined")})
    results.append(f"logistic declined hcmm1: {run_experiment(config)}")
    # the same file with a leading and a trailing comment line
    commented = out / "data_commented.libsvm"
    commented.write_bytes(b"# leading comment\n" + data.read_bytes()
                          + b"# trailing comment\n")
    config = build_config({**logistic, "problem.dataset_path": str(commented),
                           "optimizer.kind": "hcmm2", **OPTIMIZERS["hcmm2"],
                           "run.output_dir": str(out / "logistic_commented")})
    results.append(f"logistic commented hcmm2: {run_experiment(config)}")
    # a grid search on the pooled restriction
    board = grid_search(build_config({
        **logistic, "optimizer.kind": "hcmm2", "schedule.mu_y": "0.05",
        "schedule.beta_y": "0.1", "grid.mu_x": "0.01,0.02",
        "grid.beta_x": "0.1,0.3", "run.T": "200",
        "run.output_dir": str(out / "logistic_grid")}))
    results.append(f"logistic grid: {board}")
    # a rate study on the pooled restriction: at most 1001 rows drawn
    rate_study(build_config({
        **logistic, "optimizer.kind": "hcmm2", "schedule.kind": "theorem2",
        "constants.L_f": "2.0", "constants.delta": "0.5",
        "run.output_dir": str(out / "logistic_rate")}), [100, 300, 1000])

    (out / "results.txt").write_text("\n".join(results) + "\n", encoding="utf-8")
    (out / "inner_max_hashes.txt").write_text(inner_max_hashes(data),
                                              encoding="utf-8")

    errors = []
    (out / "load_errors").mkdir(exist_ok=True)
    for name, data in FAULTS.items():
        path = out / "load_errors" / name
        path.write_bytes(data)
        try:
            errors.append(f"{name}: loaded {load_dataset(str(path)).n} rows")
        except ParseError as exc:
            errors.append(str(exc))
    (out / "load_errors.txt").write_text("\n".join(errors) + "\n",
                                         encoding="utf-8")

    mixed = write_mixed(out / "data_mixed.libsvm")
    mixed_gz = out / "data_mixed.libsvm.gz"
    mixed_gz.write_bytes(gzip.compress(mixed.read_bytes(), mtime=0))
    parsed = (out / "data.libsvm", commented,
              write_real_valued(out / "data_real.libsvm"), mixed, mixed_gz)
    (out / "parse_hashes.txt").write_text("\n".join(
        dataset_digest(p) for p in parsed) + "\n", encoding="utf-8")
    bounds = []
    for path in parsed:
        ds = load_dataset(str(path))
        problem = RobustLogisticProblem(ds.X, ds.labels)
        bounds.append(f"{path.name}: {problem.lipschitz_L_f!r}")
    (out / "lipschitz_L_f.txt").write_text("\n".join(bounds) + "\n",
                                           encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(f"usage: {sys.argv[0]} OUT")
    Path(sys.argv[1]).mkdir(parents=True, exist_ok=True)
    os.chdir(sys.argv[1])
    main(Path("."))
