import gc
import importlib.util
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import hcmm.harness
import hcmm.problems
from hcmm.core import ConfigError, norm2
from hcmm.harness import (OPTIMIZER_LABELS, SCHEDULE_KEYS, TRACE_COLUMNS,
                          build_config, build_problem, build_schedule,
                          emit_plot, grid_search, optimizer_label,
                          parse_config_text, rate_study, read_config,
                          read_trace, run_experiment, run_single,
                          unbounded_p_warning)
from hcmm.optimizers import Hcmm1, Sagda, iterate_steps
from hcmm.oracle import MinimaxProblem, evaluate_P
from hcmm import cli

from conftest import CONFIGS, shipped_config, stream, write_libsvm

ROOT = Path(__file__).resolve().parent.parent


def quad_mapping(out_dir, **extra):
    base = {
        "problem.kind": "quadratic",
        "problem.d": "4",
        "problem.m": "3",
        "problem.noise_sigma": "0.1",
        "optimizer.kind": "storm_gda",
        "schedule.kind": "explicit",
        "schedule.mu_x": "0.02",
        "schedule.mu_y": "0.05",
        "schedule.beta_x": "0.2",
        "schedule.beta_y": "0.2",
        "run.T": "40",
        "run.seeds": "1,2",
        "run.eval_every": "7",
        "run.output_dir": str(out_dir),
    }
    base.update(extra)
    return base


class TestConfigParsing:
    def test_key_value_with_comments(self):
        text = "\n".join(["# header", "a.b = 1  # trailing", "", "c.d= x=y "])
        m = parse_config_text(text)
        assert m == {"a.b": "1", "c.d": "x=y"}

    def test_rejects_bare_token(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("a = 1\nbogus\n")

    def test_rejects_repeated_key(self):
        # it was last-wins: run.T = 20 ran, and nothing said so
        with pytest.raises(ConfigError, match=r"^line 4: run\.T is already "
                                              r"set on line 1$"):
            parse_config_text("run.T = 10\n# run.T = 15\nrun.seeds = 0\n"
                              " run.T =20  # again\n")

    def test_validate_collects_all_issues(self):
        issues = read_config({"problem.kind": "nope",
                              "optimizer.kind": "nope",
                              "run.T": "zero",
                              "run.seeds": ""})[1]
        assert len(issues) >= 4

    def test_build_config_round_trip(self, tmp_path):
        cfg = build_config(quad_mapping(tmp_path))
        assert cfg.T == 40
        assert cfg.seeds == (1, 2)
        assert cfg.eval_every == 7
        assert optimizer_label(cfg.optimizer) == "storm_gda"

    def test_optimizer_variants(self, tmp_path):
        cfg = build_config(quad_mapping(
            tmp_path, **{"optimizer.kind": "hcmm1",
                         "optimizer.update_from_clipped": "true",
                         "schedule.N": "5", "schedule.N1": "5"}))
        assert isinstance(cfg.optimizer, Hcmm1)
        assert cfg.optimizer.update_from_clipped
        cfg2 = build_config(quad_mapping(tmp_path,
                                         **{"optimizer.kind": "sagda"}))
        assert isinstance(cfg2.optimizer, Sagda)

    def test_problem_defaults_per_kind(self, tmp_path):
        base = quad_mapping(tmp_path)
        del base["problem.d"], base["problem.m"]
        p = build_config(base).problem_params
        assert p == {"d": 10, "m": 10, "seed": 0, "noise_sigma": 0.1,
                     "x0_scale": 1.0, "nu": 1.0, "spectrum": (-0.5, 0.5),
                     "b_scale": 0.5}
        p = build_config({**base, "problem.kind": "pl_toy",
                          "problem.m": "5"}).problem_params
        assert (p["d"], p["m"], p["rank"]) == (6, 5, 2)
        assert (p["c_min"], p["c_max"]) == (0.5, 1.5)

    def test_every_issue_names_its_key(self, tmp_path):
        issues = read_config(quad_mapping(tmp_path, **{
            "problem.m": "x", "problem.nu": "", "problem.spectrum": "1,2,3",
            "run.seeds": "1,-2", "grid.mu_y": "0.1,0.1",
            "schedule.N": "a"}))[1]
        assert issues == ["problem.m is not an integer: 'x'",
                          "problem.nu is not numeric: ''",
                          "problem.spectrum must list 2 values, got '1,2,3'",
                          "schedule.N is not numeric: 'a'",
                          "run.seeds must be >= 0",
                          "grid.mu_y repeats a value: '0.1,0.1'"]

    def test_logistic_requires_dataset_path(self):
        issues = read_config({"problem.kind": "robust_logistic",
                              "optimizer.kind": "sagda",
                              "run.T": "5", "run.seeds": "0"})[1]
        assert any("dataset_path" in s for s in issues)

    def test_theorem_schedule_from_constants(self, tmp_path):
        cfg = build_config(quad_mapping(
            tmp_path, **{"optimizer.kind": "hcmm1",
                         "schedule.kind": "theorem1", "schedule.N1": "1",
                         "constants.L_f": "1", "constants.L_h": "1",
                         "constants.nu": "1", "constants.sigma_h": "1"}))
        sched = build_schedule(cfg, T=1000)
        assert sched.mu_y == pytest.approx(math.sqrt(1.0 / 384000.0))


class TestRunExperiment:
    def test_trace_shape_and_cadence(self, tmp_path):
        cfg = build_config(quad_mapping(tmp_path))
        run_experiment(cfg)
        cols = read_trace(str(tmp_path / "trace_storm_gda_seed1.csv"))
        assert cols["iter"] == list(range(1, 41))
        evaluated = [p for p in cols["p_x"] if p is not None]
        assert len(evaluated) == math.ceil(40 / 7)
        assert sorted(cols.keys()) == sorted(TRACE_COLUMNS)
        # no timing column: a trace is a pure function of (config, seed)
        assert (tmp_path / "trace_storm_gda_seed1.csv").read_text() \
            .splitlines()[0] == ("iter,p_x,grad_p_norm,metric_ci,m_x_norm,"
                                 "m_y_norm,clipped_x,clipped_y")

    def test_summary_written(self, tmp_path):
        cfg = build_config(quad_mapping(tmp_path))
        finals = run_experiment(cfg)
        assert set(finals) == {"1", "2", "mean", "std"}
        text = (tmp_path / "summary_storm_gda.csv").read_text()
        assert text.startswith("optimizer,seed,final_p_x\n")
        assert "storm_gda,mean," in text

    def test_byte_identical_across_repeats(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        run_experiment(build_config(quad_mapping(a_dir)))
        run_experiment(build_config(quad_mapping(b_dir)))
        for name in ("trace_storm_gda_seed1.csv", "trace_storm_gda_seed2.csv",
                     "summary_storm_gda.csv"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_hcmm1_trace_has_clip_flags(self, tmp_path):
        cfg = build_config(quad_mapping(
            tmp_path, **{"optimizer.kind": "hcmm1",
                         "schedule.N": "1e-5", "schedule.N1": "1e-5",
                         "run.seeds": "1"}))
        run_experiment(cfg)
        cols = read_trace(str(tmp_path / "trace_hcmm1_seed1.csv"))
        assert cols["clipped_x"][0] is True

    @pytest.mark.parametrize("kind", ["hcmm1", "hcmm2", "storm_gda", "sagda"])
    def test_clip_flags_match_step_record(self, tmp_path, kind):
        # a block of m_clipped is m's unless HCMM-1 rescaled it (norm >=
        # N = 0.4, to N1 = 0.2); the record's and the trace's flags say which
        cfg = build_config(quad_mapping(
            tmp_path, **{"optimizer.kind": kind, "schedule.N": "0.4",
                         "schedule.N1": "0.2", "run.seeds": "1"}))
        problem, x0, y0 = build_problem(cfg)
        schedule = build_schedule(cfg)
        rows, _ = run_single(cfg, 1, problem, x0, y0, schedule)
        states = list(iterate_steps(cfg.optimizer, problem, schedule, x0, y0,
                                    cfg.T, stream(problem, 1)))
        assert len(rows) == len(states) == 40
        flags = []
        d = problem.dim_x
        for s, row in zip(states, rows):
            for m, mc, norm, flag, col in (
                    (s.m[:d], s.m_clipped[:d], s.m_x_norm, s.clipped_x,
                     "clipped_x"),
                    (s.m[d:], s.m_clipped[d:], s.m_y_norm, s.clipped_y,
                     "clipped_y")):
                clipped = kind == "hcmm1" and norm >= 0.4
                assert flag == clipped
                if clipped:
                    assert np.linalg.norm(mc) == pytest.approx(0.2)
                else:
                    assert mc.tobytes() == m.tobytes()
                if kind == "sagda":
                    # zero momentum; the norms are the step's gradients'
                    assert not m.any() and norm > 0
                assert row[TRACE_COLUMNS.index(col)] == ("1" if clipped
                                                         else "0")
                flags.append(clipped)
        if kind == "hcmm1":
            assert any(flags) and not all(flags)


class TestPlToy:
    def mapping(self, out_dir, **extra):
        return {"problem.kind": "pl_toy", "problem.d": "4", "problem.m": "4",
                "problem.noise_sigma": "0.1", "optimizer.kind": "hcmm2",
                "schedule.kind": "explicit", "schedule.mu_x": "0.02",
                "schedule.mu_y": "0.05", "schedule.beta_x": "0.2",
                "schedule.beta_y": "0.2", "run.T": "30", "run.seeds": "1,2",
                "run.eval_every": "10", "run.output_dir": str(out_dir),
                **extra}

    def test_run_experiment(self, tmp_path):
        finals = run_experiment(build_config(self.mapping(tmp_path)))
        assert math.isfinite(finals["mean"])
        cols = read_trace(str(tmp_path / "trace_hcmm2_seed1.csv"))
        ci = [c for c in cols["metric_ci"] if c is not None]
        assert len(ci) == 3 and all(math.isfinite(c) for c in ci)

    def test_grid_search(self, tmp_path):
        best, board = grid_search(build_config(self.mapping(
            tmp_path, **{"grid.mu_x": "0.01,0.02"})))
        assert len(board) == 2
        assert best["mu_x"] in (0.01, 0.02)

    def test_default_p_unbounded_warns(self, tmp_path, capsys):
        # the default pl_toy (problem.seed = 0) has A + B pinv(C) B' with
        # smallest eigenvalue -0.118: a warning only, the run still goes
        mapping = {k: v for k, v in self.mapping(tmp_path).items()
                   if k not in ("problem.d", "problem.m")}
        assert unbounded_p_warning(build_config(mapping)) == (
            "P(x) is unbounded below: its Hessian A + B pinv(C) B' has "
            "eigenvalue -0.118 < 0 (problem.seed = 0)")
        cfg = tmp_path / "pl.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in mapping.items()))
        assert cli.main(["validate", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert "config ok" in captured.out
        assert captured.err == ("warning: " + unbounded_p_warning(
            build_config(mapping)) + "\n")
        # a quadratic with a bounded P still gives none
        assert unbounded_p_warning(build_config(quad_mapping(
            tmp_path, **{"problem.spectrum": "0.5,1.0"}))) is None


def logistic_file(path, n=40, seed=0):
    rng = np.random.default_rng(seed)
    lines = [f"{rng.choice(['+1', '-1'])} "
             + " ".join(f"{j}:{rng.standard_normal():.3f}"
                        for j in sorted(rng.choice(np.arange(1, 7), 3,
                                                   replace=False)))
             for _ in range(n)]
    return write_libsvm(path, lines)


def logistic_mapping(path, out_dir, **extra):
    return {"problem.kind": "robust_logistic", "problem.dataset_path": path,
            "optimizer.kind": "hcmm2", "schedule.kind": "explicit",
            "schedule.mu_x": "0.05", "schedule.mu_y": "0.01",
            "run.T": "25", "run.seeds": "1", "run.eval_every": "10",
            "run.output_dir": str(out_dir), **extra}


class TestRobustLogistic:
    @pytest.mark.parametrize("optimizer",
                             ["hcmm1", "hcmm2", "storm_gda", "sagda"])
    def test_trace_has_every_metric(self, tmp_path, optimizer):
        path = logistic_file(tmp_path / "tiny.svm")
        cfg = build_config({
            "problem.kind": "robust_logistic", "problem.dataset_path": path,
            "optimizer.kind": optimizer, "schedule.kind": "explicit",
            "schedule.mu_x": "0.05", "schedule.mu_y": "0.01",
            "schedule.beta_x": "0.2", "schedule.beta_y": "0.2",
            "schedule.N": "5", "schedule.N1": "5",
            "run.T": "30", "run.seeds": "1", "run.eval_every": "4",
            "run.output_dir": str(tmp_path / "out")})
        finals = run_experiment(cfg)
        assert math.isfinite(finals["1"])
        cols = read_trace(str(tmp_path / "out" / f"trace_{optimizer}_seed1.csv"))
        rows = [(p, g, c) for p, g, c in zip(cols["p_x"], cols["grad_p_norm"],
                                             cols["metric_ci"])
                if p is not None]
        assert len(rows) == math.ceil(30 / 4)
        for p_x, grad_p, ci in rows:
            assert math.isfinite(p_x) and math.isfinite(grad_p)
            assert math.isfinite(ci) and ci >= grad_p


class TestDatasetReuse:
    @pytest.fixture
    def loads(self, monkeypatch):
        """Paths passed to load_dataset, starting from an empty cache."""
        calls = []
        load = hcmm.harness.load_dataset
        monkeypatch.setattr(hcmm.harness, "load_dataset",
                            lambda path, **kw: calls.append(path)
                            or load(path, **kw))
        monkeypatch.setattr(hcmm.harness, "_last_problem", {})
        return calls

    def test_one_parse_per_file(self, tmp_path, loads):
        path = logistic_file(tmp_path / "a.svm")
        cfg = build_config(logistic_mapping(path, tmp_path))
        problems = [build_problem(cfg)[0] for _ in range(3)]
        for kind in ("hcmm1", "storm_gda", "sagda"):
            problems.append(build_problem(build_config(logistic_mapping(
                path, tmp_path, **{"optimizer.kind": kind,
                                   "schedule.N": "5", "schedule.N1": "5"})))[0])
        assert loads == [path]
        for p in problems[1:]:
            assert (p.X != problems[0].X).nnz == 0
            np.testing.assert_array_equal(p.labels, problems[0].labels)

    def test_same_size_rewrite_parses_again(self, tmp_path, loads):
        path = logistic_file(tmp_path / "a.svm")
        cfg = build_config(logistic_mapping(path, tmp_path))
        before = build_problem(cfg)[0]
        stat = os.stat(path)
        text = Path(path).read_text()
        flipped = "-1" if text.startswith("+1") else "+1"
        Path(path).write_text(flipped + text[2:])
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert os.stat(path).st_size == stat.st_size
        after = build_problem(cfg)[0]
        assert loads == [path, path]
        assert after.labels[0] == -before.labels[0]

    def test_new_file_frees_the_old_before_its_parse(self, tmp_path, loads,
                                                     monkeypatch):
        # one entry: by the time a second file is parsed, nothing holds the
        # first file's problem or its rows, so at most one parsed file is
        # in memory
        first = build_problem(build_config(logistic_mapping(
            logistic_file(tmp_path / "a.svm"), tmp_path)))[0]
        refs = [weakref.ref(first), weakref.ref(first.X.data)]
        del first
        load, alive = hcmm.harness.load_dataset, []

        def checked(path, **kw):
            gc.collect()
            alive.append([r() is not None for r in refs])
            return load(path, **kw)

        monkeypatch.setattr(hcmm.harness, "load_dataset", checked)
        second = build_problem(build_config(logistic_mapping(
            logistic_file(tmp_path / "b.svm", seed=1), tmp_path)))[0]
        assert alive == [[False, False]]
        assert loads == [str(tmp_path / "a.svm"), str(tmp_path / "b.svm")]
        assert second.n == 40

    @pytest.mark.parametrize("key,value", [("problem.subsample", "30"),
                                           ("problem.seed", "3")])
    def test_new_subsample_or_seed_parses_again(self, tmp_path, loads, key,
                                                value):
        path = logistic_file(tmp_path / "a.svm")
        mapping = logistic_mapping(path, tmp_path, **{"problem.subsample": "20"})
        build_problem(build_config(mapping))
        build_problem(build_config({**mapping, key: value}))
        assert len(loads) == 2
        # one entry: the first key is parsed once more
        build_problem(build_config(mapping))
        assert len(loads) == 3


class TestProblemReuse:
    @pytest.fixture
    def counts(self, monkeypatch):
        """Parses, problem builds and L_f bounds, from empty caches."""
        counts = {"parse": 0, "build": 0, "bound": 0}

        def counted(key, fn):
            def call(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return call

        cls = hcmm.problems.RobustLogisticProblem
        monkeypatch.setattr(hcmm.harness, "load_dataset",
                            counted("parse", hcmm.harness.load_dataset))
        monkeypatch.setattr(cls, "__init__", counted("build", cls.__init__))
        # the bound's pass over the rows, a block of rows at a time
        monkeypatch.setattr(hcmm.problems, "_largest_row_norm",
                            counted("bound", hcmm.problems._largest_row_norm))
        monkeypatch.setattr(hcmm.harness, "_last_problem", {})
        return counts

    def test_one_build_per_problem(self, tmp_path, counts):
        path = logistic_file(tmp_path / "a.svm")
        mapping = logistic_mapping(path, tmp_path, **{
            "problem.subsample": "30", "problem.seed": "3",
            "problem.lambda1": "0.01", "problem.lambda2": "0.002",
            "problem.rho": "5", "schedule.N": "5", "schedule.N1": "5"})
        problems = []
        for kind in ("hcmm2", "hcmm2", "hcmm1", "storm_gda", "sagda"):
            problem = build_problem(build_config(
                {**mapping, "optimizer.kind": kind}))[0]
            assert problem.lipschitz_L_f > 0
            problems.append(problem)
        assert all(p is problems[0] for p in problems)
        assert counts == {"parse": 1, "build": 1, "bound": 1}

    @pytest.mark.parametrize("key,value", [("problem.lambda1", "0.5"),
                                           ("problem.lambda2", "0.01"),
                                           ("problem.rho", "3")])
    def test_new_lambda_or_rho_builds_without_parse(self, tmp_path, counts,
                                                    key, value):
        path = logistic_file(tmp_path / "a.svm")
        mapping = logistic_mapping(path, tmp_path)
        first = build_problem(build_config(mapping))[0]
        second = build_problem(build_config({**mapping, key: value}))[0]
        assert getattr(second, key.split(".")[1]) == float(value)
        assert second is not first
        assert np.shares_memory(second.X.data, first.X.data)
        assert counts == {"parse": 1, "build": 2, "bound": 0}
        # one entry: the first values build once more, still on one parse
        assert build_problem(build_config(mapping))[0] is not first
        assert counts == {"parse": 1, "build": 3, "bound": 0}

    def test_restrict_copies_the_bound(self, tmp_path, counts, monkeypatch):
        monkeypatch.setattr(hcmm.problems, "MIN_POOLED", 1)
        path = logistic_file(tmp_path / "a.svm", n=40)
        problem = build_problem(build_config(logistic_mapping(path,
                                                              tmp_path)))[0]
        bound = problem.lipschitz_L_f
        sub, _, _ = problem.restrict(iter([3, 5, 5, 9]),
                                     np.full(40, 1.0 / 40))
        assert sub.pooled == 37
        assert sub.lipschitz_L_f == bound
        assert counts == {"parse": 1, "build": 2, "bound": 1}


def test_golden_logistic_runs_take_both_products(tmp_path, monkeypatch):
    # scripts/golden_outputs.py's pooled logistic runs reach both forms of
    # the x-gradient product: y* on the support product (and, early in a
    # run, on the dense one), and HCMM-2's lifted y, dense at the first
    # evaluated row, on the dense one
    spec = importlib.util.spec_from_file_location(
        "golden_outputs", ROOT / "scripts" / "golden_outputs.py")
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    data = golden.write_libsvm(tmp_path / "data.libsvm", n=3000, d=40,
                               groups=8, seed=5)
    cls = hcmm.problems.RobustLogisticProblem
    taken, label = set(), []

    def record(what, y):
        share = np.count_nonzero(y) / y.size
        taken.add((label[-1], what,
                   "support" if share <= hcmm.problems.MAX_SUPPORT_SHARE
                   else "dense"))

    inner_max, grad_x = cls.inner_max, cls.grad_x

    def spy_inner_max(self, x):
        report = inner_max(self, x)
        record("y*", report.y_star)
        return report

    def spy_grad_x(self, z, margins=None):
        record("y", z[self.d:])
        return grad_x(self, z, margins)

    monkeypatch.setattr(cls, "inner_max", spy_inner_max)
    monkeypatch.setattr(cls, "grad_x", spy_grad_x)
    for opt, schedule in golden.OPTIMIZERS.items():
        label.append(opt)
        run_experiment(build_config({
            "problem.kind": "robust_logistic",
            "problem.dataset_path": str(data), "schedule.kind": "explicit",
            "run.T": "300", "run.seeds": "0,1", "run.eval_every": "50",
            "optimizer.kind": opt, **schedule,
            "run.output_dir": str(tmp_path / "logistic")}))
        assert (opt, "y*", "support") in taken
    assert ("hcmm2", "y", "dense") in taken
    assert {form for _, what, form in taken if what == "y*"} \
        == {"support", "dense"}


def test_golden_inner_max_hashes_take_every_screen(tmp_path, monkeypatch):
    # scripts/golden_outputs.py's inner-max hashes reach each way the
    # screened inner max ends: every row at once (x = 0, where every margin
    # ties), a widened screen and the first screen
    spec = importlib.util.spec_from_file_location(
        "golden_outputs", ROOT / "scripts" / "golden_outputs.py")
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    data = golden.write_libsvm(tmp_path / "data.libsvm", n=3000, d=40,
                               groups=8, seed=5)
    cls = hcmm.problems.RobustLogisticProblem
    # the row counts projected over in each inner max; the steps of the
    # script's run project too, outside any
    screens, inside = [], []
    project, y_star = hcmm.problems.project_simplex, cls._y_star

    def spy_project(v, *args, **kwargs):
        if inside:
            screens[-1].append(v.size)
        return project(v, *args, **kwargs)

    def spy_y_star(self, x):
        screens.append([])
        inside.append(True)
        try:
            return y_star(self, x)
        finally:
            inside.pop()

    monkeypatch.setattr(hcmm.problems, "project_simplex", spy_project)
    monkeypatch.setattr(cls, "_y_star", spy_y_star)
    golden.inner_max_hashes(data)
    taken = ["widened" if len(sizes) > 1 else
             "every row" if sizes == [3000] else "first" for sizes in screens]
    assert taken == ["every row", "widened", "first"]


def full_y_run(monkeypatch):
    """Make robust-logistic runs step on the full y block, and metric_ci
    take its x-gradient from full_gradient: the code path of a run before
    runs stepped on the rows they draw."""
    cls = hcmm.problems.RobustLogisticProblem
    monkeypatch.setattr(cls, "restrict", MinimaxProblem.restrict)
    monkeypatch.setattr(cls, "grad_x", MinimaxProblem.grad_x)


def spy_restrictions(monkeypatch):
    """Record the problem each run steps on."""
    stepped = []
    restrict = hcmm.problems.RobustLogisticProblem.restrict

    def spy(self, samples, y0):
        result = restrict(self, samples, y0)
        stepped.append(result[0])
        return result

    monkeypatch.setattr(hcmm.problems.RobustLogisticProblem, "restrict", spy)
    return stepped


class TestRestrictedRun:
    """Runs step on the rows they draw (RobustLogisticProblem.restrict)."""

    def mapping(self, path, out_dir, optimizer, T):
        return {"problem.kind": "robust_logistic",
                "problem.dataset_path": str(path),
                "optimizer.kind": optimizer, "schedule.kind": "explicit",
                "schedule.mu_x": "0.01", "schedule.mu_y": "0.0001",
                "schedule.beta_x": "0.1", "schedule.beta_y": "0.1",
                "schedule.N": "10", "schedule.N1": "10",
                "run.T": str(T), "run.seeds": "2", "run.eval_every": "10",
                "run.output_dir": str(out_dir)}

    @pytest.mark.parametrize("optimizer", ["hcmm1", "hcmm2", "storm_gda",
                                           "sagda"])
    def test_matches_full_y_run(self, tmp_path, monkeypatch, optimizer):
        path = logistic_file(tmp_path / "a.svm", n=2000, seed=3)
        config = build_config(self.mapping(path, tmp_path, optimizer, 120))
        problem, x0, y0 = build_problem(config)
        schedule = build_schedule(config)
        with monkeypatch.context() as m:
            stepped = spy_restrictions(m)
            rows, info = run_single(config, 2, problem, x0, y0, schedule)
        with monkeypatch.context() as m:
            full_y_run(m)
            want_rows, want = run_single(config, 2, problem, x0, y0, schedule)
        # at most 240 rows drawn (SAGDA) of 2000, plus the pooled one
        (sub,) = stepped
        assert sub.dim_y <= 241 and sub.pooled == 2000 - sub.rows.size
        assert len(rows) == len(want_rows) == 120
        numeric = [c not in ("iter", "clipped_x", "clipped_y")
                   for c in TRACE_COLUMNS]
        for got_row, want_row in zip(rows, want_rows):
            for is_number, got, expect in zip(numeric, got_row, want_row):
                if is_number and expect:
                    assert float(got) == pytest.approx(float(expect),
                                                       rel=1e-12)
                else:
                    assert got == expect
        np.testing.assert_allclose(info["final_x"], want["final_x"],
                                   rtol=1e-12, atol=1e-15)
        y = info["final_y"]
        assert y.shape == (2000,)
        assert np.all(y >= 0.0) and abs(y.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(y, want["final_y"], rtol=1e-12,
                                   atol=1e-15)

    def test_few_undrawn_rows_write_identical_files(self, tmp_path,
                                                    monkeypatch):
        # 40 rows and 301 or more draws: every row is drawn, and fewer than
        # MIN_POOLED go undrawn in any case, so the run steps on the
        # problem itself and every byte is as before
        path = logistic_file(tmp_path / "tiny.svm", n=40)
        for optimizer in ("hcmm1", "hcmm2", "storm_gda", "sagda"):
            written = []
            for out, full in (("a", False), ("b", True)):
                with monkeypatch.context() as m:
                    if full:
                        full_y_run(m)
                    else:
                        stepped = spy_restrictions(m)
                    run_experiment(build_config(self.mapping(
                        path, tmp_path / out, optimizer, 300)))
                written.append(sorted(
                    (f.name, f.read_bytes())
                    for f in (tmp_path / out).glob(f"*_{optimizer}*.csv")))
            assert [s.rows for s in stepped] == [None]
            assert len(written[0]) == 2 and written[0] == written[1]


class TestInnerMaxOnce:
    def test_evaluate_p_on_logistic(self, tmp_path):
        path = logistic_file(tmp_path / "a.svm", n=30, seed=4)
        problem = build_problem(build_config(logistic_mapping(path, tmp_path)))[0]
        rng = np.random.default_rng(1)
        h = 1e-5
        for scale in (0.01, 0.3, 2.0):
            x = scale * rng.standard_normal(problem.dim_x)
            rep = evaluate_P(problem, x)
            assert rep.iters_used == 0 and rep.converged
            assert rep.p_value == pytest.approx(
                problem.objective(x, rep.y_star), rel=1e-13, abs=1e-15)
            fd = [(evaluate_P(problem, x + h * e).p_value
                   - evaluate_P(problem, x - h * e).p_value) / (2 * h)
                  for e in np.eye(problem.dim_x)]
            np.testing.assert_allclose(rep.grad_p, fd, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("optimizer", ["hcmm1", "hcmm2", "storm_gda",
                                           "sagda"])
    def test_run_single_solves_once_per_row(self, tmp_path, monkeypatch,
                                            optimizer):
        # a step projects its y in place (out= given); every other
        # projection is an inner max
        path = logistic_file(tmp_path / "a.svm")
        config = build_config(logistic_mapping(
            path, tmp_path, **{"optimizer.kind": optimizer,
                               "schedule.N": "5", "schedule.N1": "5"}))
        problem, x0, y0 = build_problem(config)
        steps, inner = [], []
        project = hcmm.problems.project_simplex

        def spy(v, out=None, **kwargs):
            (inner if out is None else steps).append(1)
            return project(v, out=out, **kwargs)

        monkeypatch.setattr(hcmm.problems, "project_simplex", spy)
        rows, _ = run_single(config, 1, problem, x0, y0,
                             build_schedule(config))
        evaluated = [r for r in rows if r[1]]
        assert len(evaluated) == 3  # iterations 1, 11 and 21 of 25
        assert all(r[2] and r[3] for r in evaluated)
        assert len(inner) == len(evaluated)
        assert len(steps) == 25

    def test_run_single_builds_margins_once_per_row(self, tmp_path,
                                                    monkeypatch):
        # metric_ci's x-gradient reuses the margins of the row's inner max,
        # and the row's bytes are those of the path that builds them again
        path = logistic_file(tmp_path / "a.svm")
        config = build_config(logistic_mapping(path, tmp_path))
        problem, x0, y0 = build_problem(config)
        schedule = build_schedule(config)
        cls = hcmm.problems.RobustLogisticProblem
        built, margins, grad_x = [], cls._margins, cls.grad_x
        with monkeypatch.context() as m:
            m.setattr(cls, "_margins",
                      lambda self, x: built.append(1) or margins(self, x))
            rows, _ = run_single(config, 1, problem, x0, y0, schedule)
        evaluated = [r for r in rows if r[1]]
        assert len(evaluated) == len(built) == 3
        with monkeypatch.context() as m:
            m.setattr(cls, "grad_x",
                      lambda self, z, margins=None: grad_x(self, z))
            want, _ = run_single(config, 1, problem, x0, y0, schedule)
        assert rows == want


class TestGridSearch:
    def test_cross_product_size_and_best(self, tmp_path):
        cfg = build_config(quad_mapping(
            tmp_path, **{"grid.mu_x": "0.005,0.02,0.08",
                         "grid.mu_y": "0.01,0.05",
                         "run.T": "25", "run.seeds": "1"}))
        best, board = grid_search(cfg)
        assert len(board) == 6
        assert set(best) == {"mu_x", "mu_y"}
        means = [r["mean_final_p"] for r in board]
        assert means == sorted(means)
        text = (tmp_path / "leaderboard_storm_gda.csv").read_text()
        assert text.splitlines()[0] == "mu_x,mu_y,mean_final_p,std_final_p"

    def test_singleton_grid(self, tmp_path):
        cfg = build_config(quad_mapping(tmp_path,
                                        **{"grid.mu_x": "0.02",
                                           "run.T": "10", "run.seeds": "1"}))
        best, board = grid_search(cfg)
        assert best == {"mu_x": 0.02}
        assert len(board) == 1

    def test_diverged_combos_rank_last(self, tmp_path):
        # mu_x = 50 ends at P = nan and mu_x = 5 at P = -inf; neither may
        # be reported as best or ranked above the finite combo
        cfg = build_config(quad_mapping(
            tmp_path, **{"grid.mu_x": "50,0.01,5", "run.T": "400"}))
        with np.errstate(over="ignore", invalid="ignore"):
            best, board = grid_search(cfg)
        assert best == {"mu_x": 0.01}
        assert [r["mu_x"] for r in board] == [0.01, 50.0, 5.0]
        assert math.isfinite(board[0]["mean_final_p"])
        assert not any(math.isfinite(r["mean_final_p"]) for r in board[1:])
        text = (tmp_path / "leaderboard_storm_gda.csv").read_text()
        assert text.splitlines()[1].startswith("0.01,")

    def test_empty_grid_rejected(self, tmp_path):
        cfg = build_config(quad_mapping(tmp_path))
        with pytest.raises(ConfigError, match="grid"):
            grid_search(cfg)
        # a grid key with an empty value list has no combo to run
        with pytest.raises(ConfigError, match="grid.mu_x lists no values"):
            build_config(quad_mapping(tmp_path, **{"grid.mu_x": ""}))


class TestRateStudy:
    def test_slope_negative_on_theorem_ladder(self, tmp_path):
        cfg = build_config(quad_mapping(
            tmp_path, **{"optimizer.kind": "hcmm1",
                         "schedule.kind": "theorem1", "schedule.N1": "2",
                         "constants.L_f": "1.5", "constants.L_h": "0.01",
                         "constants.nu": "1", "constants.sigma_h": "0.05",
                         "problem.noise_sigma": "0.3", "run.seeds": "1,2"}))
        rep = rate_study(cfg, [100, 300, 1000])
        assert rep.slope < 0
        assert len(rep.averaged_norms) == 3
        text = (tmp_path / "rate_hcmm1.csv").read_text()
        assert text.splitlines()[0] == "T,mean_time_avg_grad_p"
        assert text.splitlines()[-1].startswith("slope,")

    def test_needs_three_horizons(self, tmp_path):
        cfg = build_config(quad_mapping(tmp_path))
        with pytest.raises(ConfigError, match="3"):
            rate_study(cfg, [10, 100])

    @pytest.mark.parametrize("T_values", [[0, 10, 100], [10, 100, 0],
                                          [10, -5, 100], [10, 10, 10],
                                          [10, 10, 100], [10, 100.5, 1000],
                                          [10, 10, 100, 1000],
                                          [1e3, 10, 100, 1000]])
    def test_bad_horizons_rejected_before_any_step(self, tmp_path,
                                                   monkeypatch, T_values):
        def no_steps(*args, **kwargs):
            raise AssertionError("stepped before the horizons were checked")

        monkeypatch.setattr(hcmm.harness, "iterate_steps", no_steps)
        cfg = build_config(quad_mapping(tmp_path))
        with pytest.raises(ConfigError, match="3 distinct integer horizons"):
            rate_study(cfg, T_values)
        assert not (tmp_path / "rate_storm_gda.csv").exists()

    def test_explicit_schedule_rejected_before_any_step(self, tmp_path,
                                                        monkeypatch):
        # an explicit schedule runs every horizon with the same step sizes,
        # so its slope is not the theorem rate
        def no_steps(*args, **kwargs):
            raise AssertionError("stepped on an explicit schedule")

        monkeypatch.setattr(hcmm.harness, "iterate_steps", no_steps)
        cfg = build_config(quad_mapping(tmp_path))
        assert cfg.schedule_kind == "explicit"
        with pytest.raises(ConfigError, match="schedule.kind"):
            rate_study(cfg, [10, 100, 1000])
        assert not (tmp_path / "rate_storm_gda.csv").exists()

    @pytest.mark.parametrize("optimizer", ["hcmm2", "sagda"])
    def test_steps_as_run_single_does(self, tmp_path, monkeypatch, optimizer):
        # 1200 rows and at most 2 * 80 + 1 draws: MIN_POOLED or more go
        # undrawn, so each (T, seed) steps on a pooled restriction, and its
        # x iterates are those of a trace run at run.T = T, to the bit
        path = logistic_file(tmp_path / "a.svm", n=1200, seed=3)
        mapping = logistic_mapping(path, tmp_path, **{
            "optimizer.kind": optimizer, "schedule.kind": "theorem2",
            "constants.L_f": "2.0", "constants.delta": "0.5",
            "run.seeds": "1,2"})
        runs = []
        iterate = hcmm.harness.iterate_steps

        def record(*args):
            runs.append([])
            for s in iterate(*args):
                runs[-1].append(s.x.tobytes())
                yield s

        monkeypatch.setattr(hcmm.harness, "iterate_steps", record)
        stepped = spy_restrictions(monkeypatch)
        T_values = [20, 40, 80]
        rate_study(build_config(mapping), T_values)
        assert len(stepped) == len(runs) == 6
        assert all(sub.pooled >= hcmm.problems.MIN_POOLED for sub in stepped)
        rated, runs[:] = list(runs), []
        for T in T_values:
            config = build_config({**mapping, "run.T": str(T)})
            problem, x0, y0 = build_problem(config)
            for seed in config.seeds:
                run_single(config, seed, problem, x0, y0,
                           build_schedule(config), collect_rows=False)
        assert [len(r) for r in rated] == [20, 20, 40, 40, 80, 80]
        assert rated == runs

    # theorem-schedule mappings of each testbed for the tests below
    THEOREM1 = {"optimizer.kind": "hcmm1", "schedule.kind": "theorem1",
                "schedule.N1": "2", "constants.L_f": "1.5",
                "constants.L_h": "0.01", "constants.nu": "1",
                "constants.sigma_h": "0.05", "problem.noise_sigma": "0.3",
                "run.seeds": "1,2"}
    THEOREM2 = {"optimizer.kind": "hcmm2", "schedule.kind": "theorem2",
                "constants.L_f": "2.0", "constants.delta": "0.5",
                "run.seeds": "1,2"}

    @staticmethod
    def per_step_averages(config, T_values):
        """The rate study's averages from one norm2(grad P(x_i)) a step,
        added in step order: the reference the blocked study must match."""
        problem, x0, y0 = build_problem(config)
        averages = []
        for T in T_values:
            schedule = build_schedule(config, T=T)
            per_seed = []
            for seed in config.seeds:
                total = 0.0
                for s in hcmm.harness._seed_steps(config, seed, problem, x0,
                                                  y0, schedule, T)[1]:
                    total += norm2(problem.grad_p(s.x))
                per_seed.append(total / T)
            averages.append(float(np.mean(per_seed)))
        return averages

    @pytest.mark.parametrize("testbed", ["quadratic", "pl_toy", "logistic"])
    def test_averages_bit_equal_to_per_step_loop(self, tmp_path, monkeypatch,
                                                 testbed):
        # horizons of one x, a block - 1, a block + 1 and two blocks + 1,
        # so the last block is partial, and one x or one block past a full
        # one
        if testbed == "logistic":
            # grad P is the base class's, an inner max a row; a block of 8
            # x's keeps the study short. 1200 rows and at most 18 draws:
            # each (T, seed) steps on a pooled restriction
            monkeypatch.setattr(hcmm.harness, "RATE_BLOCK_BYTES", 8 * 16 * 6)
            path = logistic_file(tmp_path / "a.svm", n=1200, seed=3)
            mapping = logistic_mapping(path, tmp_path, **self.THEOREM2)
            stepped = spy_restrictions(monkeypatch)
        elif testbed == "pl_toy":
            mapping = quad_mapping(tmp_path, **{
                "problem.kind": "pl_toy", "problem.d": "5", "problem.m": "6",
                "problem.rank": "3", **self.THEOREM2})
        else:
            mapping = quad_mapping(tmp_path, **self.THEOREM1)
        config = build_config(mapping)
        problem = build_problem(config)[0]
        rows = max(1, hcmm.harness.RATE_BLOCK_BYTES // (16 * problem.dim_x))
        assert rows > 2
        T_values = [1, rows - 1, rows + 1, 2 * rows + 1]
        report = rate_study(config, T_values)
        want = self.per_step_averages(config, T_values)
        assert np.array(report.averaged_norms).tobytes() \
            == np.array(want).tobytes()
        if testbed == "logistic":
            assert len(stepped) == 16
            assert all(sub.pooled >= hcmm.problems.MIN_POOLED
                       for sub in stepped)

    def test_wide_file_allocates_one_block(self, tmp_path):
        # d = 47236 (rcv1's width) over 30 rows: a block holds one x, so
        # the study allocates at most one x and its grad P beyond the
        # per-step loop, where a fixed 1024-row block would take 387 MB
        rng = np.random.default_rng(0)
        d = 47236
        lines = [f"{(-1) ** i} " + " ".join(
            f"{c}:{rng.standard_normal():.3f}"
            for c in np.sort(rng.choice(d, 20, replace=False)) + 1)
            for i in range(30)]
        path = write_libsvm(tmp_path / "wide.svm", lines)
        config = build_config(logistic_mapping(path, tmp_path, **{
            **self.THEOREM2, "run.seeds": "1"}))
        T_values = [3, 5, 8]
        budget = max(hcmm.harness.RATE_BLOCK_BYTES, 16 * d)
        peaks = []
        for study in (self.per_step_averages, rate_study) * 2:
            # the second round runs warm: the first filled the caches
            tracemalloc.start()
            try:
                study(config, T_values)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[3] - peaks[2] <= budget, peaks

    def test_slope_left_out_unless_every_average_positive(self, tmp_path):
        # a noiseless quadratic started at its saddle stays there: every
        # average is 0, which no log takes
        cfg = build_config(quad_mapping(tmp_path, **{
            **self.THEOREM1, "problem.noise_sigma": "0",
            "problem.x0_scale": "0"}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = rate_study(cfg, [10, 100, 1000])
        assert report.averaged_norms == (0.0, 0.0, 0.0)
        assert report.slope is None and report.unfit == [10, 100, 1000]
        assert (tmp_path / "rate_hcmm1.csv").read_text() == (
            "T,mean_time_avg_grad_p\n10,0.0\n100,0.0\n1000,0.0\nslope,\n")
        # every average finite and > 0 but one
        ok = hcmm.harness.RateReport((10, 100, 1000), (0.5, math.nan, 0.1),
                                     None)
        assert ok.unfit == [100]


class TestPlot:
    def test_svg_deterministic_and_wellformed(self, tmp_path):
        cfg = build_config(quad_mapping(tmp_path / "traces"))
        run_experiment(cfg)
        p1 = tmp_path / "one.svg"
        p2 = tmp_path / "two.svg"
        emit_plot(str(tmp_path / "traces"), str(p1))
        emit_plot(str(tmp_path / "traces"), str(p2))
        data = p1.read_bytes()
        assert data == p2.read_bytes()
        assert data.startswith(b"<svg ")
        assert b"storm_gda" in data
        assert b"polyline" in data

    def test_missing_traces(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            emit_plot(str(tmp_path), str(tmp_path / "x.svg"))

    @pytest.mark.parametrize("T,every", [(200, 20), (150, 10)],
                             ids=["same-count", "more-rows"])
    def test_traces_of_other_iterations_rejected(self, tmp_path, T, every):
        # seed 1 evaluates other iterations than seed 0: as many rows, so a
        # mean by row would mix iterations, or more rows
        for seed, (t, e) in ((0, (100, 10)), (1, (T, every))):
            run_experiment(build_config(quad_mapping(tmp_path, **{
                "run.seeds": str(seed), "run.T": str(t),
                "run.eval_every": str(e)})))
        with pytest.raises(ValueError) as ei:
            emit_plot(str(tmp_path), str(tmp_path / "x.svg"))
        assert str(ei.value) == (
            f"storm_gda: {tmp_path / 'trace_storm_gda_seed0.csv'} and "
            f"{tmp_path / 'trace_storm_gda_seed1.csv'} evaluate different "
            f"iterations, so their p_x cannot be averaged")
        assert not (tmp_path / "x.svg").exists()


# a robust-logistic problem on tiny.svm, found through MINIMAX_DATA_DIR
LOGISTIC = "problem.kind = robust_logistic\nproblem.dataset_path = tiny.svm\n"


class TestCli:
    def write_cfg(self, tmp_path, extra=""):
        # extra's lines set their keys in place of the base mapping's
        cfg = tmp_path / "exp.cfg"
        mapping = {**quad_mapping(tmp_path / "out"), **parse_config_text(extra)}
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in mapping.items()))
        return str(cfg)

    def test_run_subcommand(self, tmp_path, capsys):
        rc = cli.main(["run", "--config", self.write_cfg(tmp_path)])
        assert rc == 0
        assert (tmp_path / "out" / "trace_storm_gda_seed1.csv").exists()

    def test_validate_subcommand_ok(self, tmp_path, capsys):
        rc = cli.main(["validate", "--config", self.write_cfg(tmp_path)])
        assert rc == 0
        assert "ok" in capsys.readouterr().out.lower()

    def test_validate_subcommand_bad(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("problem.kind = nope\noptimizer.kind = sagda\n"
                       "run.T = 5\nrun.seeds = 0\n")
        rc = cli.main(["validate", "--config", str(bad)])
        assert rc == 1

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("optimizer,drop,named", [
        ("storm_gda", "schedule.mu_x", "schedule.mu_x"),
        ("storm_gda", "schedule.mu_y", "schedule.mu_y"),
        ("hcmm1", "schedule.N", "schedule.N1"),
    ])
    def test_incomplete_explicit_schedule(self, tmp_path, capsys, command,
                                          optimizer, drop, named):
        # hcmm1's clip pair is absent from the base mapping altogether
        m = quad_mapping(tmp_path / "out", **{"optimizer.kind": optimizer})
        m.pop(drop, None)
        cfg = tmp_path / "incomplete.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in m.items()))
        rc = cli.main([command, "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 1
        assert named in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("extra,key", [
        ("problem.d = abc", "problem.d"),
        ("problem.d = 0", "problem.d"),
        ("problem.spectrum = 1", "problem.spectrum"),
        ("problem.spectrum = a,b", "problem.spectrum"),
        ("problem.seed = -1", "problem.seed"),
        ("problem.kind = pl_toy\nproblem.rank = 4", "problem.rank"),
        ("optimizer.kind = hcmm1\nschedule.N = 5\nschedule.N1 = 5\n"
         "optimizer.update_from_clipped = yes",
         "optimizer.update_from_clipped"),
        ("run.seeds = 1,-1", "run.seeds"),
        ("schedule.mu_x = nan", "schedule.mu_x"),
        ("constants.L_f = inf", "constants.L_f"),
        (LOGISTIC + "problem.lambda1 = -1", "problem.lambda1"),
        (LOGISTIC + "problem.lambda1 = 0", "problem.lambda1"),
        (LOGISTIC + "problem.rho = 0", "problem.rho"),
        (LOGISTIC + "problem.lambda2 = -0.5", "problem.lambda2"),
        ("problem.nu = -1", "problem.nu"),
        ("problem.noise_sigma = -1", "problem.noise_sigma"),
        ("problem.kind = pl_toy\nproblem.c_min = -1", "problem.c_min"),
        # c_min = 0 would give C a lower rank than problem.rank
        ("problem.kind = pl_toy\nproblem.c_min = 0", "problem.c_min"),
        ("problem.kind = pl_toy\nproblem.c_min = 0\nproblem.c_max = 0",
         "problem.c_max"),
    ], ids=["d-abc", "d-0", "spectrum-1", "spectrum-a,b", "seed--1",
            "rank-4", "update_from_clipped-yes",
            "seeds-1,-1", "mu_x-nan", "L_f-inf", "lambda1--1", "lambda1-0",
            "rho-0", "lambda2--0.5", "nu--1", "noise_sigma--1", "c_min--1",
            "c_min-0", "c_min-c_max-0"])
    def test_bad_value_rejected_before_run(self, tmp_path, capsys,
                                           monkeypatch, command, extra, key):
        # the robust-logistic cases name a file that exists
        monkeypatch.setenv("MINIMAX_DATA_DIR", str(tmp_path))
        logistic_file(tmp_path / "tiny.svm")
        rc = cli.main([command, "--config",
                       self.write_cfg(tmp_path, extra + "\n")])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"{key} " in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run", "grid"])
    @pytest.mark.parametrize("extra,message", [
        ("run.seeds = 1,1", "run.seeds repeats a value: '1,1'"),
        ("run.seeds = 2,1,2", "run.seeds repeats a value: '2,1,2'"),
        ("grid.mu_x = 0.01,0.01", "grid.mu_x repeats a value: '0.01,0.01'"),
        ("grid.mu_x = 0.01,0.02,1e-2",
         "grid.mu_x repeats a value: '0.01,0.02,1e-2'"),
    ], ids=["seeds-1,1", "seeds-2,1,2", "mu_x-0.01,0.01", "mu_x-1e-2"])
    def test_repeated_value_rejected_before_run(self, tmp_path, capsys,
                                                monkeypatch, command, extra,
                                                message):
        # a repeated seed would run twice and be listed twice in the
        # summary; a repeated grid value would add a duplicate row
        def no_steps(*args, **kwargs):
            raise AssertionError("stepped before the values were checked")

        monkeypatch.setattr(hcmm.harness, "iterate_steps", no_steps)
        rc = cli.main([command, "--config",
                       self.write_cfg(tmp_path, extra + "\n")])
        err = capsys.readouterr().err
        assert rc == 1
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_repeated_key_rejected_before_run(self, tmp_path, capsys,
                                              command):
        cfg = Path(self.write_cfg(tmp_path))
        lines = cfg.read_text().splitlines()
        first = lines.index("run.T = 40") + 1
        cfg.write_text(cfg.read_text() + "run.T = 20\n")
        rc = cli.main([command, "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 1
        assert (f"error: line {len(lines) + 1}: run.T is already set on "
                f"line {first}") in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_spectrum_may_repeat(self, tmp_path):
        config, issues, _ = read_config(quad_mapping(
            tmp_path, **{"problem.spectrum": "1,1"}))
        assert issues == []
        assert config.problem_params["spectrum"] == (1.0, 1.0)

    @pytest.mark.parametrize("command", ["validate", "run", "grid", "rate"])
    def test_hcmm1_on_theorem2_rejected_before_run(self, tmp_path, capsys,
                                                   command):
        # the theorem2 schedule sets no clip constants, which HCMM-1 needs
        cfg = self.write_cfg(tmp_path, "optimizer.kind = hcmm1\n"
                             "schedule.kind = theorem2\n"
                             "constants.L_f = 2.0\nconstants.delta = 0.5\n"
                             "grid.mu_x = 0.01,0.02\n")
        horizons = ["--T", "10,100,1000"] if command == "rate" else []
        rc = cli.main([command, "--config", cfg] + horizons)
        err = capsys.readouterr().err
        assert rc == 1
        assert "schedule.kind = theorem2" in err
        assert "optimizer.kind = hcmm1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_validate_warns_unknown_keys(self, tmp_path, capsys):
        # run.x0 and run.record_wall are no longer keys; grid.<k> is known
        # when schedule.<k> is
        cfg = self.write_cfg(tmp_path, "problem.lamda2 = 0.5\nrun.x0 = 1,2\n"
                             "run.record_wall = true\n"
                             "grid.beta_y = 0.1,0.2\ngrid.bogus = 1\n")
        assert cli.main(["validate", "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert "config ok" in captured.out
        assert captured.err.splitlines() == [
            f"warning: unknown key {key} (ignored)"
            for key in ("grid.bogus", "problem.lamda2", "run.record_wall",
                        "run.x0")] + [
            "warning: P(x) is unbounded below: its Hessian A + BB'/nu has "
            "eigenvalue -0.467 < 0 (problem.spectrum = -0.5,0.5)"]
        assert cli.main(["run", "--config", cfg]) == 0
        assert capsys.readouterr().err == ""

    def test_validate_warns_when_p_unbounded(self, tmp_path, capsys):
        # the default spectrum -0.5,0.5 leaves A + BB'/nu indefinite here
        # (smallest eigenvalue -0.467); a bounded one does not warn, and
        # neither does `run`
        assert cli.main(["validate", "--config", self.write_cfg(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "config ok" in captured.out
        assert captured.err.startswith("warning: P(x) is unbounded below")
        assert "-0.467" in captured.err
        bounded = self.write_cfg(tmp_path, "problem.spectrum = 0.5,1.0\n")
        assert cli.main(["validate", "--config", bounded]) == 0
        assert capsys.readouterr().err == ""
        assert cli.main(["run", "--config", self.write_cfg(tmp_path)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")),
                             ids=lambda p: p.name)
    def test_shipped_config_validates(self, capsys, path):
        # no issue, no unknown key, every grid combo built, no warning
        assert cli.main(["validate", "--config", str(path)]) == 0
        captured = capsys.readouterr()
        assert "config ok" in captured.out
        assert captured.err == ""
        config = build_config(parse_config_text(path.read_text()))
        if config.schedule_kind == "theorem1":
            # the schedule's L_f bounds the instance's, as the theorem needs
            assert config.constants.L_f >= \
                build_problem(config)[0].lipschitz_L_f

    def test_robust_logistic_recipe(self, tmp_path, capsys, monkeypatch):
        # the README recipe on each shipped protocol config, shortened:
        # grid, rerun the best config, then one plot of all four
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        from datagen import write_libsvm as write_datagen
        data = write_datagen(tmp_path / "data.svm", 300, 112, 22, seed=0)
        out = tmp_path / "out"
        for label in OPTIMIZER_LABELS:
            mapping = shipped_config(f"robust_logistic_{label}", {
                "problem.dataset_path": str(data), "run.T": "30",
                "run.output_dir": str(out)})
            cfg = tmp_path / f"{label}.cfg"
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in mapping.items()))
            assert cli.main(["grid", "--config", str(cfg)]) == 0
            assert cli.main(["run", "--config",
                             str(out / f"best_{label}.cfg")]) == 0
            board = (out / f"leaderboard_{label}.csv").read_text().splitlines()
            summary = (out / f"summary_{label}.csv").read_text().splitlines()
            # the rerun's mean and std are the best row's, to the bit
            assert [line.split(",")[2] for line in summary[-2:]] == \
                board[1].split(",")[-2:]
        svg = tmp_path / "comparison.svg"
        assert cli.main(["plot", "--in", str(out), "--out", str(svg)]) == 0
        assert svg.read_text().count("<polyline") == 4

    def test_grid_all_diverged_is_an_error(self, tmp_path, capsys):
        # the leaderboard is written, but no best config to rerun, and one
        # left by an earlier grid is removed
        out = tmp_path / "out"
        out.mkdir()
        (out / "best_storm_gda.cfg").write_text("stale\n")
        cfg = self.write_cfg(tmp_path, "grid.mu_x = 50,100\nrun.T = 400\n")
        with np.errstate(over="ignore", invalid="ignore"):
            rc = cli.main(["grid", "--config", cfg])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"see {out / 'leaderboard_storm_gda.csv'}" in err
        assert (out / "leaderboard_storm_gda.csv").exists()
        assert not (out / "best_storm_gda.cfg").exists()

    def test_validate_grid_supplies_schedule_value(self, tmp_path, capsys):
        m = quad_mapping(tmp_path / "out", **{"grid.mu_x": "0.01,0.02"})
        del m["schedule.mu_x"]
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in m.items()))
        assert cli.main(["validate", "--config", str(cfg)]) == 0
        assert "ok" in capsys.readouterr().out.lower()

    def test_run_names_the_schedule_key_a_grid_supplies(self, tmp_path,
                                                        capsys):
        # run reads no grid.* key: its error names schedule.mu_x and the
        # grid-then-rerun recipe, which then works
        m = quad_mapping(tmp_path / "out", **{"schedule.mu_y": "0.1",
                                              "grid.mu_x": "0.1,0.01"})
        del m["schedule.mu_x"]
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in m.items()))
        assert cli.main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert ("explicit storm_gda schedule needs schedule.mu_x; a run reads "
                "no grid.* key: run `hcmm grid` on this config, then "
                "`hcmm run` on its best_storm_gda.cfg") in err
        assert not (tmp_path / "out").exists()
        assert cli.main(["grid", "--config", str(cfg)]) == 0
        best = tmp_path / "out" / "best_storm_gda.cfg"
        assert cli.main(["run", "--config", str(best)]) == 0

    @pytest.mark.parametrize("command,data_dir,name", [
        ("run", False, "nothere.svm"), ("run", True, "nothere.svm"),
        ("grid", False, "nothere.svm"), ("grid", True, "nothere.svm"),
        ("run", False, "adir")],
        ids=["run", "run-env", "grid", "grid-env", "run-directory"])
    def test_missing_dataset_names_its_key(self, tmp_path, capsys,
                                           monkeypatch, command, data_dir,
                                           name):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("MINIMAX_DATA_DIR", raising=False)
        if data_dir:
            monkeypatch.setenv("MINIMAX_DATA_DIR", str(tmp_path / "data"))
        (tmp_path / "adir").mkdir()
        cfg = self.write_cfg(tmp_path, "problem.kind = robust_logistic\n"
                             f"problem.dataset_path = {name}\n"
                             "grid.mu_x = 0.01,0.02\n")
        # validate does not look for the file
        assert cli.main(["validate", "--config", cfg]) == 0
        assert "dataset" not in capsys.readouterr().err
        assert cli.main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err
        tried = f" (nor {tmp_path / 'data' / name} under " \
            "$MINIMAX_DATA_DIR)" if data_dir else ""
        assert err == (f"error: problem.dataset_path = {name}: no such "
                       f"file{tried}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "grid"])
    def test_empty_grid_list(self, tmp_path, capsys, command):
        cfg = self.write_cfg(tmp_path, "grid.mu_x =\n")
        rc = cli.main([command, "--config", cfg])
        err = capsys.readouterr().err
        assert rc == 1
        assert "grid.mu_x lists no values" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("clip,message", [
        ("schedule.N = -1\nschedule.N1 = 1", "N=-1.0, N1=1.0"),
        ("schedule.N = 1\nschedule.N1 = 0", "N=1.0, N1=0.0"),
    ], ids=["N--1", "N1-0"])
    def test_nonpositive_clip_constant_rejected_before_run(
            self, tmp_path, capsys, command, clip, message):
        rc = cli.main([command, "--config", self.write_cfg(
            tmp_path, f"optimizer.kind = hcmm1\n{clip}\n")])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"clipping constants must be positive: {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "grid"])
    @pytest.mark.parametrize("extra,message", [
        ("optimizer.kind = hcmm1\nschedule.N1 = 1\ngrid.N = 1,-1",
         "clipping constants must be positive: N=-1.0"),
        ("grid.mu_y = 0.05,0.1,-0.1", "step sizes must be positive"),
        ("grid.beta_x = 0.2,1.5", "smoothing factors must lie in (0, 1]"),
    ], ids=["N-1,-1", "mu_y-third", "beta_x-1.5"])
    def test_bad_later_grid_combo_rejected_before_run(
            self, tmp_path, capsys, monkeypatch, command, extra, message):
        # every combo's schedule is built, so checked, before the first run
        def no_run(*args, **kwargs):
            raise AssertionError("run_single called")

        monkeypatch.setattr(hcmm.harness, "run_single", no_run)
        rc = cli.main([command, "--config", self.write_cfg(tmp_path, extra + "\n")])
        err = capsys.readouterr().err
        assert rc == 1
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("key", ["schedule.beta_x", "constants.L_f"])
    def test_empty_scalar_value(self, tmp_path, capsys, command, key):
        rc = cli.main([command, "--config",
                       self.write_cfg(tmp_path, f"{key} =\n")])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"{key} is not numeric: ''" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("value", ["abc", "0", "-5"])
    def test_subsample_must_be_positive(self, tmp_path, capsys, command, value):
        data = write_libsvm(tmp_path / "tiny.svm",
                            ["+1 1:1 2:0.5", "-1 2:1", "+1 1:-1", "-1 1:2 2:1"])
        cfg = self.write_cfg(tmp_path, "problem.kind = robust_logistic\n"
                             f"problem.dataset_path = {data}\n"
                             f"problem.subsample = {value}\n")
        rc = cli.main([command, "--config", cfg])
        err = capsys.readouterr().err
        assert rc == 1
        assert "problem.subsample" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_plot_subcommand(self, tmp_path):
        cli.main(["run", "--config", self.write_cfg(tmp_path)])
        out = tmp_path / "plot.svg"
        rc = cli.main(["plot", "--in", str(tmp_path / "out"),
                       "--out", str(out)])
        assert rc == 0
        assert out.exists()

    def test_rate_subcommand(self, tmp_path):
        cfg = tmp_path / "rate.cfg"
        m = quad_mapping(tmp_path / "out",
                         **{"optimizer.kind": "hcmm1",
                            "schedule.kind": "theorem1",
                            "schedule.N1": "2",
                            "constants.L_f": "1.5", "constants.L_h": "0.01",
                            "constants.nu": "1", "constants.sigma_h": "0.05",
                            "run.seeds": "1"})
        cfg.write_text("\n".join(f"{k} = {v}" for k, v in m.items()) + "\n")
        rc = cli.main(["rate", "--config", str(cfg), "--T", "50,150,400"])
        assert rc == 0
        assert (tmp_path / "out" / "rate_hcmm1.csv").exists()

    @pytest.mark.parametrize("T", ["0,10,100", "1e1,1.5e1,2.25",
                                   "10,10,100,1000"])
    def test_rate_bad_horizons_is_an_error(self, tmp_path, capsys, T):
        rc = cli.main(["rate", "--config", self.write_cfg(tmp_path),
                       "--T", T])
        assert rc == 1
        assert "error: rate study needs at least 3 distinct integer " \
            "horizons >= 1" in capsys.readouterr().err

    def test_rate_without_slope_is_an_error(self, tmp_path, capsys):
        # a noiseless quadratic started at its saddle: every average is 0,
        # so the command prints them, names each horizon and exits 1,
        # without a numpy warning and without a nan slope
        extra = "".join(f"{k} = {v}\n" for k, v in {
            **TestRateStudy.THEOREM1, "problem.noise_sigma": "0",
            "problem.x0_scale": "0"}.items())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["rate", "--config", self.write_cfg(tmp_path, extra),
                           "--T", "10,100,1000"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert "T=1000: time-avg ||grad P|| = 0" in out
        assert "slope" not in out and "nan" not in out + err
        assert err == ("error: no log-log slope: the time average is not "
                       "finite and > 0 at T = [10, 100, 1000]\n")
        assert (tmp_path / "out" / "rate_hcmm1.csv").read_text() \
            .endswith("1000,0.0\nslope,\n")

    def test_rate_explicit_schedule_is_an_error(self, tmp_path, capsys):
        rc = cli.main(["rate", "--config", self.write_cfg(tmp_path),
                       "--T", "10,100,1000"])
        assert rc == 1
        assert "error: rate study needs schedule.kind = theorem1 or " \
            "theorem2, got 'explicit'" in capsys.readouterr().err

    def test_seed_override_checked_before_run(self, tmp_path, capsys):
        rc = cli.main(["run", "--config", self.write_cfg(tmp_path),
                       "--seed", "-1"])
        assert rc == 1
        assert "run.seeds must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_echo_records_overrides(self, tmp_path):
        out = tmp_path / "o2"
        rc = cli.main(["run", "--config", self.write_cfg(tmp_path),
                       "--seed", "7", "--out", str(out)])
        assert rc == 0
        assert (out / "trace_storm_gda_seed7.csv").exists()
        echo = (out / "config_storm_gda.echo").read_text().splitlines()
        assert "run.seeds = 7" in echo
        assert f"run.output_dir = {out}" in echo
        assert not (tmp_path / "out").exists()

    def test_missing_config_errors(self, tmp_path, capsys):
        rc = cli.main(["run", "--config", str(tmp_path / "nope.cfg")])
        assert rc == 1
        assert capsys.readouterr().err


def test_golden_outputs_script(tmp_path):
    # the golden set that simplifications are diffed against: made twice,
    # under two OUT names, one relative and one absolute, it is
    # byte-identical
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    trees = []
    for out in (Path("golden"), tmp_path / "b" / "other_name"):
        subprocess.run([sys.executable, str(ROOT / "scripts" / "golden_outputs.py"),
                        str(out)], cwd=tmp_path, env=env, check=True)
        out = tmp_path / out
        trees.append({str(f.relative_to(out)): f.read_bytes()
                      for f in sorted(out.rglob("*")) if f.is_file()})
    assert trees[0] == trees[1]
    for name in ("results.txt", "quadratic_seed0/plot.svg",
                 "pl_toy_seed1/trace_hcmm2_seed1.csv",
                 "grid/leaderboard_storm_gda.csv", "rate_theorem1/rate_hcmm1.csv",
                 "rate_theorem2/rate_hcmm2.csv",
                 "rate_pl_toy_blocks/rate_hcmm2.csv",
                 "rate_quad_rate/rate_hcmm1.csv",
                 "logistic/summary_sagda.csv",
                 "logistic/trace_hcmm1_seed1.csv",
                 "logistic_declined/summary_hcmm1.csv",
                 "logistic_commented/trace_hcmm2_seed0.csv",
                 "logistic_grid/best_hcmm2.cfg",
                 "logistic_rate/rate_hcmm2.csv", "inner_max_hashes.txt",
                 "load_errors.txt", "parse_hashes.txt",
                 "lipschitz_L_f.txt", "data_mixed.libsvm.gz"):
        assert name in trees[0]
    # and equal to the committed digest, on the environment it was made on
    spec = importlib.util.spec_from_file_location(
        "golden_digest", ROOT / "scripts" / "golden_digest.py")
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    committed = (ROOT / "tests" / "golden.sha256").read_text(encoding="utf-8")
    made_on = committed.splitlines()[0].removeprefix("# fingerprint: ")
    if made_on != golden.fingerprint():
        pytest.skip(f"tests/golden.sha256 was made on {made_on}, this is "
                    f"{golden.fingerprint()}")
    assert golden.digest(tmp_path / "golden").splitlines() == \
        committed.splitlines()


def readme_table_keys():
    """The keys in README's config table: each backticked `section.key`
    in a row's first cell, `.key` meaning the cell's first section, and
    `grid.<k>` one key per schedule.* name."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| key | type | default | read for |") + 2
    keys = set()
    for line in itertools.takewhile(lambda l: l.startswith("|"),
                                    lines[start:]):
        section = None
        for token in re.findall(r"`([^`]+)`", line.split("|")[1]):
            if token.startswith(".") and section:
                token = section + token
            elif not re.fullmatch(r"[a-z]+\.[A-Za-z0-9_<>]+", token):
                continue
            section = token.split(".")[0]
            keys.update(token.replace("<k>", k) for k in SCHEDULE_KEYS)
    return keys


def test_readme_key_table_matches_reader(monkeypatch):
    # every key the reader reads, for any problem kind and optimizer, is in
    # the table, and every key in the table is one the reader reads
    read = set()
    text = hcmm.harness._Reader.text

    def spy(self, key, *args, **kwargs):
        read.add(key)
        return text(self, key, *args, **kwargs)

    monkeypatch.setattr(hcmm.harness._Reader, "text", spy)
    for kind in ("robust_logistic", "quadratic", "pl_toy"):
        for optimizer in OPTIMIZER_LABELS:
            read_config({"problem.kind": kind, "optimizer.kind": optimizer})
    table = readme_table_keys()
    assert "problem.kind" in table and "grid.N1" in table
    assert sorted(table - read) == []
    assert sorted(read - table) == []


# imports hcmm, runs the synthetic testbeds in every mode, then builds a
# robust-logistic problem; prints the scipy modules loaded before and after
SCIPY_PROBE = """
import json, sys
import hcmm, hcmm.harness, hcmm.cli
from hcmm.harness import (build_config, build_problem, emit_plot,
                          grid_search, rate_study, run_experiment)
out, mappings, logistic = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3]
for name, mapping in mappings.items():
    config = build_config(mapping)
    build_problem(config)
    if name == "rate":
        rate_study(config, [20, 40, 80])
    elif name == "grid":
        grid_search(config)
    else:
        run_experiment(config)
emit_plot(out, out + "/plot.svg")
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
build_problem(build_config({"problem.kind": "robust_logistic",
                            "problem.dataset_path": logistic,
                            "optimizer.kind": "hcmm2",
                            "schedule.kind": "explicit",
                            "schedule.mu_x": "0.02", "schedule.mu_y": "0.05",
                            "schedule.beta_x": "0.2", "schedule.beta_y": "0.2",
                            "run.T": "5", "run.seeds": "0"}))
after = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps([before, after]))
"""


def test_synthetic_runs_never_import_scipy(tmp_path):
    # conftest imports scipy, so the probe runs in a fresh interpreter
    out = str(tmp_path)
    mappings = {
        "quadratic": quad_mapping(out, **{"run.T": "30"}),
        "pl_toy": quad_mapping(out, **{"problem.kind": "pl_toy",
                                       "problem.m": "4", "problem.rank": "2",
                                       "optimizer.kind": "sagda",
                                       "run.T": "30"}),
        "rate": quad_mapping(out, **{"optimizer.kind": "hcmm1",
                                     "schedule.kind": "theorem1",
                                     "schedule.N1": "2",
                                     "constants.L_f": "1.5",
                                     "constants.L_h": "0.01",
                                     "constants.nu": "1",
                                     "constants.sigma_h": "0.05",
                                     "run.seeds": "1"}),
        "grid": quad_mapping(out, **{"grid.mu_x": "0.01,0.02",
                                     "run.T": "20"}),
    }
    logistic = write_libsvm(tmp_path / "tiny.svm",
                            ["+1 1:1 3:2", "-1 2:0.5", "+1 3:1"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, out, json.dumps(mappings),
         str(logistic)], env=env, check=True, stdout=subprocess.PIPE,
        text=True)
    before, after = json.loads(proc.stdout)
    assert before == []
    assert "scipy.sparse" in after
