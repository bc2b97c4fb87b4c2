import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hcmm.harness
import hcmm.problems
from hcmm.core import ConfigError
from hcmm.harness import (TRACE_COLUMNS, build_config, build_problem,
                          build_schedule, emit_plot, grid_search,
                          optimizer_label, parse_config_text, rate_study,
                          read_config, read_trace, run_experiment, run_single,
                          unbounded_p_warning)
from hcmm.optimizers import Hcmm1, Sagda, iterate_steps
from hcmm.oracle import MinimaxProblem, evaluate_P
from hcmm import cli

from conftest import write_libsvm

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


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
        assert not cfg.record_wall

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
            "run.seeds": "1,-2", "run.record_wall": "1",
            "schedule.N": "a"}))[1]
        assert issues == ["problem.m is not an integer: 'x'",
                          "problem.nu is not numeric: ''",
                          "problem.spectrum must list 2 values, got '1,2,3'",
                          "schedule.N is not numeric: 'a'",
                          "run.seeds must be >= 0",
                          "run.record_wall must be true or false, got '1'"]

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
        assert all(w is None for w in cols["wall_ns"])
        assert sorted(cols.keys()) == sorted(TRACE_COLUMNS)

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

    def test_wall_ns_populated_when_opted_in(self, tmp_path):
        cfg = build_config(quad_mapping(tmp_path,
                                        **{"run.record_wall": "true",
                                           "run.seeds": "1"}))
        run_experiment(cfg)
        cols = read_trace(str(tmp_path / "trace_storm_gda_seed1.csv"))
        assert all(isinstance(w, int) for w in cols["wall_ns"])

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
                                    cfg.T, 1))
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
        monkeypatch.setattr(hcmm.harness, "_last_dataset", {})
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
        numeric = [c not in ("iter", "clipped_x", "clipped_y", "wall_ns")
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
        # with project_y off, every projection is an inner max
        path = logistic_file(tmp_path / "a.svm")
        config = build_config(logistic_mapping(
            path, tmp_path, **{"optimizer.kind": optimizer,
                               "optimizer.project_y": "false",
                               "schedule.N": "5", "schedule.N1": "5"}))
        problem, x0, y0 = build_problem(config)
        calls = []
        project = hcmm.problems.project_simplex
        monkeypatch.setattr(hcmm.problems, "project_simplex",
                            lambda v: calls.append(1) or project(v))
        rows, _ = run_single(config, 1, problem, x0, y0,
                             build_schedule(config))
        evaluated = [r for r in rows if r[1]]
        assert len(evaluated) == 3  # iterations 1, 11 and 21 of 25
        assert all(r[2] and r[3] for r in evaluated)
        assert len(calls) == len(evaluated)


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
                                          [10, 10, 100], [10, 100.5, 1000]])
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


class TestCli:
    def write_cfg(self, tmp_path, extra=""):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("\n".join(
            f"{k} = {v}" for k, v in
            quad_mapping(tmp_path / "out").items()) + "\n" + extra)
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
        ("optimizer.project_y = maybe", "optimizer.project_y"),
        ("optimizer.kind = hcmm1\nschedule.N = 5\nschedule.N1 = 5\n"
         "optimizer.update_from_clipped = yes",
         "optimizer.update_from_clipped"),
        ("run.seeds = 1,-1", "run.seeds"),
        ("schedule.mu_x = nan", "schedule.mu_x"),
        ("constants.L_f = inf", "constants.L_f"),
    ], ids=["d-abc", "d-0", "spectrum-1", "spectrum-a,b", "seed--1",
            "rank-4", "project_y-maybe", "update_from_clipped-yes",
            "seeds-1,-1", "mu_x-nan", "L_f-inf"])
    def test_bad_value_rejected_before_run(self, tmp_path, capsys, command,
                                           extra, key):
        rc = cli.main([command, "--config",
                       self.write_cfg(tmp_path, extra + "\n")])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"{key} " in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_validate_warns_unknown_keys(self, tmp_path, capsys):
        # run.x0 is no longer a key; grid.<k> is known when schedule.<k> is
        cfg = self.write_cfg(tmp_path, "problem.lamda2 = 0.5\nrun.x0 = 1,2\n"
                             "grid.beta_y = 0.1,0.2\ngrid.bogus = 1\n")
        assert cli.main(["validate", "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert "config ok" in captured.out
        assert captured.err.splitlines() == [
            f"warning: unknown key {key} (ignored)"
            for key in ("grid.bogus", "problem.lamda2", "run.x0")] + [
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
        assert cli.main(["validate", "--config", str(path)]) == 0
        captured = capsys.readouterr()
        assert "config ok" in captured.out
        assert captured.err == ""

    def test_validate_grid_supplies_schedule_value(self, tmp_path, capsys):
        m = quad_mapping(tmp_path / "out", **{"grid.mu_x": "0.01,0.02"})
        del m["schedule.mu_x"]
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in m.items()))
        assert cli.main(["validate", "--config", str(cfg)]) == 0
        assert "ok" in capsys.readouterr().out.lower()

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

    @pytest.mark.parametrize("T", ["0,10,100", "1e1,1.5e1,2.25"])
    def test_rate_bad_horizons_is_an_error(self, tmp_path, capsys, T):
        rc = cli.main(["rate", "--config", self.write_cfg(tmp_path),
                       "--T", T])
        assert rc == 1
        assert "error: rate study needs at least 3 distinct integer " \
            "horizons >= 1" in capsys.readouterr().err

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
    # under the same relative OUT from two directories, it is byte-identical
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    trees = []
    for where in ("a", "b"):
        (tmp_path / where).mkdir()
        subprocess.run([sys.executable, str(ROOT / "scripts" / "golden_outputs.py"),
                        "golden"], cwd=tmp_path / where, env=env, check=True)
        out = tmp_path / where / "golden"
        trees.append({str(f.relative_to(out)): f.read_bytes()
                      for f in sorted(out.rglob("*")) if f.is_file()})
    assert trees[0] == trees[1]
    for name in ("results.txt", "quadratic_seed0/plot.svg",
                 "pl_toy_seed1/trace_hcmm2_seed1.csv",
                 "grid/leaderboard_storm_gda.csv", "rate_theorem1/rate_hcmm1.csv",
                 "rate_theorem2/rate_hcmm2.csv", "logistic/summary_sagda.csv"):
        assert name in trees[0]
