"""Experiment runner: config parsing, trace recording, plots, rate studies.

Config files are line-based `section.key = value` text. Every run is fully
deterministic given (config, seed): trace CSVs and SVG plots are
byte-identical across repeats, so no timing enters them.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .core import (ConfigError, HyperSchedule, ProblemConstants, norm2,
                   norm2_rows, schedule_hcmm1, schedule_hcmm2)
from .libsvm import load_dataset
from .optimizers import (Hcmm1, Hcmm2, OptimizerKind, Sagda, StormGda,
                         iterate_steps, sample_stream, samples_per_run)
from .oracle import MinimaxProblem, evaluate_P, metric_ci
from .problems import PlToyProblem, QuadraticMinimaxProblem, RobustLogisticProblem

TRACE_COLUMNS = ["iter", "p_x", "grad_p_norm", "metric_ci", "m_x_norm",
                 "m_y_norm", "clipped_x", "clipped_y"]

OPTIMIZER_LABELS = {"hcmm1": Hcmm1, "hcmm2": Hcmm2,
                    "storm_gda": StormGda, "sagda": Sagda}


def optimizer_label(kind: OptimizerKind) -> str:
    for label, cls in OPTIMIZER_LABELS.items():
        if isinstance(kind, cls):
            return label
    raise TypeError(f"unknown optimizer kind {kind!r}")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

# the schedule.<k> keys; a grid.<k> list may stand in for schedule.<k>
SCHEDULE_KEYS = ("mu_x", "mu_y", "beta_x", "beta_y", "N", "N1")


@dataclass(frozen=True)
class ExperimentConfig:
    problem_kind: str                      # robust_logistic | quadratic | pl_toy
    problem_params: Dict[str, Any]         # typed, defaults filled in
    optimizer: OptimizerKind
    schedule_kind: str                     # explicit | theorem1 | theorem2
    schedule_params: Dict[str, float]
    constants: ProblemConstants
    T: int
    seeds: Tuple[int, ...]
    eval_every: int
    output_dir: str
    grid: Dict[str, Tuple[float, ...]] = field(default_factory=dict)
    raw: Dict[str, str] = field(default_factory=dict)


def parse_config_text(text: str) -> Dict[str, str]:
    """Parse `key = value` lines (dotted keys, # comments) into a flat map;
    each key may be set once."""
    mapping: Dict[str, str] = {}
    set_on: Dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in set_on:
            raise ConfigError(f"line {lineno}: {key} is already set on line "
                              f"{set_on[key]}")
        set_on[key] = lineno
        mapping[key] = value
    return mapping


class _Reader:
    """Reads config keys, each with its type, default and check.

    A missing key gives its default, and a number's check applies to its
    default too: one that fails (run.T = 0) makes the key required. A value
    that fails adds an issue naming the key; a number then reads as its
    default, so defaults derived from it stay well-formed. Every key read
    is recorded, so the keys left over are the unknown ones.
    """

    def __init__(self, mapping: Dict[str, str]):
        self.mapping = mapping
        self.issues: List[str] = []
        self.seen: Set[str] = set()

    def text(self, key: str, default: Optional[str] = None,
             options: Optional[Sequence[str]] = None) -> Optional[str]:
        """The value as written; with `options`, it must be one of them."""
        self.seen.add(key)
        value = self.mapping.get(key, default)
        if options is not None and value not in options:
            self.issues.append(f"{key} must be {'|'.join(options)}, "
                               f"got {value!r}")
        return value

    def flag(self, key: str, default: bool) -> bool:
        """true or false, in any case."""
        value = self.text(key, str(default))
        if value.lower() not in ("true", "false"):
            self.issues.append(f"{key} must be true or false, got {value!r}")
        return value.lower() == "true"

    def number(self, key: str, default=None, kind=float, low=None,
               above=None):
        """One float (or int) value, checked as `numbers` checks a list."""
        values = self.numbers(key, None if default is None else (default,),
                              kind, low, count=1, above=above)
        return default if values is None else values[0]

    def numbers(self, key: str, default=None, kind=float, low=None,
                count: Optional[int] = None, above=None):
        """A comma-separated list of finite floats (or ints): `count` of
        them, or at least one with no two equal; none below `low` and all
        above `above`. With count = 1 the whole value is the one number."""
        raw = self.text(key)
        if raw is None:
            values = default
        else:
            tokens = [raw] if count == 1 else \
                [tok for tok in raw.split(",") if tok.strip()]
            try:
                values = tuple(kind(tok) for tok in tokens)
            except ValueError:
                what = "an integer" if kind is int else "numeric"
                self.issues.append(f"{key} is not {what}: {raw!r}")
                return default
        if values is None:
            return None
        if not values:
            self.issues.append(f"{key} lists no values")
        elif count and len(values) != count:
            self.issues.append(f"{key} must list {count} values, got {raw!r}")
        elif not all(map(math.isfinite, values)):
            self.issues.append(f"{key} must be finite, got {raw!r}")
        elif low is not None and min(values) < low:
            self.issues.append(f"{key} must be >= {low}")
        elif above is not None and min(values) <= above:
            self.issues.append(f"{key} must be > {above}")
        elif not count and len(set(values)) < len(values):
            self.issues.append(f"{key} repeats a value: {raw!r}")
        else:
            return values
        return default


def _read_problem(r: _Reader, kind: Optional[str]) -> Dict[str, Any]:
    """The problem.* values that `build_problem` passes on for one kind."""
    if kind == "robust_logistic":
        path = r.text("problem.dataset_path")
        if not path:
            r.issues.append("robust_logistic requires problem.dataset_path")
        return {"dataset_path": path,
                "subsample": r.number("problem.subsample", None, int, low=1),
                "seed": r.number("problem.seed", 0, int, low=0),
                # None: 1/n^2
                "lambda1": r.number("problem.lambda1", above=0),
                "lambda2": r.number("problem.lambda2", 0.001, low=0),
                "rho": r.number("problem.rho", 10.0, above=0)}
    if kind not in ("quadratic", "pl_toy"):
        return {}
    d = r.number("problem.d", 10 if kind == "quadratic" else 6, int, low=1)
    m = r.number("problem.m", d if kind == "quadratic" else 6, int, low=1)
    p = {"d": d, "m": m, "seed": r.number("problem.seed", 0, int, low=0),
         "noise_sigma": r.number("problem.noise_sigma", 0.0, low=0),
         "x0_scale": r.number("problem.x0_scale", 1.0)}
    if kind == "quadratic":
        p.update(nu=r.number("problem.nu", 1.0, above=0),
                 spectrum=r.numbers("problem.spectrum", (-0.5, 0.5), count=2),
                 b_scale=r.number("problem.b_scale", 0.5))
    else:
        rank = r.number("problem.rank", max(1, m // 2), int, low=1)
        if rank > m:
            r.issues.append(f"problem.rank must be <= problem.m ({m})")
        p.update(rank=rank, c_min=r.number("problem.c_min", 0.5, above=0),
                 c_max=r.number("problem.c_max", 1.5, above=0))
    return p


def read_config(mapping: Dict[str, str]) -> Tuple[ExperimentConfig, List[str],
                                                  List[str]]:
    """Read a config mapping in one pass: (config, issues, unknown keys).

    Each issue names its key; the config is usable only when there are
    none. Keys that nothing reads are accepted and ignored.
    """
    r = _Reader(mapping)
    kind = r.text("problem.kind",
                  options=("robust_logistic", "quadratic", "pl_toy"))
    problem_params = _read_problem(r, kind)
    opt = r.text("optimizer.kind", options=tuple(OPTIMIZER_LABELS))
    if opt == "hcmm1":
        optimizer: Optional[OptimizerKind] = Hcmm1(update_from_clipped=r.flag(
            "optimizer.update_from_clipped", False))
    else:
        optimizer = OPTIMIZER_LABELS[opt]() if opt in OPTIMIZER_LABELS else None
    schedule_params = {k: v for k in SCHEDULE_KEYS
                       if (v := r.number(f"schedule.{k}")) is not None}
    config = ExperimentConfig(
        problem_kind=kind,
        problem_params=problem_params,
        optimizer=optimizer,
        schedule_kind=r.text("schedule.kind", "explicit",
                             ("explicit", "theorem1", "theorem2")),
        schedule_params=schedule_params,
        constants=ProblemConstants(**{
            f.name: r.number(f"constants.{f.name}", f.default)
            for f in fields(ProblemConstants)}),
        T=r.number("run.T", 0, int, low=1),
        seeds=r.numbers("run.seeds", (), int, low=0),
        eval_every=r.number("run.eval_every", 10, int, low=1),
        output_dir=r.text("run.output_dir", "out"),
        grid={k: v for k in SCHEDULE_KEYS
              if (v := r.numbers(f"grid.{k}")) is not None},
        raw=dict(mapping))
    return config, r.issues, sorted(set(mapping) - r.seen)


def build_config(mapping: Dict[str, str]) -> ExperimentConfig:
    config, issues, _ = read_config(mapping)
    if issues:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(issues))
    return config


# ---------------------------------------------------------------------------
# problem / schedule construction
# ---------------------------------------------------------------------------

def resolve_dataset_path(path: str) -> str:
    """problem.dataset_path as written or, when it is relative and not
    found, under $MINIMAX_DATA_DIR; a ConfigError names both if neither
    is a file."""
    root = os.environ.get("MINIMAX_DATA_DIR")
    tried = [path] + ([os.path.join(root, path)]
                      if root and not os.path.isabs(path) else [])
    for candidate in tried:
        if os.path.isfile(candidate):
            return candidate
    raise ConfigError(f"problem.dataset_path = {path}: no such file"
                      + (f" (nor {tried[1]} under $MINIMAX_DATA_DIR)"
                         if len(tried) > 1 else ""))


# the last robust-logistic problem built, keyed by (SHA-256 of the file,
# subsample, seed, lambda1, lambda2, rho): runs of several configs on one
# file parse it once, and a problem is never changed once built. One entry,
# so at most one parsed file is held in memory.
_last_problem: Dict[tuple, RobustLogisticProblem] = {}


def _logistic_problem(p: Dict[str, Any]) -> RobustLogisticProblem:
    """The robust-logistic problem of the problem.* values `p`, reused
    while the file's bytes and all five values stay the same. Other
    lambda1, lambda2 or rho on the same data build a problem on the held
    one's rows; other data empty the cache before the parse."""
    path = resolve_dataset_path(p["dataset_path"])
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    key = (digest.digest(), p["subsample"], p["seed"], p["lambda1"],
           p["lambda2"], p["rho"])
    if key not in _last_problem:
        same_data = [q for k, q in _last_problem.items() if k[:3] == key[:3]]
        _last_problem.clear()
        data = same_data[0] if same_data else load_dataset(
            path, subsample=p["subsample"], seed=p["seed"])
        _last_problem[key] = RobustLogisticProblem(
            data.X, data.labels, lambda1=p["lambda1"], lambda2=p["lambda2"],
            rho=p["rho"])
    return _last_problem[key]


def build_problem(config: ExperimentConfig) -> Tuple[MinimaxProblem, np.ndarray,
                                                     np.ndarray]:
    """Construct the problem and its default initial point (x0, y0)."""
    p = config.problem_params
    if config.problem_kind == "robust_logistic":
        problem: MinimaxProblem = _logistic_problem(p)
        return (problem, np.zeros(problem.dim_x),
                np.full(problem.dim_y, 1.0 / problem.dim_y))
    d, m, seed = p["d"], p["m"], p["seed"]
    if config.problem_kind == "quadratic":
        problem = QuadraticMinimaxProblem.random(
            d, m, nu=p["nu"], noise_sigma=p["noise_sigma"], seed=seed,
            a_eigs=p["spectrum"], b_scale=p["b_scale"])
    elif config.problem_kind == "pl_toy":
        problem = PlToyProblem.random(d, m, p["rank"], p["c_min"], p["c_max"],
                                      p["noise_sigma"], seed)
    else:
        raise ConfigError(f"unknown problem kind {config.problem_kind!r}")
    v = np.random.default_rng(seed + 1).standard_normal(d)
    return problem, p["x0_scale"] * v / np.linalg.norm(v), np.zeros(m)


def unbounded_p_warning(config: ExperimentConfig) -> Optional[str]:
    """Why P is unbounded below on a quadratic or pl_toy config, or None:
    P(x) = 0.5 x'Hx with H = A + BB'/nu (quadratic) or A + B pinv(C) B'
    (pl_toy), so one negative eigenvalue of H lets a run (and a grid's best
    combo) drive P to -inf. Eigenvalues within rounding of 0 do not count."""
    if config.problem_kind not in ("quadratic", "pl_toy"):
        return None
    eigs = np.linalg.eigvalsh(build_problem(config)[0].p_hessian)
    if eigs[0] >= -1e-12 * np.abs(eigs).max():
        return None
    p = config.problem_params
    hessian, cause = (
        ("A + BB'/nu",
         f"problem.spectrum = {','.join(map(repr, p['spectrum']))}")
        if config.problem_kind == "quadratic" else
        ("A + B pinv(C) B'", f"problem.seed = {p['seed']}"))
    return (f"P(x) is unbounded below: its Hessian {hessian} has eigenvalue "
            f"{eigs[0]:.3g} < 0 ({cause})")


def build_schedule(config: ExperimentConfig, T: Optional[int] = None,
                   overrides: Optional[Dict[str, float]] = None) -> HyperSchedule:
    T = config.T if T is None else T
    params = dict(config.schedule_params)
    if overrides:
        params.update(overrides)
    if config.schedule_kind == "theorem1":
        return schedule_hcmm1(T, config.constants,
                              N1=params.get("N1", 1.0), N=params.get("N"))
    if config.schedule_kind == "theorem2":
        if isinstance(config.optimizer, Hcmm1):
            raise ConfigError("schedule.kind = theorem2 sets no clip "
                              "constants, which optimizer.kind = hcmm1 needs; "
                              "use theorem1 or explicit")
        return schedule_hcmm2(T, config.constants)
    needs_clip = isinstance(config.optimizer, Hcmm1)
    required = ("mu_x", "mu_y", "N", "N1") if needs_clip else ("mu_x", "mu_y")
    missing = [k for k in required if k not in params]
    if missing:
        label = optimizer_label(config.optimizer)
        hint = ""
        if overrides is not None:  # a grid combo, which a grid.* list feeds
            hint = " (or the matching grid.* key)"
        elif set(missing) & set(config.grid):
            hint = (f"; a run reads no grid.* key: run `hcmm grid` on this "
                    f"config, then `hcmm run` on its best_{label}.cfg")
        raise ConfigError(f"explicit {label} schedule needs "
                          f"{', '.join('schedule.' + k for k in missing)}{hint}")
    return HyperSchedule(
        mu_x=params["mu_x"], mu_y=params["mu_y"],
        beta_x=params.get("beta_x", 1.0), beta_y=params.get("beta_y", 1.0),
        clip_threshold=params.get("N"), clip_norm=params.get("N1"))


# ---------------------------------------------------------------------------
# trace recording
# ---------------------------------------------------------------------------

def _fmt_float(x: Optional[float]) -> str:
    if x is None:
        return ""
    return repr(float(x))


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    """Every output file: its directory made, LF-ended lines written to a
    temporary file that then replaces `path`."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    os.replace(tmp, path)


def _config_lines(mapping: Dict[str, str]) -> List[str]:
    """A config mapping as `key = value` lines, in key order."""
    return [f"{k} = {v}" for k, v in sorted(mapping.items())]


def _seed_steps(config: ExperimentConfig, seed: int, problem: MinimaxProblem,
                x0: np.ndarray, y0: np.ndarray, schedule: HyperSchedule,
                T: int):
    """(stepped problem, its states after steps 1..T) of one seed's run: the
    samples are drawn once, from the seed's stream, and the steps run on
    `problem.restrict` of them, on the samples as it returns them."""
    drawn = itertools.islice(sample_stream(problem, np.random.default_rng(seed)),
                             samples_per_run(config.optimizer, T))
    stepped, y0_stepped, samples = problem.restrict(drawn, np.asarray(y0))
    return stepped, iterate_steps(config.optimizer, stepped, schedule, x0,
                                  y0_stepped, T, samples)


def run_single(config: ExperimentConfig, seed: int, problem: MinimaxProblem,
               x0: np.ndarray, y0: np.ndarray, schedule: HyperSchedule,
               collect_rows: bool = True):
    """Run one (config, seed) pair; returns (trace rows, final iterates).

    It steps as `_seed_steps` does; the evaluations and the final iterates
    are on `problem`. An evaluated row solves the inner max once, and its
    P(x), grad P(x), y*(x) and margins fill p_x, grad_p_norm and metric_ci.
    With collect_rows=False no row is built and nothing is evaluated: only
    the final iterates are returned.
    """
    stepped, states = _seed_steps(config, seed, problem, x0, y0, schedule,
                                  config.T)
    rows: List[List[str]] = []
    for s in states:
        if not collect_rows:
            continue
        p_x = grad_p = m_ci = None
        if (s.iter - 1) % config.eval_every == 0:
            inner = evaluate_P(problem, s.x)
            p_x = inner.p_value
            grad_p = norm2(inner.grad_p)
            z = np.concatenate((s.x, stepped.lift_y(s.y)))
            m_ci = metric_ci(problem, z, s.m_clipped[:s.dim_x], inner.y_star,
                             inner.margins)
        rows.append([str(s.iter), _fmt_float(p_x), _fmt_float(grad_p),
                     _fmt_float(m_ci), _fmt_float(s.m_x_norm),
                     _fmt_float(s.m_y_norm), "1" if s.clipped_x else "0",
                     "1" if s.clipped_y else "0"])
    return rows, {"final_x": s.x, "final_y": stepped.lift_y(s.y)}


def final_p(config: ExperimentConfig, problem: MinimaxProblem,
            x: np.ndarray, y: np.ndarray) -> float:
    """P(x) at a run's final x, without grad P; the inner max is exact, so
    y is not used."""
    return problem.p_value(x)


def _seed_finals(config: ExperimentConfig, problem: MinimaxProblem,
                 x0: np.ndarray, y0: np.ndarray, schedule: HyperSchedule,
                 trace_dir: Optional[Path] = None) -> List[float]:
    """Final P(x) of each seed's run of `schedule`, in seed order, through
    `run_single` and `final_p`; with `trace_dir`, each seed's trace CSV is
    written there as its run ends."""
    finals = []
    for seed in config.seeds:
        rows, info = run_single(config, seed, problem, x0, y0, schedule,
                                collect_rows=trace_dir is not None)
        if trace_dir is not None:
            label = optimizer_label(config.optimizer)
            _write_lines(trace_dir / f"trace_{label}_seed{seed}.csv",
                         map(",".join, [TRACE_COLUMNS, *rows]))
        finals.append(final_p(config, problem, info["final_x"],
                              info["final_y"]))
    return finals


def run_experiment(config: ExperimentConfig) -> Dict[str, float]:
    """Run every seed; write one trace CSV per seed plus a summary CSV.

    Returns {seed: final P(x)} keyed by the seed as a string, plus
    'mean'/'std' aggregate keys.
    """
    problem, x0, y0 = build_problem(config)
    schedule = build_schedule(config)
    out_dir = Path(config.output_dir)
    label = optimizer_label(config.optimizer)
    values = _seed_finals(config, problem, x0, y0, schedule, out_dir)
    finals = dict(zip(map(str, config.seeds), values))
    finals["mean"] = float(np.mean(values))
    finals["std"] = float(np.std(values))
    lines = ["optimizer,seed,final_p_x"]
    for key, value in finals.items():
        lines.append(f"{label},{key},{_fmt_float(value)}")
    _write_lines(out_dir / f"summary_{label}.csv", lines)
    _write_lines(out_dir / f"config_{label}.echo", _config_lines(config.raw))
    return finals


def read_trace(path: str) -> Dict[str, list]:
    """Round-trip reader for trace CSVs; empty fields become None."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    if header != TRACE_COLUMNS:
        raise ValueError(f"{path}: unexpected columns {header}")
    cols: Dict[str, list] = {c: [] for c in header}
    for line in lines[1:]:
        for c, v in zip(header, line.split(",")):
            if c == "iter":
                cols[c].append(int(v))
            elif c in ("clipped_x", "clipped_y"):
                cols[c].append(v == "1")
            else:
                cols[c].append(float(v) if v else None)
    return cols


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------

def grid_schedules(config: ExperimentConfig) -> List[Tuple[Dict[str, float],
                                                             HyperSchedule]]:
    """(overrides, schedule) of every grid combo, in grid order, all built
    and so checked at once; one empty combo when there is no grid.* key."""
    keys = sorted(config.grid)
    combos = [dict(zip(keys, c))
              for c in itertools.product(*(config.grid[k] for k in keys))]
    return [(o, build_schedule(config, overrides=o)) for o in combos]


def grid_search(config: ExperimentConfig) -> Tuple[Dict[str, float], List[dict]]:
    """Cross-product search over grid.* value lists.

    Selects the combo with the lowest final mean P(x) over seeds; combos
    whose mean is nan or infinite rank after every finite one. Emits a
    leaderboard CSV and, when the best mean is finite, best_<label>.cfg: the
    config as read, without its grid.* keys and with schedule.<k> set to
    each best value, which `hcmm run` reruns. When every combo diverged no
    best config is written (and a stale one is removed). Returns
    (best_overrides, leaderboard_rows).
    """
    if not config.grid:
        raise ConfigError("grid search needs at least one grid.* key")
    schedules = grid_schedules(config)
    problem, x0, y0 = build_problem(config)
    keys = sorted(config.grid)
    leaderboard: List[dict] = []
    for overrides, schedule in schedules:
        finals = _seed_finals(config, problem, x0, y0, schedule)
        leaderboard.append({**overrides,
                            "mean_final_p": float(np.mean(finals)),
                            "std_final_p": float(np.std(finals))})
    # diverged combos (P nan or infinite) rank last, in grid order
    leaderboard.sort(key=lambda r: (0, r["mean_final_p"])
                     if np.isfinite(r["mean_final_p"]) else (1, 0.0))

    out_dir = Path(config.output_dir)
    label = optimizer_label(config.optimizer)
    header = keys + ["mean_final_p", "std_final_p"]
    lines = [",".join(header)]
    for row in leaderboard:
        lines.append(",".join(_fmt_float(row[k]) for k in header))
    _write_lines(out_dir / f"leaderboard_{label}.csv", lines)
    best = {k: leaderboard[0][k] for k in keys}
    best_path = out_dir / f"best_{label}.cfg"
    if math.isfinite(leaderboard[0]["mean_final_p"]):
        rerun = {k: v for k, v in config.raw.items() if not k.startswith("grid.")}
        rerun.update((f"schedule.{k}", repr(v)) for k, v in best.items())
        _write_lines(best_path, _config_lines(rerun))
    else:
        best_path.unlink(missing_ok=True)
    return best, leaderboard


# ---------------------------------------------------------------------------
# rate study
# ---------------------------------------------------------------------------

# bytes of a rate study's block of x's and their grad P stack: it holds
# RATE_BLOCK_BYTES // (16 dim_x) x's, and at least one. quad_rate (dim_x =
# 10; 2-vCPU VM, BLAS 1 thread) took 1.22 s at 1 x a block, 0.87 at 10 and
# 0.82-0.85 at 102 to 13107, against 0.95 s for one grad P a step
RATE_BLOCK_BYTES = 1 << 16


@dataclass(frozen=True)
class RateReport:
    T_values: Tuple[int, ...]
    averaged_norms: Tuple[float, ...]
    slope: Optional[float]  # None (an empty CSV field) while `unfit` lists a T

    @property
    def unfit(self) -> List[int]:  # averages not finite and > 0 have no log
        return [T for T, a in zip(self.T_values, self.averaged_norms)
                if not 0 < a < math.inf]


def rate_study(config: ExperimentConfig, T_values: Sequence[float]) -> RateReport:
    """Theorem-schedule runs over a geometric T ladder; log-log slope fit.

    Every T must be an integer >= 1 (1e3 will do), listed once, and there
    must be at least 3, or the slope means nothing. The schedule must be a
    theorem one: an explicit schedule gives every horizon the same step
    sizes, so its slope is not the theorem rate. All are checked before any
    step. Each (T, seed) steps as `run_single` does at run.T = T, and its
    average (1/T) sum_i ||grad P(x_i)|| takes grad P and its norm a block of
    x's at a time (RATE_BLOCK_BYTES), summed one by one in step order: the
    bits of a norm2(grad_p(x_i)) a step.
    """
    if not all(math.isfinite(T) and T == int(T) >= 1 for T in T_values) \
            or len(set(T_values)) < max(3, len(T_values)):
        raise ConfigError(f"rate study needs at least 3 distinct integer "
                          f"horizons >= 1, each listed once, got "
                          f"{list(T_values)}")
    if config.schedule_kind not in ("theorem1", "theorem2"):
        raise ConfigError(f"rate study needs schedule.kind = theorem1 or "
                          f"theorem2, got {config.schedule_kind!r}")
    T_values = [int(T) for T in T_values]
    problem, x0, y0 = build_problem(config)
    rows = max(1, RATE_BLOCK_BYTES // (16 * problem.dim_x))
    block = np.empty((rows, problem.dim_x))
    averages = []
    for T in T_values:
        schedule = build_schedule(config, T=T)
        per_seed = []
        for seed in config.seeds:
            total = 0.0
            for s in _seed_steps(config, seed, problem, x0, y0, schedule,
                                 T)[1]:
                k = (s.iter - 1) % rows + 1
                block[k - 1] = s.x
                if k == rows or s.iter == T:
                    for v in norm2_rows(problem.grad_p(block[:k])).tolist():
                        total += v
            per_seed.append(total / T)
        averages.append(float(np.mean(per_seed)))
    report = RateReport(tuple(T_values), tuple(averages), None)
    if not report.unfit:
        report = replace(report, slope=float(np.polyfit(
            np.log10(T_values), np.log10(averages), 1)[0]))
    lines = ["T,mean_time_avg_grad_p"]
    for T, value in [*zip(T_values, averages), ("slope", report.slope)]:
        lines.append(f"{T},{_fmt_float(value)}")
    _write_lines(Path(config.output_dir)
                 / f"rate_{optimizer_label(config.optimizer)}.csv", lines)
    return report


# ---------------------------------------------------------------------------
# plotting (deterministic SVG)
# ---------------------------------------------------------------------------

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _collect_series(trace_dir: str) -> Dict[str, Tuple[List[int], np.ndarray,
                                                       np.ndarray]]:
    """Group trace files by optimizer label; mean/std of p_x over seeds."""
    files = sorted(Path(trace_dir).glob("trace_*_seed*.csv"))
    if not files:
        raise FileNotFoundError(f"no trace_*_seed*.csv files under {trace_dir}")
    groups: Dict[str, List[Tuple[Path, List[int], List[float]]]] = {}
    for f in files:
        label = f.stem[len("trace_"):f.stem.rindex("_seed")]
        cols = read_trace(str(f))
        iters = [i for i, p in zip(cols["iter"], cols["p_x"]) if p is not None]
        ps = [p for p in cols["p_x"] if p is not None]
        if not iters:
            raise ValueError(f"{f}: trace has no p_x column values")
        groups.setdefault(label, []).append((f, iters, ps))
    series = {}
    for label, runs in sorted(groups.items()):
        f0, iters, _ = runs[0]
        for f, other, _ in runs[1:]:
            if other != iters:
                raise ValueError(f"{label}: {f0} and {f} evaluate different "
                                 f"iterations, so their p_x cannot be averaged")
        mat = np.array([r[2] for r in runs])
        series[label] = (iters, mat.mean(axis=0), mat.std(axis=0))
    return series


def _svg_num(x: float) -> str:
    return f"{x:.3f}".rstrip("0").rstrip(".")


def emit_plot(trace_dir: str, out_path: str) -> None:
    """Render mean P(x) curves (one per optimizer) with +/-1 std bands.

    Output bytes are a pure function of the input traces.
    """
    series = _collect_series(trace_dir)
    title, width, height = "worst-case objective", 640, 440
    ml, mr, mt, mb = 60, 16, 28, 42
    pw, ph = width - ml - mr, height - mt - mb
    x_min = min(min(s[0]) for s in series.values())
    x_max = max(max(s[0]) for s in series.values())
    y_lo = min(float((m - s).min()) for _, m, s in series.values())
    y_hi = max(float((m + s).max()) for _, m, s in series.values())
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    span_x = max(x_max - x_min, 1)

    def sx(v):
        return ml + pw * (v - x_min) / span_x

    def sy(v):
        return mt + ph * (1.0 - (v - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{ml}" y="18" font-family="sans-serif" font-size="13">'
        f'{title}</text>',
    ]
    # axes + ticks
    parts.append(f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" '
                 f'stroke="black"/>')
    parts.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" '
                 f'stroke="black"/>')
    for k in range(5):
        xv = x_min + span_x * k / 4
        yv = y_lo + (y_hi - y_lo) * k / 4
        parts.append(f'<text x="{_svg_num(sx(xv))}" y="{mt + ph + 16}" '
                     f'font-family="sans-serif" font-size="10" '
                     f'text-anchor="middle">{xv:.4g}</text>')
        parts.append(f'<text x="{ml - 6}" y="{_svg_num(sy(yv) + 3)}" '
                     f'font-family="sans-serif" font-size="10" '
                     f'text-anchor="end">{yv:.4g}</text>')
    parts.append(f'<text x="{ml + pw // 2}" y="{height - 8}" '
                 f'font-family="sans-serif" font-size="11" '
                 f'text-anchor="middle">iteration</text>')

    for idx, (label, (iters, mean, std)) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        band = " ".join(f"{_svg_num(sx(i))},{_svg_num(sy(v))}"
                        for i, v in zip(iters, mean + std))
        band += " " + " ".join(
            f"{_svg_num(sx(i))},{_svg_num(sy(v))}"
            for i, v in zip(reversed(iters), (mean - std)[::-1]))
        parts.append(f'<polygon points="{band}" fill="{color}" '
                     f'fill-opacity="0.15" stroke="none"/>')
        pts = " ".join(f"{_svg_num(sx(i))},{_svg_num(sy(v))}"
                       for i, v in zip(iters, mean))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = mt + 14 + 14 * idx
        parts.append(f'<line x1="{ml + pw - 120}" y1="{ly - 4}" '
                     f'x2="{ml + pw - 96}" y2="{ly - 4}" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{ml + pw - 90}" y="{ly}" '
                     f'font-family="sans-serif" font-size="11">{label}</text>')
    parts.append("</svg>")
    _write_lines(Path(out_path), parts)
