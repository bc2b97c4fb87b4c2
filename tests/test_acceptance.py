"""End-to-end acceptance gate.

Each test prints exactly one [criterion N] PASS/FAIL/SKIP line. The two
real-data criteria skip with an explicit message when the benchmark files
are not present under MINIMAX_DATA_DIR.
"""

import time

import numpy as np
import pytest

from hcmm.core import ProblemConstants, clip_momentum, schedule_hcmm1
from hcmm.harness import (build_config, emit_plot, grid_search, rate_study,
                          run_experiment)
from hcmm.optimizers import (Hcmm1, Hcmm2, JointSchedule, StepState,
                             StormGda, iterate_steps, sample_stream, step)
from hcmm.oracle import finite_difference_hvp
from hcmm.problems import QuadraticMinimaxProblem
from hcmm.simplex import project_simplex
from hcmm.libsvm import ParseError, load_dataset, parse_line

from conftest import find_dataset, join, make_logistic, make_quadratic


def report(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def skip(num, detail):
    print(f"\n[criterion {num}] SKIP: {detail}")
    pytest.skip(detail)


def joint_norm(ax, ay):
    return np.sqrt(np.sum(ax ** 2) + np.sum(ay ** 2))


def test_criterion_01_hvp_correctness():
    t0 = time.time()
    p = make_logistic(n=50, d=10, seed=11)
    rng = np.random.default_rng(100)
    worst_log = 0.0
    for _ in range(100):
        x = rng.standard_normal(p.d) * 0.5
        y = rng.dirichlet(np.ones(p.n))
        dx = rng.standard_normal(p.d)
        dy = rng.standard_normal(p.n)
        i = int(rng.integers(p.n))
        fd = finite_difference_hvp(p, join(x, y), i, join(dx, dy))
        an = p.sample_hvp(join(x, y), i, join(dx, dy))
        d = p.dim_x
        denom = max(joint_norm(an[:d], an[d:]), 1e-12)
        worst_log = max(worst_log,
                        joint_norm(fd[:d] - an[:d], fd[d:] - an[d:]) / denom)
    q = make_quadratic(d=6, m=4, seed=11)
    worst_quad = 0.0
    for _ in range(100):
        x = rng.standard_normal(q.dim_x)
        y = rng.standard_normal(q.dim_y)
        dx = rng.standard_normal(q.dim_x)
        dy = rng.standard_normal(q.dim_y)
        fd = finite_difference_hvp(q, join(x, y), 0, join(dx, dy))
        an = q.sample_hvp(join(x, y), 0, join(dx, dy))
        d = q.dim_x
        denom = max(joint_norm(an[:d], an[d:]), 1e-12)
        worst_quad = max(worst_quad,
                         joint_norm(fd[:d] - an[:d], fd[d:] - an[d:]) / denom)
    elapsed = time.time() - t0
    report(1, worst_log <= 1e-5 and worst_quad <= 1e-9 and elapsed < 5.0,
           f"rel err logistic {worst_log:.2e} (<=1e-5), "
           f"quadratic {worst_quad:.2e} (<=1e-9), {elapsed:.1f}s (<5s)")


def test_criterion_02_unbiasedness():
    t0 = time.time()
    p = make_logistic(n=30, d=8, seed=3)
    rng = np.random.default_rng(200)
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(p.d)
        y = rng.dirichlet(np.ones(p.n))
        dx = rng.standard_normal(p.d)
        dy = rng.standard_normal(p.n)
        gx = np.zeros(p.d)
        gy = np.zeros(p.n)
        hx = np.zeros(p.d)
        hy = np.zeros(p.n)
        for i in range(p.n):
            g = p.sample_gradient(join(x, y), i)
            h = p.sample_hvp(join(x, y), i, join(dx, dy))
            gx += g[:p.d]
            gy += g[p.d:]
            hx += h[:p.d]
            hy += h[p.d:]
        full = p.full_gradient(join(x, y))
        scale = max(joint_norm(full[:p.d], full[p.d:]), 1e-12)
        worst = max(worst, joint_norm(gx / p.n - full[:p.d],
                                      gy / p.n - full[p.d:]) / scale)
    q = make_quadratic(d=5, m=4, seed=3)  # noiseless: sample == full exactly
    for _ in range(100):
        x = rng.standard_normal(q.dim_x)
        y = rng.standard_normal(q.dim_y)
        s = q.sample_gradient(join(x, y), int(rng.integers(1 << 40)))
        full = q.full_gradient(join(x, y))
        d = q.dim_x
        scale = max(joint_norm(full[:d], full[d:]), 1e-12)
        worst = max(worst, joint_norm(s[:d] - full[:d], s[d:] - full[d:])
                    / scale)
    elapsed = time.time() - t0
    report(2, worst <= 1e-12 and elapsed < 10.0,
           f"max rel deviation {worst:.2e} (<=1e-12), {elapsed:.1f}s (<10s)")


def test_criterion_03_momentum_exactness():
    t0 = time.time()
    q = make_quadratic(d=5, m=4, seed=2)
    beta = 0.05
    from hcmm.core import HyperSchedule
    sched = HyperSchedule(mu_x=0.02, mu_y=0.03, beta_x=beta, beta_y=beta,
                          clip_threshold=1e12, clip_norm=1e12)
    js = JointSchedule.expand(sched, q.dim_x, q.dim_y)
    d = q.dim_x
    worst = 0.0
    for kind in (Hcmm1(update_from_clipped=True), Hcmm2(), StormGda()):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(q.dim_x)
        y = rng.standard_normal(q.dim_y)
        m0x = 3.0 + rng.standard_normal(q.dim_x)
        m0y = 3.0 + rng.standard_normal(q.dim_y)
        z, m0 = join(x, y), join(m0x, m0y)
        state = StepState(z, z, m0, m0, False, False, np.linalg.norm(m0x),
                          np.linalg.norm(m0y), (), 0, d)
        g0 = q.full_gradient(z)
        r0 = joint_norm(m0x - g0[:d], m0y - g0[d:])
        samples = sample_stream(q, rng)
        for i in range(1, 101):
            state = step(kind, state, js, q, samples)
            g = q.full_gradient(state.z_prev)
            r = joint_norm(state.m[:d] - g[:d], state.m[d:] - g[d:])
            worst = max(worst, abs(r - (1 - beta) ** i * r0)
                        / ((1 - beta) ** i * r0))
    elapsed = time.time() - t0
    report(3, worst <= 1e-9 and elapsed < 1.0,
           f"max rel deviation from (1-beta)^i decay {worst:.2e} (<=1e-9) "
           f"across HCMM-1/HCMM-2/STORM, {elapsed:.2f}s (<1s)")


def test_criterion_04_clipping_inequality():
    t0 = time.time()
    rng = np.random.default_rng(4)
    violations = 0
    for _ in range(10_000):
        dim = int(rng.integers(1, 65))
        G = float(rng.uniform(0.05, 5.0))
        N = G * float(rng.uniform(1.0, 3.0))
        N1 = N * float(rng.uniform(1.0, 3.0))
        g = rng.standard_normal(dim)
        gn = np.linalg.norm(g)
        if gn > 0:
            g *= rng.uniform(0, G) / gn
        m = rng.standard_normal(dim)
        m *= (N1 * rng.uniform(1.0, 10.0)) / np.linalg.norm(m)
        mc = clip_momentum(m, N, N1)
        if np.sum((mc - g) ** 2) > np.sum((m - g) ** 2) + 1e-12:
            violations += 1
    elapsed = time.time() - t0
    report(4, violations == 0 and elapsed < 1.0,
           f"{violations} violations in 10^4 trials, dims 1-64, "
           f"regime ||m||>=N1>=N>=||g||, {elapsed:.2f}s (<1s)")


def test_criterion_05_taylor_remainder():
    t0 = time.time()
    q = make_quadratic(d=5, m=4, seed=9)
    rng = np.random.default_rng(500)
    worst_quad = 0.0
    for _ in range(200):
        x1 = rng.standard_normal(q.dim_x)
        y1 = rng.standard_normal(q.dim_y)
        dx = rng.standard_normal(q.dim_x)
        dy = rng.standard_normal(q.dim_y)
        g2 = q.full_gradient(join(x1 + dx, y1 + dy))
        g1 = q.full_gradient(join(x1, y1))
        h = q.sample_hvp(join(x1, y1), 0, join(dx, dy))
        r = g2 - g1 - h
        worst_quad = max(worst_quad, joint_norm(r[:q.dim_x], r[q.dim_x:]))
    p = make_logistic(n=20, d=8, seed=1)
    pinned_c = 10.0  # empirical bound for this instance family
    worst_ratio = 0.0
    for _ in range(1000):
        x1 = rng.standard_normal(p.d)
        y1 = rng.dirichlet(np.ones(p.n))
        sz = rng.uniform(0.001, 0.1)
        ux = rng.standard_normal(p.d)
        uy = rng.standard_normal(p.n)
        un = joint_norm(ux, uy)
        dx, dy = sz * ux / un, sz * uy / un
        hx = np.zeros(p.d)
        hy = np.zeros(p.n)
        for i in range(p.n):
            h = p.sample_hvp(join(x1, y1), i, join(dx, dy))
            hx += h[:p.d]
            hy += h[p.d:]
        hx /= p.n
        hy /= p.n
        g2 = p.full_gradient(join(x1 + dx, y1 + dy))
        g1 = p.full_gradient(join(x1, y1))
        dg = g2 - g1
        rem = joint_norm(dg[:p.d] - hx, dg[p.d:] - hy)
        worst_ratio = max(worst_ratio, rem / sz ** 2)
    elapsed = time.time() - t0
    report(5, worst_quad <= 1e-9 and worst_ratio <= pinned_c and elapsed < 5.0,
           f"quadratic remainder {worst_quad:.2e} (<=1e-9), logistic "
           f"remainder/||dz||^2 {worst_ratio:.2f} (<= pinned {pinned_c}), "
           f"{elapsed:.1f}s (<5s)")


def test_criterion_06_simplex_projection():
    t0 = time.time()
    rng = np.random.default_rng(6)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 50))
        V = rng.standard_normal((1000, n)) * rng.uniform(0.1, 100)
        for v in V:
            p = project_simplex(v)
            if not (np.all(p >= 0) and abs(p.sum() - 1) <= 1e-9):
                ok = False
            p2 = project_simplex(p)
            if np.linalg.norm(p2 - p) > 1e-9:
                ok = False
    # nonexpansiveness on paired draws (counted inside the 10^5 budget above)
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        a = rng.standard_normal(n) * 5
        b = rng.standard_normal(n) * 5
        if np.linalg.norm(project_simplex(a) - project_simplex(b)) \
                > np.linalg.norm(a - b) + 1e-9:
            ok = False
    # n <= 3 grid-search oracle, resolution 1e-3
    worst_gap = 0.0
    grid2 = np.linspace(0.0, 1.0, 1001)
    pts2 = np.stack([grid2, 1.0 - grid2], axis=1)
    a3 = np.repeat(grid2, 1001)
    b3 = np.tile(grid2, 1001)
    keep = a3 + b3 <= 1.0 + 1e-12
    pts3 = np.stack([a3[keep], b3[keep], 1.0 - a3[keep] - b3[keep]], axis=1)
    for pts, n in ((pts2, 2), (pts3, 3)):
        for _ in range(10):
            v = rng.standard_normal(n) * 2
            best = pts[np.argmin(np.sum((pts - v) ** 2, axis=1))]
            gap = np.linalg.norm(project_simplex(v) - best)
            worst_gap = max(worst_gap, gap)
    elapsed = time.time() - t0
    report(6, ok and worst_gap <= 2e-3 and elapsed < 10.0,
           f"feasibility/idempotence/nonexpansiveness on 10^5 inputs, "
           f"grid oracle gap {worst_gap:.2e} (<=2e-3), {elapsed:.1f}s (<10s)")


def saddle_test_problem():
    # curvature matched to nu so the two-time-scale ratio stays near 1
    return QuadraticMinimaxProblem.random(
        10, 10, nu=4.0, noise_sigma=0.1, seed=0, a_eigs=(2.0, 4.0),
        b_scale=0.1)


def test_criterion_07_saddle_convergence():
    t0 = time.time()
    q = saddle_test_problem()
    d = m = 10
    sigma = 0.1
    consts = ProblemConstants(L_f=q.lipschitz_L_f, L_h=1e-3, nu=4.0,
                              delta=0.0, sigma_h=sigma * np.sqrt(d + m))
    T = 10_000
    sched = schedule_hcmm1(T, consts, N1=1.0)
    avgs, finals = [], []
    for seed in range(10):
        rng0 = np.random.default_rng(1000 + seed)
        v = rng0.standard_normal(d)
        x0 = 0.05 * v / np.linalg.norm(v)
        tot = 0.0
        last = 0.0
        for out in iterate_steps(Hcmm1(), q, sched, x0, np.zeros(m), T, seed):
            last = float(np.linalg.norm(q.grad_p(out.x)))
            tot += last
        avgs.append(tot / T)
        finals.append(last)
    avg = float(np.mean(avgs))
    fin = float(np.mean(finals))
    elapsed = time.time() - t0
    report(7, avg <= 0.1 and fin <= 0.05 and elapsed < 30.0,
           f"HCMM-1 theorem schedule, 10-dim noisy quadratic sigma=0.1, "
           f"T=10^4, 10 seeds: time-avg ||grad P|| {avg:.3f} (<=0.1), "
           f"final {fin:.3f} (<=0.05), {elapsed:.1f}s (<30s)")


def test_criterion_08_rate_trend(tmp_path):
    t0 = time.time()
    q = QuadraticMinimaxProblem.random(10, 10, nu=24.0, noise_sigma=1.0,
                                       seed=0, a_eigs=(12.0, 24.0),
                                       b_scale=0.1)
    mapping = {
        "problem.kind": "quadratic",
        "problem.d": "10", "problem.m": "10", "problem.nu": "24.0",
        "problem.noise_sigma": "1.0", "problem.seed": "0",
        "problem.spectrum": "12.0,24.0", "problem.b_scale": "0.1",
        "optimizer.kind": "hcmm1",
        "optimizer.project_y": "false",
        "schedule.kind": "theorem1",
        "schedule.N1": "50.0",
        "constants.L_f": repr(float(q.lipschitz_L_f)),
        "constants.L_h": "1e-3", "constants.nu": "24.0",
        "constants.sigma_h": repr(float(np.sqrt(20.0))),
        "run.T": "100000",
        "run.seeds": ",".join(str(s) for s in range(10)),
        "run.output_dir": str(tmp_path),
    }
    rep = rate_study(build_config(mapping), [1000, 10_000, 100_000])
    elapsed = time.time() - t0
    report(8, -0.5 <= rep.slope <= -0.2 and elapsed < 300.0,
           f"log-log slope {rep.slope:.3f} in [-0.5, -0.2] "
           f"(target -1/3) over T in {{10^3,10^4,10^5}}, 10 seeds, "
           f"{elapsed:.0f}s (<5min)")


def mushrooms_grids():
    mus = (0.1, 0.01, 0.001)
    betas = (0.01, 0.001)
    return mus, betas


def tuned_final_p(path, optimizer_extra, tmp_path, tag):
    mus, betas = mushrooms_grids()
    mapping = {
        "problem.kind": "robust_logistic",
        "problem.dataset_path": path,
        "problem.subsample": "500",
        "problem.seed": "0",
        "schedule.kind": "explicit",
        "run.T": "2000",
        "run.seeds": "0,1,2",
        "run.eval_every": "2000",
        "run.output_dir": str(tmp_path / tag),
        "grid.mu_x": ",".join(map(str, mus)),
        "grid.mu_y": ",".join(map(str, mus)),
        "grid.beta_x": ",".join(map(str, betas)),
        "grid.beta_y": ",".join(map(str, betas)),
    }
    mapping.update(optimizer_extra)
    _, board = grid_search(build_config(mapping))
    return board[0]["mean_final_p"]


def test_criterion_09_qualitative_ordering(tmp_path):
    path = find_dataset("mushrooms")
    if path is None:
        skip(9, "mushrooms dataset not available under MINIMAX_DATA_DIR; "
                "no network access in this environment")
    t0 = time.time()
    finals = {}
    finals["hcmm2"] = tuned_final_p(path, {"optimizer.kind": "hcmm2"},
                                    tmp_path, "hcmm2")
    finals["storm_gda"] = tuned_final_p(path, {"optimizer.kind": "storm_gda"},
                                        tmp_path, "storm")
    finals["sagda"] = tuned_final_p(path, {"optimizer.kind": "sagda"},
                                    tmp_path, "sagda")
    finals["hcmm1"] = tuned_final_p(
        path, {"optimizer.kind": "hcmm1",
               "grid.N": "0.1,0.01", "grid.N1": "0.1,0.01"},
        tmp_path, "hcmm1")
    elapsed = time.time() - t0
    ok = (finals["hcmm2"] <= finals["storm_gda"] <= finals["sagda"]
          and finals["hcmm1"] <= finals["sagda"])
    report(9, ok and elapsed < 600.0,
           f"mushrooms n=500, T=2000, tuned finals {finals}, "
           f"need hcmm2<=storm<=sagda and hcmm1<=sagda, {elapsed:.0f}s (<10min)")


PUBLISHED_SHAPES = {"mushrooms": (8124, 112), "phishing": (11055, 68),
                    "ijcnn1": (91701, 22), "a9a": (32561, 123),
                    "w8a": (49749, 300)}


def test_criterion_10_parser_and_datasets():
    # located errors on crafted malformed lines (always checkable)
    for bad, frag in (("1 3:1 2:1", "non-increasing"), ("1 0:1", "< 1"),
                      ("x 1:1", "label"), ("1 2:zz", ":7:"), ("1 9", "':'")):
        with pytest.raises(ParseError, match=frag):
            parse_line(bad, lineno=7)
    missing = [n for n in PUBLISHED_SHAPES if find_dataset(n) is None]
    if missing:
        skip(10, f"datasets {missing} not available under MINIMAX_DATA_DIR; "
                 "no network access in this environment (malformed-line "
                 "checks passed)")
    bad_shapes = {}
    for name, (n, d) in PUBLISHED_SHAPES.items():
        ds = load_dataset(find_dataset(name))
        if (ds.n, ds.d) != (n, d):
            bad_shapes[name] = (ds.n, ds.d)
    report(10, not bad_shapes,
           f"all five datasets match published (n, d); mismatches: "
           f"{bad_shapes or 'none'}")


def test_criterion_11_determinism(tmp_path):
    mapping = {
        "problem.kind": "quadratic",
        "problem.d": "6", "problem.m": "4", "problem.noise_sigma": "0.2",
        "optimizer.kind": "hcmm1",
        "schedule.kind": "explicit",
        "schedule.mu_x": "0.01", "schedule.mu_y": "0.03",
        "schedule.beta_x": "0.1", "schedule.beta_y": "0.1",
        "schedule.N": "5.0", "schedule.N1": "5.0",
        "run.T": "200", "run.seeds": "3,4", "run.eval_every": "10",
    }
    outs = []
    for rep_dir in ("a", "b"):
        m = dict(mapping)
        m["run.output_dir"] = str(tmp_path / rep_dir)
        run_experiment(build_config(m))
        emit_plot(str(tmp_path / rep_dir), str(tmp_path / f"{rep_dir}.svg"))
        files = sorted(f.name for f in (tmp_path / rep_dir).glob("*.csv"))
        blob = b"".join((tmp_path / rep_dir / f).read_bytes() for f in files)
        blob += (tmp_path / f"{rep_dir}.svg").read_bytes()
        outs.append((files, blob))
    ok = outs[0][0] == outs[1][0] and outs[0][1] == outs[1][1]
    report(11, ok, f"repeated run: {len(outs[0][0])} CSVs + SVG "
                   f"byte-identical = {ok}")
