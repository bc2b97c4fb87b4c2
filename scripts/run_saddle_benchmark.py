#!/usr/bin/env python3
"""Saddle convergence check: HCMM-1 theorem schedule on a noisy quadratic.

Reports time-averaged and final ||grad P(x)|| over multiple seeds. The
instance has its y-block curvature matched to the x-block spectrum so the
two-time-scale step sizes stay in a useful range.
"""

import argparse

import numpy as np

from hcmm.core import ProblemConstants, schedule_hcmm1
from hcmm.optimizers import Hcmm1, iterate_steps
from hcmm.problems import QuadraticMinimaxProblem


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--T", type=int, default=10_000)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sigma", type=float, default=0.1)
    args = ap.parse_args()

    d = m = 10
    q = QuadraticMinimaxProblem.random(d, m, nu=4.0, noise_sigma=args.sigma,
                                       seed=0, a_eigs=(2.0, 4.0), b_scale=0.1)
    consts = ProblemConstants(L_f=q.lipschitz_L_f, L_h=1e-3, nu=4.0,
                              delta=0.0, sigma_h=args.sigma * np.sqrt(d + m))
    sched = schedule_hcmm1(args.T, consts, N1=1.0)
    print(f"schedule: mu_x={sched.mu_x:.3g} mu_y={sched.mu_y:.3g} "
          f"beta={sched.beta_x:.3g}")

    avgs, finals = [], []
    for seed in range(args.seeds):
        rng0 = np.random.default_rng(1000 + seed)
        v = rng0.standard_normal(d)
        x0 = 0.05 * v / np.linalg.norm(v)
        tot = last = 0.0
        for out in iterate_steps(Hcmm1(), q, sched, x0, np.zeros(m),
                                 args.T, seed):
            last = float(np.linalg.norm(q.grad_p(out.next_state.x_curr)))
            tot += last
        avgs.append(tot / args.T)
        finals.append(last)
    print(f"time-avg ||grad P|| = {np.mean(avgs):.4g} "
          f"(+/- {np.std(avgs):.2g})")
    print(f"final    ||grad P|| = {np.mean(finals):.4g} "
          f"(+/- {np.std(finals):.2g})")


if __name__ == "__main__":
    main()
