#!/usr/bin/env python3
"""Compare all four optimizers on robust logistic regression.

Grid-tunes each optimizer on the same subsampled dataset, then re-runs the
best settings with full traces and renders a comparison plot. The dataset
path is resolved against $MINIMAX_DATA_DIR when relative.
"""

import argparse

from hcmm.harness import (build_config, emit_plot, grid_search,
                          run_experiment)

MUS = "0.1,0.01,0.001"
BETAS = "0.01,0.001"


def base_mapping(args):
    return {
        "problem.kind": "robust_logistic",
        "problem.dataset_path": args.dataset,
        "problem.subsample": str(args.subsample),
        "problem.seed": "0",
        "schedule.kind": "explicit",
        "run.T": str(args.T),
        "run.seeds": "0,1,2",
        "run.eval_every": str(max(1, args.T // 100)),
        "run.output_dir": args.out,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dataset", default="mushrooms")
    ap.add_argument("--subsample", type=int, default=500)
    ap.add_argument("--T", type=int, default=2000)
    ap.add_argument("--out", default="out/robust_logistic")
    args = ap.parse_args()

    for label in ("hcmm1", "hcmm2", "storm_gda", "sagda"):
        mapping = base_mapping(args)
        mapping["optimizer.kind"] = label
        mapping["grid.mu_x"] = MUS
        mapping["grid.mu_y"] = MUS
        if label != "sagda":
            mapping["grid.beta_x"] = BETAS
            mapping["grid.beta_y"] = BETAS
        if label == "hcmm1":
            mapping["grid.N"] = "0.1,0.01"
            mapping["grid.N1"] = "0.1,0.01"
        best, board = grid_search(build_config(mapping))
        print(f"{label}: best {best} -> mean final P = "
              f"{board[0]['mean_final_p']:.6g}")

        tuned = base_mapping(args)
        tuned["optimizer.kind"] = label
        for key, value in best.items():
            tuned[f"schedule.{key}"] = repr(value)
        finals = run_experiment(build_config(tuned))
        print(f"{label}: rerun mean final P = {finals['mean']:.6g}")

    emit_plot(args.out, f"{args.out}/comparison.svg")
    print(f"wrote {args.out}/comparison.svg")


if __name__ == "__main__":
    main()
