"""Command-line interface for the experiment harness."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core import ConfigError
from .harness import (emit_plot, grid_schedules, grid_search,
                      parse_config_text, rate_study, read_config,
                      run_experiment, unbounded_p_warning)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hcmm",
        description="Stochastic minimax optimization benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None,
                       help="override run.seeds with a single seed")
    p_run.add_argument("--out", default=None, help="override run.output_dir")

    p_grid = sub.add_parser("grid", help="grid search over grid.* value lists")
    p_grid.add_argument("--config", required=True)
    p_grid.add_argument("--out", default=None)

    p_plot = sub.add_parser("plot", help="render trace CSVs to an SVG chart")
    p_plot.add_argument("--in", dest="trace_dir", required=True)
    p_plot.add_argument("--out", required=True)

    p_rate = sub.add_parser("rate", help="convergence-rate study over horizons")
    p_rate.add_argument("--config", required=True)
    p_rate.add_argument("--T", required=True,
                        help="comma-separated horizon list, e.g. 1e3,1e4,1e5")
    p_rate.add_argument("--out", default=None)

    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("--config", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "plot":
            emit_plot(args.trace_dir, args.out)
            print(f"wrote {args.out}")
            return 0
        mapping = parse_config_text(Path(args.config).read_text())
        # overrides go into the mapping, so the reader checks them and the
        # config echo records them
        if getattr(args, "seed", None) is not None:
            mapping["run.seeds"] = str(args.seed)
        if getattr(args, "out", None):
            mapping["run.output_dir"] = args.out
        config, issues, unknown = read_config(mapping)
        if args.command == "validate":
            for key in unknown:
                print(f"warning: unknown key {key} (ignored)", file=sys.stderr)
        for issue in issues:
            print(f"error: {issue}", file=sys.stderr)
        if issues:
            return 1
        if args.command == "validate":
            # the schedule checks, for every grid combo
            grid_schedules(config)
            warning = unbounded_p_warning(config)
            if warning:
                print(f"warning: {warning}", file=sys.stderr)
            print("config ok")
            return 0
        if args.command == "run":
            finals = run_experiment(config)
            print(f"final P(x): mean={finals['mean']:.6g} "
                  f"std={finals['std']:.6g} over seeds {list(config.seeds)}")
        elif args.command == "grid":
            best, board = grid_search(config)
            print(f"best config: {best} "
                  f"(mean final P={board[0]['mean_final_p']:.6g}, "
                  f"{len(board)} combos)")
        elif args.command == "rate":
            report = rate_study(config, [float(t) for t in args.T.split(",")])
            for T, avg in zip(report.T_values, report.averaged_norms):
                print(f"T={T}: time-avg ||grad P|| = {avg:.6g}")
            print(f"log-log slope: {report.slope:.4f}")
        return 0
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
