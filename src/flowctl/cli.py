"""Command-line entry point.

flowctl run        one experiment (fixed | rl | rl-reroute) -> artifact dir
flowctl sweep      rl runs over a declared value set (gamma | width | depth)
flowctl summarize  improvement report from previously written run dirs

Exit codes: 0 success, 1 configuration error, 2 runtime failure.

BLAS runs one thread per process unless the caller's environment sets a
count.  On a 2-CPU host a second thread saved about 13% of policy-update
time when the host was idle and cost a factor of four when another process
was busy.  The variables must be set before numpy is imported; `run_many`
workers inherit them.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .harness import (  # noqa: E402 - numpy must see the thread settings
    ConfigError,
    MODES,
    RunConfig,
    SWEEP_AXES,
    desk_profile,
    load_config_file,
    paper_scale_profile,
    read_key_values,
    read_metrics_csv,
    run_phase,
    run_sweep,
    summarize,
    write_text,
)


def _cli_mode(flag: str) -> str:
    return flag.replace("-", "_")


def _base_config(args) -> RunConfig:
    cfg = paper_scale_profile() if args.paper_scale else desk_profile()
    if args.config is not None:
        cfg = load_config_file(args.config, cfg)
    return cfg


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"bad seed list {text!r} (expected e.g. 7,8,9)")
    if not seeds:
        raise ConfigError("seed list is empty")
    return seeds


def cmd_run(args) -> int:
    cfg = _base_config(args)
    mode = _cli_mode(args.mode)
    out = Path(args.out) if args.out else Path("runs") / f"{args.mode}-seed{args.seed}"
    result = run_phase(cfg, mode, args.seed, out)
    last = result.metrics[-1]
    print(f"{mode} seed {args.seed}: {len(result.metrics)} episodes -> {out}")
    print(f"last episode: sim_time {last.sim_time_s} s, "
          f"cum_delay {last.cum_delay_s} s, arrived {last.arrived}")
    if mode == "rl_reroute":
        switches = sum(1 for d in result.reroutes if d.decision == "switch")
        print(f"reroute decisions: {len(result.reroutes)} "
              f"({switches} switches)")
    return 0


def cmd_sweep(args) -> int:
    cfg = _base_config(args)
    seeds = _parse_seeds(args.seeds)
    out = Path(args.out) if args.out else Path("runs") / f"sweep-{args.axis}"
    _, summary_rows = run_sweep(cfg, args.axis, seeds, out)
    print(f"sweep {args.axis} over {SWEEP_AXES[args.axis]} x seeds {seeds} "
          f"-> {out}")
    for value, mean_neg, rank, flag in summary_rows:
        note = f"  [{flag}]" if flag else ""
        print(f"  rank {rank}: {args.axis} = {value} "
              f"(mean final neg reward {mean_neg:.1f}){note}")
    return 0


def cmd_summarize(args) -> int:
    series = {}
    for run_dir in args.dirs:
        run_path = Path(run_dir)
        summary_file = run_path / "summary.txt"
        metrics_file = run_path / "metrics.csv"
        if not summary_file.is_file() or not metrics_file.is_file():
            raise ConfigError(
                f"{run_dir} is not a run directory (needs summary.txt "
                "and metrics.csv)")
        mode = read_key_values(summary_file.read_text()).get("mode")
        if mode not in MODES:
            raise ConfigError(f"{run_dir}: unrecognized mode {mode!r}")
        if mode in series:
            raise ConfigError(f"two {mode} run directories given")
        series[mode] = read_metrics_csv(metrics_file.read_text())
    if "fixed" not in series:
        raise ConfigError("summarize needs one fixed-time run as baseline")
    report = summarize(series["fixed"], series.get("rl"),
                       series.get("rl_reroute"))
    sys.stdout.write(report)
    if args.out:
        write_text(Path(args.out), report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowctl",
        description=("Signalized-intersection experiments: fixed-time vs "
                     "learned signal control vs learned control with "
                     "congestion-triggered rerouting."))
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment and write artifacts")
    run.add_argument("--mode", required=True,
                     choices=["fixed", "rl", "rl-reroute"])
    run.add_argument("--config", help="key = value config file")
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--out", help="output directory (default runs/<mode>-seed<seed>)")
    run.add_argument("--paper-scale", action="store_true",
                     help="full-size experiment profile instead of the desk profile")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="rl runs across a declared value set")
    sweep.add_argument("--axis", required=True, choices=sorted(SWEEP_AXES))
    sweep.add_argument("--seeds", default="7,8,9",
                       help="comma-separated seed list (default 7,8,9)")
    sweep.add_argument("--config", help="key = value config file")
    sweep.add_argument("--out", help="output directory (default runs/sweep-<axis>)")
    sweep.add_argument("--paper-scale", action="store_true")
    sweep.set_defaults(func=cmd_sweep)

    summ = sub.add_parser("summarize",
                          help="improvement report from run directories")
    summ.add_argument("dirs", nargs="+", metavar="DIR")
    summ.add_argument("--out", help="also write the report to this file")
    summ.set_defaults(func=cmd_summarize)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
