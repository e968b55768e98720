"""Command-line entry points.

    sccdso run --config experiment.json [--preset stage7] [--out results]
    sccdso validate --config experiment.json
    sccdso oracle --max-tasks 8 --max-nodes 4 --seeds 100

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import experiment
from .cluster import build_cluster, load_cluster_config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sccdso",
        description="Data-locality-aware cluster scheduling simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the configured experiment sweeps")
    run.add_argument("--config", required=True)
    run.add_argument("--preset", choices=("table1", "stage7"))
    run.add_argument(
        "--schedulers",
        help="comma-separated subset of: " + ",".join(experiment.SCHEDULERS),
    )
    run.add_argument("--out", help="output directory")
    run.add_argument("--format", choices=("csv", "json", "md"))
    run.add_argument("--seed", type=int)
    run.add_argument("--reps", type=int)

    val = sub.add_parser("validate", help="check a config without running")
    val.add_argument("--config", required=True)

    orc = sub.add_parser("oracle", help="brute-force comparison suite")
    orc.add_argument("--max-tasks", type=int, default=8)
    orc.add_argument("--max-nodes", type=int, default=4)
    orc.add_argument("--seeds", type=int, default=100)
    orc.add_argument("--preset", choices=("table1", "stage7"), default="table1")
    orc.add_argument("--ratio-bound", type=float, default=1.05)
    return parser


def _apply_overrides(cfg: experiment.ExperimentConfig, args) -> experiment.ExperimentConfig:
    updates = {}
    if args.preset:
        updates["preset"] = args.preset
    if args.schedulers:
        updates["schedulers"] = tuple(s.strip() for s in args.schedulers.split(","))
    if args.out:
        updates["out_dir"] = args.out
    if args.format:
        updates["format"] = args.format
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.reps is not None:
        updates["repetitions"] = args.reps
    if updates:
        cfg = dataclasses.replace(cfg, **updates)
        cfg.validate()
    return cfg


def _cmd_run(args) -> int:
    try:
        cfg = experiment.load_experiment_config(args.config)
        cfg = _apply_overrides(cfg, args)
    except (OSError, ValueError, TypeError, KeyError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        result = experiment.run_experiment(cfg)
        paths = experiment.emit(result, cfg.out_dir, cfg.format)
    except Exception as exc:  # noqa: BLE001
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    for p in paths:
        print(p)
    if result.failures:
        print(f"{len(result.failures)} cell(s) failed; see failures.csv", file=sys.stderr)
        return 2
    return 0


def _cmd_validate(args) -> int:
    try:
        cfg = experiment.load_experiment_config(args.config)
        if cfg.cluster_path:
            build_cluster(load_cluster_config(cfg.cluster_path))
        if cfg.workload_path:
            experiment._base_workload(cfg, rf=1, seed=0)
        print("config ok")
        return 0
    except (OSError, ValueError, TypeError, KeyError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


def _cmd_oracle(args) -> int:
    try:
        summary = experiment.run_oracle_suite(
            seeds=args.seeds,
            max_tasks=args.max_tasks,
            max_nodes=args.max_nodes,
            preset=args.preset,
            ratio_bound=args.ratio_bound,
        )
    except Exception as exc:  # noqa: BLE001
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    print(
        f"{summary['within_bound']}/{summary['instances']} instances within "
        f"{summary['ratio_bound']:.2f}x of the exhaustive optimum "
        f"(worst ratio {summary['worst_ratio']:.4f}, "
        f"{summary['elapsed_s']:.1f}s)"
    )
    return 0 if summary["within_bound"] >= 0.95 * summary["instances"] else 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "validate":
        return _cmd_validate(args)
    return _cmd_oracle(args)


if __name__ == "__main__":
    sys.exit(main())
