#!/usr/bin/env python3
"""Head-to-head win rate versus the first-fit baseline under injected
stragglers, across cluster sizes.

Usage:
    python scripts/straggler_sweep.py [--seeds 100] [--fraction 0.1] [--slowdown 4]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from sccdso import experiment, sim  # noqa: E402
from sccdso.cluster import build_cluster, synthetic_cluster_config  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=100)
    parser.add_argument("--fraction", type=float, default=0.1)
    parser.add_argument("--slowdown", type=float, default=4.0)
    parser.add_argument("--node-counts", default="60,70,80,90,100")
    args = parser.parse_args()

    cfg = experiment.ExperimentConfig()
    cache = experiment._PredictorCache()
    for n in (int(x) for x in args.node_counts.split(",")):
        g = build_cluster(synthetic_cluster_config(n))
        wins = 0
        for rep in range(args.seeds):
            seed = experiment.derive_seed(42, "straggler-sweep", str(n), "cmp", rep)
            w = experiment._single_app_workload(1664, 64, 2, cfg, seed)
            view = sim.inject_stragglers(g, args.fraction, args.slowdown, seed)
            ours = experiment.run_pipeline(
                g, w, "scc-dso", seed=seed, cache=cache, sim_cluster=view
            )
            base = experiment.run_pipeline(
                g, w, "rf-fd", seed=seed, cache=cache, sim_cluster=view
            )
            wins += ours.metrics.completion_time_s < base.metrics.completion_time_s
        print(f"{n} nodes: {wins}/{args.seeds} wins")
    return 0


if __name__ == "__main__":
    sys.exit(main())
