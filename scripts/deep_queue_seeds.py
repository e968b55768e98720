#!/usr/bin/env python3
"""Per-seed completion of the adaptive schedulers on deep straggler queues.

Each seed is one deep-queue-straggler input: 20 synthetic nodes, 208 x 64 MB
blocks at RF 2, 20% of nodes 4x slow after scheduling, seed
`derive_seed(101, "deep-queue-straggler", "rep", "", r)` for r < --seeds.
Prints one row per seed and the mean completion per scheduler.

Usage:
    python scripts/deep_queue_seeds.py [--seeds 24] [--schedulers scc-dso,scc-dso-lite]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from sccdso import experiment, sim  # noqa: E402
from sccdso.cluster import build_cluster, synthetic_cluster_config  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=24)
    parser.add_argument("--schedulers", default="scc-dso,scc-dso-lite")
    args = parser.parse_args()
    schedulers = args.schedulers.split(",")

    g = build_cluster(synthetic_cluster_config(20))
    cfg = experiment.ExperimentConfig()
    cache = experiment._PredictorCache()
    print("rep  seed                  " + "".join(f"{s:>14}" for s in schedulers))
    totals = dict.fromkeys(schedulers, 0.0)
    for r in range(args.seeds):
        seed = experiment.derive_seed(101, "deep-queue-straggler", "rep", "", r)
        w = experiment._single_app_workload(208 * 64.0, 64.0, 2, cfg, seed)
        view = sim.inject_stragglers(g, 0.2, 4.0, seed)
        row = []
        for s in schedulers:
            trace = experiment.run_pipeline(g, w, s, seed, cache=cache, sim_cluster=view)
            totals[s] += trace.metrics.completion_time_s
            row.append(trace.metrics.completion_time_s)
        print(f"{r:>3}  {seed:<20}  " + "".join(f"{c:>14.2f}" for c in row))
    print("mean" + " " * 24 + "".join(f"{totals[s] / args.seeds:>14.2f}" for s in schedulers))
    return 0


if __name__ == "__main__":
    sys.exit(main())
