#!/usr/bin/env python3
"""Time one scc-dso schedule and its adaptive execution at a chosen size.

The input is the deep-queue-straggler profile scaled up: `--nodes` synthetic
nodes, `--tasks` x 64 MB blocks at RF 2, and a `--stragglers` fraction of
the nodes 4x slow after scheduling, all from `--seed`. Prints the seconds of
`experiment.schedule` and of `experiment.execute` (one `sim.simulate`), the
run's `runtime_counts`, its completion time, and a sha256 of
`repr((events, metrics))`, so two checkouts can be compared on the digest.

Usage:
    python scripts/scale_probe.py [--nodes 1000] [--tasks 5000] [--stragglers 0.1] [--seed 7]
"""

import argparse
import hashlib
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from sccdso import experiment, sim, workload as wl  # noqa: E402
from sccdso.cluster import build_cluster, synthetic_cluster_config  # noqa: E402


def profile(tasks: int) -> wl.WorkloadProfile:
    return wl.WorkloadProfile(apps=(wl.AppProfile(
        count=1,
        input_mb=tasks * 64.0,
        block_size_mb=64.0,
        replication_factor=2,
        demand={"uniform": [0.3, 0.8]},
        gcycles_per_mb={"uniform": [0.06, 0.1]},
    ),))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--nodes", type=int, default=1000)
    parser.add_argument("--tasks", type=int, default=5000)
    parser.add_argument("--stragglers", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    g = build_cluster(synthetic_cluster_config(args.nodes))
    w = wl.generate_workload(args.seed, profile(args.tasks))
    view = sim.inject_stragglers(g, args.stragglers, 4.0, args.seed)

    t0 = time.perf_counter()
    sched = experiment.schedule(g, w, "scc-dso", args.seed)
    t1 = time.perf_counter()
    trace = experiment.execute(sched, view, w)
    t2 = time.perf_counter()

    digest = hashlib.sha256(repr((trace.events, trace.metrics)).encode()).hexdigest()
    print(f"nodes {args.nodes}  tasks {len(w.tasks)}  stragglers {args.stragglers}  seed {args.seed}")
    print(f"schedule_s {t1 - t0:.3f}")
    print(f"simulate_s {t2 - t1:.3f}")
    print("runtime_counts " + " ".join(f"{k}={v}" for k, v in trace.runtime_counts.items()))
    print(f"completion_s {trace.metrics.completion_time_s!r}")
    print(f"digest {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
