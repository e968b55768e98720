#!/usr/bin/env python3
"""Time one schedule and its execution at a chosen size.

The input is the deep-queue-straggler profile scaled up: `--nodes` synthetic
nodes, `--tasks` x 64 MB blocks at RF 2, and a `--stragglers` fraction of
the nodes 4x slow after scheduling, all from `--seed`, scheduled by
`--scheduler` (default scc-dso, whose run migrates; rr is the
transfer-heavy path without migration). Prints the seconds of
`experiment.schedule` and of `experiment.execute` (one `sim.simulate`), the
process's peak resident set in MB (`ru_maxrss`, which Linux reports in KiB),
the run's `runtime_counts`, its completion time, and a sha256 of
`repr((events, metrics))`, so two checkouts can be compared on the digest.

Usage:
    python scripts/scale_probe.py [--nodes 1000] [--tasks 5000] [--stragglers 0.1] [--seed 7]
                                  [--scheduler scc-dso]
"""

import argparse
import hashlib
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from sccdso import experiment, sim  # noqa: E402
from sccdso.cluster import build_cluster, synthetic_cluster_config  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--nodes", type=int, default=1000)
    parser.add_argument("--tasks", type=int, default=5000)
    parser.add_argument("--stragglers", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scheduler", choices=experiment.SCHEDULERS, default="scc-dso")
    args = parser.parse_args()

    g = build_cluster(synthetic_cluster_config(args.nodes))
    w = experiment._single_app_workload(
        args.tasks * 64.0, 64.0, 2, experiment.ExperimentConfig(), args.seed
    )
    view = sim.inject_stragglers(g, args.stragglers, 4.0, args.seed)

    t0 = time.perf_counter()
    sched = experiment.schedule(g, w, args.scheduler, args.seed)
    t1 = time.perf_counter()
    trace = experiment.execute(sched, view, w)
    t2 = time.perf_counter()

    digest = hashlib.sha256(repr((trace.events, trace.metrics)).encode()).hexdigest()
    print(f"nodes {args.nodes}  tasks {len(w.tasks)}  stragglers {args.stragglers}  seed {args.seed}")
    print(f"schedule_s {t1 - t0:.3f}")
    print(f"simulate_s {t2 - t1:.3f}")
    print(f"peak_rss_mb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f}")
    print("runtime_counts " + " ".join(f"{k}={v}" for k, v in trace.runtime_counts.items()))
    print(f"completion_s {trace.metrics.completion_time_s!r}")
    print(f"digest {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
