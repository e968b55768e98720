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
With `--repeat N` the input is scheduled N times and the last schedule is
executed N times: `schedule_s` and `simulate_s` are the medians of the N
runs, each of which is also listed, and the script exits 1 when a rerun's
digest or `runtime_counts` differs from the first run's.

Usage:
    python scripts/scale_probe.py [--nodes 1000] [--tasks 5000] [--stragglers 0.1] [--seed 7]
                                  [--scheduler scc-dso] [--repeat 1]
"""

import argparse
import hashlib
import os
import resource
import statistics
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
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")

    g = build_cluster(synthetic_cluster_config(args.nodes))
    w = experiment._single_app_workload(
        args.tasks * 64.0, 64.0, 2, experiment.ExperimentConfig(), args.seed
    )
    view = sim.inject_stragglers(g, args.stragglers, 4.0, args.seed)

    schedule_s = []
    for _ in range(args.repeat):
        start = time.perf_counter()
        sched = experiment.schedule(g, w, args.scheduler, args.seed)
        schedule_s.append(time.perf_counter() - start)
    runs = []  # (seconds, digest, runtime counts) of each execution
    for _ in range(args.repeat):
        start = time.perf_counter()
        trace = experiment.execute(sched, view, w)
        seconds = time.perf_counter() - start
        digest = hashlib.sha256(repr((trace.events, trace.metrics)).encode()).hexdigest()
        runs.append((seconds, digest, trace.runtime_counts))

    _, digest, counts = runs[0]
    print(f"nodes {args.nodes}  tasks {len(w.tasks)}  stragglers {args.stragglers}  seed {args.seed}")
    print(f"schedule_s {statistics.median(schedule_s):.3f}")
    print(f"simulate_s {statistics.median(r[0] for r in runs):.3f}")
    if args.repeat > 1:
        print("schedule_runs_s " + " ".join(f"{s:.3f}" for s in schedule_s))
        print("simulate_runs_s " + " ".join(f"{r[0]:.3f}" for r in runs))
    print(f"peak_rss_mb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f}")
    print("runtime_counts " + " ".join(f"{k}={v}" for k, v in counts.items()))
    print(f"completion_s {trace.metrics.completion_time_s!r}")
    print(f"digest {digest}")
    differ = [k for k, (_, d, c) in enumerate(runs) if (d, c) != (digest, counts)]
    if differ:
        print(f"error: runs {differ} differ from the first run's digest or runtime counts",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
