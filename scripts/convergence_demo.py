#!/usr/bin/env python3
"""Solve one reference instance with the ant colony and dump its
convergence trace as CSV.

The instance is 26 x 64 MB blocks at RF 2, placed by the heterogeneous
placement on `--nodes` synthetic nodes and priced with exact service times;
the colony runs the stage7 preset, minimizing the makespan and
hill-climbing each iteration's best row. The CSV has one row per
iteration, with the columns iter, best_makespan, mean_makespan and
feasible_ants.

Usage:
    python scripts/convergence_demo.py [--nodes 25] [--seed 7] [--out traces]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from sccdso import aco, placement, sim, workload  # noqa: E402
from sccdso.cluster import build_cluster, synthetic_cluster_config  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--nodes", type=int, default=25)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="traces")
    args = parser.parse_args()

    g = build_cluster(synthetic_cluster_config(args.nodes))
    app = workload.Application(
        id="app0", input_mb=1664, block_size_mb=64, replication_factor=2
    )
    w = workload.workload_from_apps([app])
    os.makedirs(args.out, exist_ok=True)

    model = sim.TrueTimeModel()
    plan = placement.place_heterogeneous(g, list(w.blocks), model, {app.id: 2})
    problem = aco.build_problem(g, plan, list(w.tasks), model)
    res = aco.solve_problem(problem, aco.AcoConfig.preset("stage7"), seed=args.seed)
    path = os.path.join(args.out, "trace.csv")
    aco.write_trace_csv(res.trace, path)
    print(
        f"makespan={res.best.makespan:.2f}s "
        f"iterations={res.iterations} converged={res.converged_iteration} -> {path}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
