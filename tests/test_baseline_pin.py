"""Bit pins on the three comparison baselines (`baseline_round_robin`,
`baseline_rsync`, `baseline_rf_fd`): the assignment, the float bits of
makespan, delay, cost and loss, the type of loss and the feasible flag,
on fixed instances under fixed predictors. No predictor here is fitted,
so no LAPACK solve makes a digest depend on the host. A change to how a
baseline prices or scores its plan that is meant to keep its outputs
must keep these digests."""

import hashlib

import numpy as np
import pytest

from sccdso import aco
from sccdso.cluster import build_cluster, synthetic_cluster_config
from sccdso.placement import place_rack_aware, place_random
from sccdso.predictor import FeatureRegression, LinearModel
from sccdso.sim import TrueTimeModel
from sccdso.workload import Application, partition, tasks_for

from conftest import make_cluster, workspace
from test_build_problem import random_instance

BASELINES = (aco.baseline_round_robin, aco.baseline_rsync, aco.baseline_rf_fd)
PREDICTORS = (
    TrueTimeModel(),
    LinearModel(),
    LinearModel(slope=0.9, intercept=0.05),
    FeatureRegression(theta=np.array([0.25, 0.004, -0.05, 0.002, -0.0006])),
)


def _tasks(input_mb, rf, block_mb=64.0):
    app = Application(id="app0", input_mb=input_mb, block_size_mb=block_mb,
                      replication_factor=rf, gcycles_per_mb=0.09)
    blocks = partition(app)
    return blocks, tasks_for(app, blocks)


def rf1_one_rack():
    # 8 nodes in one rack, RF 1, priced and queued links
    cfg = synthetic_cluster_config(8)
    cfg.update(link_cost_per_mb=0.01, link_queue_delay_ms=0.5)
    g = build_cluster(cfg)
    blocks, tasks = _tasks(11 * 64, 1)
    return g, place_random(g, blocks, 1, seed=3), tasks


def rf2_racks_short_tail():
    # 25 nodes in 5 racks, RF 2, the last block 20 MB
    cfg = synthetic_cluster_config(25, rack_size=5)
    cfg.update(link_cost_per_mb=0.125, link_queue_delay_ms=2.0)
    g = build_cluster(cfg)
    blocks, tasks = _tasks(30 * 64 + 20, 2)
    return g, place_random(g, blocks, 2, seed=11), tasks


def rf3_rack_aware():
    # 12 nodes in 3 racks, RF 3 rack-aware from one client, as the
    # pipeline places a baseline's blocks: every primary is the client's
    # node, so rsync spills
    cfg = synthetic_cluster_config(12, rack_size=4)
    cfg.update(link_cost_per_mb=0.02)
    g = build_cluster(cfg)
    blocks, tasks = _tasks(17 * 64 + 40, 3)
    return g, place_rack_aware(g, blocks, "n005", rf=3), tasks


def capacity_tight():
    # 6 nodes with 64-256 MB of room for 12 x 64 MB tasks: rf-fd and rsync
    # fall back on capacity, and round robin overfills n3
    caps = (128.0, 128.0, 192.0, 64.0, 128.0, 256.0)
    nodes = [
        {"id": f"n{i}", "rack": f"r{i % 2}", "cpu_ghz": (1.4, 2.4, 3.2)[i % 3],
         "io_mbps": (110.0, 220.0, 400.0)[i % 3], "capacity_mb": c, "loss_prob": 0.002 * i}
        for i, c in enumerate(caps)
    ]
    g = make_cluster(nodes, intra_ms=1.0, inter_ms=5.0, link_cost_per_mb=0.01)
    blocks, tasks = _tasks(12 * 64, 2)
    return g, place_random(g, blocks, 2, seed=5), tasks


INSTANCES = {  # name: (build, digest)
    "rf1-one-rack": (rf1_one_rack, "1c0ca956449a8ba5"),
    "rf2-racks-short-tail": (rf2_racks_short_tail, "258749a0c1c7f1a7"),
    "rf3-rack-aware": (rf3_rack_aware, "809bf4c93cbf6890"),
    "capacity-tight": (capacity_tight, "2e68f28b04048574"),
}


def record(sol: aco.AntSolution):
    makespan, (delay, cost, loss) = sol.makespan, sol.metrics
    return (
        tuple(sorted(sol.assignment.items())),
        tuple(float(x).hex() for x in (makespan, delay, cost, loss)),
        type(loss).__name__,
        sol.feasible,
    )


def run_all(g, plan, tasks):
    return [record(baseline(tasks, g, plan, predictor))
            for baseline in BASELINES for predictor in PREDICTORS]


def digest(records) -> str:
    return hashlib.sha256(repr(records).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_baseline_outputs_are_pinned(name):
    build, want = INSTANCES[name]
    assert digest(run_all(*build())) == want


def test_baselines_equal_their_row_on_the_full_grid():
    # a baseline prices only its plan's cells; the solution is the one the
    # full problem's tables give that row, bit for bit
    instances = [build() for build, _ in INSTANCES.values()]
    instances += [random_instance(seed, 1 + seed % 3) for seed in range(12)]
    for g, plan, tasks in instances:
        for baseline in BASELINES:
            for predictor in PREDICTORS:
                got = baseline(tasks, g, plan, predictor)
                problem = aco.build_problem(g, plan, tasks, predictor)
                row = got.node_index
                want = aco._solution_from_indices(
                    workspace(problem), row[None], aco._fits(row, problem.demand_mb, problem.capacity_mb))[0]
                assert record(got) == record(want)
                assert row.dtype == want.node_index.dtype


def test_baselines_never_build_the_full_problem(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a baseline built the full nodes x tasks problem")

    monkeypatch.setattr(aco, "build_problem", refuse)
    for build, _ in INSTANCES.values():
        run_all(*build())
