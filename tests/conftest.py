import numpy as np
import pytest

from sccdso.aco import AcoConfig, AssignmentProblem, Workspace
from sccdso.cluster import build_cluster
from sccdso.workload import Application, partition, tasks_for


def make_cluster(nodes, racks=None, bw=125.0, intra_ms=0.0, inter_ms=0.0, **kw):
    """nodes: list of (id, rack, cpu, io) or dicts."""
    specs = []
    rack_ids = set()
    for n in nodes:
        if isinstance(n, dict):
            spec = dict(n)
        else:
            nid, rack, cpu, io = n
            spec = {"id": nid, "rack": rack, "cpu_ghz": cpu, "io_mbps": io}
        spec.setdefault("mem_gb", 8.0)
        spec.setdefault("slots", 2)
        rack_ids.add(spec["rack"])
        specs.append(spec)
    cfg = {
        "racks": racks if racks is not None else sorted(rack_ids),
        "nodes": specs,
        "link_bandwidth_mbps": bw,
        "intra_rack_latency_ms": intra_ms,
        "inter_rack_latency_ms": inter_ms,
    }
    cfg.update(kw)
    return build_cluster(cfg)


@pytest.fixture
def two_rack_cluster():
    return make_cluster(
        [
            ("r1n1", "r1", 2.0, 200.0),
            ("r1n2", "r1", 2.0, 200.0),
            ("r2n1", "r2", 2.0, 200.0),
            ("r2n2", "r2", 2.0, 200.0),
        ]
    )


def make_app_tasks(input_mb=320, block_mb=64, rf=2, gcycles_per_mb=0.08, demand=0.5):
    app = Application(
        id="app0",
        input_mb=input_mb,
        block_size_mb=block_mb,
        replication_factor=rf,
        gcycles_per_mb=gcycles_per_mb,
        demand=demand,
    )
    blocks = partition(app)
    return app, blocks, tasks_for(app, blocks)


class FixedTimer:
    """Predictor stub: per-node constant time, task-independent."""

    def __init__(self, times):
        self.times = times

    def predict(self, node, task):
        return self.times[node.id]

    def predict_matrix(self, nodes, tasks):
        return np.array([[self.times[n.id]] * len(tasks) for n in nodes])


def array_problem(t_eff, xtra_delay=None, cost=None, src_idx=None, loss_prob=None):
    """AssignmentProblem built straight from (n, B) arrays, for tests of
    the colony's per-plan metrics; no cluster, plan or tasks behind it,
    and every node a candidate of every task."""
    t_eff = np.asarray(t_eff, dtype=float)
    n, b = t_eff.shape
    return AssignmentProblem(
        plan=None,
        tasks=(),
        node_ids=tuple(f"n{i}" for i in range(n)),
        task_ids=tuple(f"t{j}" for j in range(b)),
        t_pred=t_eff,
        t_eff=t_eff,
        eta=1.0 / np.maximum(t_eff, 1e-12),
        xtra_delay=np.zeros((n, b)) if xtra_delay is None else np.asarray(xtra_delay, float),
        cost=np.zeros((n, b)) if cost is None else np.asarray(cost, float),
        src_idx=np.full((n, b), -1) if src_idx is None else np.asarray(src_idx),
        demand_mb=np.zeros(b),
        capacity_mb=np.full(n, np.inf),
        loss_prob=np.zeros(n) if loss_prob is None else np.asarray(loss_prob, float),
        candidates=np.tile(np.arange(n), (b, 1)),
    )


def workspace(problem, **config):
    """A colony solve's workspace on `problem` under `AcoConfig(**config)`,
    for running the solve's steps one at a time."""
    return Workspace(problem, AcoConfig(**config))
