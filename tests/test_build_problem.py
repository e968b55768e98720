"""`aco.build_problem` prices cells with numpy arrays; it must give the
same bytes as the tasks x nodes x replicas loop it replaced.

The shipped configs have zero link cost and zero link queue delay, so
outputs of whole runs cannot see those terms; these instances set both,
override uplink and rack-core bandwidths per node and per rack, include
single-rack clusters, and mix replication factors 1-4 in one task list.
"""

import numpy as np
import pytest

from sccdso import aco
from sccdso.placement import PlacementPlan
from sccdso.sim import TrueTimeModel
from sccdso.workload import TaskSpec

from conftest import make_cluster

BANDWIDTHS = (75.0, 125.0, 300.0)  # few values, so replica ties happen


def _in_order(values):
    # left-to-right float sum, as built-in sum() does up to Python 3.11,
    # the interpreter the loop ran on (3.12 made sum() compensated)
    total = 0
    for v in values:
        total = total + v
    return total


def reference_build(g, plan, tasks, predictor):
    """The loop `build_problem` used before it was vectorised."""
    node_ids = tuple(sorted(g.nodes))
    nodes = [g.node(n) for n in node_ids]
    n, b = len(node_ids), len(tasks)

    t_pred = np.asarray(predictor.predict_matrix(nodes, list(tasks)), dtype=float)
    access = np.zeros((n, b))
    xtra_delay = np.zeros((n, b))
    cost = np.zeros((n, b))
    src_idx = np.full((n, b), -1, dtype=int)
    idx_of = {nid: i for i, nid in enumerate(node_ids)}

    for j, task in enumerate(tasks):
        replicas = plan.replicas(task.block_id)
        for i, nid in enumerate(node_ids):
            node = nodes[i]
            compute_cost = node.cost_per_cycle * task.compute_gcycles * 1e9
            if nid in replicas:
                cost[i, j] = compute_cost
                continue
            best = None  # (transfer_s, queue_extras, transfer_cost, src)
            for r in replicas:
                links = g.path_links(nid, r)
                xfer = _in_order(task.block_mb / l.bandwidth_mbps for l in links)
                queue = _in_order(l.base_queue_delay_s for l in links) + g.tier_latency_s(nid, r)
                link_cost = _in_order(l.cost_per_mb * task.block_mb for l in links)
                cand = (xfer, queue, link_cost, idx_of[r])
                if best is None or cand < best:
                    best = cand
            access[i, j] = best[0]
            xtra_delay[i, j] = best[1]
            cost[i, j] = best[2] + compute_cost
            src_idx[i, j] = best[3]

    t_eff = t_pred + access
    eta = 1.0 / np.maximum(t_eff, 1e-12)

    mask = np.zeros((n, b), dtype=bool)
    k = min(aco.L_MAX, n)
    for j in range(b):
        top = np.argsort(-eta[:, j], kind="stable")[:k]
        mask[top, j] = True

    return dict(
        t_pred=t_pred, access=access, t_eff=t_eff, eta=eta, xtra_delay=xtra_delay,
        cost=cost, src_idx=src_idx, demand_mb=np.array([t.block_mb for t in tasks]),
        capacity_mb=np.array([nd.capacity_mb for nd in nodes]),
        loss_prob=np.array([nd.loss_prob for nd in nodes]), candidate_mask=mask,
    )


def random_instance(seed, n_racks):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 13))
    racks = [f"r{k}" for k in range(n_racks)]
    nodes = []
    for i in range(n):
        spec = {
            "id": f"n{i:02d}",
            "rack": racks[i % n_racks],
            "cpu_ghz": float(rng.choice([1.4, 2.4, 3.2])),
            "io_mbps": float(rng.choice([110.0, 220.0, 400.0])),
            "cost_per_cycle": float(rng.choice([1e-10, 3e-10])),
            "loss_prob": float(rng.uniform(0.0, 0.02)),
        }
        if rng.random() < 0.5:
            spec["uplink_mbps"] = float(rng.choice(BANDWIDTHS))
        nodes.append(spec)
    g = make_cluster(
        nodes,
        racks=racks,
        bw=float(rng.choice(BANDWIDTHS)),
        intra_ms=float(rng.choice([0.0, 1.0, 5.0])),
        inter_ms=float(rng.choice([5.0, 15.0])),
        link_cost_per_mb=float(rng.choice([0.0, 0.01, 0.125])),
        link_queue_delay_ms=float(rng.choice([0.0, 0.5, 2.0])),
        rack_core_mbps={r: float(rng.choice(BANDWIDTHS)) for r in racks if rng.random() < 0.5},
    )
    ids = sorted(g.nodes)
    tasks, mapping = [], {}
    for j in range(int(rng.integers(1, 25))):
        mb = float(rng.choice([64.0, 37.3, 50.0, 5.5]))
        rf = int(rng.integers(1, min(4, n) + 1))
        tasks.append(
            TaskSpec(
                id=f"t{j:02d}", block_id=f"b{j:02d}", block_mb=mb,
                resource_demand=0.5, compute_gcycles=mb * float(rng.uniform(0.06, 0.1)),
            )
        )
        mapping[f"b{j:02d}"] = tuple(ids[i] for i in rng.choice(n, size=rf, replace=False))
    return g, PlacementPlan(block_to_nodes=mapping, strategy="random"), tasks


@pytest.mark.parametrize("n_racks", [1, 2, 3])
def test_build_problem_matches_reference_loop(n_racks):
    for seed in range(40):
        g, plan, tasks = random_instance(seed, n_racks)
        assert {len(plan.replicas(t.block_id)) for t in tasks} <= {1, 2, 3, 4}
        got = aco.build_problem(g, plan, tasks, TrueTimeModel())
        want = reference_build(g, plan, tasks, TrueTimeModel())
        for name, ref in want.items():
            arr = getattr(got, name)
            assert arr.dtype == ref.dtype and arr.shape == ref.shape, (seed, name)
            assert arr.tobytes() == ref.tobytes(), (seed, name)


def test_reference_instances_exercise_every_pricing_term():
    # remote cells on priced, queued links, inter-rack routes, and replica
    # choices decided past the transfer time
    priced = queued = inter = ties = 0
    for seed in range(40):
        g, plan, tasks = random_instance(seed, 2)
        p = aco.build_problem(g, plan, tasks, TrueTimeModel())
        link = next(iter(g.uplinks.values()))
        remote = int((p.src_idx >= 0).sum())
        priced += remote * (link.cost_per_mb > 0)
        queued += remote * (link.base_queue_delay_s > 0)
        for i, j in zip(*np.nonzero(p.src_idx >= 0)):
            dst = p.node_ids[i]
            inter += g.tier(dst, p.node_ids[p.src_idx[i, j]]) == "inter"
            xfers = [
                sum(tasks[j].block_mb / l.bandwidth_mbps for l in g.path_links(dst, r))
                for r in plan.replicas(tasks[j].block_id)
            ]
            ties += xfers.count(min(xfers)) > 1
    assert min(priced, queued, inter, ties) > 100
