"""`aco.build_problem` prices cells with numpy arrays; it must give the
same bytes as a tasks x nodes x replicas loop over the tiered route's links.

The shipped configs have zero link cost and zero link queue delay, so
outputs of whole runs cannot see those terms; these instances set both,
override uplink and rack-core bandwidths per node and per rack, include
single-rack clusters, and mix replication factors 1-4 in one task list.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sccdso import aco
from sccdso.placement import PlacementPlan
from sccdso.sim import TrueTimeModel
from sccdso.workload import TaskSpec

from conftest import make_cluster

BANDWIDTHS = (75.0, 125.0, 300.0)  # few values, so replica ties happen


def _route_sum(links, attr):
    # the two uplinks, then the two core links of an inter-rack route: the
    # order that reads the same from either end
    ends = getattr(links[0], attr) + getattr(links[-1], attr)
    if len(links) == 2:
        return ends
    return ends + (getattr(links[1], attr) + getattr(links[2], attr))


def reference_build(g, plan, tasks, predictor):
    """A fetch takes the route's bottleneck transfer time plus its queue
    delays and tier latency, from the replica with the least such time,
    the lowest node index on a tie."""
    node_ids = tuple(sorted(g.nodes))
    nodes = [g.node(n) for n in node_ids]
    n, b = len(node_ids), len(tasks)

    t_pred = np.asarray(predictor.predict_matrix(nodes, list(tasks)), dtype=float)
    access = np.zeros((n, b))
    xtra_delay = np.zeros((n, b))
    cost = np.zeros((n, b))
    src_idx = np.full((n, b), -1, dtype=int)
    idx_of = {nid: i for i, nid in enumerate(node_ids)}
    latency = {"intra": g.intra_rack_latency_s, "inter": g.inter_rack_latency_s}

    for j, task in enumerate(tasks):
        replicas = plan.replicas(task.block_id)
        for i, nid in enumerate(node_ids):
            node = nodes[i]
            compute_cost = node.cost_per_cycle * task.compute_gcycles * 1e9
            if nid in replicas:
                cost[i, j] = compute_cost
                continue
            best = None  # (fetch seconds, src, transfer seconds, extras, link cost)
            for r in replicas:
                links = g.path_links(nid, r)
                xfer = task.block_mb / min(l.bandwidth_mbps for l in links)
                extras = _route_sum(links, "base_queue_delay_s") + latency[g.tier(nid, r)]
                link_cost = _route_sum(links, "cost_per_mb") * task.block_mb
                cand = (xfer + extras, idx_of[r], xfer, extras, link_cost)
                if best is None or cand[:2] < best[:2]:
                    best = cand
            _, src_idx[i, j], access[i, j], xtra_delay[i, j], link_cost = best
            cost[i, j] = link_cost + compute_cost

    t_eff = t_pred + access
    eta = 1.0 / np.maximum(t_eff, 1e-12)

    k = min(aco.L_MAX, n)
    candidates = np.zeros((b, k), dtype=int)
    for j in range(b):
        candidates[j] = np.sort(np.argsort(-eta[:, j], kind="stable")[:k])

    return dict(
        t_pred=t_pred, access=access, t_eff=t_eff, eta=eta, xtra_delay=xtra_delay,
        cost=cost, src_idx=src_idx, demand_mb=np.array([t.block_mb for t in tasks]),
        capacity_mb=np.array([nd.capacity_mb for nd in nodes]),
        loss_prob=np.array([nd.loss_prob for nd in nodes]), candidates=candidates,
    )


def grid_access(g, plan, tasks):
    """The (n, B) transfer seconds of every cell, which `build_problem`
    folds into t_eff: `price_cells` on the full grid."""
    n, b = len(g.nodes), len(tasks)
    return aco.price_cells(g, plan, tasks, np.arange(n)[:, None], np.arange(b))[0]


def random_instance(seed, n_racks, nodes=(4, 12)):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(nodes[0], nodes[1] + 1))
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
        access = grid_access(g, plan, tasks)
        for name, ref in want.items():
            arr = access if name == "access" else getattr(got, name)
            assert arr.dtype == ref.dtype and arr.shape == ref.shape, (seed, name)
            assert arr.tobytes() == ref.tobytes(), (seed, name)


def test_reference_instances_exercise_every_pricing_term():
    # remote cells on priced, queued links, inter-rack routes, and replica
    # choices decided by node index between equal fetch prices
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
            prices = [g.paths.seconds(dst, r, tasks[j].block_mb)
                      for r in plan.replicas(tasks[j].block_id)]
            ties += prices.count(min(prices)) > 1
    assert min(priced, queued, inter, ties) > 100


@pytest.mark.parametrize("n_racks", [1, 2, 3])
def test_candidate_mask_breaks_ties_at_the_cap_by_node_index(n_racks):
    # 11-40 nodes from three cpu and three io values: many nodes tie on eta,
    # also across the L_MAX boundary, where the lowest node index must win
    # as in the reference's stable argsort
    boundary_ties = 0
    for seed in range(40):
        g, plan, tasks = random_instance(1000 + seed, n_racks, nodes=(11, 40))
        got = aco.build_problem(g, plan, tasks, TrueTimeModel())
        want = reference_build(g, plan, tasks, TrueTimeModel())
        access = grid_access(g, plan, tasks)
        for name, ref in want.items():
            arr = access if name == "access" else getattr(got, name)
            assert arr.tobytes() == ref.tobytes(), (seed, name)
        assert got.candidates.shape == (len(tasks), aco.L_MAX)
        kth = np.sort(got.eta, axis=0)[-aco.L_MAX]
        chosen = np.zeros(got.eta.shape, dtype=bool)
        chosen[got.candidates, np.arange(len(tasks))[:, None]] = True
        boundary_ties += int(((got.eta == kth) & ~chosen).any(axis=0).sum())
    assert boundary_ties > 100


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 39),
    n_racks=st.integers(1, 3),
    cells=st.lists(st.tuples(st.floats(0, 1, exclude_max=True),
                             st.floats(0, 1, exclude_max=True)), max_size=40),
    grid=st.tuples(st.integers(1, 6), st.integers(1, 6)),
)
def test_price_cells_equals_build_problem_tables(seed, n_racks, cells, grid):
    # any cells, in any order, repeated or not, and a broadcast (k, 1) x (m,)
    # block: each priced cell carries the full grid's bits
    g, plan, tasks = random_instance(seed, n_racks)
    p = aco.build_problem(g, plan, tasks, TrueTimeModel())
    access = grid_access(g, plan, tasks)
    n, b = access.shape
    i = np.array([int(u * n) for u, _ in cells], dtype=int)
    j = np.array([int(v * b) for _, v in cells], dtype=int)
    block = (np.arange(grid[0])[:, None] * 7 % n, np.arange(grid[1]) * 5 % b)
    for i, j in ((i, j), block):
        got = aco.price_cells(g, plan, tasks, i, j)
        want = (access[i, j], p.xtra_delay[i, j], p.cost[i, j], p.src_idx[i, j])
        for a, w in zip(got, want):
            assert a.dtype == w.dtype and a.shape == w.shape
            assert a.tobytes() == w.tobytes()


@pytest.mark.parametrize("n_racks", [1, 2, 3])
def test_colony_and_steal_rule_price_a_fetch_alike(n_racks):
    # every cell's access + xtra_delay, the colony's fetch, is the path
    # table's cheapest fetch bit for bit, the price the steal rule adds
    for seed in range(40):
        g, plan, tasks = random_instance(seed, n_racks)
        p = aco.build_problem(g, plan, tasks, TrueTimeModel())
        access = grid_access(g, plan, tasks)
        replicas = g.paths.replica_index(plan.replicas(t.block_id) for t in tasks)
        mb = np.array([t.block_mb for t in tasks])
        for i in range(len(p.node_ids)):
            price, src = g.paths.cheapest_fetch(i, replicas, mb)
            assert (access[i] + p.xtra_delay[i]).tobytes() == price.tobytes(), seed
            assert (p.src_idx[i] == np.where(src == i, -1, src)).all(), seed
