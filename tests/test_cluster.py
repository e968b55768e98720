import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sccdso.cluster import (
    build_cluster,
    load_cluster_config,
    scale_bandwidth,
    synthetic_cluster_config,
)

from conftest import make_cluster

CLUSTER_50 = os.path.join(os.path.dirname(__file__), "..", "configs", "cluster_50.json")


def bw(g, a, b):
    """Bottleneck MB/s of the route a -> b in the cluster's path table."""
    p = g.paths
    return p.bandwidth[p.index[a], p.index[b]]


def test_two_by_two_construction(two_rack_cluster):
    g = two_rack_cluster
    assert len(g.nodes) == 4
    assert len(g.racks) == 2
    ids = g.node_ids()
    for a in ids:
        for b in ids:
            assert bw(g, a, b) > 0


def test_reference_profile_counts():
    g = build_cluster(load_cluster_config(CLUSTER_50))
    assert len(g.nodes) == 50
    edge = [n for n in g.nodes.values() if n.cpu_ghz < 2.0]
    assert len(edge) == 10
    assert g.uplinks["n000"].bandwidth_mbps == 125.0  # 1 Gbps
    assert g.intra_rack_latency_s == pytest.approx(0.005)


def test_unknown_rack_rejected():
    with pytest.raises(ValueError, match="unknown rack"):
        make_cluster([("a", "r1", 2.0, 100.0)], racks=["r0"])


def test_duplicate_node_rejected():
    with pytest.raises(ValueError, match="duplicate node"):
        make_cluster([("a", "r1", 2.0, 100.0), ("a", "r1", 2.0, 100.0)])


def test_nonpositive_capacity_rejected():
    with pytest.raises(ValueError):
        make_cluster([("a", "r1", -2.0, 100.0)])
    with pytest.raises(ValueError):
        make_cluster([("a", "r1", 2.0, 0.0)])


def test_same_node_is_local_sentinel(two_rack_cluster):
    p = two_rack_cluster.paths
    assert math.isinf(bw(two_rack_cluster, "r1n1", "r1n1"))
    assert p.seconds("r1n1", "r1n1", 64.0) == 0.0
    assert (p.extras_s.diagonal() == 0).all() and (p.cost_per_mb.diagonal() == 0).all()


def test_bottleneck_is_min_over_links():
    # inter-rack path a -> rackA(40) -> core -> rackB(80) -> b with 100 uplinks
    g = make_cluster(
        [
            {"id": "a", "rack": "ra", "cpu_ghz": 2.0, "io_mbps": 100, "uplink_mbps": 100},
            {"id": "b", "rack": "rb", "cpu_ghz": 2.0, "io_mbps": 100, "uplink_mbps": 100},
        ],
        rack_core_mbps={"ra": 40, "rb": 80},
    )
    assert bw(g, "a", "b") == 40


def test_gigabit_converts_to_125_mbps():
    # independent unit oracle: 1 Gbps = 1e9 / 8 / 1e6 MB/s
    expected = 1e9 / 8 / 1e6
    g = make_cluster(
        [("a", "r1", 2.0, 100.0), ("b", "r1", 2.0, 100.0)],
        bw=None,
        link_bandwidth_gbps=1.0,
    )
    assert bw(g, "a", "b") == pytest.approx(expected)
    assert expected == 125.0


@given(st.integers(min_value=2, max_value=30), st.data())
def test_path_table_symmetry(n, data):
    # per-link queue delays and costs differ, so a sum taken in route order
    # from one end would differ in the last bits from the other end's
    rng = np.random.default_rng(n)
    cfg = synthetic_cluster_config(n, rack_size=4)
    for node in cfg["nodes"]:
        node["uplink_mbps"] = float(rng.choice([75.0, 125.0, 300.0]))
    g = build_cluster(cfg)
    g = replace(g, uplinks={
        nid: replace(l, base_queue_delay_s=float(rng.uniform(0, 0.01)),
                     cost_per_mb=float(rng.uniform(0, 0.1)))
        for nid, l in g.uplinks.items()
    })
    p = g.paths
    for table in (p.bandwidth, p.extras_s, p.cost_per_mb):
        assert (table == table.T).all()
    a, b = (data.draw(st.sampled_from(g.node_ids())) for _ in range(2))
    assert p.seconds(a, b, 64.0) == p.seconds(b, a, 64.0)


def test_path_table_prices_the_route_links():
    # bottleneck, queue delays plus tier latency, and cost over the links of
    # the tiered route, on a cluster where every link differs
    g = make_cluster(
        [{"id": f"n{i}", "rack": f"r{i % 3}", "cpu_ghz": 2.0, "io_mbps": 100.0,
          "uplink_mbps": 50.0 + 25.0 * i} for i in range(7)],
        intra_ms=1.0, inter_ms=7.0, link_queue_delay_ms=0.5, link_cost_per_mb=0.01,
        rack_core_mbps={"r0": 60.0, "r2": 400.0},
    )
    p = g.paths
    for a in g.node_ids():
        for b in g.node_ids():
            links = g.path_links(a, b)
            i, j = p.index[a], p.index[b]
            if not links:
                assert math.isinf(p.bandwidth[i, j]) and p.extras_s[i, j] == 0.0
                continue
            latency = g.intra_rack_latency_s if g.tier(a, b) == "intra" else g.inter_rack_latency_s
            assert p.bandwidth[i, j] == min(l.bandwidth_mbps for l in links)
            assert p.extras_s[i, j] == pytest.approx(
                sum(l.base_queue_delay_s for l in links) + latency, abs=1e-15)
            assert p.cost_per_mb[i, j] == pytest.approx(sum(l.cost_per_mb for l in links))
            assert p.seconds(a, b, 64.0) == 64.0 / p.bandwidth[i, j] + p.extras_s[i, j]


@given(st.data())
def test_min_composition_over_tiered_paths(data):
    g = build_cluster(synthetic_cluster_config(12, rack_size=4))
    ids = g.node_ids()
    a, b, c = (data.draw(st.sampled_from(ids)) for _ in range(3))
    # the tiered route a->c never goes below the weakest hop of a->b->c
    assert bw(g, a, c) >= min(bw(g, a, b), bw(g, b, c)) - 1e-9


def test_tier_latency_is_one_of_three():
    # zero link queue delay: a route's extras are its tier latency alone,
    # and none on the zero-latency diagonal
    g = make_cluster(
        [("r1n1", "r1", 2.0, 200.0), ("r1n2", "r1", 2.0, 200.0), ("r2n1", "r2", 2.0, 200.0)],
        intra_ms=5.0, inter_ms=15.0,
    )
    p = g.paths
    assert set(p.extras_s.ravel().tolist()) == {0.0, 0.005, 0.015}
    i = p.index
    assert p.extras_s[i["r1n1"], i["r1n1"]] == 0.0
    assert p.extras_s[i["r1n1"], i["r1n2"]] == g.intra_rack_latency_s
    assert p.extras_s[i["r1n1"], i["r2n1"]] == g.inter_rack_latency_s


def test_scale_bandwidth_view(two_rack_cluster):
    g = scale_bandwidth(two_rack_cluster, 0.5)
    assert bw(g, "r1n1", "r1n2") == pytest.approx(62.5)
    # original untouched, its table built for it alone
    assert bw(two_rack_cluster, "r1n1", "r1n2") == pytest.approx(125.0)
    assert g.paths is not two_rack_cluster.paths
    with pytest.raises(ValueError):
        scale_bandwidth(two_rack_cluster, 0.0)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cheapest_fetch_equals_a_loop_over_replicas(data):
    # few bandwidths, one queue delay on every link and both latencies, so
    # equal prices are common; some tasks are forced onto two replicas of
    # one price from a node, and a shorter replica list is padded
    draw = data.draw
    n = draw(st.integers(2, 12), label="nodes")
    n_racks = draw(st.integers(1, min(3, n)), label="racks")
    speeds = st.sampled_from([75.0, 125.0, 300.0])
    g = make_cluster(
        [{"id": f"n{i:02d}", "rack": f"r{i % n_racks}", "cpu_ghz": 2.0, "io_mbps": 100.0,
          "uplink_mbps": draw(speeds)} for i in range(n)],
        racks=[f"r{k}" for k in range(n_racks)],
        bw=draw(speeds),
        intra_ms=draw(st.sampled_from([0.0, 1.0, 5.0])),
        inter_ms=draw(st.sampled_from([5.0, 15.0])),
        link_queue_delay_ms=draw(st.sampled_from([0.0, 0.5, 2.0])),
    )
    p = g.paths
    ids = list(p.node_ids)
    replicas, mbs = [], []
    for _ in range(draw(st.integers(1, 8), label="tasks")):
        mb = draw(st.sampled_from([64.0, 37.3, 5.5]))
        reps = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=min(3, n), unique=True))
        if draw(st.booleans()):
            dst = draw(st.sampled_from(ids))
            by_price = {}
            for r in ids:
                if r != dst:
                    by_price.setdefault(p.seconds(dst, r, mb), []).append(r)
            tied = [rs for rs in by_price.values() if len(rs) > 1]
            if tied:
                reps = draw(st.sampled_from(tied))[:2]
        replicas.append(tuple(reps))
        mbs.append(mb)

    index = p.replica_index(replicas)
    assert index.shape == (len(replicas), max(map(len, replicas)))
    for row, reps in zip(index.tolist(), replicas):
        want = sorted(p.index[r] for r in reps)
        assert row == want + want[:1] * (len(row) - len(want))

    price, src = p.cheapest_fetch(np.arange(n)[:, None], index, np.array(mbs))
    assert price.shape == src.shape == (n, len(replicas))
    for i, dst in enumerate(ids):
        for j, (reps, mb) in enumerate(zip(replicas, mbs)):
            prices = {p.index[r]: p.seconds(dst, r, mb) for r in reps}
            least = min(prices.values())
            assert price[i, j].tobytes() == np.float64(least).tobytes()
            assert src[i, j] == min(k for k, v in prices.items() if v == least)
            if dst in reps:
                assert price[i, j] == 0.0 and src[i, j] == i
    # the same rule on one cell at a time, as the steal rule calls it
    for i in range(n):
        row_price, row_src = p.cheapest_fetch(i, index, np.array(mbs))
        assert row_price.tobytes() == price[i].tobytes()
        assert (row_src == src[i]).all()
