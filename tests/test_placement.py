import math

import pytest
from hypothesis import given, settings, strategies as st

from sccdso.cluster import build_cluster, synthetic_cluster_config
from sccdso.placement import place_heterogeneous, place_rack_aware
from sccdso.workload import Application, partition

from conftest import FixedTimer, make_app_tasks, make_cluster


@pytest.fixture
def five_node_cluster():
    # per-block rates 3:3:3:2:2 via a task-independent timer stub
    return make_cluster(
        [(f"node{i}", "r1", 2.0, 200.0) for i in range(1, 6)],
        bw=125.0,
    )


def test_rack_aware_rf1_all_on_client(two_rack_cluster):
    _, blocks, _ = make_app_tasks(input_mb=320, rf=1)
    plan = place_rack_aware(two_rack_cluster, blocks, "r1n1", rf=1)
    assert all(v == ("r1n1",) for v in plan.block_to_nodes.values())


def test_rack_aware_rf3_tiering(two_rack_cluster):
    _, blocks, _ = make_app_tasks(input_mb=64, rf=3)
    plan = place_rack_aware(two_rack_cluster, blocks, "r1n1", rf=3)
    replicas = plan.replicas(blocks[0].id)
    assert replicas[0] == "r1n1"
    assert replicas[1] == "r1n2"  # same rack, different node
    assert replicas[2] in ("r2n1", "r2n2")  # different rack


def test_rack_aware_rf2_single_rack_distinct_nodes():
    g = make_cluster([("a", "r1", 2.0, 200.0), ("b", "r1", 2.0, 200.0)])
    _, blocks, _ = make_app_tasks(input_mb=128, rf=2)
    plan = place_rack_aware(g, blocks, "a", rf=2)
    for b in blocks:
        assert set(plan.replicas(b.id)) == {"a", "b"}


def test_rack_aware_rf3_single_rack_errors():
    g = make_cluster([(f"n{i}", "r1", 2.0, 200.0) for i in range(4)])
    _, blocks, _ = make_app_tasks(input_mb=64, rf=3)
    with pytest.raises(ValueError, match="2 racks"):
        place_rack_aware(g, blocks, "n0", rf=3)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=4, max_value=20), st.integers(min_value=1, max_value=3), st.integers(0, 10_000))
def test_no_block_has_duplicate_replica_nodes(n, rf, seed):
    g = build_cluster(synthetic_cluster_config(n, rack_size=3))  # >= 2 racks
    _, blocks, _ = make_app_tasks(input_mb=640, rf=rf)
    client = sorted(g.nodes)[seed % n]
    plan = place_rack_aware(g, blocks, client, rf=rf)
    for b in blocks:
        reps = plan.replicas(b.id)
        assert len(reps) == rf
        assert len(set(reps)) == rf


def test_heterogeneous_identical_nodes_split_evenly():
    g = make_cluster([("a", "r1", 2.0, 200.0), ("b", "r1", 2.0, 200.0)])
    app = Application(id="app0", input_mb=640, block_size_mb=64, replication_factor=1)
    blocks = partition(app)
    timer = FixedTimer({"a": 1.0, "b": 1.0})
    plan = place_heterogeneous(g, blocks, timer, rf=1)
    assert plan.f_primary() == {"a": 5, "b": 5}


def exhaustive_minmax(per_block_s, total):
    """Oracle: enumerate all quota splits, return the best max node total."""
    n = len(per_block_s)

    def rec(i, left):
        if i == n - 1:
            return (left * per_block_s[i],)
        best = None
        for q in range(left + 1):
            rest = rec(i + 1, left - q)
            for tail in [rest] if isinstance(rest, tuple) else rest:
                pass
            cand = max(q * per_block_s[i], max(rec(i + 1, left - q)))
            if best is None or cand < best:
                best = cand
        return (best,)

    # simple recursive enumeration over quota vectors
    best = math.inf

    def walk(i, left, cur_max):
        nonlocal best
        if i == n - 1:
            best = min(best, max(cur_max, left * per_block_s[i]))
            return
        for q in range(left + 1):
            m = max(cur_max, q * per_block_s[i])
            if m < best:
                walk(i + 1, left - q, m)

    walk(0, total, 0.0)
    return best


def test_heterogeneous_two_to_one_rates():
    g = make_cluster([("a", "r1", 2.0, 200.0), ("b", "r1", 2.0, 200.0)])
    app = Application(id="app0", input_mb=9 * 64, block_size_mb=64, replication_factor=1)
    blocks = partition(app)
    timer = FixedTimer({"a": 0.5, "b": 1.0})  # node a twice as fast
    plan = place_heterogeneous(g, blocks, timer, rf=1)
    f = plan.f_primary()
    assert f == {"a": 6, "b": 3}
    # cross-check against the exhaustive min-max oracle
    achieved = max(f["a"] * 0.5, f["b"] * 1.0)
    assert achieved == pytest.approx(exhaustive_minmax([0.5, 1.0], 9))


def test_heterogeneous_26_blocks_over_5_nodes(five_node_cluster):
    app = Application(id="app0", input_mb=1664, block_size_mb=64, replication_factor=2)
    blocks = partition(app)
    timer = FixedTimer(
        {"node1": 1 / 3, "node2": 1 / 3, "node3": 1 / 3, "node4": 0.5, "node5": 0.5}
    )
    plan = place_heterogeneous(five_node_cluster, blocks, timer, rf=2)
    f = plan.f_primary()
    assert f == {"node1": 6, "node2": 6, "node3": 6, "node4": 4, "node5": 4}
    # ownership is contiguous in block order
    owners = [plan.primary(b.id) for b in blocks]
    assert owners == ["node1"] * 6 + ["node2"] * 6 + ["node3"] * 6 + ["node4"] * 4 + ["node5"] * 4


def test_heterogeneous_homogeneous_balance_property():
    g = make_cluster([(f"n{i}", "r1", 2.0, 200.0) for i in range(7)])
    app = Application(id="app0", input_mb=23 * 16, block_size_mb=16, replication_factor=1)
    blocks = partition(app)
    timer = FixedTimer({f"n{i}": 1.0 for i in range(7)})
    plan = place_heterogeneous(g, blocks, timer, rf=1)
    counts = [plan.f_primary().get(f"n{i}", 0) for i in range(7)]
    assert max(counts) - min(counts) <= 1


def test_heterogeneous_prefilters_weak_nodes():
    g = make_cluster([("fast", "r1", 3.0, 400.0), ("crawl", "r1", 0.1, 10.0)])
    _, blocks, _ = make_app_tasks(input_mb=320, rf=1)
    timer = FixedTimer({"fast": 1.0, "crawl": 25.0})  # 4% of best efficiency
    plan = place_heterogeneous(g, blocks, timer, rf=1)
    assert plan.f_primary() == {"fast": 5}


def test_plan_csv_export(tmp_path, two_rack_cluster):
    _, blocks, _ = make_app_tasks(input_mb=128, rf=2)
    plan = place_rack_aware(two_rack_cluster, blocks, "r1n1", rf=2)
    path = tmp_path / "plan.csv"
    plan.to_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "block_id,replica1,replica2"
    assert len(lines) == 1 + len(blocks)
    first = lines[1].split(",")
    assert first[0] == blocks[0].id
    assert set(first[1:]) == set(plan.replicas(blocks[0].id))
