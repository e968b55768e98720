import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from sccdso.cluster import build_cluster, synthetic_cluster_config
from sccdso.placement import place_heterogeneous, place_rack_aware
from sccdso.workload import Application, partition

from conftest import FixedTimer, make_app_tasks, make_cluster


def primaries(plan):
    """Primary replicas per node: a Counter over each block's first holder."""
    return Counter(nodes[0] for nodes in plan.block_to_nodes.values())


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
    plan = place_heterogeneous(g, blocks, timer, rf={"app0": 1})
    assert primaries(plan) == {"a": 5, "b": 5}


def exhaustive_minmax(per_block_s, total, caps=None):
    """Oracle: enumerate every quota split within the caps, return the
    least max node total."""
    n = len(per_block_s)
    caps = caps or [total] * n
    best = math.inf

    def walk(i, left, cur_max):
        nonlocal best
        if i == n - 1:
            if left <= caps[i]:
                best = min(best, max(cur_max, left * per_block_s[i]))
            return
        for q in range(min(left, caps[i]) + 1):
            m = max(cur_max, q * per_block_s[i])
            if m < best:
                walk(i + 1, left - q, m)

    walk(0, total, 0.0)
    return best


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_heterogeneous_quotas_reach_exact_minmax(data):
    n = data.draw(st.integers(2, 5))
    # a small set of times forces ties; free floats cover the rest
    time = st.one_of(st.sampled_from([0.5, 1.0, 1.5, 3.0]), st.floats(0.01, 100.0))
    times = data.draw(st.lists(time, min_size=n, max_size=n))
    caps = data.draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    total = data.draw(st.integers(1, sum(caps)))
    ids = [f"n{i}" for i in range(n)]
    g = make_cluster([
        {"id": nid, "rack": "r1", "cpu_ghz": 2.0, "io_mbps": 200.0, "capacity_mb": cap * 64.0}
        for nid, cap in zip(ids, caps)
    ])
    _, blocks, _ = make_app_tasks(input_mb=total * 64, rf=1)
    plan = place_heterogeneous(g, blocks, FixedTimer(dict(zip(ids, times))), rf={"app0": 1})
    f = primaries(plan)
    quotas = [f.get(nid, 0) for nid in ids]
    assert sum(quotas) == total
    assert all(q <= cap for q, cap in zip(quotas, caps))
    peak = max(q * t for q, t in zip(quotas, times))
    assert peak == exhaustive_minmax(times, total, caps)


def test_heterogeneous_does_not_stop_at_a_tied_peak():
    # two slow nodes tie at the peak of a proportional split; only the
    # fast node should own blocks
    g = make_cluster([(nid, "r1", 2.0, 200.0) for nid in ("a", "b", "c")])
    _, blocks, _ = make_app_tasks(input_mb=8 * 64, rf=1)
    timer = FixedTimer({"a": 3.0, "b": 1 / 3, "c": 3.0})
    plan = place_heterogeneous(g, blocks, timer, rf={"app0": 1})
    assert primaries(plan) == {"b": 8}


def test_heterogeneous_two_to_one_rates():
    g = make_cluster([("a", "r1", 2.0, 200.0), ("b", "r1", 2.0, 200.0)])
    app = Application(id="app0", input_mb=9 * 64, block_size_mb=64, replication_factor=1)
    blocks = partition(app)
    timer = FixedTimer({"a": 0.5, "b": 1.0})  # node a twice as fast
    plan = place_heterogeneous(g, blocks, timer, rf={"app0": 1})
    f = primaries(plan)
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
    plan = place_heterogeneous(five_node_cluster, blocks, timer, rf={"app0": 2})
    f = primaries(plan)
    assert f == {"node1": 6, "node2": 6, "node3": 6, "node4": 4, "node5": 4}
    # ownership is contiguous in block order
    owners = [plan.primary(b.id) for b in blocks]
    assert owners == ["node1"] * 6 + ["node2"] * 6 + ["node3"] * 6 + ["node4"] * 4 + ["node5"] * 4


def test_heterogeneous_homogeneous_balance_property():
    g = make_cluster([(f"n{i}", "r1", 2.0, 200.0) for i in range(7)])
    app = Application(id="app0", input_mb=23 * 16, block_size_mb=16, replication_factor=1)
    blocks = partition(app)
    timer = FixedTimer({f"n{i}": 1.0 for i in range(7)})
    plan = place_heterogeneous(g, blocks, timer, rf={"app0": 1})
    counts = [primaries(plan).get(f"n{i}", 0) for i in range(7)]
    assert max(counts) - min(counts) <= 1


def test_heterogeneous_slow_node_owns_a_block_only_when_it_finishes_first():
    # crawl's first block finishes at 25 s: before fast's 26th, not its 5th;
    # the tie at 25 s goes to the lower node id
    g = make_cluster([("fast", "r1", 3.0, 400.0), ("crawl", "r1", 0.1, 10.0)])
    timer = FixedTimer({"fast": 1.0, "crawl": 25.0})
    for n_blocks, expected in ((5, {"fast": 5}), (30, {"crawl": 1, "fast": 29})):
        _, blocks, _ = make_app_tasks(input_mb=n_blocks * 64, rf=1)
        plan = place_heterogeneous(g, blocks, timer, rf={"app0": 1})
        assert primaries(plan) == expected


def reference_tiers(g, primaries_rfs):
    """The rack-aware tiers as a scan over candidate lists: for each
    (primary, rf) in block order, the primary, then the least (count, node
    id) in its rack (all nodes when it is alone there), then in another
    rack, then of the rest; counts added after each block. Raises
    ValueError as `placement` does when no other rack has a node."""
    load = {n: 0 for n in g.nodes}

    def pick(candidates):
        return min(candidates, key=lambda n: (load[n], n))

    out = []
    for primary, rf in primaries_rfs:
        chosen = [primary]
        if rf >= 2:
            same_rack = [n for n in g.racks[g.rack_of(primary)] if n not in chosen]
            chosen.append(pick(same_rack or [n for n in g.nodes if n not in chosen]))
        if rf >= 3:
            other_rack = [
                n for n in g.nodes if g.rack_of(n) != g.rack_of(primary) and n not in chosen
            ]
            if not other_rack:
                raise ValueError("replication factor 3 needs at least 2 racks")
            chosen.append(pick(other_rack))
        while len(chosen) < rf:
            chosen.append(pick([n for n in g.nodes if n not in chosen]))
        for n in chosen:
            load[n] += 1
        out.append(tuple(chosen))
    return out


@st.composite
def rack_clusters(draw):
    """1-4 racks of 1-4 nodes, node ids shuffled across racks so the id
    tie-break does not follow rack order."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    ids = draw(st.permutations([f"n{k:02d}" for k in range(sum(sizes))]))
    racks = [f"r{r}" for r, size in enumerate(sizes) for _ in range(size)]
    nodes = [(nid, rack, 2.0, 200.0) for nid, rack in zip(ids, racks)]
    return make_cluster(nodes)


@settings(max_examples=200, deadline=None)
@given(rack_clusters(), st.data())
def test_rack_aware_tiers_equal_the_scan(g, data):
    rf = data.draw(st.integers(1, min(4, len(g.nodes))), label="rf")
    client = data.draw(st.sampled_from(sorted(g.nodes)), label="client")
    n_blocks = data.draw(st.integers(1, 20), label="blocks")
    _, blocks, _ = make_app_tasks(input_mb=n_blocks * 64, rf=rf)
    try:
        want = reference_tiers(g, [(client, rf)] * len(blocks))
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            place_rack_aware(g, blocks, client, rf=rf)
        assert str(got.value) == str(err)
        return
    plan = place_rack_aware(g, blocks, client, rf=rf)
    assert [plan.replicas(b.id) for b in blocks] == want


@settings(max_examples=200, deadline=None)
@given(rack_clusters(), st.data())
def test_heterogeneous_tiers_equal_the_scan(g, data):
    # several apps, each at its own RF, in one placement: the counts carry
    # from one app's blocks to the next
    ids = sorted(g.nodes)
    rf = {
        f"app{k}": data.draw(st.integers(1, min(4, len(ids))))
        for k in range(data.draw(st.integers(1, 3), label="apps"))
    }
    blocks = [
        block
        for app_id in rf
        for block in partition(Application(
            id=app_id, input_mb=data.draw(st.integers(1, 8)) * 64.0,
            block_size_mb=data.draw(st.sampled_from([16.0, 64.0])),
            replication_factor=rf[app_id],
        ))
    ]
    times = data.draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=len(ids), max_size=len(ids)))
    timer = FixedTimer(dict(zip(ids, times)))
    if len(g.racks) == 1 and max(rf.values()) >= 3:
        with pytest.raises(ValueError, match="^replication factor 3 needs at least 2 racks$"):
            place_heterogeneous(g, blocks, timer, rf=rf)
        return
    plan = place_heterogeneous(g, blocks, timer, rf=rf)
    want = reference_tiers(g, [(plan.primary(b.id), rf[b.app_id]) for b in blocks])
    assert [plan.replicas(b.id) for b in blocks] == want
