import hashlib
import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sccdso.aco import baseline_rf_fd, baseline_round_robin, baseline_rsync, local_first, price_cells
from sccdso.cluster import PathTable, build_cluster, scale_bandwidth, synthetic_cluster_config
from sccdso.experiment import RSYNC_SYNC_DELAY_S, ExperimentConfig, _single_app_workload
from sccdso.placement import PlacementPlan, place_heterogeneous, place_rack_aware, place_random
from sccdso.sim import (
    THETA_MIG,
    RuntimeConfig,
    TrueTimeModel,
    _NodeRt,
    _Victims,
    inject_stragglers,
    pick_steal,
    simulate,
    true_service_time,
)
from sccdso.workload import Application, TaskSpec, Workload, partition, tasks_for

from conftest import make_cluster


def build_workload(input_mb, block_mb=64, rf=1, gcycles_per_mb=0.05, demand=0.5):
    app = Application(
        id="app0",
        input_mb=input_mb,
        block_size_mb=block_mb,
        replication_factor=rf,
        gcycles_per_mb=gcycles_per_mb,
        demand=demand,
    )
    blocks = partition(app)
    tasks = tasks_for(app, blocks)
    return (
        app,
        blocks,
        tasks,
        Workload(
            apps=(app,),
            blocks=tuple(blocks),
            tasks=tuple(tasks),
            arrivals={t.id: 0.0 for t in tasks},
        ),
    )


def node_rt(pending=(), running=None, rate=0.0, bootstrap=10.0):
    """The per-node runtime state that `migration_round` reads: blocks of
    `pending` MB queued, `running` = (start, finish, MB) of one running
    block, and `rate` > 0 observed over one completed task."""
    state = _NodeRt(None, lambda _: bootstrap)
    state.pending = [TaskSpec(f"p{i}", f"b{i}", mb, 0.5, 1.0) for i, mb in enumerate(pending)]
    if running is not None:
        state.running["r"] = running
    if rate > 0:
        state.completed_count, state.rate_sum = 1, rate
    return state


# --- core execution -------------------------------------------------------


def test_serial_execution_on_one_slot_node():
    g = make_cluster(
        [{"id": "n0", "rack": "r1", "cpu_ghz": 1.0, "io_mbps": 64.0, "slots": 1}]
    )
    # each task: 64/64 io + 1.0 compute = 2.0 s
    app, blocks, tasks, w = build_workload(128, gcycles_per_mb=1.0 / 64)
    plan = place_rack_aware(g, blocks, "n0", rf=1)
    schedule = {t.id: "n0" for t in tasks}
    trace = simulate(g, plan, schedule, w, RuntimeConfig())
    assert trace.metrics.completion_time_s == pytest.approx(4.0)
    assert trace.metrics.network_mb == 0.0
    assert not [e for e in trace.events if e.kind == "transfer"]


def test_parallel_nodes_take_the_max():
    g = make_cluster(
        [
            {"id": "a", "rack": "r1", "cpu_ghz": 1.0, "io_mbps": 64.0, "slots": 1},
            {"id": "b", "rack": "r1", "cpu_ghz": 2.0, "io_mbps": 64.0, "slots": 1},
        ]
    )
    app, blocks, tasks, w = build_workload(128, rf=2, gcycles_per_mb=1.0 / 64)
    plan = place_rack_aware(g, blocks, "a", rf=2)
    schedule = {tasks[0].id: "a", tasks[1].id: "b"}
    ta = true_service_time(g.node("a"), tasks[0])
    tb = true_service_time(g.node("b"), tasks[1])
    trace = simulate(g, plan, schedule, w, RuntimeConfig())
    assert trace.metrics.completion_time_s == pytest.approx(max(ta, tb))


def test_remote_task_pays_transfer_before_compute():
    g = make_cluster(
        [
            {"id": "a", "rack": "r1", "cpu_ghz": 1.0, "io_mbps": 64.0, "slots": 1, "uplink_mbps": 32},
            {"id": "b", "rack": "r1", "cpu_ghz": 1.0, "io_mbps": 64.0, "slots": 1, "uplink_mbps": 32},
        ],
        intra_ms=0.0,
    )
    app, blocks, tasks, w = build_workload(64, gcycles_per_mb=1.0 / 64)
    plan = place_rack_aware(g, blocks, "a", rf=1)
    local = simulate(g, plan, {tasks[0].id: "a"}, w, RuntimeConfig())
    remote = simulate(g, plan, {tasks[0].id: "b"}, w, RuntimeConfig())
    # the 64 MB @ 32 MB/s fetch is added serially ahead of execution
    assert remote.metrics.completion_time_s == pytest.approx(
        local.metrics.completion_time_s + 2.0
    )
    assert remote.metrics.network_mb == 64.0
    assert remote.metrics.locality_ratio == 0.0


def test_fair_share_splits_link_bandwidth():
    # both tasks fetch from the same source uplink concurrently -> each
    # sees half of the 32 MB/s bottleneck at start
    g = make_cluster(
        [
            {"id": "src", "rack": "r1", "cpu_ghz": 4.0, "io_mbps": 400.0, "slots": 2, "uplink_mbps": 32},
            {"id": "w1", "rack": "r1", "cpu_ghz": 4.0, "io_mbps": 400.0, "slots": 1, "uplink_mbps": 500},
            {"id": "w2", "rack": "r1", "cpu_ghz": 4.0, "io_mbps": 400.0, "slots": 1, "uplink_mbps": 500},
        ]
    )
    app, blocks, tasks, w = build_workload(128, gcycles_per_mb=0.001)
    plan = place_rack_aware(g, blocks, "src", rf=1)
    trace = simulate(
        g, plan, {tasks[0].id: "w1", tasks[1].id: "w2"}, w, RuntimeConfig()
    )
    finishes = [e.time for e in trace.events if e.kind == "finish"]
    # second transfer started while the first was active: 64/(32/2) = 4 s
    assert max(finishes) >= 4.0


@pytest.mark.parametrize("dst", ["b", "c"], ids=["intra-rack", "inter-rack"])
def test_colony_prices_a_fetch_as_the_simulator_charges_it(dst):
    # one 64 MB fetch over 125 MB/s links with 5 ms / 15 ms rack latency:
    # the colony's price, `price_cells`' access plus extras, is the gap between the transfer and
    # the compute in the simulated run (0.517 s and 0.527 s)
    g = make_cluster(
        [("a", "r0", 1.0, 64.0), ("b", "r0", 1.0, 64.0), ("c", "r1", 1.0, 64.0)],
        intra_ms=5.0, inter_ms=15.0,
    )
    app, blocks, tasks, w = build_workload(64, gcycles_per_mb=1.0 / 64)
    plan = place_rack_aware(g, blocks, "a", rf=1)
    i = np.array([g.paths.index[dst]])
    access, xtra_delay, _, _ = price_cells(g, plan, tasks, i, np.zeros(1, dtype=int))
    price = access[0] + xtra_delay[0]
    trace = simulate(g, plan, {tasks[0].id: dst}, w, RuntimeConfig())
    sent = next(e.time for e in trace.events if e.kind == "transfer")
    gap = trace.metrics.completion_time_s - sent - true_service_time(g.node(dst), tasks[0])
    assert abs(price - gap) < 1e-12
    assert price == pytest.approx(0.517 if dst == "b" else 0.527)


def reference_fetch(g, demand_flows, dst, reps, mb):
    """The simulator's fetch rule as it was before the route data moved to
    the path table: each replica priced by a generator over its route's
    (endpoints, MB/s) links, the extras read from the table, and the least
    (seconds, src, links) tuple taken."""
    paths = g.paths
    hops = {}
    for nid in g.node_ids():
        rack = g.rack_of(nid)
        up, core = g.uplinks[nid], g.core_links[rack]
        hops[nid] = (up.endpoints, up.bandwidth_mbps), (core.endpoints, core.bandwidth_mbps), rack

    def transfer(src, dst, mb):
        up_d, core_d, rack_d = hops[dst]
        up_s, core_s, rack_s = hops[src]
        links = (up_d, up_s) if rack_d == rack_s else (up_d, core_d, core_s, up_s)
        rate = min(bw / (demand_flows.get(k, 0) + 1) for k, bw in links)
        return mb / rate + float(paths.extras_s[paths.index[dst], paths.index[src]]), src, links

    return min(transfer(r, dst, mb) for r in reps)


def link_endpoints(g):
    """Link id -> the (endpoints, MB/s) pair the reference names it by."""
    out = {}
    for nid, route in g.paths.routes.items():
        up, core = g.uplinks[nid], g.core_links[g.rack_of(nid)]
        out[route.up] = (up.endpoints, up.bandwidth_mbps)
        out[route.core] = (core.endpoints, core.bandwidth_mbps)
    return out


@settings(max_examples=300, deadline=None)
@given(
    n_nodes=st.integers(2, 8),
    n_racks=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_fair_share_fetch_equals_the_reference_rule(n_nodes, n_racks, seed, data):
    # racks, per-node uplink and per-rack core overrides drawn from a few
    # values, so that prices tie, per-link queue delays and tier latencies
    # that round differently when summed in another order, active flows on
    # any link, and replicas in any order: one loop over the replicas gives
    # the reference's (seconds, source, links) bit for bit
    rng = np.random.default_rng(seed)

    def odd(*nice):
        return float(rng.choice([*nice, rng.uniform(0.0, 0.01)]))

    speeds = st.sampled_from([50.0, 125.0, 125.0, 250.0])
    g = make_cluster(
        [{"id": f"n{i}", "rack": f"r{i % n_racks}", "cpu_ghz": 2.0, "io_mbps": 200.0,
          "uplink_mbps": data.draw(speeds)} for i in range(n_nodes)],
        intra_ms=1e3 * odd(0.0, 0.001), inter_ms=1e3 * odd(0.0, 0.015),
        rack_core_mbps={f"r{k}": data.draw(speeds) for k in range(n_racks)},
    )
    g = replace(
        g,
        uplinks={nid: replace(l, base_queue_delay_s=odd(0.0, 0.0005)) for nid, l in g.uplinks.items()},
        core_links={r: replace(l, base_queue_delay_s=odd(0.0, 0.0005)) for r, l in g.core_links.items()},
    )
    endpoints = link_endpoints(g)
    flows = [data.draw(st.sampled_from([0, 0, 1, 2, 5])) for _ in range(g.paths.link_count)]
    demand_flows = {endpoints[k][0]: f for k, f in enumerate(flows) if f}
    dst = data.draw(st.sampled_from(g.node_ids()))
    others = [nid for nid in g.node_ids() if nid != dst]
    reps = tuple(data.draw(st.permutations(others))[:data.draw(st.integers(1, min(3, len(others))))])
    # a small block leaves the extras' last bits visible in the seconds
    mb = data.draw(st.sampled_from([32.0, 64.0, 64.5, 1e-4]))

    seconds, src, links = g.paths.fair_share_fetch(dst, reps, mb, flows)
    assert (seconds, src, tuple(endpoints[k] for k in links)) == reference_fetch(
        g, demand_flows, dst, reps, mb)
    # uncontended, a fetch costs the path table's price, and an empty one
    # its extras, bit for bit
    idle = [0] * g.paths.link_count
    p = g.paths
    for r in others:
        assert p.fair_share_fetch(dst, (r,), mb, idle)[0] == p.seconds(dst, r, mb)
        assert p.fair_share_fetch(dst, (r,), 0.0, idle)[0] == p.extras_s[p.index[dst], p.index[r]]


def test_fair_share_fetch_breaks_a_tie_by_replica_id():
    # b and c share dst's rack and have equal uplinks: equal prices, and in
    # either order the lower id serves
    g = make_cluster([("a", "r0", 2.0, 200.0), ("b", "r0", 2.0, 200.0), ("c", "r0", 2.0, 200.0)],
                     intra_ms=1.0)
    flows = [0] * g.paths.link_count
    for reps in (("b", "c"), ("c", "b")):
        seconds, src, _ = g.paths.fair_share_fetch("a", reps, 64.0, flows)
        assert src == "b" and seconds == g.paths.seconds("a", "c", 64.0)
    # a flow on b's uplink halves its share: c now serves
    flows[g.paths.routes["b"].up] = 1
    assert g.paths.fair_share_fetch("a", ("b", "c"), 64.0, flows)[1] == "c"


# --- queue estimates ------------------------------------------------------


def test_remaining_time_empty_queue():
    assert node_rt().remaining(0.0) == 0.0


def test_remaining_time_running_block():
    q = node_rt(running=(0.0, 8.0, 64.0), rate=16.0)  # half done at t=4
    assert q.remaining(4.0) == pytest.approx(2.0)


def test_remaining_time_adds_pending():
    q = node_rt(pending=(32.0,), running=(0.0, 8.0, 64.0), rate=16.0)
    assert q.remaining(4.0) == pytest.approx(4.0)


def test_remaining_time_bootstraps_before_first_completion():
    q = node_rt(pending=(50.0,), rate=0.0, bootstrap=25.0)
    assert q.remaining(0.0) == pytest.approx(2.0)


@settings(max_examples=300, deadline=None)
@given(
    running=st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0) | st.just(math.inf),
                               st.floats(0.0, 256.0)), max_size=4),
    pending=st.lists(st.floats(0.0, 256.0), max_size=10),
    rate=st.floats(0.0, 500.0),
    now=st.floats(0.0, 20.0),
)
def test_remaining_bound_is_never_below_the_remaining_time(running, pending, rate, now):
    # the bound a round ranks victims by must hold in floats, not only in
    # real arithmetic, or a victim could be ranked below where it belongs
    q = node_rt(pending=pending, rate=rate)
    for k, (start, span, mb) in enumerate(running):
        start = min(start, now)
        q.running[f"r{k}"] = (start, start + span, mb)
    assert q.remaining(now) <= q.remaining_bound()


@settings(max_examples=500, deadline=None)
@given(
    running=st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0) | st.just(math.inf),
                               st.floats(0.0, 256.0), st.floats(0.0, 1.0), st.floats(1e-3, 10.0)),
                     max_size=5),
    pending=st.lists(st.floats(0.0, 256.0), max_size=10),
    rate=st.floats(0.0, 500.0),
    t1=st.floats(0.0, 20.0),
    dt=st.floats(0.0, 20.0) | st.sampled_from([0.0, 1e-9]),
)
def test_an_exact_remaining_time_bounds_every_later_one(running, pending, rate, t1, dt):
    # a victim ranked by its exact time at t1 keeps that key while its
    # queue and running set are unchanged, so the key must hold in floats
    # at every later `now`, also once a fetch (finish inf) turns into
    # compute with a known finish, as `begin_compute` does; the sums are
    # `sum()`, compensated from Python 3.12, so this is not obvious there
    t2 = t1 + dt
    q = node_rt(pending=pending, rate=rate)
    fetched = {}
    for k, (start, span, mb, at, service) in enumerate(running):
        start = min(start, t1)
        q.running[f"r{k}"] = (start, start + span, mb)
        if span == math.inf:
            fetched[f"r{k}"] = min(max(start, t1 + at * dt), t2) + service
    exact = q.remaining(t1)
    assert exact <= q.remaining_bound()
    assert q.remaining(t2) <= exact
    for tid, finish in fetched.items():
        start, _, mb = q.running[tid]
        q.running[tid] = (start, finish, mb)
    assert q.remaining(t2) <= exact <= q.remaining_bound()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_victim_ranking_matches_brute_force(data):
    # random queue, start, fetch, finish and take operations on a few nodes
    # with equal rates and two block sizes (so remaining times tie), one
    # with no rate (so its remaining time is infinite); each answer must
    # be the first 3 of an exact ranking of every loaded node, ties by id
    ids = [f"n{i}" for i in range(data.draw(st.integers(1, 7)))]
    nodes = {nid: _NodeRt(None, (lambda r: lambda _: r)(data.draw(st.sampled_from([0.0, 16.0, 16.0, 32.0]))))
             for nid in ids}
    loaded: set[str] = set()
    victims = _Victims(nodes, loaded)
    serial = itertools.count()
    now, stale = 0.0, True  # stale: an unmarked change or a new `now` since the last round

    def settle(nid):
        (loaded.add if nodes[nid].pending else loaded.discard)(nid)
        victims.marked.add(nid)

    for _ in range(data.draw(st.integers(1, 40))):
        op = data.draw(st.sampled_from(["queue", "start", "fetched", "finish", "take", "advance", "ask"]))
        nid = data.draw(st.sampled_from(ids))
        state = nodes[nid]
        if op == "queue":
            mb = data.draw(st.sampled_from([32.0, 64.0]))
            state.queue(TaskSpec(f"t{next(serial)}", "b", mb, 0.5, 1.0))
            settle(nid)
        elif op == "start" and state.pending:
            task = state.take()
            span = data.draw(st.sampled_from([1.0, 2.0, math.inf]))
            state.running[task.id] = (now, now + span, task.block_mb)
            settle(nid)
        elif op == "fetched" and state.running:
            # a fetch's finish becomes known: no mark, as in `begin_compute`
            tid = data.draw(st.sampled_from(sorted(state.running)))
            start, finish, mb = state.running[tid]
            if finish == math.inf:
                state.running[tid] = (start, now + data.draw(st.sampled_from([0.5, 1.0])), mb)
                stale = True
        elif op == "finish" and state.running:
            state.finish(data.draw(st.sampled_from(sorted(state.running))), now)
            settle(nid)
        elif op == "take" and state.pending:
            state.take(data.draw(st.integers(0, len(state.pending) - 1)))
            settle(nid)
        elif op == "advance":
            now += data.draw(st.sampled_from([0.0, 0.25, 1.0, 3.0]))
            stale = True
        elif op == "ask":
            if stale or data.draw(st.booleans()):
                victims.begin_round()
                stale = False
            expected = sorted((-nodes[n].remaining(now), n) for n in loaded)[:3]
            assert [entry[:2] for entry in victims.top(now)] == expected


# --- the steal pick ------------------------------------------------------


def hand_built(nodes, home, block_mb=None, slots=None, migration=True):
    """One-rack cluster of `nodes` (id, cpu_ghz, io_mbps), one slot each
    unless `slots` (node id -> slots) says otherwise, and len(`home`) tasks
    of 64 MB (`block_mb`: task index -> MB), task k queued on and stored at
    home[k]."""
    g = make_cluster(
        [{"id": nid, "rack": "r1", "cpu_ghz": cpu, "io_mbps": io, "slots": (slots or {}).get(nid, 1)}
         for nid, cpu, io in nodes],
        intra_ms=1.0,
    )
    app, blocks, tasks, _ = build_workload(len(home) * 64)
    for k, mb in (block_mb or {}).items():
        tasks[k] = replace(tasks[k], block_mb=mb)
    w = Workload(apps=(app,), blocks=tuple(blocks), tasks=tuple(tasks), arrivals={t.id: 0.0 for t in tasks})
    plan = PlacementPlan({t.block_id: (nid,) for t, nid in zip(tasks, home)}, "hand")
    schedule = {t.id: nid for t, nid in zip(tasks, home)}
    return simulate(g, plan, schedule, w, RuntimeConfig(enable_migration=migration))


def test_idle_node_steals_from_a_loaded_one():
    # six tasks queue on a slow one-slot node with a 4x faster empty node
    # beside it: the idle node is the fastest relief and must take work
    nodes, home = [("s", 0.5, 50.0), ("f", 2.0, 200.0)], ["s"] * 6
    on = hand_built(nodes, home)
    off = hand_built(nodes, home, migration=False)
    assert off.metrics.completion_time_s == pytest.approx(46.08)
    assert on.metrics.migrations >= 1
    assert on.metrics.completion_time_s < off.metrics.completion_time_s
    assert {e.node_id for e in on.events if e.kind == "migrate"} == {"f"}


def test_greedy_pick_moves_the_largest_improvement():
    # t0-t5 queue on the slow node s, with the 32 MB t5 smallest; a and b are
    # idle and equal. When t0 finishes, t5 has the least predicted time on
    # either thief, so the largest gain, and the tie between the thieves
    # goes to a; then b takes t2, the first of the equal t2-t4 by task id
    trace = hand_built(
        [("s", 0.5, 50.0), ("a", 2.0, 200.0), ("b", 2.0, 200.0)],
        ["s"] * 6,
        block_mb={5: 32.0},
    )
    first_finish = next(e.time for e in trace.events if e.kind == "finish")
    steals = [(e.task_id, e.node_id, e.info) for e in trace.events
              if e.kind == "migrate" and e.time == first_finish]
    assert steals == [("app0/t5", "a", "from=s"), ("app0/t2", "b", "from=s")]


def test_steal_prefers_a_thief_in_the_victims_rack():
    # two idle, equally fast thieves: a in the other rack has the lower id,
    # but b shares the slow victim's rack, so its fetch is 10 ms cheaper
    g = make_cluster(
        [{"id": nid, "rack": rack, "cpu_ghz": cpu, "io_mbps": io, "slots": 1}
         for nid, rack, cpu, io in (("a", "r0", 2.0, 200.0), ("b", "r1", 2.0, 200.0),
                                    ("s", "r1", 0.5, 50.0))],
        intra_ms=5.0, inter_ms=15.0,
    )
    app, blocks, tasks, w = build_workload(6 * 64)
    plan = PlacementPlan({blk.id: ("s",) for blk in blocks}, "hand")
    trace = simulate(g, plan, {t.id: "s" for t in tasks}, w, RuntimeConfig(enable_migration=True))
    steals = [(e.node_id, e.info) for e in trace.events if e.kind == "migrate"]
    assert steals[0] == ("b", "from=s")


def test_no_valid_candidate_moves_nothing():
    # two equal nodes with equal local queues drain together: neither is
    # ever idle while the other still has a pending task
    trace = hand_built([("a", 2.0, 200.0), ("b", 2.0, 200.0)], ["a", "b"] * 5)
    assert trace.metrics.migrations == 0
    assert not [e for e in trace.events if e.kind == "migrate"]


def deep_queue_case():
    """Deep queues (10 tasks per one-slot node) with one node slowed 4x
    after scheduling: the slow node sheds work and the others take it."""
    g = make_cluster(
        [
            {"id": f"n{i}", "rack": f"r{i % 2}", "cpu_ghz": 2.0, "io_mbps": 200.0, "slots": 1}
            for i in range(6)
        ]
    )
    app, blocks, tasks, w = build_workload(60 * 64, rf=2)
    plan = place_random(g, blocks, rf=2, seed=0)
    schedule = {t.id: f"n{k % 6}" for k, t in enumerate(tasks)}
    view = inject_stragglers(g, 0.2, 4.0, seed=0)
    return view, plan, schedule, w, RuntimeConfig(enable_migration=True)


def arrivals_case():
    """Eight nodes in two racks with one or two slots, 48 tasks at RF 2
    arriving as a Poisson stream at 4 per second, and a quarter of the
    nodes 4x slow."""
    g = make_cluster(
        [
            {"id": f"n{i}", "rack": f"r{i % 2}", "cpu_ghz": 1.0 + 0.5 * (i % 3),
             "io_mbps": 100.0 + 50.0 * (i % 4), "slots": 1 + i % 2}
            for i in range(8)
        ],
        intra_ms=1.0,
        inter_ms=5.0,
    )
    app, blocks, tasks, _ = build_workload(48 * 64, rf=2)
    rng = np.random.default_rng(11)
    arrivals = dict(zip((t.id for t in tasks), np.cumsum(rng.exponential(0.25, len(tasks))).tolist()))
    w = Workload(apps=(app,), blocks=tuple(blocks), tasks=tuple(tasks), arrivals=arrivals)
    plan = place_random(g, blocks, rf=2, seed=3)
    schedule = {t.id: f"n{(3 * k) % 8 // 2}" for k, t in enumerate(tasks)}
    view = inject_stragglers(g, 0.25, 4.0, seed=2)
    return view, plan, schedule, w, RuntimeConfig(enable_migration=True)


def ranking_heavy_case():
    """The scale probe's input at 60 nodes x 300 tasks, seed 7: 64 MB
    blocks at RF 2 placed by earliest-finish primaries, each task on its
    block's primary, and 10% of the nodes 4x slow after scheduling. Many
    loaded nodes hold similar queues, so a round ranks most of them by
    their exact remaining times before it knows its top 3."""
    g = build_cluster(synthetic_cluster_config(60))
    w = _single_app_workload(300 * 64.0, 64.0, 2, ExperimentConfig(), 7)
    model = TrueTimeModel()
    plan = place_heterogeneous(g, list(w.blocks), model, {app.id: app.replication_factor for app in w.apps})
    schedule = local_first(list(w.tasks), g, plan, model).assignment
    view = inject_stragglers(g, 0.1, 4.0, 7)
    return view, plan, schedule, w, RuntimeConfig(enable_migration=True)


def test_migration_cap_per_round_enforced():
    # a six-slot thief beside a deep slow queue has the slots to take more,
    # so the per-thief cap is what stops it
    trace = hand_built(
        [("s", 0.5, 50.0), ("f", 2.0, 200.0)], ["s"] * 12, slots={"f": 6}
    )
    # a round is the migrations that follow one finish event
    rounds, taken = [], {}
    for e in trace.events:
        if e.kind == "finish":
            rounds.append(taken)
            taken = {}
        elif e.kind == "migrate":
            taken[e.node_id] = taken.get(e.node_id, 0) + 1
    rounds.append(taken)
    assert max(max(t.values(), default=0) for t in rounds) == THETA_MIG


def sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "case, events_sha, metrics_sha, runtime_counts",
    [
        (deep_queue_case, "528c5a876bf4f306", "82240845223bb3d8",
         {"rounds": 60, "picks": 6, "candidates": 22, "moves": 6, "no_gain": 0}),
        (arrivals_case, "2556127ee2650733", "caa993ffab304214",
         {"rounds": 48, "picks": 28, "candidates": 190, "moves": 26, "no_gain": 11}),
        (ranking_heavy_case, "8f3b151336b9863b", "8862c88b97094c54",
         {"rounds": 300, "picks": 84, "candidates": 776, "moves": 58, "no_gain": 452}),
    ],
    ids=["deep_queue_case", "arrivals_case", "ranking_heavy_case"],
)
def test_adaptive_trace_is_pinned(case, events_sha, metrics_sha, runtime_counts):
    # the ground-truth model is pure-Python arithmetic, so these hashes do
    # not depend on the host's BLAS; a change to the runtime that is meant
    # to keep outputs must keep them, and the decision counts with them
    trace = simulate(*case())
    assert trace.metrics.migrations > 0
    check_steals(trace)
    assert (sha(trace.events), sha(trace.metrics)) == (events_sha, metrics_sha)
    assert trace.runtime_counts == runtime_counts


def remote_heavy_case(baseline, sync_delay_s=0.0):
    """Ten nodes in two racks with mixed uplinks, a slower core link on r1
    and per-link queue delays; 40 tasks at RF 2 placed rack-aware from
    client n0, so most fetches leave n0's rack and start together on
    shared links: both the fair-share rate and the replica choice matter.
    `baseline` assigns the tasks from ground-truth predictions; migration
    is off."""
    g = make_cluster(
        [
            {"id": f"n{i}", "rack": f"r{i % 2}", "cpu_ghz": 1.0 + 0.5 * (i % 3),
             "io_mbps": 100.0 + 50.0 * (i % 4), "slots": 1 + i % 2,
             "uplink_mbps": (50.0, 125.0, 250.0)[i % 3]}
            for i in range(10)
        ],
        intra_ms=1.0,
        inter_ms=5.0,
        rack_core_mbps={"r1": 80.0},
        link_queue_delay_ms=0.5,
    )
    app, blocks, tasks, w = build_workload(40 * 64, rf=2)
    plan = place_rack_aware(g, blocks, "n0", rf=2)
    sol = baseline(tasks, g, plan, TrueTimeModel())
    return g, plan, sol.assignment, w, RuntimeConfig(sync_delay_s=sync_delay_s)


@pytest.mark.parametrize(
    "case, events_sha, metrics_sha",
    [
        (lambda: remote_heavy_case(baseline_round_robin), "675ee9dcdc6118d6", "3ef52c461e7eed24"),
        (lambda: remote_heavy_case(baseline_rf_fd), "e3eac203a60c54bb", "7d94e20542e5347e"),
        (lambda: remote_heavy_case(baseline_rsync, RSYNC_SYNC_DELAY_S), "1829152da60ab9b7",
         "850509dd5841f210"),
    ],
    ids=["rr", "rf-fd", "rsync"],
)
def test_remote_heavy_trace_is_pinned(case, events_sha, metrics_sha):
    # the engine without migration, where most starts are contended remote
    # fetches: pins each fetch's replica, rate and time as well as the
    # rsync delay; recorded before the engine's fetch pricing was rewritten
    trace = simulate(*case())
    assert trace.metrics.locality_ratio < 0.5 and trace.metrics.migrations == 0
    assert (sha(trace.events), sha(trace.metrics)) == (events_sha, metrics_sha)
    assert trace.runtime_counts == dict.fromkeys(("rounds", "picks", "candidates", "moves", "no_gain"), 0)


class CountingModel:
    """Predictor wrapper that counts its `predict` and `predict_matrix` calls."""

    def __init__(self, model):
        self.model = model
        self.calls = {"predict": 0, "predict_matrix": 0}

    def predict(self, node, task):
        self.calls["predict"] += 1
        return self.model.predict(node, task)

    def predict_matrix(self, nodes, tasks):
        self.calls["predict_matrix"] += 1
        return self.model.predict_matrix(nodes, tasks)


@pytest.mark.parametrize("case", [deep_queue_case, arrivals_case])
def test_simulate_reads_one_prediction_table(case):
    # the bootstrap rates and every steal's predicted time read one table
    counted = CountingModel(TrueTimeModel())
    trace = simulate(*case(), predictor=counted)
    assert trace.metrics.migrations > 0
    assert counted.calls == {"predict": 0, "predict_matrix": 1}
    assert trace == simulate(*case())


def test_prediction_table_is_built_only_for_a_steal_round():
    # the table and the bootstrap rates are read only by a steal round: a
    # run without migration, or whose rounds never find a pending task,
    # asks for no prediction
    for case in (deep_queue_case, arrivals_case):
        view, plan, schedule, w, _ = case()
        off = CountingModel(TrueTimeModel())
        trace = simulate(view, plan, schedule, w, RuntimeConfig(), predictor=off)
        assert off.calls["predict_matrix"] == 0
        assert trace == simulate(view, plan, schedule, w, RuntimeConfig())
    # one task per one-slot node: rounds run, but none has a pending task
    g = make_cluster(
        [{"id": f"n{i}", "rack": f"r{i % 2}", "cpu_ghz": 1.0 + i, "io_mbps": 100.0, "slots": 1}
         for i in range(4)]
    )
    app, blocks, tasks, w = build_workload(4 * 64, rf=2)
    plan = place_random(g, blocks, rf=2, seed=0)
    schedule = {t.id: f"n{k}" for k, t in enumerate(tasks)}
    idle = CountingModel(TrueTimeModel())
    trace = simulate(g, plan, schedule, w, RuntimeConfig(enable_migration=True), predictor=idle)
    assert trace.runtime_counts["rounds"] == 4
    assert idle.calls["predict_matrix"] == 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), migration=st.booleans())
def test_prediction_table_built_at_most_once_per_run(seed, migration):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    g = make_cluster(
        [{"id": f"n{i}", "rack": f"r{i % 2}", "cpu_ghz": float(rng.choice([0.5, 1.0, 2.0])),
          "io_mbps": float(rng.choice([50.0, 100.0, 200.0])), "slots": int(rng.integers(1, 3))}
         for i in range(n)]
    )
    app, blocks, tasks, w = build_workload(int(rng.integers(1, 25)) * 64, rf=2)
    plan = place_random(g, blocks, rf=2, seed=seed)
    schedule = {t.id: f"n{int(rng.integers(0, n))}" for t in tasks}
    counted = CountingModel(TrueTimeModel())
    cfg = RuntimeConfig(enable_migration=migration)
    trace = simulate(g, plan, schedule, w, cfg, predictor=counted)
    assert counted.calls["predict_matrix"] <= int(migration)
    assert counted.calls["predict_matrix"] <= int(trace.runtime_counts.get("picks", 0) > 0)
    assert trace == simulate(g, plan, schedule, w, cfg)


def test_run_without_migration_keeps_no_victim_ranking(monkeypatch):
    # the victim heap and its marks are the steal rule's: a run with
    # migration off must not build them
    def refuse(*_):
        raise AssertionError("a run without migration built a victim ranking")

    monkeypatch.setattr(_Victims, "__init__", refuse)
    for case in (deep_queue_case, arrivals_case, ranking_heavy_case):
        view, plan, schedule, w, _ = case()
        assert simulate(view, plan, schedule, w, RuntimeConfig()).metrics.migrations == 0


def test_round_without_pending_tasks_reads_no_node_state(monkeypatch):
    # one task per one-slot node: no task ever waits, so every round must
    # stop at its pending check before scanning any node's remaining time
    g = make_cluster(
        [{"id": f"n{i}", "rack": f"r{i % 2}", "cpu_ghz": 1.0 + i, "io_mbps": 100.0, "slots": 1}
         for i in range(4)]
    )
    app, blocks, tasks, w = build_workload(4 * 64, rf=2)
    plan = place_random(g, blocks, rf=2, seed=0)
    schedule = {t.id: f"n{k}" for k, t in enumerate(tasks)}
    calls = {"remaining": 0}
    real = _NodeRt.remaining

    def counting(self, now):
        calls["remaining"] += 1
        return real(self, now)

    monkeypatch.setattr(_NodeRt, "remaining", counting)
    trace = simulate(g, plan, schedule, w, RuntimeConfig(enable_migration=True))
    assert trace.runtime_counts["rounds"] == 4 and trace.runtime_counts["picks"] == 0
    assert calls["remaining"] == 0


def test_round_without_a_free_slot_reads_no_node_state(monkeypatch):
    # two equal one-slot nodes drain equal local queues in lockstep: every
    # round has queued tasks but no free slot, or a free slot but nothing
    # queued, so none may rank a victim or score a pick
    calls = {"remaining": 0}
    real = _NodeRt.remaining

    def counting(self, now):
        calls["remaining"] += 1
        return real(self, now)

    monkeypatch.setattr(_NodeRt, "remaining", counting)
    trace = hand_built([("a", 2.0, 200.0), ("b", 2.0, 200.0)], ["a", "b"] * 5)
    assert trace.runtime_counts["rounds"] == 10 and trace.runtime_counts["picks"] == 0
    assert calls["remaining"] == 0


def scalar_pick(victims, thieves, pred):
    """The steal pick as a loop over every (task, thief) pair: the least
    (-gain, task id, thief, victim) over the positive gains, or None, and
    the count of pairs whose gain is not positive."""
    moves, no_gain = [], 0
    for rem, victim, task_ids in victims:
        for tid in task_ids:
            for thief in thieves:
                gain = rem - pred[tid, thief]
                if gain > 0:
                    moves.append((-gain, tid, thief, victim))
                else:
                    no_gain += 1
    return (min(moves) if moves else None), no_gain


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_pick_steal_matches_a_scalar_loop(data):
    # few distinct values force equal gains, non-positive ones and an
    # infinite remaining time; ids like n10 < n2 and app0/t10 < app0/t2
    # order as strings, as node and task ids do
    thieves = sorted(data.draw(st.sets(st.sampled_from([f"n{i}" for i in range(12)]),
                                       min_size=1, max_size=6)))
    queues = data.draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
    ids = iter(data.draw(st.permutations([f"app0/t{i}" for i in range(24)])))
    victims = [(data.draw(st.sampled_from([0.5, 1.0, 2.0, 3.0, math.inf])), f"v{k}",
                [next(ids) for _ in range(size)]) for k, size in enumerate(queues)]
    pred = {(tid, thief): data.draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
            for _, _, task_ids in victims for tid in task_ids for thief in thieves}
    # the priced rows as the simulator reads them: one memoryview per
    # thief over every task, app0/t{j} in table column j
    rows = sorted((tid, rem, victim) for rem, victim, task_ids in victims for tid in task_ids)
    priced = [memoryview(np.array([pred.get((f"app0/t{j}", thief), 0.0) for j in range(24)]))
              for thief in thieves]
    pick, no_gain = pick_steal(
        [rem for _, rem, _ in rows], [int(tid.split("/t")[1]) for tid, _, _ in rows], priced
    )
    best, expected_no_gain = scalar_pick(victims, thieves, pred)
    assert no_gain == expected_no_gain
    if best is None:
        assert pick is None
    else:
        tid, _, victim = rows[pick[0]]
        assert (tid, thieves[pick[1]], victim) == best[1:]


def test_runtime_counts_explain_the_run():
    view, plan, schedule, w, cfg = deep_queue_case()
    trace = simulate(view, plan, schedule, w, cfg)
    on = trace.runtime_counts
    assert on["moves"] == trace.metrics.migrations > 0
    assert on["rounds"] == len(w.tasks)  # one round per completion
    assert on["moves"] <= on["picks"] <= on["candidates"]
    assert on["no_gain"] <= on["candidates"]
    off = simulate(view, plan, schedule, w, RuntimeConfig()).runtime_counts
    assert off == dict.fromkeys(("rounds", "picks", "candidates", "moves", "no_gain"), 0)


# --- stragglers -------------------------------------------------------------


def test_inject_stragglers_identity_at_zero(two_rack_cluster):
    assert inject_stragglers(two_rack_cluster, 0.0, 4.0, seed=1) is two_rack_cluster


def test_straggler_doubles_local_task_time():
    g = make_cluster(
        [{"id": "n0", "rack": "r1", "cpu_ghz": 1.0, "io_mbps": 64.0, "slots": 1}]
    )
    app, blocks, tasks, w = build_workload(64, gcycles_per_mb=1.0 / 64)
    plan = place_rack_aware(g, blocks, "n0", rf=1)
    base = simulate(g, plan, {tasks[0].id: "n0"}, w, RuntimeConfig())
    slowed = inject_stragglers(g, 0.6, 2.0, seed=1)  # the single node slows
    assert slowed.node("n0").cpu_ghz == pytest.approx(0.5)
    hit = simulate(slowed, plan, {tasks[0].id: "n0"}, w, RuntimeConfig())
    assert hit.metrics.completion_time_s == pytest.approx(
        2 * base.metrics.completion_time_s
    )


def test_straggler_view_keeps_its_parents_path_table():
    # slowing nodes changes no link, so the view reuses the parent's fetch
    # prices, which equal a fresh build; scaling the links rebuilds them
    g = build_cluster(synthetic_cluster_config(20))
    view = inject_stragglers(g, 0.2, 4.0, seed=5)
    assert view.nodes != g.nodes
    assert view.paths is g.paths
    fresh = PathTable.build(view)
    for name in ("bandwidth", "extras_s", "cost_per_mb"):
        assert getattr(fresh, name).tobytes() == getattr(g.paths, name).tobytes()
    assert scale_bandwidth(g, 0.5).paths is not g.paths
    # the simulator's per-link route data lives with the table: the view
    # shares it, and scaling the links rebuilds it at the new bandwidth
    assert view.paths.routes is g.paths.routes
    assert fresh.routes == g.paths.routes
    scaled = scale_bandwidth(g, 0.5)
    assert scaled.paths.routes is not g.paths.routes
    for nid, route in g.paths.routes.items():
        half = scaled.paths.routes[nid]
        assert (half.up_mbps, half.core_mbps) == (route.up_mbps * 0.5, route.core_mbps * 0.5)
        assert half._replace(up_mbps=0.0, core_mbps=0.0) == route._replace(up_mbps=0.0, core_mbps=0.0)


def test_inject_stragglers_validation(two_rack_cluster):
    with pytest.raises(ValueError, match="fraction"):
        inject_stragglers(two_rack_cluster, 1.0, 2.0, seed=0)
    # a NaN or infinite slowdown would give the slowed nodes NaN or 0 GHz
    for slowdown in (1.0, 0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="slowdown must be > 1 and finite"):
            inject_stragglers(two_rack_cluster, 0.5, slowdown, seed=0)


# --- trace invariants -------------------------------------------------------


def run_random_instance(seed, migration=False):
    g = make_cluster(
        [
            {"id": f"n{i}", "rack": f"r{i % 2}", "cpu_ghz": 1.0 + i, "io_mbps": 100.0 * (i + 1), "slots": 1 + i % 2}
            for i in range(4)
        ],
        intra_ms=1.0,
        inter_ms=5.0,
    )
    app, blocks, tasks, w = build_workload(640, rf=2, gcycles_per_mb=0.05)
    plan = place_random(g, blocks, rf=2, seed=seed)
    rng = np.random.default_rng(seed)
    ids = sorted(g.nodes)
    schedule = {t.id: ids[int(rng.integers(0, 4))] for t in tasks}
    cfg = RuntimeConfig(enable_migration=migration)
    return g, plan, tasks, w, simulate(g, plan, schedule, w, cfg)


def test_event_times_non_decreasing_and_single_finish():
    for seed in range(5):
        _, _, tasks, _, trace = run_random_instance(seed, migration=True)
        times = [e.time for e in trace.events]
        assert times == sorted(times)
        finishes = [e.task_id for e in trace.events if e.kind == "finish"]
        assert sorted(finishes) == sorted(t.id for t in tasks)


def test_conservation_of_transferred_bytes():
    # bytes are conserved with and without the adaptive runtime
    for migration, seed in itertools.product((False, True), range(8)):
        g, plan, tasks, w, trace = run_random_instance(seed, migration=migration)
        fetched = 0.0
        finished_at = {}
        for e in trace.events:
            if e.kind == "transfer":
                task = next(t for t in tasks if t.id == e.task_id)
                fetched += task.block_mb
        assert trace.metrics.network_mb == pytest.approx(fetched)
        remote = sum(
            t.block_mb
            for t in tasks
            if next(e.node_id for e in trace.events if e.kind == "finish" and e.task_id == t.id)
            not in plan.replicas(t.block_id)
        )
        assert trace.metrics.network_mb == pytest.approx(remote)


def test_bitwise_determinism():
    _, _, _, _, a = run_random_instance(12, migration=True)
    _, _, _, _, b = run_random_instance(12, migration=True)
    assert a.events == b.events
    assert a.metrics == b.metrics


@settings(max_examples=30, deadline=None)
@given(
    n_nodes=st.integers(2, 7),
    n_racks=st.integers(1, 3),
    n_tasks=st.integers(1, 24),
    rf=st.integers(1, 3),
    arrival_rate=st.floats(0.2, 20.0),
    slow_frac=st.sampled_from([0.0, 0.25, 0.5]),
    seed=st.integers(0, 2**16),
)
def test_simulate_fuzz_invariants(n_nodes, n_racks, n_tasks, rf, arrival_rate, slow_frac, seed):
    # two-tier cluster, Poisson arrivals, stragglers and migration on:
    # every task finishes once, no task starts before it arrives, time never
    # runs backwards, fetched bytes add up, and every steal starts its task
    # on the thief at once, which was idle
    rng = np.random.default_rng(seed)
    g = make_cluster(
        [
            {
                "id": f"n{i}", "rack": f"r{i % n_racks}",
                "cpu_ghz": float(rng.uniform(1.0, 4.0)),
                "io_mbps": float(rng.uniform(50.0, 400.0)),
                "slots": int(rng.integers(1, 3)),
                "uplink_mbps": float(rng.choice([50.0, 125.0, 500.0])),
            }
            for i in range(n_nodes)
        ],
        intra_ms=1.0,
        inter_ms=5.0,
    )
    rf = min(rf, n_nodes)
    app, blocks, tasks, _ = build_workload(n_tasks * 64, rf=rf)
    arrivals = dict(zip((t.id for t in tasks), np.cumsum(rng.exponential(1 / arrival_rate, n_tasks))))
    w = Workload(apps=(app,), blocks=tuple(blocks), tasks=tuple(tasks), arrivals=arrivals)
    plan = place_random(g, blocks, rf=rf, seed=seed)
    ids = sorted(g.nodes)
    schedule = {t.id: ids[int(rng.integers(0, n_nodes))] for t in tasks}
    view = inject_stragglers(g, slow_frac, 4.0, seed)
    trace = simulate(view, plan, schedule, w, RuntimeConfig(enable_migration=True))

    finishes = [e.task_id for e in trace.events if e.kind == "finish"]
    assert sorted(finishes) == sorted(t.id for t in tasks)
    times = [e.time for e in trace.events]
    assert times == sorted(times)
    assert all(e.time >= arrivals[e.task_id] for e in trace.events if e.kind == "start")
    mb = {t.id: t.block_mb for t in tasks}
    fetched = sum(mb[e.task_id] for e in trace.events if e.kind == "transfer")
    assert trace.metrics.network_mb == fetched
    check_steals(trace)


def check_steals(trace):
    """Every `migrate` event is matched by a `start` of the same task on the
    same node at the same time, so the thief had a free slot and the task,
    no longer pending, can never move again: no task moves twice."""
    starts = {(e.time, e.task_id, e.node_id) for e in trace.events if e.kind == "start"}
    moves = [e for e in trace.events if e.kind == "migrate"]
    assert all((e.time, e.task_id, e.node_id) in starts for e in moves)
    moved = [e.task_id for e in moves]
    assert len(moved) == len(set(moved))


def test_locality_ratio_counts_replica_holders():
    g = make_cluster(
        [
            {"id": "a", "rack": "r1", "cpu_ghz": 1.0, "io_mbps": 100.0, "slots": 1},
            {"id": "b", "rack": "r1", "cpu_ghz": 1.0, "io_mbps": 100.0, "slots": 1},
        ]
    )
    app, blocks, tasks, w = build_workload(128, rf=1)
    plan = place_rack_aware(g, blocks, "a", rf=1)
    trace = simulate(
        g, plan, {tasks[0].id: "a", tasks[1].id: "b"}, w, RuntimeConfig()
    )
    assert trace.metrics.locality_ratio == pytest.approx(0.5)


def test_adaptivity_never_slows_completion():
    # spot check; the acceptance suite sweeps 100 seeded instances
    for seed in range(10):
        *_, plain = run_random_instance(seed)
        *_, adaptive = run_random_instance(seed, migration=True)
        assert (
            adaptive.metrics.completion_time_s
            <= plain.metrics.completion_time_s + 1e-9
        )


def test_schedule_validation():
    g = make_cluster([("a", "r1", 1.0, 100.0)])
    app, blocks, tasks, w = build_workload(64)
    plan = place_rack_aware(g, blocks, "a", rf=1)
    with pytest.raises(ValueError, match="unknown task"):
        simulate(g, plan, {"ghost": "a"}, w, RuntimeConfig())
    with pytest.raises(KeyError):
        simulate(g, plan, {tasks[0].id: "nope"}, w, RuntimeConfig())
    with pytest.raises(ValueError, match="does not cover"):
        simulate(g, plan, {}, w, RuntimeConfig())
    # two 64 MB tasks on one node: fits 128 MB of capacity exactly, not 127
    app, blocks, tasks, w = build_workload(128)
    for cap, fits in ((128.0, True), (127.0, False)):
        g = make_cluster([{"id": "a", "rack": "r1", "cpu_ghz": 1.0, "io_mbps": 100.0,
                           "capacity_mb": cap}])
        plan = place_rack_aware(g, blocks, "a", rf=1)
        both = {t.id: "a" for t in tasks}
        if fits:
            simulate(g, plan, both, w, RuntimeConfig())
        else:
            with pytest.raises(ValueError, match="over its 127 MB capacity"):
                simulate(g, plan, both, w, RuntimeConfig())


def test_runtime_config_validation():
    RuntimeConfig(sync_delay_s=0.0).validate()
    with pytest.raises(ValueError, match="sync_delay_s"):
        RuntimeConfig(sync_delay_s=-0.1).validate()


@pytest.mark.parametrize(
    "runtime, message",
    [
        (RuntimeConfig(sync_delay_s=math.nan), "sync_delay_s must be finite and >= 0, got nan"),
        (RuntimeConfig(sync_delay_s=math.inf), "sync_delay_s must be finite and >= 0, got inf"),
    ],
    ids=["nan-sync-delay", "infinite-sync-delay"],
)
def test_simulate_rejects_runtime_settings_it_cannot_honour(runtime, message):
    # a NaN delay used to shorten an rsync run, and an infinite one never ended
    g = build_cluster(synthetic_cluster_config(6))
    app, blocks, tasks, w = build_workload(12 * 64, rf=2)
    plan = place_random(g, blocks, rf=2, seed=0)
    sol = baseline_rsync(tasks, g, plan, TrueTimeModel())
    with pytest.raises(ValueError, match=re.escape(message)):
        simulate(g, plan, sol.assignment, w, runtime)
    # the same run with a setting it can honour completes
    fine = replace(runtime, sync_delay_s=RSYNC_SYNC_DELAY_S)
    assert simulate(g, plan, sol.assignment, w, fine).metrics.tasks == len(tasks)


def test_sync_delay_charged_per_remote_access():
    g = make_cluster(
        [
            {"id": "a", "rack": "r1", "cpu_ghz": 1.0, "io_mbps": 64.0, "slots": 1},
            {"id": "b", "rack": "r1", "cpu_ghz": 1.0, "io_mbps": 64.0, "slots": 1},
        ]
    )
    app, blocks, tasks, w = build_workload(64, gcycles_per_mb=1.0 / 64)
    plan = place_rack_aware(g, blocks, "a", rf=1)
    plain = simulate(g, plan, {tasks[0].id: "b"}, w, RuntimeConfig())
    synced = simulate(
        g, plan, {tasks[0].id: "b"}, w, RuntimeConfig(sync_delay_s=0.25)
    )
    assert synced.metrics.completion_time_s == pytest.approx(
        plain.metrics.completion_time_s + 0.25
    )
