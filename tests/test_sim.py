import hashlib
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sccdso.placement import PlacementPlan, place_rack_aware, place_random
from sccdso.sim import (
    THETA_MIG,
    RuntimeConfig,
    _NodeRt,
    inject_stragglers,
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
    state = _NodeRt(None, bootstrap)
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


def arrivals_blackout_case():
    """Eight nodes in two racks with one or two slots, 48 tasks at RF 2
    arriving as a Poisson stream at 4 per second, a quarter of the nodes 4x
    slow, and node n3's replicas lost at t = 5 s."""
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
    return view, plan, schedule, w, RuntimeConfig(enable_migration=True, replica_blackout=("n3", 5.0))


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
    "case, events_sha, metrics_sha",
    [
        (deep_queue_case, "528c5a876bf4f306", "d84f3d5b3c68a545"),
        (arrivals_blackout_case, "df6d8fbf109a7bf3", "df380eec3f0cfff4"),
    ],
    ids=["deep_queue_case", "arrivals_blackout_case"],
)
def test_adaptive_trace_is_pinned(case, events_sha, metrics_sha):
    # the ground-truth model is pure-Python arithmetic, so these hashes do
    # not depend on the host's BLAS; a change to the runtime that is meant
    # to keep outputs must keep them
    trace = simulate(*case())
    assert trace.metrics.migrations > 0
    check_steals(trace)
    assert (sha(trace.events), sha(trace.metrics)) == (events_sha, metrics_sha)


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


def test_runtime_counts_explain_the_run():
    view, plan, schedule, w, cfg = deep_queue_case()
    trace = simulate(view, plan, schedule, w, cfg)
    on = trace.runtime_counts
    assert on["moves"] == trace.metrics.migrations > 0
    assert on["rounds"] == len(w.tasks)  # one round per completion
    assert on["moves"] <= on["picks"] <= on["candidates"]
    assert on["no_gain"] <= on["candidates"]
    off = simulate(view, plan, schedule, w, RuntimeConfig()).runtime_counts
    assert off == dict.fromkeys(("rounds", "picks", "candidates", "moves", "capped", "no_gain"), 0)


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


def test_inject_stragglers_validation(two_rack_cluster):
    with pytest.raises(ValueError):
        inject_stragglers(two_rack_cluster, 1.0, 2.0, seed=0)
    with pytest.raises(ValueError):
        inject_stragglers(two_rack_cluster, 0.5, 1.0, seed=0)


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
            if not plan.is_local(
                next(e.node_id for e in trace.events if e.kind == "finish" and e.task_id == t.id),
                t.block_id,
            )
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
    # two-tier cluster, Poisson arrivals, a replica blackout, stragglers and
    # migration on: every task finishes once, no task starts before it
    # arrives, time never runs backwards, fetched bytes add up, and every
    # steal starts its task on the thief at once, which was idle
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
    blackout = (ids[int(rng.integers(0, n_nodes))], float(rng.uniform(0.0, n_tasks)))
    cfg = RuntimeConfig(enable_migration=True, replica_blackout=blackout)
    trace = simulate(view, plan, schedule, w, cfg)

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
    same node at the same time, so the thief had a free slot and the task
    could not move again in that round; no task moves more than 3 times."""
    starts = {(e.time, e.task_id, e.node_id) for e in trace.events if e.kind == "start"}
    moves = [e for e in trace.events if e.kind == "migrate"]
    assert all((e.time, e.task_id, e.node_id) in starts for e in moves)
    per_task = {}
    for e in moves:
        per_task[e.task_id] = per_task.get(e.task_id, 0) + 1
    assert max(per_task.values(), default=0) <= 3


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
    # a queue must list exactly its node's assigned tasks, each once
    g = make_cluster([("a", "r1", 1.0, 100.0), ("b", "r1", 1.0, 100.0)])
    plan = place_rack_aware(g, blocks, "a", rf=1)
    split = {tasks[0].id: "a", tasks[1].id: "b"}
    simulate(g, plan, split, w, RuntimeConfig(),
             queues={"a": [tasks[0].id], "b": [tasks[1].id]})
    for queues in (
        {"a": [tasks[0].id, tasks[1].id], "b": []},  # a task on another node's queue
        {"a": [tasks[0].id, tasks[0].id], "b": [tasks[1].id]},  # listed twice
        {"a": [tasks[0].id]},  # left out
    ):
        with pytest.raises(ValueError, match="queue of node"):
            simulate(g, plan, split, w, RuntimeConfig(), queues=queues)


def test_runtime_config_validation():
    RuntimeConfig(sync_delay_s=0.0).validate()
    with pytest.raises(ValueError, match="sync_delay_s"):
        RuntimeConfig(sync_delay_s=-0.1).validate()


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


def test_replica_blackout_forces_remote_reads():
    g = make_cluster(
        [
            {"id": "a", "rack": "r1", "cpu_ghz": 1.0, "io_mbps": 64.0, "slots": 1},
            {"id": "b", "rack": "r1", "cpu_ghz": 1.0, "io_mbps": 64.0, "slots": 1},
        ]
    )
    app, blocks, tasks, w = build_workload(256, rf=2, gcycles_per_mb=1.0 / 64)
    plan = place_rack_aware(g, blocks, "a", rf=2)
    schedule = {t.id: "a" for t in tasks}
    base = simulate(g, plan, schedule, w, RuntimeConfig())
    cfg = RuntimeConfig(replica_blackout=("a", base.metrics.completion_time_s / 2))
    hit = simulate(g, plan, schedule, w, cfg)
    assert hit.metrics.completion_time_s >= base.metrics.completion_time_s
    assert hit.metrics.network_mb > 0  # late tasks must fetch from b
