import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sccdso.placement import PlacementPlan, place_rack_aware, place_random
from sccdso.sim import (
    PHI,
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


def node_rt(pending=(), running=None, rate=0.0, bootstrap=10.0, ts=1.0):
    """The per-node runtime state that `migration_round` reads: blocks of
    `pending` MB queued, `running` = (start, finish, MB) of one running
    block, and `rate` > 0 observed over one completed task."""
    state = _NodeRt(None, ts, bootstrap)
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


# The two migration inequalities as `migration_round` checks them: the
# target's remaining time, and the source's less the moved task's predicted
# time, must each exceed the node's threshold.


def test_should_migrate_cases():
    idle = node_rt(ts=10.0)
    assert not idle.exceeds_threshold(idle.remaining(0.0))

    phi = PHI * 10.0
    busy_target = node_rt(running=(0.0, 1.0, 10 * phi), rate=1.0, ts=10.0)
    busy_source = node_rt(pending=(5 * phi + 2.0,), rate=1.0, ts=10.0)
    # R(target)=10phi > phi and R(source)-T = 5phi+2-2 = 5phi > phi
    assert busy_target.exceeds_threshold(busy_target.remaining(0.0))
    assert busy_source.exceeds_threshold(busy_source.remaining(0.0) - 2.0)


def test_should_migrate_boundary_is_strict():
    phi = PHI * 10.0
    exactly_phi = node_rt(running=(0.0, 1.0, phi), rate=1.0, ts=10.0)
    deep_source = node_rt(pending=(100.0,), rate=1.0, ts=10.0)
    assert exactly_phi.remaining(0.0) == phi
    assert not exactly_phi.exceeds_threshold(exactly_phi.remaining(0.0))
    assert deep_source.exceeds_threshold(deep_source.remaining(0.0) - 0.0)


# --- the greedy migration pick ------------------------------------------------


def hand_built(nodes, home, block_mb=None):
    """One-rack cluster of `nodes` (id, cpu_ghz, io_mbps), one slot each,
    and len(`home`) tasks of 64 MB (`block_mb`: task index -> MB), task k
    queued on and stored at home[k]."""
    g = make_cluster(
        [{"id": nid, "rack": "r1", "cpu_ghz": cpu, "io_mbps": io, "slots": 1} for nid, cpu, io in nodes],
        intra_ms=1.0,
    )
    app, blocks, tasks, _ = build_workload(len(home) * 64)
    for k, mb in (block_mb or {}).items():
        tasks[k] = replace(tasks[k], block_mb=mb)
    w = Workload(apps=(app,), blocks=tuple(blocks), tasks=tuple(tasks), arrivals={t.id: 0.0 for t in tasks})
    plan = PlacementPlan({t.block_id: (nid,) for t, nid in zip(tasks, home)}, "hand")
    schedule = {t.id: nid for t, nid in zip(tasks, home)}
    return simulate(g, plan, schedule, w, RuntimeConfig(enable_migration=True))


def test_greedy_pick_moves_the_largest_improvement():
    # t0-t5 queue on the slow node s, two tasks each on a and b. When a and
    # b finish their first task, every move off s drains t_k's block at s's
    # rate, so the 128 MB t5 improves most; (t1, a) comes first in (task
    # id, target) order, a ties with b and wins by target id
    trace = hand_built(
        [("s", 0.5, 50.0), ("a", 2.0, 200.0), ("b", 2.0, 200.0)],
        ["s"] * 6 + ["a", "a", "b", "b"],
        block_mb={5: 128.0},
    )
    first = next(e for e in trace.events if e.kind == "migrate")
    assert (first.task_id, first.node_id, first.info) == ("app0/t5", "a", "from=s")


def test_no_valid_candidate_moves_nothing():
    # two equal nodes with equal local queues: both are sources and targets
    # after every finish, but each move would lengthen the later queue
    trace = hand_built([("a", 2.0, 200.0), ("b", 2.0, 200.0)], ["a", "b"] * 5)
    assert trace.metrics.migrations == 0
    assert not [e for e in trace.events if e.kind == "migrate"]


def test_migration_cap_per_round_enforced():
    # deep queues (10 tasks per one-slot node) with one node slowed 4x
    # after scheduling: the slow node sheds work and the others take it
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
    trace = simulate(view, plan, schedule, w, RuntimeConfig(enable_migration=True))
    assert trace.metrics.migrations > 0
    # a round is the migrations that follow one finish event
    rounds, out_, in_ = [], {}, {}
    for e in trace.events:
        if e.kind == "finish":
            rounds.append((out_, in_))
            out_, in_ = {}, {}
        elif e.kind == "migrate":
            src = e.info.split("=")[1]
            out_[src] = out_.get(src, 0) + 1
            in_[e.node_id] = in_.get(e.node_id, 0) + 1
    rounds.append((out_, in_))
    peak_out = max(max(o.values(), default=0) for o, _ in rounds)
    peak_in = max(max(i.values(), default=0) for _, i in rounds)
    assert peak_out == THETA_MIG and peak_in == THETA_MIG


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
    # arrives, time never runs backwards and fetched bytes add up
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
