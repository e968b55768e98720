import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sccdso.placement import place_rack_aware, place_random
from sccdso.sim import (
    MigrationCandidate,
    QueueState,
    RuntimeConfig,
    epsilon_greedy_migration,
    inject_stragglers,
    remaining_time,
    should_migrate,
    simulate,
    true_service_time,
)
from sccdso.workload import Application, Workload, partition, tasks_for

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


def queue_state(
    node_id="n",
    pending=(),
    current_mb=0.0,
    progress=0.0,
    rate=0.0,
    bootstrap=10.0,
    ts=1.0,
):
    return QueueState(
        node_id=node_id,
        pending_mb=tuple(pending),
        current_block_mb=current_mb,
        current_progress=progress,
        observed_rate=rate,
        bootstrap_rate=bootstrap,
        throughput_baseline=ts,
    )


# --- core execution -------------------------------------------------------


def test_serial_execution_on_one_slot_node():
    g = make_cluster(
        [{"id": "n0", "rack": "r1", "cpu_ghz": 1.0, "io_mbps": 64.0, "slots": 1}]
    )
    # each task: 64/64 io + 1.0 compute = 2.0 s
    app, blocks, tasks, w = build_workload(128, gcycles_per_mb=1.0 / 64)
    plan = place_rack_aware(g, blocks, "n0", rf=1)
    schedule = {t.id: "n0" for t in tasks}
    trace = simulate(g, plan, schedule, w, RuntimeConfig(), seed=0)
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
    trace = simulate(g, plan, schedule, w, RuntimeConfig(), seed=0)
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
    local = simulate(g, plan, {tasks[0].id: "a"}, w, RuntimeConfig(), seed=0)
    remote = simulate(g, plan, {tasks[0].id: "b"}, w, RuntimeConfig(), seed=0)
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
        g, plan, {tasks[0].id: "w1", tasks[1].id: "w2"}, w, RuntimeConfig(), seed=0
    )
    finishes = [e.time for e in trace.events if e.kind == "finish"]
    # second transfer started while the first was active: 64/(32/2) = 4 s
    assert max(finishes) >= 4.0


# --- queue estimates ------------------------------------------------------


def test_remaining_time_empty_queue():
    assert remaining_time(queue_state()) == 0.0


def test_remaining_time_running_block():
    q = queue_state(current_mb=64, progress=0.5, rate=16.0)
    assert remaining_time(q) == pytest.approx(2.0)


def test_remaining_time_adds_pending():
    q = queue_state(pending=(32.0,), current_mb=64, progress=0.5, rate=16.0)
    assert remaining_time(q) == pytest.approx(4.0)


def test_remaining_time_bootstraps_before_first_completion():
    q = queue_state(pending=(50.0,), rate=0.0, bootstrap=25.0)
    assert remaining_time(q) == pytest.approx(2.0)


def test_should_migrate_cases():
    cfg = RuntimeConfig(phi=0.075)
    idle = queue_state(ts=10.0)
    assert not should_migrate(idle, idle, 0.0, cfg)

    phi = 0.075 * 10.0
    busy_target = queue_state(current_mb=10 * phi, progress=0.0, rate=1.0, ts=10.0)
    busy_source = queue_state(
        pending=(5 * phi + 2.0,), current_mb=0.0, rate=1.0, ts=10.0
    )
    # R(target)=10phi > phi and R(source)-T = 5phi+2-2 = 5phi > phi
    assert should_migrate(busy_target, busy_source, 2.0, cfg)


def test_should_migrate_boundary_is_strict():
    cfg = RuntimeConfig(phi=0.075)
    phi = 0.075 * 10.0
    exactly_phi = queue_state(current_mb=phi, progress=0.0, rate=1.0, ts=10.0)
    deep_source = queue_state(pending=(100.0,), rate=1.0, ts=10.0)
    assert not should_migrate(exactly_phi, deep_source, 0.0, cfg)


# --- epsilon-greedy policy --------------------------------------------------


def candidates(k):
    return [
        MigrationCandidate(f"t{i}", "s", f"d{i}", 1.0, True, ("sig", i))
        for i in range(k)
    ]


def test_epsilon_zero_exploits_argmax():
    cands = candidates(4)
    q = {("sig", 2): 5.0, ("sig", 0): 1.0}
    rng = np.random.default_rng(0)
    for _ in range(50):
        assert epsilon_greedy_migration(cands, q, 0.0, rng).task_id == "t2"


def test_epsilon_one_is_uniform_chi_squared():
    cands = candidates(5)
    rng = np.random.default_rng(1)
    counts = np.zeros(5)
    n = 10_000
    for _ in range(n):
        choice = epsilon_greedy_migration(cands, {}, 1.0, rng)
        counts[int(choice.task_id[1])] += 1
    expected = n / 5
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 18.47  # chi-square 99.9% critical value, 4 dof


def test_empty_candidates_yield_none():
    assert epsilon_greedy_migration([], {}, 0.5, np.random.default_rng(0)) is None


def test_migration_cap_per_round_enforced():
    # one overloaded slow node, several eager targets, cap of 1
    g = make_cluster(
        [
            {"id": "slow", "rack": "r1", "cpu_ghz": 0.2, "io_mbps": 20.0, "slots": 1},
            {"id": "f1", "rack": "r1", "cpu_ghz": 4.0, "io_mbps": 400.0, "slots": 1},
            {"id": "f2", "rack": "r2", "cpu_ghz": 4.0, "io_mbps": 400.0, "slots": 1},
        ]
    )
    app, blocks, tasks, w = build_workload(512, rf=3, gcycles_per_mb=0.2)
    plan = place_rack_aware(g, blocks, "slow", rf=3)
    schedule = {t.id: "slow" for t in tasks[:6]}
    schedule.update({t.id: "f1" for t in tasks[6:7]})
    schedule.update({t.id: "f2" for t in tasks[7:]})
    cfg = RuntimeConfig(enable_migration=True, theta_mig=1)
    trace = simulate(g, plan, schedule, w, cfg, seed=3)
    moves = [e for e in trace.events if e.kind == "migrate"]
    by_round: dict[float, dict[str, int]] = {}
    for e in moves:
        src = e.info.split("=")[1]
        counts = by_round.setdefault(e.time, {})
        counts[src] = counts.get(src, 0) + 1
        counts[e.node_id] = counts.get(e.node_id, 0) + 1
        for node, c in counts.items():
            assert c <= cfg.theta_mig, f"cap violated at {e.time} for {node}"


# --- stragglers -------------------------------------------------------------


def test_inject_stragglers_identity_at_zero(two_rack_cluster):
    assert inject_stragglers(two_rack_cluster, 0.0, 4.0, seed=1) is two_rack_cluster


def test_straggler_doubles_local_task_time():
    g = make_cluster(
        [{"id": "n0", "rack": "r1", "cpu_ghz": 1.0, "io_mbps": 64.0, "slots": 1}]
    )
    app, blocks, tasks, w = build_workload(64, gcycles_per_mb=1.0 / 64)
    plan = place_rack_aware(g, blocks, "n0", rf=1)
    base = simulate(g, plan, {tasks[0].id: "n0"}, w, RuntimeConfig(), seed=0)
    slowed = inject_stragglers(g, 0.6, 2.0, seed=1)  # the single node slows
    assert slowed.node("n0").cpu_ghz == pytest.approx(0.5)
    hit = simulate(slowed, plan, {tasks[0].id: "n0"}, w, RuntimeConfig(), seed=0)
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
    return g, plan, tasks, w, simulate(g, plan, schedule, w, cfg, seed=seed)


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
        g, plan, {tasks[0].id: "a", tasks[1].id: "b"}, w, RuntimeConfig(), seed=0
    )
    assert trace.metrics.locality_ratio == pytest.approx(0.5)


def test_q_table_stays_bounded():
    for seed in range(6):
        _, _, _, _, trace = run_random_instance(seed, migration=True)
        cfg = RuntimeConfig()
        bound = 1.0 / (1.0 - cfg.q_gamma) + 1e-9
        for v in trace.q_table.values():
            assert abs(v) <= bound


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
        simulate(g, plan, {"ghost": "a"}, w, RuntimeConfig(), seed=0)
    with pytest.raises(KeyError):
        simulate(g, plan, {tasks[0].id: "nope"}, w, RuntimeConfig(), seed=0)
    with pytest.raises(ValueError, match="does not cover"):
        simulate(g, plan, {}, w, RuntimeConfig(), seed=0)
    # two 64 MB tasks on one node: fits 128 MB of capacity exactly, not 127
    app, blocks, tasks, w = build_workload(128)
    for cap, fits in ((128.0, True), (127.0, False)):
        g = make_cluster([{"id": "a", "rack": "r1", "cpu_ghz": 1.0, "io_mbps": 100.0,
                           "capacity_mb": cap}])
        plan = place_rack_aware(g, blocks, "a", rf=1)
        both = {t.id: "a" for t in tasks}
        if fits:
            simulate(g, plan, both, w, RuntimeConfig(), seed=0)
        else:
            with pytest.raises(ValueError, match="over its 127 MB capacity"):
                simulate(g, plan, both, w, RuntimeConfig(), seed=0)


def test_runtime_config_validation():
    with pytest.raises(ValueError):
        RuntimeConfig(phi=0.2).validate()
    with pytest.raises(ValueError):
        RuntimeConfig(theta_mig=0).validate()
    with pytest.raises(ValueError):
        RuntimeConfig(rq_scale=0.9).validate()


def test_sync_delay_charged_per_remote_access():
    g = make_cluster(
        [
            {"id": "a", "rack": "r1", "cpu_ghz": 1.0, "io_mbps": 64.0, "slots": 1},
            {"id": "b", "rack": "r1", "cpu_ghz": 1.0, "io_mbps": 64.0, "slots": 1},
        ]
    )
    app, blocks, tasks, w = build_workload(64, gcycles_per_mb=1.0 / 64)
    plan = place_rack_aware(g, blocks, "a", rf=1)
    plain = simulate(g, plan, {tasks[0].id: "b"}, w, RuntimeConfig(), seed=0)
    synced = simulate(
        g, plan, {tasks[0].id: "b"}, w, RuntimeConfig(sync_delay_s=0.25), seed=0
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
    base = simulate(g, plan, schedule, w, RuntimeConfig(), seed=0)
    cfg = RuntimeConfig(replica_blackout=("a", base.metrics.completion_time_s / 2))
    hit = simulate(g, plan, schedule, w, cfg, seed=0)
    assert hit.metrics.completion_time_s >= base.metrics.completion_time_s
    assert hit.metrics.network_mb > 0  # late tasks must fetch from b
