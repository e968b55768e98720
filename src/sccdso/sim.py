"""Deterministic discrete-event execution of a schedule.

Ground truth for a task on a node is `block/io + gcycles/cpu` seconds
(local read plus compute); remote data pays a fair-share network transfer
first. Fair sharing is snapshot-based: a transfer's rate is fixed when it
starts, at `min over path links of bandwidth / (active demand flows + 1)`.

Runtime adaptivity is migration, off by default: after each task
completion, nodes whose resource quotient exceeds their threshold offer
queued tasks to other nodes. A candidate move must satisfy both
remaining-time inequalities, project a strictly better completion, and
respect the per-node per-round cap. Among valid candidates a decaying
epsilon-greedy policy picks, scoring with a small Q table keyed by coarse
(source load, target load, locality) buckets.

One run is strictly single-threaded; identical inputs and seed give a
bit-identical trace.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .cluster import ClusterGraph, path_bandwidth
from .placement import PlacementPlan
from .workload import TaskSpec, Workload


def true_service_time(node, task: TaskSpec) -> float:
    """Local execution seconds: disk read plus compute."""
    return task.block_mb / node.io_mbps + task.compute_gcycles / node.cpu_ghz


class TrueTimeModel:
    """Predictor-shaped wrapper around the ground-truth service time."""

    def predict(self, node, task: TaskSpec) -> float:
        return true_service_time(node, task)

    def predict_matrix(self, nodes, tasks) -> np.ndarray:
        return np.array([[true_service_time(n, t) for t in tasks] for n in nodes])


def inject_stragglers(
    g: ClusterGraph, fraction: float, slowdown: float, seed: int
) -> ClusterGraph:
    """Return a cluster view where a seeded node subset runs `slowdown`
    times slower on both compute and I/O."""
    if not 0.0 <= fraction < 1.0:
        raise ValueError("fraction must be in [0, 1)")
    if slowdown <= 1.0:
        raise ValueError("slowdown must be > 1")
    ids = sorted(g.nodes)
    count = int(round(fraction * len(ids)))
    if count == 0:
        return g
    rng = np.random.default_rng(seed)
    slowed = {ids[i] for i in rng.choice(len(ids), size=count, replace=False)}
    nodes = {
        nid: (
            replace(n, cpu_ghz=n.cpu_ghz / slowdown, io_mbps=n.io_mbps / slowdown)
            if nid in slowed
            else n
        )
        for nid, n in g.nodes.items()
    }
    return replace(g, nodes=nodes)


@dataclass(frozen=True)
class RuntimeConfig:
    phi: float = 0.075  # threshold as a fraction of the node's TS_i
    theta_mig: int = 3  # migration cap per node per round
    rq_scale: float = 0.2  # scaling factor in the queue-delay quotient
    epsilon_greedy: float = 0.2
    epsilon_decay: float = 0.95
    q_alpha: float = 0.5
    q_gamma: float = 0.8
    enable_migration: bool = False
    sync_delay_s: float = 0.0  # per non-local access (sequential-sync emulation)
    replica_blackout: tuple[str, float] | None = None  # (node id, time)

    def validate(self) -> None:
        if not 0.05 <= self.phi <= 0.1:
            raise ValueError("phi must be in [0.05, 0.1]")
        if not 1 <= self.theta_mig <= 5:
            raise ValueError("theta_mig must be in 1..5")
        if not 0.1 <= self.rq_scale <= 0.3:
            raise ValueError("rq_scale must be in [0.1, 0.3]")
        if not 0.0 <= self.epsilon_greedy <= 1.0:
            raise ValueError("epsilon_greedy must be in [0, 1]")
        if not 0.0 < self.epsilon_decay <= 1.0:
            raise ValueError("epsilon_decay must be in (0, 1]")
        if not 0.0 < self.q_alpha <= 1.0 or not 0.0 <= self.q_gamma < 1.0:
            raise ValueError("q_alpha in (0, 1], q_gamma in [0, 1)")
        if self.sync_delay_s < 0:
            raise ValueError("sync_delay_s must be >= 0")


@dataclass
class QueueState:
    """Point-in-time view of one node's queue, as the migration rules see
    it."""

    node_id: str
    pending_mb: tuple[float, ...]
    current_block_mb: float  # 0 when idle
    current_progress: float  # rho in [0, 1]
    observed_rate: float  # mean MB/s over completed tasks, 0 until first
    bootstrap_rate: float  # predictor-derived fallback rate
    throughput_baseline: float  # TS_i: reference per-task service seconds

    @property
    def pending_count(self) -> int:
        return len(self.pending_mb)


def remaining_time(q: QueueState) -> float:
    """Estimated seconds until the queue drains: unfinished share of the
    running block plus all pending blocks, at the node's observed rate
    (predictor bootstrap until the first completion)."""
    if q.current_block_mb <= 0 and not q.pending_mb:
        return 0.0
    rate = q.observed_rate if q.observed_rate > 0 else q.bootstrap_rate
    if rate <= 0:
        return math.inf
    rem = q.current_block_mb * (1.0 - q.current_progress) / rate
    rem += sum(q.pending_mb) / rate
    return rem


def resource_quotient(q: QueueState, config: RuntimeConfig) -> float:
    """Queue-delay quotient that flags an overloaded node."""
    block = q.current_block_mb if q.current_block_mb > 0 else (
        q.pending_mb[0] if q.pending_mb else 0.0
    )
    rate = q.observed_rate if q.observed_rate > 0 else q.bootstrap_rate
    if rate <= 0:
        return math.inf if q.pending_mb else 0.0
    return q.pending_count * block / (config.rq_scale * rate)


def should_migrate(
    target_q: QueueState,
    source_q: QueueState,
    predicted_source_time: float,
    config: RuntimeConfig,
) -> bool:
    """Both inequalities, strictly: the target has enough remaining work to
    hide the moved task's data fetch, and the source stays saturated even
    without this task."""
    phi_t = config.phi * target_q.throughput_baseline
    phi_s = config.phi * source_q.throughput_baseline
    return (
        remaining_time(target_q) > phi_t
        and remaining_time(source_q) - predicted_source_time > phi_s
    )


@dataclass(frozen=True)
class MigrationCandidate:
    task_id: str
    source: str
    target: str
    improvement_s: float
    local_at_target: bool
    signature: tuple  # coarse Q-table key


def epsilon_greedy_migration(
    candidates: list[MigrationCandidate],
    q_table: dict,
    epsilon: float,
    rng: np.random.Generator,
) -> MigrationCandidate | None:
    """Explore uniformly with probability epsilon, otherwise exploit the
    highest-valued signature. Deterministic tie-break by candidate order."""
    if not candidates:
        return None
    if rng.random() < epsilon:
        return candidates[int(rng.integers(0, len(candidates)))]
    return max(candidates, key=lambda c: (q_table.get(c.signature, 0.0), -candidates.index(c)))


@dataclass(frozen=True)
class SimEvent:
    time: float
    kind: str  # start / transfer / finish / migrate
    task_id: str
    node_id: str
    info: str = ""


@dataclass(frozen=True)
class RunMetrics:
    completion_time_s: float
    locality_ratio: float
    throughput_mbps: float
    network_mb: float
    migrations: int
    prefetches: int  # always 0: runs.csv and the benchmark still read the column
    tasks: int
    recovery_latency_s: float = 0.0


@dataclass(frozen=True)
class SimTrace:
    events: tuple[SimEvent, ...]
    metrics: RunMetrics
    q_table: dict = field(default_factory=dict)
    sched_metrics: tuple[float, float, float] | None = None  # scheduler's (delay, cost, loss)

    def to_event_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("time,kind,task,node,info\n")
            for e in self.events:
                fh.write(f"{e.time:.9g},{e.kind},{e.task_id},{e.node_id},{e.info}\n")

    def to_metrics_json(self, path: str) -> None:
        import json

        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.metrics_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def metrics_dict(self) -> dict:
        return asdict(self.metrics)


class _NodeRt:
    """Mutable per-node runtime state inside one simulation."""

    __slots__ = (
        "spec", "pending", "running", "completed_count", "rate_sum",
        "ts_ref", "bootstrap_rate",
    )

    def __init__(self, spec, ts_ref: float, bootstrap_rate: float):
        self.spec = spec
        self.pending: list[TaskSpec] = []
        self.running: dict[str, tuple[float, float, float]] = {}  # id -> (start, finish, mb)
        self.completed_count = 0
        self.rate_sum = 0.0
        self.ts_ref = ts_ref
        self.bootstrap_rate = bootstrap_rate

    def observed_rate(self) -> float:
        return self.rate_sum / self.completed_count if self.completed_count else 0.0

    def queue_state(self, now: float) -> QueueState:
        cur_mb = 0.0
        prog = 0.0
        if self.running:
            spans = [(f - s, max(0.0, min(1.0, (now - s) / (f - s) if f > s else 1.0)), mb)
                     for s, f, mb in self.running.values()]
            cur_mb = sum(mb for _, _, mb in spans)
            prog = sum(p * mb for _, p, mb in spans) / cur_mb if cur_mb > 0 else 0.0
        return QueueState(
            node_id=self.spec.id,
            pending_mb=tuple(t.block_mb for t in self.pending),
            current_block_mb=cur_mb,
            current_progress=prog,
            observed_rate=self.observed_rate(),
            bootstrap_rate=self.bootstrap_rate,
            throughput_baseline=self.ts_ref,
        )


def simulate(
    g: ClusterGraph,
    plan: PlacementPlan,
    schedule: dict[str, str],
    workload: Workload,
    config: RuntimeConfig,
    seed: int,
    queues: dict[str, list[str]] | None = None,
    predictor=None,
) -> SimTrace:
    """Execute `schedule` (task id -> node id) and return the event trace
    plus run metrics. Per-node queue order can be supplied via `queues`;
    by default local tasks run before remote ones, ties by task id."""
    config.validate()
    predictor = predictor or TrueTimeModel()
    tasks = {t.id: t for t in workload.tasks}
    for tid, nid in schedule.items():
        if tid not in tasks:
            raise ValueError(f"schedule references unknown task {tid}")
        g.node(nid)
    missing = [t for t in tasks if t not in schedule]
    if missing:
        raise ValueError(f"schedule does not cover tasks: {missing[:3]}")

    blackout_node, blackout_time = (None, math.inf)
    if config.replica_blackout is not None:
        blackout_node, blackout_time = config.replica_blackout

    def replicas_of(block_id: str, now: float) -> tuple[str, ...]:
        reps = plan.replicas(block_id)
        if now >= blackout_time and blackout_node in reps and len(reps) > 1:
            reps = tuple(r for r in reps if r != blackout_node)
        return reps

    # --- node state ------------------------------------------------------
    by_node: dict[str, list[TaskSpec]] = {}
    for tid, nid in schedule.items():
        by_node.setdefault(nid, []).append(tasks[tid])
    global_ts = None
    rt: dict[str, _NodeRt] = {}
    for nid in g.node_ids():
        spec = g.node(nid)
        assigned = by_node.get(nid, [])
        preds = [predictor.predict(spec, t) for t in assigned]
        ts_ref = float(np.mean(preds)) if preds else 0.0
        if ts_ref > 0 and global_ts is None:
            global_ts = ts_ref
        boot = (
            float(np.mean([t.block_mb for t in assigned])) / ts_ref
            if assigned and ts_ref > 0
            else spec.io_mbps
        )
        rt[nid] = _NodeRt(spec, ts_ref, boot)
    fallback_ts = global_ts or 1.0
    for state in rt.values():
        if state.ts_ref <= 0:
            state.ts_ref = fallback_ts

    def default_order(nid: str, ts: list[TaskSpec]) -> list[TaskSpec]:
        return sorted(
            ts, key=lambda t: (0 if plan.is_local(nid, t.block_id) else 1, t.id)
        )

    initial: dict[str, list[TaskSpec]] = {}
    if queues is not None:
        for nid, tids in queues.items():
            initial[nid] = [tasks[tid] for tid in tids]
        listed = {t.id for q in initial.values() for t in q}
        leftovers = [tid for tid in schedule if tid not in listed]
        for tid in leftovers:
            initial.setdefault(schedule[tid], []).append(tasks[tid])
    else:
        initial = {nid: default_order(nid, ts) for nid, ts in by_node.items()}

    # --- transfers under snapshot fair share -----------------------------
    demand_flows: dict[str, int] = {}

    def link_keys(a: str, b: str) -> list[str]:
        keys = []
        for l in g.path_links(a, b):
            keys.append(f"{l.endpoints[0]}->{l.endpoints[1]}")
        return keys

    def transfer_seconds(src: str, dst: str, mb: float, register: bool) -> tuple[float, list[str]]:
        links = g.path_links(dst, src)
        keys = link_keys(dst, src)
        rate = min(
            l.bandwidth_mbps / (demand_flows.get(k, 0) + 1)
            for l, k in zip(links, keys)
        )
        extra = sum(l.base_queue_delay_s for l in links) + g.tier_latency_s(dst, src)
        if register:
            for k in keys:
                demand_flows[k] = demand_flows.get(k, 0) + 1
        return mb / rate + extra, keys

    def release_flows(keys: list[str]) -> None:
        for k in keys:
            demand_flows[k] -= 1
            if demand_flows[k] <= 0:
                del demand_flows[k]

    # --- engine ----------------------------------------------------------
    heap: list[tuple[float, int, str, str, str]] = []
    seq = 0

    def push(time: float, kind: str, node_id: str, ref: str) -> None:
        nonlocal seq
        heapq.heappush(heap, (time, seq, kind, node_id, ref))
        seq += 1

    events: list[SimEvent] = []
    rng = np.random.default_rng(seed)
    q_table: dict = {}
    epsilon = config.epsilon_greedy
    network_mb = 0.0
    migrations = 0
    local_exec = 0
    remote_exec = 0
    pending_flow_keys: dict[str, list[str]] = {}  # task id -> registered links

    for nid, q in initial.items():
        state = rt[nid]
        for t in q:
            arrival = workload.arrivals.get(t.id, 0.0)
            if arrival <= 0.0:
                state.pending.append(t)
            else:
                push(arrival, "arrival", nid, t.id)

    _pt_cache: dict[tuple, float] = {}

    def predicted_time(nid: str, task: TaskSpec, now: float) -> float:
        key = (nid, task.id, now >= blackout_time)
        hit = _pt_cache.get(key)
        if hit is not None:
            return hit
        base = predictor.predict(rt[nid].spec, task)
        reps = replicas_of(task.block_id, now)
        if nid not in reps:
            bw = max(path_bandwidth(g, nid, r) for r in reps)
            base += task.block_mb / bw
        _pt_cache[key] = base
        return base

    def begin_compute(nid: str, task: TaskSpec, now: float, remote: bool) -> None:
        nonlocal local_exec, remote_exec
        service = true_service_time(rt[nid].spec, task)
        if remote:
            service += config.sync_delay_s
            remote_exec += 1
        else:
            local_exec += 1
        start = rt[nid].running[task.id][0]
        rt[nid].running[task.id] = (start, now + service, task.block_mb)
        push(now + service, "task_done", nid, task.id)

    def try_start(nid: str, now: float) -> None:
        nonlocal network_mb
        state = rt[nid]
        while state.pending and len(state.running) < state.spec.slots:
            task = state.pending.pop(0)
            state.running[task.id] = (now, math.inf, task.block_mb)
            events.append(SimEvent(now, "start", task.id, nid))
            reps = replicas_of(task.block_id, now)
            if nid in reps:
                begin_compute(nid, task, now, remote=False)
            else:
                src = min(
                    reps,
                    key=lambda r: (transfer_seconds(nid, r, task.block_mb, False)[0], r),
                )
                dur, keys = transfer_seconds(src, nid, task.block_mb, True)
                pending_flow_keys[task.id] = keys
                network_mb += task.block_mb
                events.append(SimEvent(now, "transfer", task.id, nid, f"from={src}"))
                push(now + dur, "xfer_done", nid, task.id)

    task_moves: dict[str, int] = {}  # lifetime migration count per task

    def migration_round(now: float) -> None:
        nonlocal migrations, epsilon
        if not config.enable_migration:
            return
        moved_out: dict[str, int] = {}
        moved_in: dict[str, int] = {}
        node_ids = g.node_ids()
        # each pick rescans from fresh state; both per-node round caps and a
        # per-task lifetime cap keep churn bounded
        for _ in range(4 * config.theta_mig):
            states = {nid: rt[nid].queue_state(now) for nid in node_ids}
            rem = {nid: remaining_time(st) for nid, st in states.items()}
            phi = {
                nid: config.phi * st.throughput_baseline for nid, st in states.items()
            }
            sources = [
                nid
                for nid in node_ids
                if rt[nid].pending
                and moved_out.get(nid, 0) < config.theta_mig
                and resource_quotient(states[nid], config) > phi[nid]
            ]
            sources.sort(key=lambda n: (-rem[n], n))
            targets = [
                nid
                for nid in node_ids
                if rem[nid] > phi[nid] and moved_in.get(nid, 0) < config.theta_mig
            ]
            targets.sort(key=lambda n: (rem[n], n))
            candidates: list[MigrationCandidate] = []
            for src in sources[:3]:
                sq = states[src]
                rate_s = sq.observed_rate or sq.bootstrap_rate
                for task in rt[src].pending[-8:]:
                    if task_moves.get(task.id, 0) >= 3:
                        continue
                    t_src = predicted_time(src, task, now)
                    if rem[src] - t_src <= phi[src]:
                        continue  # second migration inequality
                    for dst in targets[:10]:
                        if dst == src:
                            continue
                        t_dst = predicted_time(dst, task, now)
                        drop = task.block_mb / rate_s if rate_s > 0 else 0.0
                        improvement = max(rem[src], rem[dst]) - max(
                            rem[src] - drop, rem[dst] + t_dst
                        )
                        if improvement <= 0:
                            continue
                        local = dst in replicas_of(task.block_id, now)
                        sig = (
                            min(3, int(rem[src] / max(sq.throughput_baseline, 1e-9) / 2)),
                            min(3, int(rem[dst] / max(states[dst].throughput_baseline, 1e-9) / 2)),
                            local,
                        )
                        candidates.append(
                            MigrationCandidate(task.id, src, dst, improvement, local, sig)
                        )
            candidates.sort(key=lambda c: (c.task_id, c.target))
            choice = epsilon_greedy_migration(candidates, q_table, epsilon, rng)
            if choice is None:
                break
            task = tasks[choice.task_id]
            rt[choice.source].pending.remove(task)
            rt[choice.target].pending.append(task)
            moved_out[choice.source] = moved_out.get(choice.source, 0) + 1
            moved_in[choice.target] = moved_in.get(choice.target, 0) + 1
            task_moves[choice.task_id] = task_moves.get(choice.task_id, 0) + 1
            migrations += 1
            events.append(
                SimEvent(now, "migrate", task.id, choice.target, f"from={choice.source}")
            )
            reward = max(-1.0, min(1.0, choice.improvement_s / max(rt[choice.source].ts_ref, 1e-9)))
            old = q_table.get(choice.signature, 0.0)
            future = max(
                (q_table.get(c.signature, 0.0) for c in candidates if c.task_id != choice.task_id),
                default=0.0,
            )
            q_table[choice.signature] = old + config.q_alpha * (
                reward + config.q_gamma * future - old
            )
            try_start(choice.target, now)
        epsilon *= config.epsilon_decay

    for nid in g.node_ids():
        try_start(nid, 0.0)

    completion = 0.0
    finished: set[str] = set()
    while heap:
        now, _, kind, nid, ref = heapq.heappop(heap)
        state = rt[nid]
        if kind == "arrival":
            state.pending.append(tasks[ref])
            try_start(nid, now)
        elif kind == "xfer_done":
            release_flows(pending_flow_keys.pop(ref))
            begin_compute(nid, tasks[ref], now, remote=True)
        elif kind == "task_done":
            start, _, mb = state.running.pop(ref)
            if ref in finished:
                raise RuntimeError(f"task {ref} finished twice")
            finished.add(ref)
            duration = max(now - start, 1e-12)
            state.completed_count += 1
            state.rate_sum += mb / duration
            events.append(SimEvent(now, "finish", ref, nid))
            completion = max(completion, now)
            try_start(nid, now)
            migration_round(now)

    if len(finished) != len(tasks):
        raise RuntimeError("simulation ended with unfinished tasks")

    total_mb = sum(t.block_mb for t in tasks.values())
    metrics = RunMetrics(
        completion_time_s=completion,
        locality_ratio=local_exec / len(tasks) if tasks else 0.0,
        throughput_mbps=total_mb / completion if completion > 0 else 0.0,
        network_mb=network_mb,
        migrations=migrations,
        prefetches=0,
        tasks=len(tasks),
    )
    return SimTrace(events=tuple(events), metrics=metrics, q_table=q_table)
