"""Deterministic discrete-event execution of a schedule.

Ground truth for a task on a node is `block/io + gcycles/cpu` seconds
(local read plus compute); remote data pays a fair-share network transfer
first, from the replica with the least contended fetch time. Fair sharing
is snapshot-based: a transfer's rate is fixed when it starts, at `min over
path links of bandwidth / (active demand flows + 1)`, and it adds the
route's extras (link queue delays plus tier latency) from the cluster's
path table. With no other flow on its links, a fetch costs exactly the
table's price, the one the colony and the steal rule read.

Runtime adaptivity is migration by work stealing (Blumofe & Leiserson,
JACM 1999), off by default: idle capacity pulls queued work. After each
task completion, a round makes up to `4 * THETA_MIG` picks. A thief is a
node with a free slot, no pending task, and fewer than `THETA_MIG` tasks
taken this round. The victims are the 3 nodes with pending tasks and the
most remaining time; the candidates are the last 8 pending tasks of each.
A pick moves the (task, thief) pair with the largest gain, the victim's
remaining time less the task's predicted time on the thief (its predicted
service plus, when the thief holds no replica, the least path-table fetch
price over the replicas), when that gain is positive; a tie goes to the
first pair in (task id, thief) order. The stolen task starts on the thief
at once, so no task moves twice. The round ends when no pair gains.
A node's rate (observed mean MB/s, the predictor's bootstrap rate until
its first completion) and remaining time are each defined once, on its
runtime state. `now` is fixed within a round, so a round first
checks that some task is pending and some node can steal, computes a
victim's remaining time at most once, and recomputes it only after a steal
takes from it. `SimTrace.runtime_counts` counts the rounds, the picks that
scored candidates, the (task, thief) candidates scored, the moves, and
`no_gain`, the pairs whose gain was not positive.
`RuntimeConfig` holds only what differs between schedulers and runs:
migration on or off, the rsync delay per remote access, and the recovery
blackout.

Every prediction a run reads, the bootstrap rates and the steal rule's
predicted times, is a cell of one `predictor.predict_matrix` table over
the run's cluster view and the workload's tasks. Only a steal round reads
them, so the table is built on first read, in a steal round only, and a
node's bootstrap rate on the round's first read of it: a run without
migration, or whose rounds never find a pending task, predicts nothing.
The rest of a run costs what its events cost: a count of pending tasks
lets a round return at once when nothing is queued, and a fetch prices
each replica once, on routes composed from per-node (uplink, rack core
link) data built once per run.

One run is strictly single-threaded and draws no random numbers;
identical inputs give a bit-identical trace.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .cluster import CAPACITY_SLACK_MB, ClusterGraph
from .placement import PlacementPlan
from .workload import TaskSpec, Workload

if TYPE_CHECKING:
    from .experiment import Schedule


def true_service_time(node, task: TaskSpec) -> float:
    """Local execution seconds: disk read plus compute."""
    return task.block_mb / node.io_mbps + task.compute_gcycles / node.cpu_ghz


class TrueTimeModel:
    """Predictor-shaped wrapper around the ground-truth service time."""

    def predict(self, node, task: TaskSpec) -> float:
        return float(self.predict_matrix([node], [task])[0, 0])

    def predict_matrix(self, nodes, tasks) -> np.ndarray:
        return np.array([[true_service_time(n, t) for t in tasks] for n in nodes])


def check_stragglers(fraction: float = 0.0, slowdown: float = math.inf) -> None:
    """Raise unless `fraction` is in [0, 1) and `slowdown` is > 1; an
    omitted argument passes."""
    if not 0.0 <= fraction < 1.0:
        raise ValueError("fraction must be in [0, 1)")
    if slowdown <= 1.0:
        raise ValueError("slowdown must be > 1")


def inject_stragglers(
    g: ClusterGraph, fraction: float, slowdown: float, seed: int
) -> ClusterGraph:
    """Return a cluster view where a seeded node subset runs `slowdown`
    times slower on both compute and I/O."""
    check_stragglers(fraction, slowdown)
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
    view = replace(g, nodes=nodes)
    view.__dict__["paths"] = g.paths  # node speeds do not price a fetch
    return view


THETA_MIG = 3  # tasks each thief may take per round


@dataclass(frozen=True)
class RuntimeConfig:
    enable_migration: bool = False
    sync_delay_s: float = 0.0  # per non-local access (sequential-sync emulation)
    replica_blackout: tuple[str, float] | None = None  # (node id, time)

    def validate(self) -> None:
        if self.sync_delay_s < 0:
            raise ValueError("sync_delay_s must be >= 0")


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
    schedule: Schedule | None = None  # what experiment.execute ran; None from bare simulate
    # migration decisions, kept out of `metrics` so runs.csv keeps its
    # columns: rounds run (one per completion), picks that scored
    # candidates, (task, thief) candidates scored, moves made, and
    # candidates whose gain was not positive
    runtime_counts: dict[str, int] = field(default_factory=dict)

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
    """Mutable per-node runtime state inside one simulation, and the
    per-node quantities the migration rule reads from it: rate and
    remaining time. `bootstrap` is a zero-argument callable giving the
    predictor-derived rate; it is called at most once, on the first read
    of the rate before any completion, so a run that never asks pays no
    prediction."""

    __slots__ = ("spec", "pending", "running", "completed_count", "rate_sum", "_bootstrap",
                 "_bootstrap_rate")

    def __init__(self, spec, bootstrap):
        self.spec = spec
        self.pending: list[TaskSpec] = []
        self.running: dict[str, tuple[float, float, float]] = {}  # id -> (start, finish, mb)
        self.completed_count = 0
        self.rate_sum = 0.0
        self._bootstrap = bootstrap
        self._bootstrap_rate: float | None = None

    def rate(self) -> float:
        """MB/s: the mean over completed tasks, or the predictor-derived
        bootstrap rate until the first completion."""
        observed = self.rate_sum / self.completed_count if self.completed_count else 0.0
        if observed > 0:
            return observed
        if self._bootstrap_rate is None:
            self._bootstrap_rate = self._bootstrap()
        return self._bootstrap_rate

    def remaining(self, now: float) -> float:
        """Estimated seconds until the queue drains: the unfinished share of
        the running blocks plus all pending blocks, at `rate()`."""
        spans = [(max(0.0, min(1.0, (now - s) / (f - s) if f > s else 1.0)), mb)
                 for s, f, mb in self.running.values()]
        cur_mb = sum(mb for _, mb in spans)
        if cur_mb <= 0 and not self.pending:
            return 0.0
        rate = self.rate()
        if rate <= 0:
            return math.inf
        prog = sum(p * mb for p, mb in spans) / cur_mb if cur_mb > 0 else 0.0
        rem = cur_mb * (1.0 - prog) / rate
        rem += sum(t.block_mb for t in self.pending) / rate
        return rem


def validate_schedule(
    g: ClusterGraph, workload: Workload, assignment: dict[str, str]
) -> None:
    """Raise unless `assignment` (task id -> node id) covers exactly the
    workload's tasks, names only known nodes, and keeps every node's summed
    block data within its capacity."""
    tasks = {t.id: t for t in workload.tasks}
    used: dict[str, float] = {}
    for tid, nid in assignment.items():
        if tid not in tasks:
            raise ValueError(f"schedule references unknown task {tid}")
        g.node(nid)
        used[nid] = used.get(nid, 0.0) + tasks[tid].block_mb
    missing = [t for t in tasks if t not in assignment]
    if missing:
        raise ValueError(f"schedule does not cover tasks: {missing[:3]}")
    for nid, mb in used.items():
        cap = g.node(nid).capacity_mb
        if mb > cap + CAPACITY_SLACK_MB:
            raise ValueError(f"schedule puts {mb:g} MB on node {nid}, over its {cap:g} MB capacity")


def simulate(
    g: ClusterGraph,
    plan: PlacementPlan,
    schedule: dict[str, str],
    workload: Workload,
    config: RuntimeConfig,
    predictor=None,
) -> SimTrace:
    """Execute `schedule` (task id -> node id), which must pass
    `validate_schedule`, and return the event trace plus run metrics.
    Each node runs its local tasks before its remote ones, ties by task
    id."""
    config.validate()
    validate_schedule(g, workload, schedule)
    predictor = predictor or TrueTimeModel()
    tasks = {t.id: t for t in workload.tasks}

    blackout_node, blackout_time = (None, math.inf)
    if config.replica_blackout is not None:
        blackout_node, blackout_time = config.replica_blackout

    def replicas_of(block_id: str, now: float) -> tuple[str, ...]:
        reps = plan.replicas(block_id)
        if now >= blackout_time and blackout_node in reps and len(reps) > 1:
            reps = tuple(r for r in reps if r != blackout_node)
        return reps

    # --- node state ------------------------------------------------------
    node_ids = g.node_ids()
    row = {nid: i for i, nid in enumerate(node_ids)}
    col = {t.id: j for j, t in enumerate(workload.tasks)}
    table: np.ndarray | None = None

    def t_pred() -> np.ndarray:
        """The run's one prediction table, (node, task) in sorted-id and
        workload order, built on first read."""
        nonlocal table
        if table is None:
            table = np.asarray(
                predictor.predict_matrix([g.node(nid) for nid in node_ids], list(workload.tasks)),
                dtype=float,
            )
        return table

    def bootstrap_rate(nid: str, assigned: list[TaskSpec]) -> float:
        """Mean block over mean predicted time of the node's tasks."""
        ts = float(np.mean(t_pred()[row[nid], [col[t.id] for t in assigned]])) if assigned else 0.0
        if ts > 0:
            return float(np.mean([t.block_mb for t in assigned])) / ts
        return g.node(nid).io_mbps

    by_node: dict[str, list[TaskSpec]] = {}
    for tid, nid in schedule.items():
        by_node.setdefault(nid, []).append(tasks[tid])
    rt = {
        nid: _NodeRt(g.node(nid), lambda nid=nid: bootstrap_rate(nid, by_node.get(nid, [])))
        for nid in node_ids
    }

    # --- transfers under snapshot fair share -----------------------------
    paths = g.paths
    demand_flows: dict[tuple[str, str], int] = {}  # link endpoints -> active flows
    # each node's (uplink, rack core link) as (endpoints, MB/s), and its rack:
    # a route is the two uplinks, plus both core links between racks
    hops = {}
    for nid in node_ids:
        rack = g.rack_of(nid)
        up, core = g.uplinks[nid], g.core_links[rack]
        hops[nid] = (up.endpoints, up.bandwidth_mbps), (core.endpoints, core.bandwidth_mbps), rack

    def transfer(src: str, dst: str, mb: float) -> tuple[float, str, tuple]:
        """(seconds, src, route links) to fetch `mb` MB from src to dst: the
        bottleneck of each link's bandwidth shared by its active flows and
        this one, plus the route's extras from `paths`; with no other flow,
        the table's price."""
        up_d, core_d, rack_d = hops[dst]
        up_s, core_s, rack_s = hops[src]
        links = (up_d, up_s) if rack_d == rack_s else (up_d, core_d, core_s, up_s)
        rate = min(bw / (demand_flows.get(k, 0) + 1) for k, bw in links)
        return mb / rate + paths.extras(dst, src), src, links

    def release_flows(keys: list) -> None:
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
    network_mb = 0.0
    local_exec = 0
    queued = 0  # pending tasks over all nodes
    pending_flow_keys: dict[str, list] = {}  # task id -> registered links

    for nid, ts in by_node.items():
        state = rt[nid]
        # local tasks first, then remote ones, ties by task id
        for t in sorted(ts, key=lambda t: (not plan.is_local(nid, t.block_id), t.id)):
            arrival = workload.arrivals.get(t.id, 0.0)
            if arrival <= 0.0:
                state.pending.append(t)
                queued += 1
            else:
                push(arrival, "arrival", nid, t.id)

    _pt_cache: dict[tuple, float] = {}

    def predicted_time(nid: str, task: TaskSpec, now: float) -> float:
        key = (nid, task.id, now >= blackout_time)
        hit = _pt_cache.get(key)
        if hit is not None:
            return hit
        base = float(t_pred()[row[nid], col[task.id]])
        reps = replicas_of(task.block_id, now)
        if nid not in reps:
            base += min(paths.seconds(nid, r, task.block_mb) for r in reps)
        _pt_cache[key] = base
        return base

    def begin_compute(nid: str, task: TaskSpec, now: float, remote: bool) -> None:
        nonlocal local_exec
        service = true_service_time(rt[nid].spec, task)
        if remote:
            service += config.sync_delay_s
        else:
            local_exec += 1
        start = rt[nid].running[task.id][0]
        rt[nid].running[task.id] = (start, now + service, task.block_mb)
        push(now + service, "task_done", nid, task.id)

    def try_start(nid: str, now: float) -> None:
        nonlocal network_mb, queued
        state = rt[nid]
        while state.pending and len(state.running) < state.spec.slots:
            task = state.pending.pop(0)
            queued -= 1
            state.running[task.id] = (now, math.inf, task.block_mb)
            events.append(SimEvent(now, "start", task.id, nid))
            reps = replicas_of(task.block_id, now)
            if nid in reps:
                begin_compute(nid, task, now, remote=False)
            else:
                # the least (seconds, replica id), each replica priced once
                dur, src, links = min(transfer(r, nid, task.block_mb) for r in reps)
                keys = [k for k, _ in links]
                for k in keys:
                    demand_flows[k] = demand_flows.get(k, 0) + 1
                pending_flow_keys[task.id] = keys
                network_mb += task.block_mb
                events.append(SimEvent(now, "transfer", task.id, nid, f"from={src}"))
                push(now + dur, "xfer_done", nid, task.id)

    counts = dict.fromkeys(("rounds", "picks", "candidates", "moves", "no_gain"), 0)

    def migration_round(now: float) -> None:
        if not config.enable_migration:
            return
        counts["rounds"] += 1
        if not queued:
            return  # nothing to steal: skip the per-node scan
        # `try_start` fills every free slot from the pending queue, so a node
        # with a free slot holds no pending task: thieves are never victims,
        # and a stolen task starts at once. `now` is fixed for the round, so
        # a victim's remaining time changes only when a steal takes from it.
        rem: dict[str, float] = {}
        taken: dict[str, int] = {}
        for _ in range(4 * THETA_MIG):
            thieves = [
                nid
                for nid in node_ids
                if len(rt[nid].running) < rt[nid].spec.slots and taken.get(nid, 0) < THETA_MIG
            ]
            loaded = [nid for nid in node_ids if rt[nid].pending]
            if not thieves or not loaded:
                break
            for nid in loaded:
                if nid not in rem:
                    rem[nid] = rt[nid].remaining(now)
            counts["picks"] += 1
            # (-gain, task id, thief, victim): the least is the largest gain,
            # the first in (task id, thief) order on a tie
            candidates: list[tuple[float, str, str, str]] = []
            for src in sorted(loaded, key=lambda n: (-rem[n], n))[:3]:
                for task in rt[src].pending[-8:]:
                    counts["candidates"] += len(thieves)
                    for dst in thieves:
                        gain = rem[src] - predicted_time(dst, task, now)
                        if gain > 0:
                            candidates.append((-gain, task.id, dst, src))
                        else:
                            counts["no_gain"] += 1
            if not candidates:
                break
            _, tid, dst, src = min(candidates)
            task = tasks[tid]
            rt[src].pending.remove(task)
            rt[dst].pending.append(task)
            taken[dst] = taken.get(dst, 0) + 1
            counts["moves"] += 1
            events.append(SimEvent(now, "migrate", tid, dst, f"from={src}"))
            try_start(dst, now)
            del rem[src]  # recomputed at the next pick if it still has pending tasks

    for nid in node_ids:
        try_start(nid, 0.0)

    completion = 0.0
    finished: set[str] = set()
    while heap:
        now, _, kind, nid, ref = heapq.heappop(heap)
        state = rt[nid]
        if kind == "arrival":
            state.pending.append(tasks[ref])
            queued += 1
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
        migrations=counts["moves"],
        prefetches=0,
        tasks=len(tasks),
    )
    return SimTrace(events=tuple(events), metrics=metrics, runtime_counts=counts)
