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
runtime state, which keeps the sums that depend only on its queue, its
running set and its rate until one of them changes; the remaining time
then makes one pass over the running set, with no intermediate list.
`SimTrace.runtime_counts` counts the rounds, the picks that scored
candidates, the (task, thief) candidates scored, the moves, and
`no_gain`, the pairs whose gain was not positive.
`RuntimeConfig` holds only what differs between schedulers and runs:
migration on or off, the rsync delay per remote access, and the recovery
blackout.

A round costs what it decides. The engine keeps two sets up to date
wherever a queue or a running set changes: the nodes with a free slot and
the nodes with a pending task. A round with either set empty returns at
once and reads no node state; otherwise the thieves are read from the
first set and the victims from the second. `now` is fixed within a round,
so a victim's remaining time changes only when a steal takes from it. A
victim enters the round's ranking at an upper bound on its remaining time
(its running blocks counted whole) and is ranked by its exact time only
once it reaches the top 3; the bound is never below the exact time, so
the top 3 are those of an exact ranking. A pick scores every (candidate,
thief) pair at once as one numpy array: the candidates sorted by task id
are the rows, the thieves in node-id order the columns, and the move is
the first largest positive gain in row-major order, which is the (task
id, thief) tie order. A predicted time is gathered from one (node, task)
array priced from the prediction table and the path table's
`bandwidth`/`extras_s` arrays with the same `mb / bw + extras` arithmetic
as a single fetch price; a node's row is priced for every task at its
first pick as a thief, and all rows are priced afresh once the blackout
changes which replicas are readable.

Every prediction a run reads, the bootstrap rates and the steal rule's
predicted times, is a cell of one `predictor.predict_matrix` table over
the run's cluster view and the workload's tasks. Only a steal round reads
them, so the table is built on first read, in a steal round only, and a
node's bootstrap rate on the round's first read of it: a run without
migration, or whose rounds never find both a pending task and a free
slot, predicts nothing.
The rest of a run costs what its events cost: a fetch prices each replica
once, on routes composed from per-node (uplink, rack core link) data built
once per run.

One run is strictly single-threaded and draws no random numbers;
identical inputs give a bit-identical trace.
"""

from __future__ import annotations

import bisect
import heapq
import math
import operator
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


_RUNNING_MB = operator.itemgetter(2)  # of a running entry (start, finish, MB)
_BLOCK_MB = operator.attrgetter("block_mb")


class _NodeRt:
    """Mutable per-node runtime state inside one simulation, and the
    per-node quantities the migration rule reads from it: rate and
    remaining time. `bootstrap` is a zero-argument callable giving the
    predictor-derived rate; it is called at most once, on the first read
    of the rate before any completion, so a run that never asks pays no
    prediction. The queue, the running set and the rate change only
    through `queue`, `take` (whose caller starts the task at once or queues
    it elsewhere) and `finish`, so the parts of the remaining time that
    depend on them alone are kept until one of these runs; a running
    entry's finish time enters only the done share, read afresh."""

    __slots__ = ("spec", "pending", "running", "completed_count", "rate_sum", "_bootstrap",
                 "_bootstrap_rate", "_drain")

    def __init__(self, spec, bootstrap):
        self.spec = spec
        self.pending: list[TaskSpec] = []
        self.running: dict[str, tuple[float, float, float]] = {}  # id -> (start, finish, mb)
        self.completed_count = 0
        self.rate_sum = 0.0
        self._bootstrap = bootstrap
        self._bootstrap_rate: float | None = None
        # (running MB, rate, pending seconds), or None until next read
        self._drain: tuple[float, float, float] | None = None

    def queue(self, task: TaskSpec) -> None:
        self.pending.append(task)
        self._drain = None

    def take(self, i: int = 0) -> TaskSpec:
        """Remove and return the `i`-th pending task."""
        self._drain = None
        return self.pending.pop(i)

    def finish(self, task_id: str, now: float) -> None:
        """Drop a running task done at `now` and add its MB/s to the rate."""
        start, _, mb = self.running.pop(task_id)
        self.completed_count += 1
        self.rate_sum += mb / max(now - start, 1e-12)
        self._drain = None

    def rate(self) -> float:
        """MB/s: the mean over completed tasks, or the predictor-derived
        bootstrap rate until the first completion."""
        observed = self.rate_sum / self.completed_count if self.completed_count else 0.0
        if observed > 0:
            return observed
        if self._bootstrap_rate is None:
            self._bootstrap_rate = self._bootstrap()
        return self._bootstrap_rate

    def _drain_parts(self) -> tuple[float, float, float]:
        """Compute and keep (running MB, rate, pending seconds): (0, 0.0, 0.0)
        for an idle node and (0, 0.0, inf) at no rate, so that `remaining`
        returns the third."""
        # sums stay `sum()`, whose float result (compensated from Python
        # 3.12) a hand-written loop would not match
        cur_mb = sum(map(_RUNNING_MB, self.running.values()))
        if cur_mb <= 0 and not self.pending:
            self._drain = (0, 0.0, 0.0)
        elif (rate := self.rate()) <= 0:
            self._drain = (0, 0.0, math.inf)
        else:
            self._drain = (cur_mb, rate, sum(map(_BLOCK_MB, self.pending)) / rate)
        return self._drain

    def remaining(self, now: float) -> float:
        """Estimated seconds until the queue drains: the unfinished share of
        the running blocks plus all pending blocks, at `rate()`. One pass
        over the running set, with no intermediate list."""
        cur_mb, rate, rem = self._drain or self._drain_parts()
        if cur_mb > 0:
            # the share of [start, finish] elapsed at `now`, clamped to [0, 1]
            done = sum((1.0 if now >= f else (now - s) / (f - s) if now > s else 0.0) * mb
                       for s, f, mb in self.running.values())
            rem = cur_mb * (1.0 - done / cur_mb) / rate + rem
        return rem

    def remaining_bound(self) -> float:
        """An upper bound on `remaining(now)` at every `now`, as floats: the
        running blocks counted whole. `remaining` scales the running MB by
        one less the done share, at most 1, and rounding is monotone, so
        each step it takes is at most the bound's."""
        cur_mb, rate, rem = self._drain or self._drain_parts()
        if cur_mb > 0:
            rem = cur_mb / rate + rem
        return rem


def pick_steal(rem: np.ndarray, pred: np.ndarray) -> tuple[tuple[int, int] | None, int]:
    """One steal pick. `pred[i, k]` is the predicted seconds of candidate
    task i on thief k, rows in task-id order and columns in node-id order,
    and `rem[i]` the remaining time of the node task i is queued on; a
    cell's gain is `rem[i] - pred[i, k]`. Returns the (row, column) of the
    largest positive gain, the first in row-major order on a tie, which is
    the least (task id, thief); or None when no gain is positive. Also
    returns the count of cells whose gain is not positive."""
    gain = rem[:, None] - pred
    np.fmax(gain, 0.0, out=gain)  # a gain that is not positive (or NaN) reads 0
    positive = int(np.count_nonzero(gain))
    if not positive:
        return None, gain.size
    return divmod(int(gain.argmax()), gain.shape[1]), gain.size - positive


class _StealTimes:
    """Predicted seconds of each task on each node as the steal rule reads
    them, (node, task) in the prediction table's order: the table's
    prediction plus the least path-table fetch price over the task's
    readable replicas, a replica on the node itself costing 0 (the path
    table's diagonal is an infinite bandwidth and no extras). `replicas`
    holds the path-table rows of each task's readable replicas, (replica,
    task), padded to one count with the first. A node's row is priced for
    every task at once, on its first read."""

    def __init__(self, table: np.ndarray, paths, replicas: np.ndarray, block_mb: np.ndarray):
        self.table, self.paths, self.replicas, self.block_mb = table, paths, replicas, block_mb
        self.times = np.empty_like(table)
        self.priced: set[int] = set()

    def gather(self, nodes: list[int], cols: np.ndarray) -> np.ndarray:
        """(task, node) times of the tasks in columns `cols` on the nodes in
        rows `nodes`."""
        for i in nodes:
            if i not in self.priced:
                fetch = self.block_mb / self.paths.bandwidth[i].take(self.replicas)
                fetch += self.paths.extras_s[i].take(self.replicas)
                self.times[i] = self.table[i] + fetch.min(axis=0)
                self.priced.add(i)
        return self.times[nodes, cols[:, None]]


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
    pending_flow_keys: dict[str, list] = {}  # task id -> registered links
    # every change to a queue or a running set ends in `try_start`, which
    # updates both sets, except a steal's on its victim, which the round
    # updates itself; a node with a free slot holds no pending task, since
    # the start loop fills every free slot first
    free: set[str] = set()  # nodes with a free slot: the thieves
    loaded: set[str] = set()  # nodes with a pending task: the victims

    for nid, ts in by_node.items():
        state = rt[nid]
        # local tasks first, then remote ones, ties by task id
        for t in sorted(ts, key=lambda t: (not plan.is_local(nid, t.block_id), t.id)):
            arrival = workload.arrivals.get(t.id, 0.0)
            if arrival <= 0.0:
                state.queue(t)
            else:
                push(arrival, "arrival", nid, t.id)

    # the steal rule's predicted times, built on the first pick and again
    # once the blackout changes which replicas are readable: (after the
    # blackout, the times)
    steal_times: tuple[bool, _StealTimes] | None = None

    def predicted_times(thieves: list[int], cols: np.ndarray, now: float) -> np.ndarray:
        """(candidate, thief) predicted seconds of the tasks in table columns
        `cols` on the nodes in table rows `thieves`."""
        nonlocal steal_times
        after = now >= blackout_time
        if steal_times is None or steal_times[0] != after:
            reps = [[row[r] for r in replicas_of(t.block_id, now)] for t in workload.tasks]
            width = max(map(len, reps))
            steal_times = after, _StealTimes(
                t_pred(),
                paths,
                np.array([r + r[:1] * (width - len(r)) for r in reps]).T.copy(),
                np.array([t.block_mb for t in workload.tasks]),
            )
        return steal_times[1].gather(thieves, cols)

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
        nonlocal network_mb
        state = rt[nid]
        while state.pending and len(state.running) < state.spec.slots:
            task = state.take()
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
        if state.pending:
            loaded.add(nid)
            free.discard(nid)
        else:
            loaded.discard(nid)
            if len(state.running) < state.spec.slots:
                free.add(nid)
            else:
                free.discard(nid)

    counts = dict.fromkeys(("rounds", "picks", "candidates", "moves", "no_gain"), 0)

    def migration_round(now: float) -> None:
        if not config.enable_migration:
            return
        counts["rounds"] += 1
        if not loaded or not free:
            return  # no victim or no thief: read no node state
        # thieves are never victims, and a stolen task starts at once. `now`
        # is fixed for the round, so a victim's remaining time changes only
        # when a steal takes from it. `ranked` holds (-remaining time, node,
        # exact) for every victim, least first; an entry starts from the
        # node's `remaining_bound` and is made exact once it reaches the top
        # 3. A bound is never below the exact time, so the top 3 are those
        # of a ranking by exact times, ties by node id included. A steal's
        # victim is ranked again at the next pick if it still has pending
        # tasks.
        ranked = sorted((-rt[nid].remaining_bound(), nid, False) for nid in loaded)
        taken: dict[str, int] = {}
        src = None
        for _ in range(4 * THETA_MIG):
            thieves = sorted(nid for nid in free if taken.get(nid, 0) < THETA_MIG)
            if not thieves or not loaded:
                break
            if src in loaded:
                bisect.insort(ranked, (-rt[src].remaining_bound(), src, False))
            k = 0
            while k < min(3, len(ranked)):
                if ranked[k][2]:
                    k += 1
                else:
                    nid = ranked.pop(k)[1]
                    bisect.insort(ranked, (-rt[nid].remaining(now), nid, True))
            counts["picks"] += 1
            # one row per candidate, the last 8 pending tasks of each of the 3
            # victims, in task-id order: (task id, table column, victim's
            # remaining time, victim, index in its queue)
            cands = []
            for neg, nid, _ in ranked[:3]:
                queue = rt[nid].pending
                cands += [(queue[i].id, col[queue[i].id], -neg, nid, i)
                          for i in range(max(0, len(queue) - 8), len(queue))]
            cands.sort()
            _, cols, rems, _, _ = zip(*cands)
            pred = predicted_times([row[nid] for nid in thieves], np.array(cols), now)
            pick, no_gain = pick_steal(np.array(rems), pred)
            counts["candidates"] += pred.size
            counts["no_gain"] += no_gain
            if pick is None:
                break
            _, _, rem_src, src, i = cands[pick[0]]
            dst = thieves[pick[1]]
            ranked.remove((-rem_src, src, True))
            task = rt[src].take(i)
            if not rt[src].pending:
                loaded.discard(src)
            rt[dst].queue(task)
            taken[dst] = taken.get(dst, 0) + 1
            counts["moves"] += 1
            events.append(SimEvent(now, "migrate", task.id, dst, f"from={src}"))
            try_start(dst, now)

    for nid in node_ids:
        try_start(nid, 0.0)

    completion = 0.0
    finished: set[str] = set()
    while heap:
        now, _, kind, nid, ref = heapq.heappop(heap)
        state = rt[nid]
        if kind == "arrival":
            state.queue(tasks[ref])
            try_start(nid, now)
        elif kind == "xfer_done":
            release_flows(pending_flow_keys.pop(ref))
            begin_compute(nid, tasks[ref], now, remote=True)
        elif kind == "task_done":
            state.finish(ref, now)
            if ref in finished:
                raise RuntimeError(f"task {ref} finished twice")
            finished.add(ref)
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
