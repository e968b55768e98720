"""Deterministic discrete-event execution of a schedule.

Ground truth for a task on a node is `block/io + gcycles/cpu` seconds
(local read plus compute); remote data pays a fair-share network transfer
first, from the replica with the least contended fetch time. Fair sharing
is snapshot-based: a transfer's rate is fixed when it starts, at `min over
path links of bandwidth / (active demand flows + 1)`, and it adds the
route's extras (link queue delays plus tier latency). The route data lives
with the cluster's path table, built once per cluster: each node's uplink,
its rack's core link and its rack (`cluster.NodeRoute`), shared by a
straggler view and rebuilt by `scale_bandwidth`, so the colony's price and
the simulator's contention read one owner of a route's links. A fetch is
priced by one loop over the replicas (`PathTable.fair_share_fetch`): per
replica, the rate is the least of bw / (flows + 1) over its route's links,
the seconds are `mb / rate + extras`, the extras summed as the table sums
them, and the least (seconds, replica id) wins. Active flows are counted
per link id in a list. With no other flow on its links, a fetch costs
exactly the table's price, the one the colony and the steal rule read.

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

A round costs what it changes. The engine keeps two sets up to date
wherever a queue or a running set changes: the nodes with a free slot and
the nodes with a pending task. A round with either set empty returns at
once and reads no node state; otherwise the thieves are the first set,
sorted once per round, and the victims come from a heap kept across
rounds (`_Victims`). The engine marks a node whose queue or running set
changed (a finisher, an arrival's node, a steal's thief and victim), and
only a marked node is pushed afresh, at an upper bound on its remaining
time (its running blocks counted whole); stale entries are dropped when
they surface. An entry is made exact once it reaches the top 3, and that
exact time stays the node's key in later rounds while it is unmarked:
for a fixed queue and running set the remaining time does not grow with
`now`, nor when a fetch's finish becomes known. No key is below its
node's exact time, so the top 3 are those of an exact ranking, ties by
node id included. A pick scores every (candidate, thief) pair in one
loop on Python floats (`pick_steal`): the candidates sorted by task id
against the thieves in node-id order, each thief's predicted times read
through a `memoryview` of its priced row, and the move is the first
largest positive gain under a strict `>`, which is the (task id, thief)
tie order. A predicted time is the prediction table's cell plus the path
table's cheapest fetch over the readable replicas
(`PathTable.cheapest_fetch`, the rule the colony prices a remote cell
by). A node's row is priced for every task at its first pick as a
thief, and all rows are priced afresh once the blackout changes which
replicas are readable. A run without migration keeps no heap and marks
no node.

Every prediction a run reads, the bootstrap rates and the steal rule's
predicted times, is a cell of one `predictor.predict_table` over the
run's cluster view and the workload's tasks. Only a steal round reads
them, so the table is built on first read, in a steal round only, and a
node's bootstrap rate on the round's first read of it: a run without
migration, or whose rounds never find both a pending task and a free
slot, predicts nothing.
The rest of a run costs what its events cost. At t = 0 a node with queued
work runs the start loop, in node-id order, and an idle node joins the
free set without it; a run builds no per-node route or closure of its
own, and an event record is a plain tuple made a `SimEvent` without
NamedTuple's per-call argument handling.

One run is strictly single-threaded and draws no random numbers;
identical inputs give a bit-identical trace.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .cluster import CAPACITY_SLACK_MB, ClusterGraph
from .placement import PlacementPlan
from .predictor import predict_table
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


def check_stragglers(fraction: float = 0.0, slowdown: float | None = None) -> None:
    """Raise unless `fraction` is in [0, 1) and `slowdown` is finite and
    > 1; an omitted argument passes. A NaN or infinite slowdown would give
    the slowed nodes NaN or 0 GHz."""
    if not 0.0 <= fraction < 1.0:
        raise ValueError("fraction must be in [0, 1)")
    if slowdown is not None and not (slowdown > 1.0 and math.isfinite(slowdown)):
        raise ValueError("slowdown must be > 1 and finite")


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
        """Raise unless the sync delay is finite and >= 0 and a blackout is
        a (node id, time) pair at a time that is not NaN; `simulate` also
        checks that the node is the cluster's."""
        if not (self.sync_delay_s >= 0 and math.isfinite(self.sync_delay_s)):
            raise ValueError(f"sync_delay_s must be finite and >= 0, got {self.sync_delay_s!r}")
        if self.replica_blackout is not None:
            try:
                _, when = self.replica_blackout
            except (TypeError, ValueError):
                raise ValueError("replica_blackout must be a (node id, time) pair") from None
            if isinstance(when, bool) or not isinstance(when, (int, float)) or math.isnan(when):
                raise ValueError(f"replica_blackout time must be a number, not NaN, got {when!r}")


class SimEvent(NamedTuple):
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

    def metrics_dict(self) -> dict:
        return asdict(self.metrics)


# an event record without NamedTuple.__new__'s per-call argument handling:
# _new_event(SimEvent, (time, kind, task id, node id, info)) is the same tuple
_new_event = tuple.__new__
_RUNNING_MB = operator.itemgetter(2)  # of a running entry (start, finish, MB)
_BLOCK_MB = operator.attrgetter("block_mb")


class _NodeRt:
    """Mutable per-node runtime state inside one simulation, and the
    per-node quantities the migration rule reads from it: rate and
    remaining time. `bootstrap` is a callable of the node's state giving
    the predictor-derived rate, one shared by every node of a run; it is
    called at most once per node, on the first read
    of the rate before any completion, so a run that never asks pays no
    prediction. The queue, the running set and the rate change only
    through `queue`, `take` (whose caller starts the task at once or queues
    it elsewhere) and `finish`, so the parts of the remaining time that
    depend on them alone are kept until one of these runs; a running
    entry's finish time enters only the done share, read afresh. Between
    two such changes `remaining(now)` does not grow with `now`, and a
    fetch's entry (start, inf, MB) given its finish by the engine lowers
    it or keeps it, so an exact time read earlier bounds every later one:
    the steal rule's victim heap keeps it as the node's key."""

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
            self._bootstrap_rate = self._bootstrap(self)
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


def pick_steal(rems, cols, rows) -> tuple[tuple[int, int] | None, int]:
    """One steal pick, on Python floats. `rows[k][cols[i]]` is the
    predicted seconds of candidate task i on thief k, candidates in task-id
    order and thieves in node-id order, and `rems[i]` the remaining time of
    the node task i is queued on; a cell's gain is `rems[i] - rows[k][cols[i]]`.
    Returns the (candidate, thief) of the largest positive gain, the first
    in (candidate, thief) order on a tie, which is the least (task id,
    thief); or None when no gain is positive. Also returns the count of
    cells whose gain is not positive (NaN included)."""
    best, pick, no_gain = 0.0, None, 0
    for i, (rem, c) in enumerate(zip(rems, cols)):
        for k, r in enumerate(rows):
            gain = rem - r[c]
            if gain > best:  # strict: a tie keeps the first
                best, pick = gain, (i, k)
            elif not gain > 0:
                no_gain += 1
    return pick, no_gain


class _StealTimes:
    """Predicted seconds of each task on each node as the steal rule reads
    them: the prediction table's row plus the path table's cheapest fetch
    over the task's readable replicas, a replica on the node itself
    costing 0. `replicas` holds each task's row of `PathTable.replica_index`
    over its readable replicas. A node's row is priced for every task at
    once, on its first read, and read as a `memoryview`, whose items are
    Python floats."""

    def __init__(self, table: np.ndarray, paths, replicas: np.ndarray, block_mb: np.ndarray):
        self.table, self.paths, self.replicas, self.block_mb = table, paths, replicas, block_mb
        self.rows: dict[str, memoryview] = {}

    def rows_of(self, nids: list[str]) -> list[memoryview]:
        """The rows of the nodes `nids`, each indexed by table column."""
        out = list(map(self.rows.get, nids))
        if None in out:
            for k, nid in enumerate(nids):
                if out[k] is None:
                    i = self.paths.index[nid]
                    fetch, _ = self.paths.cheapest_fetch(i, self.replicas, self.block_mb)
                    out[k] = self.rows[nid] = memoryview(self.table[i] + fetch)
        return out


class _Victims:
    """The steal rule's victims, ranked across rounds: the nodes in `loaded`
    (the engine's set of nodes with a pending task) by remaining time, most
    first, ties by node id. One heap holds (-key, node id, round) entries.
    An entry is current while it is the last pushed for its node and the
    node is loaded; the others are dropped when they surface. The engine
    marks a node whenever its queue or running set changes, and a node that
    becomes loaded is always marked. `top` pushes each marked loaded node at
    its `remaining_bound()`, then pops entries until it holds 3 keyed by the
    exact `remaining(now)` of the current round, making exact each entry it
    pops keyed otherwise. An exact key stays in the heap and serves later
    rounds while its node is unmarked: for a fixed queue and running set,
    the remaining time does not grow with `now`, nor when a fetch's unknown
    finish becomes known. Every key is thus at least its node's exact time,
    and the 3 exact entries popped first are the top 3 of an exact ranking,
    ties by node id included."""

    def __init__(self, rt: dict[str, _NodeRt], loaded: set[str]):
        self.rt, self.loaded = rt, loaded
        self.heap: list[tuple[float, str, int]] = []
        self.current: dict[str, tuple[float, str, int]] = {}
        self.marked: set[str] = set(loaded)
        self.round = 0  # round 0 keys are bounds, never exact

    def begin_round(self) -> None:
        """Start a round: the exact keys of earlier rounds become bounds."""
        self.round += 1

    def top(self, now: float) -> list[tuple[float, str, int]]:
        """The current entries (-remaining(now), node id, round) of the at
        most 3 loaded nodes with the most remaining time, least first."""
        heap, current, loaded, rt, rnd = self.heap, self.current, self.loaded, self.rt, self.round
        for nid in self.marked:
            if nid in loaded:
                current[nid] = entry = (-rt[nid].remaining_bound(), nid, 0)
                heapq.heappush(heap, entry)
        self.marked.clear()
        if len(heap) > 2 * len(loaded) + 16:  # drop stale entries
            heap[:] = [e for e in heap if e[1] in loaded and current[e[1]] is e]
            heapq.heapify(heap)
        top = []
        entry = None
        while len(top) < 3:
            if entry is None:
                if not heap:
                    break
                entry = heapq.heappop(heap)
            nid = entry[1]
            if nid not in loaded or current[nid] is not entry:
                entry = None
            elif entry[2] == rnd:
                top.append(entry)
                entry = None
            else:
                # exact now; popped back at once when it still ranks first
                current[nid] = entry = (-rt[nid].remaining(now), nid, rnd)
                entry = heapq.heappushpop(heap, entry)
        for entry in top:
            heapq.heappush(heap, entry)
        return top


def validate_schedule(
    g: ClusterGraph, workload: Workload, assignment: dict[str, str]
) -> None:
    """Raise unless `assignment` (task id -> node id) covers exactly the
    workload's tasks, names only known nodes, and keeps every node's summed
    block data within its capacity."""
    tasks = {t.id: t for t in workload.tasks}
    nodes = g.nodes
    used: dict[str, float] = {}
    for tid, nid in assignment.items():
        task = tasks.get(tid)
        if task is None:
            raise ValueError(f"schedule references unknown task {tid}")
        if nid not in nodes:
            g.node(nid)  # raises KeyError naming the node
        used[nid] = used.get(nid, 0.0) + task.block_mb
    # every assigned id is a task, so the assignment covers the tasks
    # exactly when it has as many entries
    if len(assignment) != len(tasks):
        missing = [t for t in tasks if t not in assignment]
        raise ValueError(f"schedule does not cover tasks: {missing[:3]}")
    for nid, mb in used.items():
        cap = nodes[nid].capacity_mb
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
        if blackout_node not in g.nodes:
            raise ValueError(f"replica_blackout names unknown node {blackout_node!r}")

    def replicas_of(block_id: str, now: float) -> tuple[str, ...]:
        reps = plan.replicas(block_id)
        if now >= blackout_time and blackout_node in reps and len(reps) > 1:
            reps = tuple(r for r in reps if r != blackout_node)
        return reps

    # --- node state ------------------------------------------------------
    paths = g.paths
    node_ids = paths.node_ids
    row = paths.index  # node id -> prediction table row
    col = {t.id: j for j, t in enumerate(workload.tasks)}
    table: np.ndarray | None = None

    def t_pred() -> np.ndarray:
        """The run's one prediction table, built on first read."""
        nonlocal table
        if table is None:
            table = predict_table(g, workload.tasks, predictor)
        return table

    def bootstrap_rate(state: _NodeRt) -> float:
        """Mean block over mean predicted time of the node's tasks."""
        nid = state.spec.id
        assigned = by_node.get(nid, [])
        ts = float(np.mean(t_pred()[row[nid], [col[t.id] for t in assigned]])) if assigned else 0.0
        if ts > 0:
            return float(np.mean([t.block_mb for t in assigned])) / ts
        return state.spec.io_mbps

    by_node: dict[str, list[TaskSpec]] = {}
    for tid, nid in schedule.items():
        by_node.setdefault(nid, []).append(tasks[tid])
    rt = {nid: _NodeRt(g.nodes[nid], bootstrap_rate) for nid in node_ids}

    # --- transfers under snapshot fair share -----------------------------
    fetch = paths.fair_share_fetch
    flows = [0] * paths.link_count  # link id -> active demand flows

    # --- engine ----------------------------------------------------------
    # (time, push order, kind, node id, task id): ties pop in push order
    heap: list[tuple[float, int, str, str, str]] = []
    seq = itertools.count()
    push = heapq.heappush

    events: list[SimEvent] = []
    network_mb = 0.0
    local_exec = 0
    fetch_links: dict[str, tuple[int, ...]] = {}  # task id -> its fetch's link ids
    # every change to a queue or a running set ends in `try_start`, which
    # updates both sets, except a steal's on its victim, which the round
    # updates itself; a node with a free slot holds no pending task, since
    # the start loop fills every free slot first
    free: set[str] = set()  # nodes with a free slot: the thieves
    loaded: set[str] = set()  # nodes with a pending task: the victims

    arrivals = workload.arrivals
    for nid, ts in by_node.items():
        state = rt[nid]
        # local tasks first, then remote ones, ties by task id
        for _, tid, t in sorted([(nid not in plan.replicas(t.block_id), t.id, t) for t in ts]):
            arrival = arrivals.get(tid, 0.0)
            if arrival <= 0.0:
                state.queue(t)
            else:
                push(heap, (arrival, next(seq), "arrival", nid, tid))

    # the steal rule's predicted times, built on the first steal round and
    # again once the blackout changes which replicas are readable: (after
    # the blackout, the times)
    steal_times: tuple[bool, _StealTimes] | None = None

    def steal_rows(thieves: list[str], now: float) -> list[memoryview]:
        """The predicted-time rows of `thieves`, indexed by table column."""
        nonlocal steal_times
        after = now >= blackout_time
        if steal_times is None or steal_times[0] != after:
            steal_times = after, _StealTimes(
                t_pred(),
                paths,
                paths.replica_index(replicas_of(t.block_id, now) for t in workload.tasks),
                np.array([t.block_mb for t in workload.tasks]),
            )
        return steal_times[1].rows_of(thieves)

    sync_delay_s = config.sync_delay_s

    def begin_compute(
        state: _NodeRt, nid: str, task: TaskSpec, start: float, now: float, remote: bool
    ) -> None:
        """Run `task`, started at `start`, from `now` on, its data at hand."""
        nonlocal local_exec
        service = true_service_time(state.spec, task)
        if remote:
            service += sync_delay_s
        else:
            local_exec += 1
        state.running[task.id] = (start, now + service, task.block_mb)
        push(heap, (now + service, next(seq), "task_done", nid, task.id))

    def try_start(nid: str, now: float) -> None:
        nonlocal network_mb
        state = rt[nid]
        pending, running, slots = state.pending, state.running, state.spec.slots
        while pending and len(running) < slots:
            task = state.take()
            tid = task.id
            events.append(_new_event(SimEvent, (now, "start", tid, nid, "")))
            reps = replicas_of(task.block_id, now)
            if nid in reps:
                begin_compute(state, nid, task, now, now, False)
            else:
                running[tid] = (now, math.inf, task.block_mb)  # finish unknown until fetched
                dur, src, links = fetch(nid, reps, task.block_mb, flows)
                for k in links:
                    flows[k] += 1
                fetch_links[tid] = links
                network_mb += task.block_mb
                events.append(_new_event(SimEvent, (now, "transfer", tid, nid, f"from={src}")))
                push(heap, (now + dur, next(seq), "xfer_done", nid, tid))
        if pending:
            loaded.add(nid)
            free.discard(nid)
        else:
            loaded.discard(nid)
            if len(running) < slots:
                free.add(nid)
            else:
                free.discard(nid)

    counts = dict.fromkeys(("rounds", "picks", "candidates", "moves", "no_gain"), 0)

    def migration_round(now: float) -> None:
        counts["rounds"] += 1
        if not loaded or not free:
            return  # no victim or no thief: read no node state
        # thieves are never victims, and a stolen task starts at once, so
        # within a round only a steal's thief leaves the thieves and only
        # its victim changes rank
        victims.begin_round()
        thieves = sorted(free)
        rows = steal_rows(thieves, now)
        taken: dict[str, int] = {}
        for _ in range(4 * THETA_MIG):
            if not thieves or not loaded:
                break
            counts["picks"] += 1
            # one row per candidate, the last 8 pending tasks of each of the
            # 3 victims, in task-id order: (task id, index in its queue,
            # victim, victim's remaining time)
            cands = []
            for neg, nid, _ in victims.top(now):
                queue = rt[nid].pending
                cands += [(queue[i].id, i, nid, -neg) for i in range(max(0, len(queue) - 8), len(queue))]
            cands.sort()
            pick, no_gain = pick_steal([c[3] for c in cands], [col[c[0]] for c in cands], rows)
            counts["candidates"] += len(cands) * len(thieves)
            counts["no_gain"] += no_gain
            if pick is None:
                break
            _, i, src, _ = cands[pick[0]]
            k = pick[1]
            dst = thieves[k]
            task = rt[src].take(i)
            if not rt[src].pending:
                loaded.discard(src)
            rt[dst].queue(task)
            mark(src)
            mark(dst)
            taken[dst] = taken.get(dst, 0) + 1
            counts["moves"] += 1
            events.append(_new_event(SimEvent, (now, "migrate", task.id, dst, f"from={src}")))
            try_start(dst, now)
            if dst not in free or taken[dst] == THETA_MIG:
                del thieves[k], rows[k]

    # an idle node has a free slot and nothing to start
    for nid in node_ids:
        if rt[nid].pending:
            try_start(nid, 0.0)
        else:
            free.add(nid)

    migrate = config.enable_migration
    if migrate:
        victims = _Victims(rt, loaded)
        mark = victims.marked.add
    completion = 0.0
    finished: set[str] = set()
    while heap:
        now, _, kind, nid, ref = heapq.heappop(heap)
        state = rt[nid]
        if kind == "arrival":
            state.queue(tasks[ref])
            try_start(nid, now)
            if migrate:
                mark(nid)
        elif kind == "xfer_done":
            for k in fetch_links.pop(ref):
                flows[k] -= 1
            begin_compute(state, nid, tasks[ref], state.running[ref][0], now, True)
        elif kind == "task_done":
            state.finish(ref, now)
            if ref in finished:
                raise RuntimeError(f"task {ref} finished twice")
            finished.add(ref)
            events.append(_new_event(SimEvent, (now, "finish", ref, nid, "")))
            completion = max(completion, now)
            try_start(nid, now)
            if migrate:
                mark(nid)
                migration_round(now)

    if len(finished) != len(tasks):
        raise RuntimeError("simulation ended with unfinished tasks")

    total_mb = sum(map(_BLOCK_MB, tasks.values()))
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
