"""Task-to-node assignment: the row rules the schedulers run, and an ant
colony search.

Row rules. Each scheduler of the pipeline assigns its tasks with one
deterministic rule over its placement: scc-dso's `local_first` (each task
on the first of its block's holders with room, so the primary row
whenever that fits), and the baselines, reservation-first-fit with a
linear-regression load estimate (locality-blind), sequential
primary-affinity with a per-non-local-access synchronization delay, and
plain round robin. A rule scores one plan, so it prices only that plan's
B cells (`_plan_solution`): `price_cells`, the per-cell arithmetic `build_problem`
runs on the full (n, B) grid, at (assign[j], j), then `score_cells`, the
scorer behind `score_rows`. It never builds an `AssignmentProblem`. Its
only (n, B) array is the predictor's table (`predictor.predict_table`,
which `build_problem` reads too): reservation-first-fit reads all of it,
the other rules their B cells. A remote cell's replica is
`PathTable.cheapest_fetch`'s, as in the simulator's steal rule.

The colony. The oracle suite measures it against the exact optimum; no
scheduler of the pipeline runs it. It minimizes either the weighted
delay/cost/loss objective (with makespan as the tiebreak) or the pure
min-max makespan. Ants build
complete assignments task by task, sampling nodes in proportion to
pheromone^alpha * desirability^beta over the eligible set; desirability is
the inverse of predicted execution time with the data-access cost folded
in, so locality and speed ride the same signal. A remote cell fetches from
its cheapest replica at the price in the cluster's path table
(`ClusterGraph.paths`), the price the simulator charges an uncontended
transfer.

A solve builds one `Workspace` and drops it on return; nothing outlives
the call. It holds what every iteration would otherwise rebuild: each
task's candidate cells as flat (n, B) indices and their eta^beta (only
the trail tau changes between iterations), the (ants, B) task-order
template, the row offsets of the flat gathers and of `_row_sums`' bins,
capacity + slack and the largest demand, and, built on first use, the
replica holders and their t_eff for the two elite rows and the
Python-float t_eff rows of the hill climb. It also holds one buffer for
an iteration's rows (its ants, the first iteration's elite rows, the
climbed row and the elitist depositor), so no iteration stacks arrays.

An iteration works on its ants as one (ants, B) node-index matrix and
reads only what its picks read. `iteration_weights` evaluates
`selection_weights` once per iteration, on each task's k = min(L_MAX,
n) candidate cells (k x B cells, not n x B), and their running sums; a
task's weights at all n nodes are computed only at a step where none of
its candidates fits. `construct_colony` takes the iteration's task
orders and draws in two generator calls, then every pick in one pass:
each draw, scaled to its task's total candidate weight and kept below
it, picks the candidate whose running sum first exceeds it, counted by
k - 1 column comparisons. Those picks are the ones an ant walking its
order one task at a time (`_ant_row`) makes from the same draws as long
as no node comes near its capacity, so that every `fits` check the walk
makes holds. When an ant's final loads leave no room for the largest
demand, the iteration builds its rows with `_ant_row` from the same
orders and draws.

What an iteration then computes from its rows depends on the objective:

* weighted — `score_rows` prices every row at once: it gathers each
  row's cells from the problem's tables and hands them to `score_cells`,
  the one definition of a plan's delay, cost and loss, in which each
  total keeps a task-by-task loop's order of addition (per-node totals by
  `_row_sums`); unassigned cells are masked only when a row has one. The
  first iteration's feasible rows set the scale of each metric in the
  objective.
* makespan — the objective reads node loads alone, so `score_makespans`
  gathers each row's t_eff cells only and computes no delay, cost or
  loss. Both scorers take a row's makespan from `_node_loads`, so it has
  one definition and the same bits under either objective. The
  iteration's best feasible row is then hill-climbed (`_refine_makespan`,
  on Python floats), and a climbed row that moved joins the rows.

The objective, the trace, the best pick (the first row of least
(objective, makespan)) and the deposit read those arrays; an
`AntSolution`, with the full (delay, cost, loss) of `score_rows`, is
built only for the winner and for the row rules. After global
evaporation, every feasible row deposits Q / makespan on the edges it
used, and the best-so-far row deposits again as an elitist.

`AcoConfig` holds the settings the presets and the oracle vary (alpha,
beta, rho, ants, iterations, objective); the rest of the tuning is
fixed in module constants. A floor (`TAU_FLOOR`) keeps every pheromone
entry positive so no edge ever becomes unreachable. Candidate fan-out per
task is capped (`L_MAX`) to prune low-desirability nodes on large
clusters; capacity-feasible fallback keeps the cap from manufacturing
infeasibility. The weighted objective scores (delay, cost, loss) with
`WEIGHTS`, and the search stops early after `PATIENCE` iterations that
each improve the best value by less than `TOL` (relatively). The trail
is a plain (n, B) array, TAU0 at the start; `SolveResult.pheromones` is
its final state.

A caller solves in two steps: `build_problem` prices the grid into an
`AssignmentProblem` of the tables the solver reads, and `solve_problem`
runs the colony on it.
"""

from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, islice
from typing import Callable, NamedTuple

import numpy as np

from .cluster import CAPACITY_SLACK_MB, ClusterGraph
from .placement import PlacementPlan
from .predictor import predict_table
from .workload import TaskSpec

# the AcoConfig fields each named preset sets
PRESETS = {
    "table1": dict(alpha=1.5, beta=2.5, rho=0.2, ants=20, max_iters=50),
    "stage7": dict(alpha=0.8, beta=1.2, rho=0.1),
}


class InfeasibleScheduleError(RuntimeError):
    """Raised when no capacity-respecting assignment was found."""

    def __init__(self, message: str, diagnosis: dict | None = None):
        super().__init__(message)
        self.diagnosis = diagnosis or {}


TAU0 = 0.05  # initial pheromone on every edge
TAU_FLOOR = 1e-3  # no pheromone entry drops below this
Q_CONST = 100.0  # full-regime deposit is Q_CONST / makespan
TOL = 5e-3  # relative improvement that resets the stall count
PATIENCE = 5  # stalled iterations before the early stop
L_MAX = 10  # candidate nodes per task
WEIGHTS = (0.5, 0.3, 0.2)  # (delay, cost, loss) in the weighted objective


@dataclass(frozen=True)
class AcoConfig:
    alpha: float = 0.8
    beta: float = 1.2
    rho: float = 0.1
    ants: int = 10
    max_iters: int = 20
    objective: str = "weighted"  # or "makespan"

    def validate(self) -> None:
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            # NaN fails the comparison; inf would turn the weights to NaN or inf
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if not 0 < self.rho < 1:
            raise ValueError("rho must be in (0, 1)")
        for name in ("ants", "max_iters"):
            value = getattr(self, name)
            # bool is an int subclass, but True is no count
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.objective not in ("weighted", "makespan"):
            raise ValueError(f"unknown objective: {self.objective}")

    @classmethod
    def preset(cls, name: str, **overrides) -> "AcoConfig":
        """The named preset, with `overrides` replacing its fields."""
        if name not in PRESETS:
            raise ValueError(f"unknown preset: {name}")
        cfg = cls(**{**PRESETS[name], **overrides})
        cfg.validate()
        return cfg


@dataclass(frozen=True)
class AntSolution:
    assignment: dict[str, str]  # task id -> node id
    makespan: float
    metrics: tuple[float, float, float]  # raw (delay, cost, loss)
    feasible: bool
    # (B,) index into the problem's node_ids per task, -1 when unassigned;
    # the same plan as `assignment`, which equality compares
    node_index: np.ndarray = field(compare=False, repr=False)
    objective: float = float("nan")


@dataclass(frozen=True)
class AssignmentProblem:
    """The tables the solver reads, as dense arrays, and `t_pred`, which
    the benchmark's tracer reads. `build_problem` keeps nothing else: the
    fetch's transfer seconds are folded into `t_eff`, and the candidate
    mask into `candidates`. Every row of `candidates` holds the same
    number k of nodes, min(L_MAX, n) as `build_problem` makes it; the
    colony's picks rely on that alone (a table of every node also
    serves)."""

    plan: PlacementPlan
    tasks: tuple[TaskSpec, ...]
    node_ids: tuple[str, ...]
    task_ids: tuple[str, ...]
    t_pred: np.ndarray  # (n, B) predicted execution seconds
    t_eff: np.ndarray  # (n, B) t_pred + the fetch's transfer seconds
    eta: np.ndarray  # 1 / t_eff
    xtra_delay: np.ndarray  # (n, B) queueing + latency extras of the fetch path
    cost: np.ndarray  # (n, B) per-assignment cost contribution
    src_idx: np.ndarray  # (n, B) chosen replica source index, -1 when local
    demand_mb: np.ndarray  # (B,)
    capacity_mb: np.ndarray  # (n,)
    loss_prob: np.ndarray  # (n,)
    candidates: np.ndarray  # (B, k) each task's candidate node indices, ascending


def price_cells(
    g: ClusterGraph,
    plan: PlacementPlan,
    tasks: list[TaskSpec],
    i: np.ndarray,
    j: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Price the cells (node i, task j) of two index arrays that broadcast
    together; `build_problem` passes the full grid, a row rule the B cells
    of its plan. Returns each cell's (access, xtra_delay, cost, src_idx)
    in the broadcast shape. A task whose block has a replica on the node
    is local: compute cost only, and src_idx -1. Otherwise the task
    fetches from its cheapest replica (`PathTable.cheapest_fetch`);
    `access` holds that fetch's transfer seconds and `xtra_delay` its
    extras, which add up to its price. A local replica is the cheapest, on
    the path table's diagonal, whose bandwidth is inf and whose extras and
    cost are 0, so the same arithmetic gives a local cell its zeros. Each
    value depends on its own cell alone, so any cells give the full grid's
    bits."""
    paths = g.paths
    mb = np.array([t.block_mb for t in tasks], dtype=float)[j]
    gcycles = np.array([t.compute_gcycles for t in tasks], dtype=float)[j]
    per_cycle = np.array([g.node(nid).cost_per_cycle for nid in paths.node_ids])[i]
    replicas = paths.replica_index(plan.replicas(t.block_id) for t in tasks)[j]
    _, src = paths.cheapest_fetch(i, replicas, mb)
    route = i * len(paths.node_ids) + src
    access = mb / paths.bandwidth.take(route)
    xtra_delay = paths.extras_s.take(route)
    cost = paths.cost_per_mb.take(route) * mb + (per_cycle * gcycles) * 1e9
    return access, xtra_delay, cost, np.where(src == i, -1, src)


def build_problem(
    g: ClusterGraph,
    plan: PlacementPlan,
    tasks: list[TaskSpec],
    predictor,
) -> AssignmentProblem:
    """Price every (node, task) cell (`price_cells` on the full grid). Each
    task's candidates are its min(L_MAX, n) nodes of highest eta, the
    lowest node index first on a tie, as a stable sort ranks them, listed
    in ascending node order; `np.partition` finds the k-th value, so no
    column is fully sorted. The transfer seconds and the candidate mask
    are freed on return."""
    node_ids = g.paths.node_ids
    nodes = [g.node(n) for n in node_ids]
    n, b = len(node_ids), len(tasks)

    t_pred = predict_table(g, tasks, predictor)
    access, xtra_delay, cost, src_idx = price_cells(
        g, plan, tasks, np.arange(n)[:, None], np.arange(b)
    )
    # t_eff and eta are made in the buffers they are made from, which the
    # problem does not keep
    t_eff = np.add(t_pred, access, out=access)
    eta = np.maximum(t_eff, 1e-12)
    np.divide(1.0, eta, out=eta)

    # each column's top k by eta, ties to the lowest node index, as a stable
    # argsort of -eta ranks them: all values above the k-th largest, then
    # the first ties at it until k are taken; with k = n, every node
    k = min(L_MAX, n)
    if k == n:
        candidates = np.tile(np.arange(n), (b, 1))
    else:
        # a copy of the row, so that the partitioned table is freed
        kth = np.partition(eta, n - k, axis=0)[n - k].copy()
        above = eta > kth
        tied = eta == kth
        mask = above | (tied & (np.cumsum(tied, axis=0) <= k - above.sum(axis=0)))
        candidates = np.nonzero(mask.T)[1].reshape(b, k)

    return AssignmentProblem(
        plan=plan,
        tasks=tuple(tasks),
        node_ids=node_ids,
        task_ids=tuple(t.id for t in tasks),
        t_pred=t_pred,
        t_eff=t_eff,
        eta=eta,
        xtra_delay=xtra_delay,
        cost=cost,
        src_idx=src_idx,
        demand_mb=np.array([t.block_mb for t in tasks], dtype=float),
        capacity_mb=np.array([nd.capacity_mb for nd in nodes]),
        loss_prob=np.array([nd.loss_prob for nd in nodes]),
        candidates=candidates,
    )


def selection_weights(tau: np.ndarray, eta_beta: np.ndarray, alpha: float) -> np.ndarray:
    """Unnormalized weights tau^alpha * eta^beta, elementwise over any
    cells, from the cells' trail `tau` and their eta^beta (a solve raises
    eta to beta once, as only tau changes between iterations): one task's
    column, the (k, B) candidate cells or the whole (n, B) matrix, each
    cell with the bits of the others. An ant picks node i for task j with
    probability w[i, j] over the sum of w[:, j] on j's eligible nodes."""
    return np.power(tau, alpha) * eta_beta


class Workspace:
    """What one `solve_problem` call builds once and every iteration
    reads, and the buffers its iterations write; it lives for that call
    alone. Built at the start: each task's candidate cells as flat (n, B)
    indices, laid out (k, B) with task j's c-th candidate in row c, and
    their eta^beta; the (ants, B) task-order template that `rng.permuted`
    shuffles; the row offsets behind the flat gathers and scatters and the
    bins of `_row_sums`; capacity + slack, the largest demand and the
    demands as Python floats. Built on first use: each task's replica
    holders and their t_eff (`holders`) for the elite rows, the Python-float
    t_eff rows of `_refine_makespan` and the candidates' room for `_ant_row`.

    `rows` holds an iteration's node-index rows, at most ants + 4: its
    ants, the first iteration's two elite rows, the climbed row and the
    elitist depositor, with `feasible` and `makespan` per row; `terms` is
    the weighted scorer's (3, rows, B + 1) block, its first column 0.0."""

    def __init__(self, problem: AssignmentProblem, config: AcoConfig):
        n, b = problem.t_eff.shape
        cand = problem.candidates
        self.problem = problem
        self.n, self.b = n, b
        self.ants, self.alpha, self.beta = config.ants, config.alpha, config.beta
        self.cols = np.arange(b)
        self.cand_cells = cand.T * b + self.cols
        # `problem.candidates` flat: task j's c-th candidate is at j * k + c
        self.cand_offsets = self.cols * cand.shape[1]
        self.eta_beta = np.power(problem.eta.take(self.cand_cells), config.beta)
        self.orders = np.tile(self.cols, (config.ants, 1))
        self.ant_cells = np.arange(config.ants)[:, None] * b
        size = config.ants + 4
        self.row_bins = np.arange(size)[:, None] * n
        self.room = problem.capacity_mb + CAPACITY_SLACK_MB
        self.room_list = self.room.tolist()
        self.demand = problem.demand_mb.tolist()
        self.max_demand = problem.demand_mb.max(initial=0.0)
        self.rows = np.empty((size, b), dtype=int)
        self.feasible = np.empty(size, dtype=bool)
        self.makespan = np.empty(size)
        self.terms = np.zeros((3, size, b + 1))

    @cached_property
    def cand_room(self) -> np.ndarray:
        """(B, k) capacity + slack of each task's candidates."""
        return self.room[self.problem.candidates]

    @cached_property
    def holders(self) -> list[list[tuple[int, float]]]:
        """Each task's replica holders as (node index, t_eff) pairs, its
        primary first."""
        pos = {nid: i for i, nid in enumerate(self.problem.node_ids)}.__getitem__
        plan = self.problem.plan
        rows = [list(map(pos, plan.replicas(t.block_id))) for t in self.problem.tasks]
        counts = list(map(len, rows))
        nodes = list(chain.from_iterable(rows))
        times = self.problem.t_eff[np.array(nodes, dtype=int), np.repeat(self.cols, counts)]
        pairs = iter(zip(nodes, times.tolist()))
        return [list(islice(pairs, c)) for c in counts]

    @cached_property
    def t_eff_rows(self) -> list[list[float]]:
        """The (n, B) t_eff table as rows of Python floats."""
        return self.problem.t_eff.tolist()


class Weights(NamedTuple):
    """An iteration's selection weights, where its picks read them: `cand`
    (k, B) holds task j's weights at its candidates in column j, in the
    order of its row of `problem.candidates`; `cum` (k, B) is their running
    sum down each column (`_cumulative_weights`); and `column(j)` gives
    task j's weights at all n nodes, called only at a step where none of
    j's candidates fits."""

    cand: np.ndarray
    cum: np.ndarray
    column: Callable[[int], np.ndarray]


def iteration_weights(tau: np.ndarray, ws: Workspace) -> Weights:
    """`selection_weights` of the (n, B) trail `tau`, on the candidate cells
    gathered as (k, B) with the workspace's eta^beta, and lazily by column,
    from `tau` as it is when the column is read, so before the iteration's
    pheromone update; no (n, B) weight matrix is built."""
    cand = selection_weights(tau.take(ws.cand_cells), ws.eta_beta, ws.alpha)
    eta = ws.problem.eta
    return Weights(
        cand,
        _cumulative_weights(cand),
        lambda j: selection_weights(tau[:, j], np.power(eta[:, j], ws.beta), ws.alpha),
    )


def _cumulative_weights(cand: np.ndarray) -> np.ndarray:
    """(k, B): column j is task j's running sum of its candidates' weights
    (`np.cumsum` adds in order), or 1..k where every weight underflowed to
    0.0 (a uniform draw); the cumsum a pick reads when all of the task's
    candidates fit."""
    cum = np.cumsum(cand, axis=0)
    zero = cum[-1] <= 0
    if zero.any():
        cum[:, zero] = np.arange(1.0, len(cum) + 1.0)[:, None]
    return cum


def _row_sums(bins: np.ndarray, values: np.ndarray | None, r: int, n: int) -> np.ndarray:
    """(r, n) per-row node totals: `bins` holds row * n + node of each
    cell, row-major, and `values` the cells' values in the same layout
    (None: 1.0 each, so a count). Entry [r, i] adds the values of row r's
    cells at node i in column order from 0.0, the bits `np.add.at` leaves
    on zeros. One `np.bincount`."""
    # an empty input, or a count, comes back as int64
    weights = None if values is None else values.ravel()
    sums = np.bincount(bins.ravel(), weights=weights, minlength=r * n)
    return sums.astype(float, copy=False).reshape(r, n)


def _assigned(assign: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """(nodes, assigned) of an (R, B) node-index matrix as the scorers take
    them: -1 (unassigned) read as node 0, and `assigned` the mask of
    assigned cells, or None when a non-empty matrix assigns every cell, so
    that nothing needs masking."""
    assigned = assign >= 0
    if assign.size and assigned.all():
        return assign, None
    return np.where(assigned, assign, 0), assigned


def score_rows(ws: Workspace, assign: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Price each row of an (R, B) node-index matrix (-1: unassigned), R at
    most ants + 4, with `score_cells`, its cells gathered from the
    problem's tables."""
    nodes, assigned = _assigned(assign)
    cells = nodes * ws.b + ws.cols
    p = ws.problem
    r = len(assign)
    return score_cells(
        nodes, assigned, p.t_eff.take(cells), p.xtra_delay.take(cells), p.cost.take(cells),
        p.src_idx.take(cells), p.loss_prob, ws.row_bins[:r], ws.terms[:, :r],
    )


def score_makespans(ws: Workspace, assign: np.ndarray) -> np.ndarray:
    """Each row's makespan alone, the bits of `score_rows`' first result:
    `_node_loads` of the row's t_eff cells, with no delay, cost or loss."""
    nodes, assigned = _assigned(assign)
    r = len(assign)
    t_eff = ws.problem.t_eff.take(nodes * ws.b + ws.cols)
    return _node_loads(ws.row_bins[:r] + nodes, assigned, t_eff, r, ws.n)[1]


def _node_loads(
    bins: np.ndarray, assigned: np.ndarray | None, t_eff: np.ndarray, r: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The one definition of a plan's makespan. For (r, B) cells as
    `score_cells` takes them, with their `_row_sums` bins, returns the (r,
    n) node loads, each node's total t_eff over its assigned tasks (in task
    order from 0.0), and each row's makespan, its largest load, inf when
    nothing is assigned."""
    if assigned is None:
        loads = _row_sums(bins, t_eff, r, n)
        return loads, loads.max(axis=1)
    loads = _row_sums(bins, np.where(assigned, t_eff, 0.0), r, n)
    return loads, np.where(assigned.any(axis=1), loads.max(axis=1), np.inf)


def score_cells(
    nodes: np.ndarray,
    assigned: np.ndarray | None,
    t_eff: np.ndarray,
    xtra_delay: np.ndarray,
    cost: np.ndarray,
    src_idx: np.ndarray,
    loss_prob: np.ndarray,
    offsets: np.ndarray | int,
    terms: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The one definition of a plan's delay, cost and loss. `nodes`,
    `assigned` and the cell arrays are (R, B): task j of row a runs on node
    nodes[a, j] when assigned[a, j] (`assigned` None: every task is
    assigned), and the cell arrays hold that cell's t_eff, xtra_delay, cost
    and src_idx (values at unassigned tasks are ignored); `loss_prob` is
    (n,). `offsets` holds each row's a * n, (R, 1), or 0 for one row, and
    `terms` is a (3, R, B + 1) block whose first column is 0.0; its other
    cells are overwritten. Returns each row's makespan and its raw (delay,
    cost, loss) as a (3, R) array. The makespan and node loads are
    `_node_loads`', the shared definition that the makespan objective's
    `score_makespans` reads without the rest.
    Every total adds its terms in task order from 0.0, as a task-by-task
    loop would: `_row_sums` for node loads and counts, a running `cumsum`
    for delay, cost and loss (`np.sum` adds pairwise and moves last bits).
    Unassigned tasks add exact zeros, and loss is the mean over assigned
    tasks."""
    ants, b = nodes.shape
    n = len(loss_prob)
    bins = nodes + offsets
    loads, makespan = _node_loads(bins, assigned, t_eff, ants, n)
    counts = _row_sums(bins, assigned, ants, n)
    survive = 1.0 - loss_prob[nodes]
    survive = np.where(src_idx >= 0, survive * (1.0 - loss_prob[src_idx]), survive)
    # (delay, cost, loss) terms behind the block's column of 0.0, the loop's start
    cells = terms[:, :, 1:]
    cells[0] = xtra_delay
    cells[1] = cost
    np.subtract(1.0, survive, out=cells[2])
    if assigned is not None:
        cells[:, ~assigned] = 0.0
    metrics = terms.cumsum(axis=2)[:, :, -1]
    # Each task's latency is dominated by its node's backlog (the workload
    # at the node over its capacity), so the plan delay sums every node's
    # drain time once per task served there, plus fetch-path extras.
    metrics[0] += (counts * loads).sum(axis=1)
    if assigned is None:
        metrics[2] /= b
    else:
        count = assigned.sum(axis=1)
        metrics[2] = np.where(count > 0, metrics[2] / np.maximum(count, 1), 0.0)
    return makespan, metrics


def _solution_from_indices(
    ws: Workspace, assign: np.ndarray, feasible: bool
) -> list[AntSolution]:
    """One `AntSolution` per row of `score_rows`; a row is feasible when
    `feasible` holds and it assigns every task."""
    makespan, metrics = score_rows(ws, assign)
    p = ws.problem
    return _solutions(p.node_ids, p.task_ids, assign, makespan, metrics, feasible)


def _solutions(
    node_ids: tuple[str, ...],
    task_ids: tuple[str, ...],
    assign: np.ndarray,
    makespan: np.ndarray,
    metrics: np.ndarray,
    feasible: bool,
) -> list[AntSolution]:
    sols = []
    # loss stays a numpy float, as run rows repr the scheduler's metrics
    for a, row in enumerate(assign.tolist()):
        js = [j for j, i in enumerate(row) if i >= 0]
        sols.append(AntSolution(
            assignment={task_ids[j]: node_ids[row[j]] for j in js},
            makespan=float(makespan[a]),
            metrics=(float(metrics[0, a]), float(metrics[1, a]), metrics[2, a] if js else 0.0),
            feasible=feasible and len(js) == len(row),
            node_index=assign[a].copy(),
        ))
    return sols


def _ant_row(
    weights: Weights, ws: Workspace, order: np.ndarray, draws: np.ndarray
) -> tuple[np.ndarray, bool]:
    """One ant: visit the tasks in `order`, and at step s pick a node for
    task order[s] with draw draws[s] in [0, 1), in proportion to this
    iteration's `weights` over capacity-feasible nodes, uniformly where all
    their weights underflow to 0.0. A step picks among the task's k
    candidates with `weights.cand`, reading `weights.cum` when all of them
    fit; only when none of them fits does it weigh all n nodes with
    `weights.column`, so that the fan-out cap does not manufacture
    infeasibility. Each pick is that of a cumsum over all n nodes with the
    ineligible weights zeroed, since adding 0.0 is exact. The scaled draw
    is kept below the total, so the pick is an eligible node of positive
    weight. Runs to completion even when capacity strands a task; the row
    then holds -1 there and is flagged infeasible instead of raising."""
    cand = ws.problem.candidates
    cand_room = ws.cand_room
    room = ws.room
    demand = ws.demand
    every = np.arange(ws.n)
    used = np.zeros(ws.n)
    assign = np.full(ws.b, -1, dtype=int)
    feasible = True
    for j, u in zip(order.tolist(), draws.tolist()):
        nodes = cand[j]
        fits = used[nodes] + demand[j] <= cand_room[j]
        if fits.all():
            cum = weights.cum[:, j]
        else:
            if fits.any():
                w = weights.cand[:, j]
            else:
                nodes = every
                fits = used + demand[j] <= room
                if not fits.any():
                    feasible = False
                    continue
                w = weights.column(j)
            cum = np.cumsum(np.where(fits, w, 0.0))
            if cum[-1] <= 0:
                cum = np.cumsum(fits)  # every weight underflowed: draw uniformly
        total = float(cum[-1])
        x = min(u * total, math.nextafter(total, 0.0))
        pick = int(nodes[cum.searchsorted(x, side="right")])
        assign[j] = pick
        used[pick] += demand[j]
    return assign, feasible


def _draws(rng: np.random.Generator, orders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An iteration's task orders, each row of the (ants, B) template
    `orders` (rows of 0..B-1) permuted, and its (ants, B) draws in [0, 1),
    the draw of row a's step s in [a, s]."""
    return rng.permuted(orders, axis=1), rng.random(orders.shape)


def construct_solution(
    weights: Weights,
    ws: Workspace,
    rng: np.random.Generator,
) -> AntSolution:
    """One ant (`_ant_row`) as a scored solution, its order and draws
    taken as `construct_colony` takes a one-ant iteration's."""
    orders, draws = _draws(rng, ws.cols[None])
    assign, feasible = _ant_row(weights, ws, orders[0], draws[0])
    return _solution_from_indices(ws, assign[None], feasible)[0]


def construct_colony(
    weights: Weights,
    ws: Workspace,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """One iteration's ants, all picks at once, written to the first ants
    rows of `ws.rows` and `ws.feasible`, which it returns: the (ants, B)
    node-index matrix and each ant's feasible flag. The orders and draws
    come from `_draws`, and each draw becomes a pick over its task's row of
    `problem.candidates` with the weights `weights.cand`, k = min(L_MAX, n)
    nodes, not all n. Row a is `_ant_row` on row a of the orders and draws
    whenever every `fits` check that walk makes holds: then every
    candidate fits at each step, and a pick depends on the task's weights
    and the ant's draw, not on the order of steps.
    Loads only grow (a float sum of non-negative terms never falls), so
    the checks all held if each ant's final loads, summed in its step
    order as the walk sums them, still fit the largest demand. Otherwise
    the rows are built with `_ant_row` from the same orders and draws."""
    ants = ws.ants
    orders, draws = _draws(rng, ws.orders)
    cum = weights.cum
    total = cum[-1]
    # x[a, j]: ant a's draw for task j, scaled to j's total and kept below
    # it. The count of cum <= x is searchsorted(cum, x, side="right"), as
    # cum never decreases down a column; below the total, it is below k,
    # so the last row of cum need not be compared
    steps = orders + ws.ant_cells
    x = np.empty(orders.shape)
    x.put(steps, draws)
    x *= total
    np.minimum(x, np.nextafter(total, 0.0), out=x)
    pick = np.zeros(orders.shape, dtype=int)
    for row in cum[:-1]:
        pick += row <= x
    pick += ws.cand_offsets
    assign, feasible = ws.rows[:ants], ws.feasible[:ants]
    np.take(ws.problem.candidates, pick, out=assign)
    # each ant's nodes and demands in its step order
    used = _row_sums(
        ws.row_bins[:ants] + assign.take(steps), ws.problem.demand_mb.take(orders), ants, ws.n
    )
    if (used + ws.max_demand <= ws.room).all():
        feasible[:] = True
    else:
        for a in range(ants):
            assign[a], feasible[a] = _ant_row(weights, ws, orders[a], draws[a])
    return assign, feasible


def update_pheromones_full(
    tau: np.ndarray, assign: np.ndarray, makespan: np.ndarray, config: AcoConfig
) -> None:
    """Evaporate the (n, B) trail `tau` in place, then deposit Q/makespan
    along the edges of every row of `assign`, the (k, B) node-index rows of
    feasible plans, with their (k,) makespans, and floor it at TAU_FLOOR.
    A row whose makespan is not > 0 deposits 0.0, which leaves every
    (positive) entry as it is. One `np.add.at` on the flat trail adds the
    deposits edge by edge in row order, as a loop over the rows would."""
    tau *= 1.0 - config.rho
    b = tau.shape[1]
    deposit = np.divide(Q_CONST, makespan, out=np.zeros(len(makespan)), where=makespan > 0)
    np.add.at(tau.reshape(-1), (assign * b + np.arange(b)).ravel(), deposit.repeat(b))
    np.maximum(tau, TAU_FLOOR, out=tau)


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    best_objective: float
    best_makespan: float
    mean_makespan: float
    feasible_ants: int


@dataclass(frozen=True)
class SolveResult:
    best: AntSolution
    trace: tuple[TraceRow, ...]
    iterations: int
    converged_iteration: int | None  # iteration at which early stop fired
    ants: int  # ants constructed, iterations x colony size
    feasible_ants: int  # feasible among them; elites and refined rows not counted
    refine_moves: int  # task moves made by the makespan hill climb
    pheromones: np.ndarray | None = None  # final (n, B) trail


def _refine_makespan(
    ws: Workspace, assign: np.ndarray, max_rounds: int = 64
) -> tuple[np.ndarray, int]:
    """Bounded hill climb on a complete node-index row: repeatedly move one
    task off the most loaded node (the first on a tie) while that strictly
    lowers the makespan and respects capacity, taking the move of least
    new makespan, the first in (task, node) order on a tie. Returns the
    climbed row (a copy) and the number of moves. The loop adds and
    compares Python floats, the float64 values numpy would."""
    n = ws.n
    t_eff = ws.t_eff_rows
    demand = ws.demand
    room = ws.room_list
    row = assign.tolist()
    loads = [0.0] * n
    used = [0.0] * n
    for j, i in enumerate(row):
        loads[i] += t_eff[i][j]
        used[i] += demand[j]
    moves = 0
    for _ in range(max_rounds):
        src = loads.index(max(loads))
        best = None  # (new_makespan, j, dst)
        others = sorted(loads)[-2] if n > 1 else 0.0
        for j in [j for j, i in enumerate(row) if i == src]:
            d = demand[j]
            rest = loads[src] - t_eff[src][j]
            for dst in range(n):
                if dst == src or used[dst] + d > room[dst]:
                    continue
                new_mk = max(others, rest, loads[dst] + t_eff[dst][j])
                if new_mk < loads[src] - 1e-12 and (best is None or new_mk < best[0]):
                    best = (new_mk, j, dst)
        if best is None:
            break
        _, j, dst = best
        loads[src] -= t_eff[src][j]
        used[src] -= demand[j]
        loads[dst] += t_eff[dst][j]
        used[dst] += demand[j]
        row[j] = dst
        moves += 1
    return np.array(row, dtype=assign.dtype), moves


def _weighted(metrics: np.ndarray, refs) -> np.ndarray:
    # Scale by the first iteration's mean per metric: each term is measured
    # in relative units, so a near-constant metric cannot hijack the sum
    # the way a min-max span close to zero would.
    parts = [m / ref if ref > 0 else np.zeros_like(m) for m, ref in zip(metrics, refs)]
    return WEIGHTS[0] * parts[0] + WEIGHTS[1] * parts[1] + WEIGHTS[2] * parts[2]


def _fits(assign: np.ndarray, demand_mb: np.ndarray, capacity_mb: np.ndarray) -> bool:
    """Whether a (B,) node-index row assigns every task, task j's
    `demand_mb[j]` summed on its node within that node's `capacity_mb`."""
    if (assign < 0).any():
        return False
    used = _row_sums(assign, demand_mb, 1, len(capacity_mb))[0]
    return bool(np.all(used <= capacity_mb + CAPACITY_SLACK_MB))


def preallocation_row(ws: Workspace) -> np.ndarray:
    """The balanced pre-allocation list: every task on its block's primary
    owner. Seeds the colony's first iteration."""
    return np.array([h[0][0] for h in ws.holders], dtype=int)


def greedy_local_row(ws: Workspace) -> np.ndarray:
    """Longest-task-first over replica holders: keep every task local while
    leveling per-node load. A task goes to the holder that can take its
    data with the least load + t_eff, the lower node index on a tie; only
    when no holder can take it, to the node of least load + t_eff among
    all nodes that can. Second colony seed; -1 from the first task no node
    can take. A task's length is its least t_eff over all nodes, ties in
    task order; the walk adds Python floats, the float64 sums numpy would
    add."""
    n = ws.n
    t_eff = ws.problem.t_eff
    holders = ws.holders
    demand = ws.demand
    room = ws.room_list
    loads = [0.0] * n
    used = [0.0] * n
    assign = [-1] * ws.b
    # a stable sort, so ties stay in task order
    for j in np.argsort(-t_eff.min(axis=0), kind="stable").tolist():
        d = demand[j]
        fits = [(loads[i] + t, i) for i, t in holders[j] if used[i] + d <= room[i]]
        if not fits:
            column = t_eff[:, j].tolist()
            fits = [(loads[i] + column[i], i) for i in range(n) if used[i] + d <= room[i]]
        if not fits:
            break  # infeasible
        load, i = min(fits)
        assign[j] = i
        loads[i] = load
        used[i] += d
    return np.array(assign, dtype=int)


def solve_problem(
    problem: AssignmentProblem, config: AcoConfig, seed: int
) -> SolveResult:
    """Run the colony on `problem`; returns the best-ever feasible solution
    and the per-iteration convergence trace.

    Early-stops once the best value improves by less than `TOL`
    (relatively) for `PATIENCE` consecutive iterations. Raises
    InfeasibleScheduleError when no ant ever produced a feasible
    assignment.
    """
    config.validate()
    by_makespan = config.objective == "makespan"
    ws = Workspace(problem, config)
    rows, feasible, makespan = ws.rows, ws.feasible, ws.makespan
    tau = np.full(problem.t_eff.shape, TAU0)
    rng = np.random.default_rng(seed)

    best_row: np.ndarray | None = None
    best_makespan = best_objective = float("inf")
    refs = None
    trace: list[TraceRow] = []
    prev_val = float("inf")
    stall = 0
    converged = None
    stranded_assigned = 0  # tasks the first ant placed, in the last all-infeasible iteration
    feasible_ants = refine_moves = 0

    for it in range(1, config.max_iters + 1):
        # pheromones change only between iterations
        construct_colony(iteration_weights(tau, ws), ws, rng)
        r = config.ants
        feasible_ants += int(np.count_nonzero(feasible[:r]))
        if it == 1:
            for elite in (preallocation_row(ws), greedy_local_row(ws)):
                if _fits(elite, problem.demand_mb, problem.capacity_mb):
                    rows[r], feasible[r] = elite, True
                    r += 1
        obj = None  # the makespan objective's value is the makespan
        if by_makespan:
            # the objective reads node loads alone; the winner is priced in
            # full once, after the last iteration
            makespan[:r] = score_makespans(ws, rows[:r])
            if feasible[:r].any():
                fi = np.flatnonzero(feasible[:r])
                refined, moves = _refine_makespan(ws, rows[fi[np.argmin(makespan[fi])]])
                if moves:
                    refine_moves += moves
                    rows[r], feasible[r] = refined, True
                    makespan[r] = score_makespans(ws, rows[r : r + 1])[0]
                    r += 1
        else:
            makespan[:r], metrics = score_rows(ws, rows[:r])
            if refs is None and feasible[:r].any():
                refs = [float(np.mean(m)) for m in metrics[:, feasible[:r]]]
            # before the first feasible row, every row is dropped below
            if refs is not None:
                obj = _weighted(metrics, refs)
        n_feas = r
        if not feasible[:r].all():
            if not feasible[:r].any():
                stranded_assigned = int((rows[0] >= 0).sum())
            keep = np.flatnonzero(feasible[:r])
            n_feas = len(keep)
            rows[:n_feas], makespan[:n_feas] = rows[keep], makespan[keep]
            obj = None if obj is None else obj[keep]
        mk = makespan[:n_feas]
        obj = mk if obj is None else obj
        if n_feas:
            # the first row of least (objective, makespan); a later
            # iteration replaces the best only with a strictly smaller one
            k = np.lexsort((mk, obj))[0]
            key = (float(obj[k]), float(mk[k]))
            if key < (best_objective, best_makespan):
                best_row = rows[k].copy()
                best_objective, best_makespan = key

        trace.append(
            TraceRow(
                iteration=it,
                best_objective=best_objective,
                best_makespan=best_makespan,
                mean_makespan=float(np.mean(mk)) if n_feas else float("inf"),
                feasible_ants=n_feas,
            )
        )

        if best_row is not None:
            # best-ever rides along as an elitist depositor
            rows[n_feas], makespan[n_feas] = best_row, best_makespan
            n_feas += 1
        update_pheromones_full(tau, rows[:n_feas], makespan[:n_feas], config)

        if best_row is not None:
            if np.isfinite(prev_val):
                improvement = (prev_val - best_objective) / max(abs(prev_val), 1e-12)
                stall = stall + 1 if improvement < TOL else 0
            prev_val = best_objective
            if stall >= PATIENCE:
                converged = it
                break

    if best_row is None:
        raise InfeasibleScheduleError(
            "no feasible assignment found within the iteration budget",
            {
                "assigned": stranded_assigned,
                "tasks": len(problem.task_ids),
                "total_demand_mb": float(problem.demand_mb.sum()),
                "total_capacity_mb": float(problem.capacity_mb.sum()),
            },
        )
    best = _solution_from_indices(ws, best_row[None], True)[0]
    return SolveResult(
        best=replace(best, objective=best_objective),
        trace=tuple(trace),
        iterations=len(trace),
        converged_iteration=converged,
        ants=len(trace) * config.ants,
        feasible_ants=feasible_ants,
        refine_moves=refine_moves,
        pheromones=tau,
    )


def write_trace_csv(trace: tuple[TraceRow, ...], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("iter,best_objective,best_makespan,mean_makespan,feasible_ants\n")
        for row in trace:
            fh.write(
                f"{row.iteration},{row.best_objective:.9g},{row.best_makespan:.9g},"
                f"{row.mean_makespan:.9g},{row.feasible_ants}\n"
            )


def _plan_solution(
    g: ClusterGraph,
    plan: PlacementPlan,
    tasks: list[TaskSpec],
    t_pred: np.ndarray,
    assign: np.ndarray,
) -> AntSolution:
    """A row rule's complete (B,) node-index row as a scored solution, priced
    at its B cells alone: `price_cells` at (assign[j], j), t_pred read from the
    predictor's (n, B) table, then `score_cells`. The bits are those of
    `_solution_from_indices` on the row of `build_problem`'s full grid,
    feasible when the row fits capacity."""
    nodes = [g.node(nid) for nid in g.paths.node_ids]
    cols = np.arange(len(tasks))
    access, xtra_delay, cost, src_idx = price_cells(g, plan, tasks, assign, cols)
    row = assign[None]
    makespan, metrics = score_cells(
        *_assigned(row), (t_pred[assign, cols] + access)[None],
        xtra_delay[None], cost[None], src_idx[None],
        np.array([nd.loss_prob for nd in nodes]), 0, np.zeros((3, 1, len(tasks) + 1)),
    )
    feasible = _fits(
        assign, np.array([t.block_mb for t in tasks], dtype=float),
        np.array([nd.capacity_mb for nd in nodes]),
    )
    return _solutions(
        g.paths.node_ids, tuple(t.id for t in tasks), row, makespan, metrics, feasible
    )[0]


def local_first(
    tasks: list[TaskSpec], g: ClusterGraph, plan: PlacementPlan, predictor
) -> AntSolution:
    """scc-dso's row: every task on the first holder of its block's replicas
    (primary first) with room for it, so each task reads its block locally
    where capacity allows. Tasks are visited by decreasing `block_mb`, equal
    sizes in task order; a node has room when its summed MB plus the task's
    is within `capacity_mb + CAPACITY_SLACK_MB`. A task no holder has room
    for goes to the node with the most room left, the lowest index on a
    tie, and raises InfeasibleScheduleError if even that node lacks room.
    When the primary row fits capacity, this is the primary row."""
    node_ids = g.paths.node_ids
    index = g.paths.index
    limit = [g.node(nid).capacity_mb + CAPACITY_SLACK_MB for nid in node_ids]
    used = [0.0] * len(node_ids)
    assign = np.full(len(tasks), -1, dtype=int)
    # a stable sort, so equal sizes keep task order
    for j in sorted(range(len(tasks)), key=lambda j: -tasks[j].block_mb):
        task = tasks[j]
        mb = task.block_mb
        holders = (index[nid] for nid in plan.replicas(task.block_id))
        i = next((i for i in holders if used[i] + mb <= limit[i]), None)
        if i is None:
            room = [cap - u for cap, u in zip(limit, used)]
            i = room.index(max(room))
            if used[i] + mb > limit[i]:
                raise InfeasibleScheduleError(
                    f"capacity exhausted while placing task {task.id}"
                )
        assign[j] = i
        used[i] += mb
    return _plan_solution(g, plan, tasks, predict_table(g, tasks, predictor), assign)


def baseline_round_robin(
    tasks: list[TaskSpec], g: ClusterGraph, plan: PlacementPlan, predictor
) -> AntSolution:
    """Neutral control: task k on node k mod n, node order by id."""
    assign = np.arange(len(tasks)) % len(g.nodes)
    return _plan_solution(g, plan, tasks, predict_table(g, tasks, predictor), assign)


def baseline_rf_fd(
    tasks: list[TaskSpec],
    g: ClusterGraph,
    plan: PlacementPlan,
    predictor,
    reservation_headroom: float = 1.25,
) -> AntSolution:
    """Reservation first-fit: walk nodes in id order and take the first one
    whose capacity fits and whose estimated load stays under the
    reservation threshold (mean fair-share load times the headroom), else
    the least loaded node that fits, the lowest index on a tie. Estimated
    loads feed back into later picks. Locality-blind.

    Neither pick scans every node for every task. Predictions are > 0 and
    block sizes >= 0, so a node's load and used MB only grow, and float
    addition rounds monotonically. So a node whose `used + d_min` exceeds
    its limit (`d_min` the least block size of the tasks) never fits a
    task again, and one whose `load + t_min` exceeds the threshold
    (`t_min` its least predicted time over the tasks) never passes the
    threshold again. The first-fit walk drops such a node from its list
    of open nodes for good, so it skips only nodes the full scan would
    reject. The fallback pops a lazy heap of (load, index): an entry whose
    load is no longer its node's is stale and dropped, a node without room
    for this task is held aside and pushed back, and the first entry that
    fits is the least load at the lowest index, the full scan's pick. The
    fallback is common: at about one task per node a task's time is most
    of the threshold, so once each node holds a task the rest fall back."""
    t_est = predict_table(g, tasks, predictor)  # regression estimate, no locality signal
    n = len(t_est)
    fair = float(t_est.mean(axis=0).sum()) / n
    threshold = fair * reservation_headroom
    # Python floats in the loop: the same sums and tests as float64 arrays
    t = memoryview(t_est)  # t[i, j] reads the (n, B) table in place
    demand_mb = [task.block_mb for task in tasks]
    limit = [g.node(nid).capacity_mb + CAPACITY_SLACK_MB for nid in g.paths.node_ids]
    d_min = min(demand_mb, default=0.0)
    t_min = t_est.min(axis=1, initial=np.inf).tolist()
    loads = [0.0] * n
    used = [0.0] * n
    open_nodes = list(range(n))  # the nodes that may still pass first-fit
    heap = [(0.0, i) for i in range(n)]  # sorted, so already a heap
    assign = np.full(len(tasks), -1, dtype=int)
    for j, d in enumerate(demand_mb):
        pick = -1
        k = 0
        while k < len(open_nodes):
            i = open_nodes[k]
            if used[i] + d_min > limit[i] or loads[i] + t_min[i] > threshold:
                del open_nodes[k]
            elif used[i] + d <= limit[i] and loads[i] + t[i, j] <= threshold:
                pick = i
                break
            else:
                k += 1
        if pick < 0:
            pick = _least_loaded_fit(heap, loads, used, limit, d, d_min)
            if pick < 0:
                raise InfeasibleScheduleError(
                    f"capacity exhausted while placing task {tasks[j].id}"
                )
        assign[j] = pick
        loads[pick] += t[pick, j]
        used[pick] += d
        heapq.heappush(heap, (loads[pick], pick))
    return _plan_solution(g, plan, tasks, t_est, assign)


def _least_loaded_fit(
    heap: list[tuple[float, int]],
    loads: list[float],
    used: list[float],
    limit: list[float],
    d: float,
    d_min: float,
) -> int:
    """The least loaded node with room for `d` MB, the lowest index on a
    tie, or -1: `baseline_rf_fd`'s fallback on its lazy (load, index) heap.
    Pops stale entries, drops nodes that can never fit `d_min` again, and
    pushes back the valid entries of nodes without room for `d`."""
    held = []
    pick = -1
    while heap:
        load, i = heapq.heappop(heap)
        if load != loads[i]:
            continue
        if used[i] + d <= limit[i]:
            pick = i
            break
        if used[i] + d_min <= limit[i]:
            held.append((load, i))
    for entry in held:
        heapq.heappush(heap, entry)
    return pick


def baseline_rsync(
    tasks: list[TaskSpec],
    g: ClusterGraph,
    plan: PlacementPlan,
    predictor,
    affinity_depth: int | None = None,
) -> AntSolution:
    """Sequential single-replica affinity: each task goes to its block's
    primary holder until that queue is `affinity_depth` deep, then spills
    round-robin to the remaining nodes (those accesses become non-local and
    pay the synchronization delay in simulation)."""
    node_ids = g.paths.node_ids
    n = len(node_ids)
    if affinity_depth is None:
        affinity_depth = max(1, (2 * len(tasks) + n - 1) // n)
    # Python floats in the loop: the same sums and tests as float64 arrays
    capacity_mb = [g.node(nid).capacity_mb for nid in node_ids]
    depth = [0] * n
    used = [0.0] * n
    assign = np.full(len(tasks), -1, dtype=int)
    spill = 0
    for j, task in enumerate(tasks):
        primary = g.paths.index[plan.primary(task.block_id)]
        i = primary
        ok = (
            depth[i] < affinity_depth
            and used[i] + task.block_mb <= capacity_mb[i] + CAPACITY_SLACK_MB
        )
        if not ok:
            chosen = -1
            fallback = -1
            for _ in range(n):
                cand = spill % n
                spill += 1
                if used[cand] + task.block_mb > capacity_mb[cand] + CAPACITY_SLACK_MB:
                    continue
                if fallback < 0:
                    fallback = cand
                if depth[cand] < affinity_depth:
                    chosen = cand
                    break
            i = chosen if chosen >= 0 else fallback
            if i < 0:
                raise InfeasibleScheduleError(
                    f"capacity exhausted while placing task {task.id}"
                )
        assign[j] = i
        depth[i] += 1
        used[i] += task.block_mb
    return _plan_solution(g, plan, tasks, predict_table(g, tasks, predictor), assign)
