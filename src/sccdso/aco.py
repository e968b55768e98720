"""Task-to-node assignment: ant colony search plus comparison baselines.

The solver minimizes either the weighted delay/cost/loss objective (with
makespan as the tiebreak) or the pure min-max makespan. Ants build
complete assignments task by task, sampling nodes in proportion to
pheromone^alpha * desirability^beta over the eligible set; desirability is
the inverse of predicted execution time with the data-access cost folded
in, so locality and speed ride the same signal. A remote cell fetches from
its cheapest replica at the price in the cluster's path table
(`ClusterGraph.paths`), the price the simulator charges an uncontended
transfer.

An iteration works on its ants as one (ants, B) node-index matrix and
reads only what its picks read. Pheromones change only between
iterations, so `iteration_weights` evaluates `selection_weights` once per
iteration, on each task's k = min(L_MAX, n) candidate cells (B x k
cells, not n x B); a task's weights at all n nodes are computed only at
a step where none of its candidates fits. `construct_colony` takes the
iteration's task orders and draws in two generator calls, then every
pick in one pass: each draw, scaled to its task's total candidate weight
and kept below it, picks a candidate of positive weight. Those picks
are the ones an ant walking its order one task at a time (`_ant_row`)
makes from the same draws as long as no node comes near its capacity,
so that every `fits` check the walk makes holds. When an ant's final
loads leave no room for the largest demand, the iteration builds its
rows with `_ant_row` from the same orders and draws. `score_rows` then
prices every row at once: it gathers each row's cells from the
problem's tables and hands them to `score_cells`, the one definition of
a plan's makespan, delay, cost and loss, in which each total keeps a
task-by-task loop's order of addition (per-node totals by `_row_sums`).
The objective, the trace, the best pick (the first row of least
(objective, makespan)) and the full-regime deposit read those arrays;
an `AntSolution` is built only for the winner and for the baselines.

Two pheromone regimes:

* full — every feasible ant deposits Q / makespan on the edges it used,
  after global evaporation.
* lightweight (EWMA) — only the best-so-far assignment is reinforced, at
  rate rho toward 1/T per edge; everything else just evaporates. Its
  presets set a reduced colony (`LIGHTWEIGHT_ANTS`, 5) for cheap
  per-iteration work.

`AcoConfig` holds the settings the presets and the oracle vary (alpha,
beta, rho, ants, iterations, regime, objective); the rest of the tuning is
fixed in module constants. A floor (`TAU_FLOOR`) keeps every pheromone
entry positive so no edge ever becomes unreachable. Candidate fan-out per
task is capped (`L_MAX`) to prune low-desirability nodes on large
clusters; capacity-feasible fallback keeps the cap from manufacturing
infeasibility. The weighted objective scores (delay, cost, loss) with
`WEIGHTS`, and the search stops early after `PATIENCE` iterations that
each improve the best value by less than `TOL` (relatively).

Baselines: reservation-first-fit with a linear-regression load estimate
(locality-blind), sequential primary-affinity with a per-non-local-access
synchronization delay, and plain round robin. A baseline scores one plan,
so it prices only that plan's B cells: `price_cells`, the per-cell
arithmetic `build_problem` runs on the full (n, B) grid, at (assign[j],
j), then `score_cells`, the scorer behind `score_rows`. It never builds
an `AssignmentProblem`. Its only (n, B) array is the predictor's table
(`predictor.predict_table`, which `build_problem` reads too):
reservation-first-fit reads all of it, rsync and round robin their B
cells. A remote cell's replica is `PathTable.cheapest_fetch`'s, as in
the simulator's steal rule. The trail is a plain (n, B) array, TAU0 at
the start; `SolveResult.pheromones` is its final state.

A caller solves in two steps: `build_problem` prices the grid into an
`AssignmentProblem` of the tables the solver reads, and `solve_problem`
runs the colony on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .cluster import CAPACITY_SLACK_MB, ClusterGraph
from .placement import PlacementPlan
from .predictor import predict_table
from .workload import TaskSpec

LIGHTWEIGHT_ANTS = 5
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
    variant: str = "full"
    objective: str = "weighted"  # or "makespan"

    def validate(self) -> None:
        if min(self.alpha, self.beta) <= 0:
            raise ValueError("alpha, beta must be > 0")
        if not 0 < self.rho < 1:
            raise ValueError("rho must be in (0, 1)")
        if self.ants < 1 or self.max_iters < 1:
            raise ValueError("ants, max_iters must be >= 1")
        if self.variant not in ("full", "lightweight"):
            raise ValueError(f"unknown variant: {self.variant}")
        if self.objective not in ("weighted", "makespan"):
            raise ValueError(f"unknown objective: {self.objective}")

    @classmethod
    def preset(cls, name: str, **overrides) -> "AcoConfig":
        """The named preset; the lightweight variant runs LIGHTWEIGHT_ANTS
        ants unless `ants` is given."""
        if name not in PRESETS:
            raise ValueError(f"unknown preset: {name}")
        base = dict(PRESETS[name])
        if overrides.get("variant") == "lightweight":
            base["ants"] = LIGHTWEIGHT_ANTS
        base.update(overrides)
        cfg = cls(**base)
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
    together; `build_problem` passes the full grid, a baseline the B cells
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


def selection_weights(
    tau: np.ndarray, eta: np.ndarray, alpha: float, beta: float
) -> np.ndarray:
    """Unnormalized weights tau^alpha * eta^beta, elementwise over any
    cells: one task's column, the (B, k) candidate cells or the whole
    (n, B) matrix, each cell with the bits of the others; an ant picks
    node i for task j with probability w[i, j] over the sum of w[:, j] on
    j's eligible nodes."""
    return np.power(tau, alpha) * np.power(eta, beta)


class Weights(NamedTuple):
    """An iteration's selection weights, where its picks read them: `cand`
    (B, k) holds task j's weights at its row of `problem.candidates`, and
    `column(j)` gives task j's weights at all n nodes, called only at a
    step where none of j's candidates fits."""

    cand: np.ndarray
    column: Callable[[int], np.ndarray]


def iteration_weights(
    tau: np.ndarray, problem: AssignmentProblem, alpha: float, beta: float
) -> Weights:
    """`selection_weights` of the (n, B) trail `tau` and the problem's eta,
    on the candidate cells gathered as (B, k), and lazily by column, from
    `tau` as it is when the column is read, so before the iteration's
    pheromone update; no (n, B) weight matrix is built."""
    cand = problem.candidates
    cols = np.arange(len(cand))[:, None]
    eta = problem.eta
    return Weights(
        selection_weights(tau[cand, cols], eta[cand, cols], alpha, beta),
        lambda j: selection_weights(tau[:, j], eta[:, j], alpha, beta),
    )


def _row_sums(nodes: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """(R, n) per-row node totals of (R, B) node indices and values: entry
    [r, i] adds values[r, j] over the j with nodes[r, j] == i, in column
    order from 0.0, the bits `np.add.at` leaves on zeros. One `np.bincount`
    over r * n + node."""
    r = len(nodes)
    flat = (np.arange(r)[:, None] * n + nodes).ravel()
    # an empty input comes back as int64 zeros
    sums = np.bincount(flat, weights=values.ravel(), minlength=r * n)
    return sums.astype(float, copy=False).reshape(r, n)


def score_rows(problem: AssignmentProblem, assign: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Price each row of an (ants, B) node-index matrix (-1: unassigned)
    with `score_cells`, its cells gathered from the problem's tables."""
    assigned = assign >= 0
    nodes = np.where(assigned, assign, 0)
    cols = np.arange(assign.shape[1])
    return score_cells(
        nodes, assigned, problem.t_eff[nodes, cols], problem.xtra_delay[nodes, cols],
        problem.cost[nodes, cols], problem.src_idx[nodes, cols], problem.loss_prob,
    )


def score_cells(
    nodes: np.ndarray,
    assigned: np.ndarray,
    t_eff: np.ndarray,
    xtra_delay: np.ndarray,
    cost: np.ndarray,
    src_idx: np.ndarray,
    loss_prob: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The one definition of a plan's makespan, delay, cost and loss. Each
    argument but `loss_prob` (n,) is (ants, B): task j of row a runs on
    node nodes[a, j] when assigned[a, j], and the cell arrays hold that
    cell's t_eff, xtra_delay, cost and src_idx (values at unassigned tasks
    are ignored). Returns each row's makespan, the most loaded node's
    total t_eff (inf when nothing is assigned), and its raw (delay, cost,
    loss) as a (3, ants) array. Every total adds its terms in task order
    from 0.0, as a task-by-task loop would: `_row_sums` for node loads, a
    running `cumsum` for delay, cost and loss (`np.sum` adds pairwise and
    moves last bits). Unassigned tasks add exact zeros, and loss is the
    mean over assigned tasks."""
    ants, b = nodes.shape
    n = len(loss_prob)
    loads = _row_sums(nodes, np.where(assigned, t_eff, 0.0), n)
    counts = _row_sums(nodes, assigned, n)
    survive = 1.0 - loss_prob[nodes]
    survive = np.where(src_idx >= 0, survive * (1.0 - loss_prob[src_idx]), survive)
    # (delay, cost, loss) terms behind a column of 0.0, the loop's start
    terms = np.zeros((3, ants, b + 1))
    terms[:, :, 1:] = xtra_delay, cost, 1.0 - survive
    terms[:, :, 1:][:, ~assigned] = 0.0
    metrics = terms.cumsum(axis=2)[:, :, -1]
    # Each task's latency is dominated by its node's backlog (the workload
    # at the node over its capacity), so the plan delay sums every node's
    # drain time once per task served there, plus fetch-path extras.
    metrics[0] += (counts * loads).sum(axis=1)
    count = assigned.sum(axis=1)
    metrics[2] = np.where(count > 0, metrics[2] / np.maximum(count, 1), 0.0)
    makespan = np.where(count > 0, loads.max(axis=1), np.inf)
    return makespan, metrics


def _solution_from_indices(
    problem: AssignmentProblem, assign: np.ndarray, feasible: bool
) -> list[AntSolution]:
    """One `AntSolution` per row of `score_rows`; a row is feasible when
    `feasible` holds and it assigns every task."""
    makespan, metrics = score_rows(problem, assign)
    return _solutions(problem.node_ids, problem.task_ids, assign, makespan, metrics, feasible)


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
    weights: Weights, problem: AssignmentProblem, order: np.ndarray, draws: np.ndarray
) -> tuple[np.ndarray, bool]:
    """One ant: visit the tasks in `order`, and at step s pick a node for
    task order[s] with draw draws[s] in [0, 1), in proportion to this
    iteration's `weights` over capacity-feasible nodes, uniformly where all
    their weights underflow to 0.0. A step picks among the task's k
    candidates with `weights.cand`, reading `construct_colony`'s
    cumulative weights when all of them fit; only when none of them fits
    does it weigh all n nodes with `weights.column`, so that the fan-out
    cap does not manufacture infeasibility. Each pick is that of a cumsum
    over all n nodes with the ineligible weights zeroed, since adding 0.0
    is exact. The scaled draw is kept below the total, so the pick is an
    eligible node of positive weight. Runs to completion even when
    capacity strands a task; the row then holds -1 there and is flagged
    infeasible instead of raising."""
    cand = problem.candidates
    cums = _cumulative_weights(weights.cand)
    every = np.arange(len(problem.node_ids))
    room = problem.capacity_mb + CAPACITY_SLACK_MB
    cand_room = room[cand]
    used = np.zeros(len(every))
    assign = np.full(len(cand), -1, dtype=int)
    feasible = True
    demand = problem.demand_mb.tolist()
    for j, u in zip(order.tolist(), draws.tolist()):
        nodes = cand[j]
        fits = used[nodes] + demand[j] <= cand_room[j]
        if fits.all():
            cum = cums[j]
        else:
            if fits.any():
                w = weights.cand[j]
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


def _cumulative_weights(cand_weights: np.ndarray) -> np.ndarray:
    """(B, k): row j is task j's running sum of its candidates' weights,
    or 1..k where every weight underflowed to 0.0 (a uniform draw); the
    cumsum a pick reads when all of the task's candidates fit."""
    cum = np.cumsum(cand_weights, axis=1)
    cum[cum[:, -1] <= 0] = np.arange(1, cand_weights.shape[1] + 1)
    return cum


def _draws(rng: np.random.Generator, ants: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """An iteration's (ants, B) task orders, one permutation per row, and
    its (ants, B) draws in [0, 1), the draw of row a's step s in [a, s]."""
    return rng.permuted(np.tile(np.arange(b), (ants, 1)), axis=1), rng.random((ants, b))


def construct_solution(
    weights: Weights,
    problem: AssignmentProblem,
    rng: np.random.Generator,
) -> AntSolution:
    """One ant (`_ant_row`) as a scored solution, its order and draws
    taken as `construct_colony` takes a one-ant iteration's."""
    orders, draws = _draws(rng, 1, len(problem.task_ids))
    assign, feasible = _ant_row(weights, problem, orders[0], draws[0])
    return _solution_from_indices(problem, assign[None], feasible)[0]


def construct_colony(
    weights: Weights,
    problem: AssignmentProblem,
    rng: np.random.Generator,
    ants: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One iteration's ants, all picks at once: the (ants, B) node-index
    matrix and each ant's feasible flag. The orders and draws come from
    `_draws`, and each draw becomes a pick over its task's row of
    `problem.candidates` with the weights `weights.cand`, k = min(L_MAX,
    n) nodes, not all n. Row a is `_ant_row` on row a of the orders and
    draws whenever every `fits` check that walk makes holds: then every
    candidate fits at each step, and a pick depends on the task's weights
    and the ant's draw, not on the order of steps.
    Loads only grow (a float sum of non-negative terms never falls), so
    the checks all held if each ant's final loads, summed in its step
    order as the walk sums them, still fit the largest demand. Otherwise
    the rows are built with `_ant_row` from the same orders and draws."""
    cand = problem.candidates
    b = len(cand)
    orders, draws = _draws(rng, ants, b)
    cum = _cumulative_weights(weights.cand)
    total = cum[:, -1]
    # x[a, j]: ant a's draw for task j, scaled to j's total and kept below
    # it. The count of cum <= x is searchsorted(cum, x, side="right"), as
    # cum never decreases; it is below k
    rows = np.arange(ants)[:, None]
    x = np.empty((ants, b))
    x[rows, orders] = draws
    x *= total
    np.minimum(x, np.nextafter(total, 0.0), out=x)
    assign = cand[np.arange(b), np.count_nonzero(cum <= x[..., None], axis=2)]
    used = _row_sums(
        np.take_along_axis(assign, orders, axis=1), problem.demand_mb[orders],
        len(problem.node_ids),
    )
    room = problem.capacity_mb + CAPACITY_SLACK_MB
    if (used + problem.demand_mb.max(initial=0.0) <= room).all():
        return assign, np.ones(ants, dtype=bool)
    built, flags = zip(*(_ant_row(weights, problem, o, d) for o, d in zip(orders, draws)))
    return np.array(built), np.array(flags)


def update_pheromones_full(
    tau: np.ndarray, assign: np.ndarray, makespan: np.ndarray, config: AcoConfig
) -> None:
    """Evaporate the (n, B) trail `tau` in place, then deposit Q/makespan
    along the edges of every row of `assign`, the (k, B) node-index rows of
    feasible plans, with their (k,) makespans, and floor it at TAU_FLOOR.
    One `np.add.at` adds the deposits edge by edge in row order, as a loop
    over the rows would."""
    tau *= 1.0 - config.rho
    keep = makespan > 0
    cols = np.arange(tau.shape[1])
    np.add.at(tau, (assign[keep], cols), (Q_CONST / makespan[keep])[:, None])
    np.maximum(tau, TAU_FLOOR, out=tau)


def update_pheromones_ewma(
    tau: np.ndarray, best: np.ndarray | None, t_eff: np.ndarray, config: AcoConfig
) -> None:
    """Evaporate the (n, B) trail `tau` in place everywhere; nudge only the
    best plan's edges (`best`, its (B,) node-index row, None before any
    feasible plan) toward 1/T at rate rho, T the edge's effective time in
    `t_eff` (the problem's (n, B) table); floor it at TAU_FLOOR. Repeated
    application with a fixed best converges each reinforced entry to
    exactly 1/T."""
    tau *= 1.0 - config.rho
    if best is not None:
        cols = np.arange(tau.shape[1])
        delta = 1.0 / np.maximum(t_eff[best, cols], 1e-12)
        tau[best, cols] += config.rho * delta
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
    problem: AssignmentProblem, assign: np.ndarray, max_rounds: int = 64
) -> tuple[np.ndarray, int]:
    """Bounded hill climb on a complete node-index row: repeatedly move one
    task off the most loaded node while that strictly lowers the makespan
    and respects capacity. Returns the climbed row (a copy) and the number
    of moves."""
    n = len(problem.node_ids)
    assign = assign.copy()
    loads = np.zeros(n)
    used = np.zeros(n)
    for j, i in enumerate(assign):
        loads[i] += problem.t_eff[i, j]
        used[i] += problem.demand_mb[j]
    moves = 0
    for _ in range(max_rounds):
        src = int(np.argmax(loads))
        best = None  # (new_makespan, j, dst)
        others = np.partition(loads, -2)[-2] if n > 1 else 0.0
        for j in np.where(assign == src)[0]:
            for dst in range(n):
                if dst == src:
                    continue
                if used[dst] + problem.demand_mb[j] > problem.capacity_mb[dst] + CAPACITY_SLACK_MB:
                    continue
                new_mk = max(
                    others,
                    loads[src] - problem.t_eff[src, j],
                    loads[dst] + problem.t_eff[dst, j],
                )
                if new_mk < loads[src] - 1e-12 and (best is None or new_mk < best[0]):
                    best = (new_mk, int(j), dst)
        if best is None:
            break
        _, j, dst = best
        loads[src] -= problem.t_eff[src, j]
        used[src] -= problem.demand_mb[j]
        loads[dst] += problem.t_eff[dst, j]
        used[dst] += problem.demand_mb[j]
        assign[j] = dst
        moves += 1
    return assign, moves


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
    used = _row_sums(assign[None], demand_mb[None], len(capacity_mb))[0]
    return bool(np.all(used <= capacity_mb + CAPACITY_SLACK_MB))


def preallocation_row(problem: AssignmentProblem) -> np.ndarray:
    """The balanced pre-allocation list: every task on its block's primary
    owner. Seeds the colony's first iteration."""
    pos = {nid: i for i, nid in enumerate(problem.node_ids)}
    return np.array([pos[problem.plan.primary(t.block_id)] for t in problem.tasks], dtype=int)


def greedy_local_row(problem: AssignmentProblem) -> np.ndarray:
    """Longest-task-first over replica holders: keep every task local while
    leveling per-node load; fall back to the globally least-loaded node
    only when a holder cannot take the data. Second colony seed; -1 from
    the first task no node can take. A task's length is its least t_eff
    over all nodes, ties in task order; the walk adds Python floats, the
    float64 sums numpy would add."""
    pos = {nid: i for i, nid in enumerate(problem.node_ids)}
    n = len(problem.node_ids)
    t_eff = problem.t_eff
    demand = problem.demand_mb.tolist()
    room = (problem.capacity_mb + CAPACITY_SLACK_MB).tolist()
    loads = [0.0] * n
    used = [0.0] * n
    assign = np.full(len(problem.tasks), -1, dtype=int)
    shortest = t_eff.min(axis=0).tolist()
    for j in sorted(range(len(problem.tasks)), key=lambda j: -shortest[j]):
        d = demand[j]
        holders = [pos[r] for r in problem.plan.replicas(problem.tasks[j].block_id)]
        fits = [i for i in holders if used[i] + d <= room[i]]
        if not fits:
            fits = [i for i in range(n) if used[i] + d <= room[i]]
        if not fits:
            return assign  # infeasible
        i = min(fits, key=lambda i: (loads[i] + t_eff.item(i, j), i))
        assign[j] = i
        loads[i] += t_eff.item(i, j)
        used[i] += d
    return assign


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
        weights = iteration_weights(tau, problem, config.alpha, config.beta)
        assign, feasible = construct_colony(weights, problem, rng, config.ants)
        feasible_ants += int(feasible.sum())
        if it == 1:
            elites = [r for r in (preallocation_row(problem), greedy_local_row(problem))
                      if _fits(r, problem.demand_mb, problem.capacity_mb)]
            if elites:
                assign = np.vstack([assign, *elites])
                feasible = np.concatenate([feasible, np.ones(len(elites), dtype=bool)])
        makespan, metrics = score_rows(problem, assign)
        if by_makespan and feasible.any():
            fi = np.flatnonzero(feasible)
            refined, moves = _refine_makespan(problem, assign[fi[np.argmin(makespan[fi])]])
            if moves:
                refine_moves += moves
                mk, m = score_rows(problem, refined[None])
                assign = np.vstack([assign, refined])
                feasible = np.append(feasible, True)
                makespan = np.concatenate([makespan, mk])
                metrics = np.concatenate([metrics, m], axis=1)
        if not feasible.all():
            if not feasible.any():
                stranded_assigned = int((assign[0] >= 0).sum())
            assign, makespan, metrics = assign[feasible], makespan[feasible], metrics[:, feasible]
        n_feas = len(assign)
        if n_feas:
            if refs is None:
                refs = [float(np.mean(m)) for m in metrics]
            obj = makespan if by_makespan else _weighted(metrics, refs)
            # the first row of least (objective, makespan); a later
            # iteration replaces the best only with a strictly smaller one
            k = np.lexsort((makespan, obj))[0]
            key = (float(obj[k]), float(makespan[k]))
            if key < (best_objective, best_makespan):
                best_row = assign[k]
                best_objective, best_makespan = key

        trace.append(
            TraceRow(
                iteration=it,
                best_objective=best_objective,
                best_makespan=best_makespan,
                mean_makespan=float(np.mean(makespan)) if n_feas else float("inf"),
                feasible_ants=n_feas,
            )
        )

        if config.variant == "lightweight":
            update_pheromones_ewma(tau, best_row, problem.t_eff, config)
        else:
            if best_row is not None:
                # best-ever rides along as an elitist depositor
                assign = np.vstack([assign, best_row])
                makespan = np.append(makespan, best_makespan)
            update_pheromones_full(tau, assign, makespan, config)

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
    best = _solution_from_indices(problem, best_row[None], True)[0]
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
    """A baseline's complete (B,) node-index row as a scored solution, priced at its
    B cells alone: `price_cells` at (assign[j], j), t_pred read from the
    predictor's (n, B) table, then `score_cells`. The bits are those of
    `_solution_from_indices` on the row of `build_problem`'s full grid,
    feasible when the row fits capacity."""
    nodes = [g.node(nid) for nid in g.paths.node_ids]
    cols = np.arange(len(tasks))
    access, xtra_delay, cost, src_idx = price_cells(g, plan, tasks, assign, cols)
    row = assign[None]
    makespan, metrics = score_cells(
        row, np.ones(row.shape, dtype=bool), (t_pred[assign, cols] + access)[None],
        xtra_delay[None], cost[None], src_idx[None],
        np.array([nd.loss_prob for nd in nodes]),
    )
    feasible = _fits(
        assign, np.array([t.block_mb for t in tasks], dtype=float),
        np.array([nd.capacity_mb for nd in nodes]),
    )
    return _solutions(
        g.paths.node_ids, tuple(t.id for t in tasks), row, makespan, metrics, feasible
    )[0]


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
    reservation threshold (mean fair-share load times the headroom).
    Estimated loads feed back into later picks. Locality-blind."""
    t_est = predict_table(g, tasks, predictor)  # regression estimate, no locality signal
    n = len(t_est)
    demand_mb = np.array([t.block_mb for t in tasks], dtype=float)
    capacity_mb = np.array([g.node(nid).capacity_mb for nid in g.paths.node_ids])
    fair = float(t_est.mean(axis=0).sum()) / n
    threshold = fair * reservation_headroom
    loads = np.zeros(n)
    used = np.zeros(n)
    assign = np.full(len(tasks), -1, dtype=int)
    for j in range(len(tasks)):
        fits = used + demand_mb[j] <= capacity_mb + CAPACITY_SLACK_MB
        ok = fits & (loads + t_est[:, j] <= threshold)
        first = int(ok.argmax())  # the first True, when there is one
        if ok[first]:
            assign[j] = first
        else:
            room = np.flatnonzero(fits)
            if len(room) == 0:
                raise InfeasibleScheduleError(
                    f"capacity exhausted while placing task {tasks[j].id}"
                )
            assign[j] = int(room[np.argmin(loads[room])])
        loads[assign[j]] += t_est[assign[j], j]
        used[assign[j]] += demand_mb[j]
    return _plan_solution(g, plan, tasks, t_est, assign)


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
