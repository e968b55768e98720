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

An iteration works on its ants as one (ants, B) node-index matrix.
`construct_colony` takes the iteration's task orders and draws in two
generator calls, then every pick in one pass: each draw, scaled to its
task's total weight at its k = min(L_MAX, n) candidates and kept below
that total, picks a candidate of positive weight. Pheromones change only
between iterations, so the candidates' cumulative weights are fixed for
the iteration. Those picks are the ones an ant walking its order one
task at a time (`_ant_row`) makes from the same draws as long as no node
comes near its capacity, so that every `fits` check the walk makes
holds. When an ant's final loads leave no room for the largest demand,
the iteration builds its rows with `_ant_row` from the same orders and
draws. `score_rows` then prices every row at once: it gathers each
row's cells from the problem's tables and hands them to `score_cells`,
the one definition of a plan's makespan, delay, cost and loss, in which
each total keeps a task-by-task loop's order of addition. The
objective, the trace, the best pick (the first row of least (objective,
makespan)) and the full-regime deposit read those arrays; an
`AntSolution` is built only for the winner and for the baselines.

Two pheromone regimes:

* full — every feasible ant deposits Q / makespan on the edges it used,
  after global evaporation.
* lightweight (EWMA) — only the best-so-far assignment is reinforced, at
  rate rho toward 1/T per edge; everything else just evaporates. Paired
  with a reduced colony (5 ants) for cheap per-iteration work.

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
(`predict_table`), the one form a prediction takes: reservation-first-fit
reads all of it, rsync and round robin their B cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .cluster import ClusterGraph
from .placement import PlacementPlan
from .workload import TaskSpec

LIGHTWEIGHT_ANTS = 5


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
        if name == "table1":
            base = dict(alpha=1.5, beta=2.5, rho=0.2, ants=20, max_iters=50)
        elif name == "stage7":
            base = dict(alpha=0.8, beta=1.2, rho=0.1)
        else:
            raise ValueError(f"unknown preset: {name}")
        base.update(overrides)
        cfg = cls(**base)
        cfg.validate()
        return cfg


@dataclass
class PheromoneMatrix:
    node_ids: tuple[str, ...]
    task_ids: tuple[str, ...]
    tau: np.ndarray  # (n_nodes, n_tasks)

    @classmethod
    def initial(cls, node_ids, task_ids) -> "PheromoneMatrix":
        return cls(
            node_ids=tuple(node_ids),
            task_ids=tuple(task_ids),
            tau=np.full((len(node_ids), len(task_ids)), TAU0, dtype=float),
        )

    def clamp(self) -> None:
        np.maximum(self.tau, TAU_FLOOR, out=self.tau)


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
    """Everything an ant needs, precomputed as dense arrays.

    Every column of `candidate_mask` holds exactly min(L_MAX, n)
    candidates, as `build_problem` makes it; the colony's picks rely only
    on every column holding the same number (a mask of all True also
    serves)."""

    g: ClusterGraph
    plan: PlacementPlan
    tasks: tuple[TaskSpec, ...]
    node_ids: tuple[str, ...]
    task_ids: tuple[str, ...]
    t_pred: np.ndarray  # (n, B) predicted execution seconds
    access: np.ndarray  # (n, B) data-access seconds
    t_eff: np.ndarray  # t_pred + access
    eta: np.ndarray  # 1 / t_eff
    xtra_delay: np.ndarray  # (n, B) queueing + latency extras of the fetch path
    cost: np.ndarray  # (n, B) per-assignment cost contribution
    src_idx: np.ndarray  # (n, B) chosen replica source index, -1 when local
    demand_mb: np.ndarray  # (B,)
    capacity_mb: np.ndarray  # (n,)
    loss_prob: np.ndarray  # (n,)
    candidate_mask: np.ndarray  # (n, B) fan-out-capped eligibility

    @cached_property
    def candidates(self) -> np.ndarray:
        """(B, k) node indices of each task's candidates, ascending; k is
        the candidates per column. Derived from `candidate_mask` on first
        use, once per problem."""
        b = len(self.task_ids)
        k = int(self.candidate_mask[:, 0].sum()) if b else 0
        return np.nonzero(self.candidate_mask.T)[1].reshape(b, k)


def predict_table(g: ClusterGraph, tasks: list[TaskSpec], predictor) -> np.ndarray:
    """The predictor's (n, B) table of execution seconds, nodes in the
    path table's (sorted-id) order."""
    nodes = [g.node(nid) for nid in g.paths.node_ids]
    return np.asarray(predictor.predict_matrix(nodes, list(tasks)), dtype=float)


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
    fetches from the replica with the least fetch seconds in `g.paths`
    (transfer plus extras), the lowest node index on a tie; `access` holds
    that fetch's transfer seconds and `xtra_delay` its extras. Each value
    depends on its own cell alone, so any cells give the full grid's bits."""
    paths = g.paths
    n = len(paths.node_ids)
    # (B, RF) replica node indices in ascending order, so the first least
    # price is the lowest index; a shorter replica list repeats its first
    # holder, a duplicate candidate that changes no minimum
    replicas = [sorted(paths.index[r] for r in plan.replicas(t.block_id)) for t in tasks]
    rf = max((len(r) for r in replicas), default=1)
    src = np.array([reps + reps[:1] * (rf - len(reps)) for reps in replicas], dtype=int)
    src = src.reshape(len(tasks), rf)[j]
    mb = np.array([t.block_mb for t in tasks], dtype=float)[j]
    gcycles = np.array([t.compute_gcycles for t in tasks], dtype=float)[j]
    per_cycle = np.array([g.node(nid).cost_per_cycle for nid in paths.node_ids])[i]

    # each cell's route to its first replica, then a strict `<` over the
    # other replicas keeps the first least price, as argmin would; routes
    # are flat (dst, src) indices into the path tables, which allocates
    # less than carrying every term through the comparison
    base = i * n
    route = base + src[..., 0]
    least = mb / paths.bandwidth.take(route) + paths.extras_s.take(route)
    local = src[..., 0] == i
    for r in range(1, rf):
        alt = base + src[..., r]
        p = mb / paths.bandwidth.take(alt) + paths.extras_s.take(alt)
        route = np.where(p < least, alt, route)
        least = np.minimum(least, p)
        local |= src[..., r] == i

    compute_cost = (per_cycle * gcycles) * 1e9
    access = np.where(local, 0.0, mb / paths.bandwidth.take(route))
    xtra_delay = np.where(local, 0.0, paths.extras_s.take(route))
    cost = np.where(local, compute_cost, paths.cost_per_mb.take(route) * mb + compute_cost)
    return access, xtra_delay, cost, np.where(local, -1, route - base)


def build_problem(
    g: ClusterGraph,
    plan: PlacementPlan,
    tasks: list[TaskSpec],
    predictor,
) -> AssignmentProblem:
    """Price every (node, task) cell (`price_cells` on the full grid). Each
    task's candidates are its min(L_MAX, n) nodes of highest eta, the
    lowest node index first on a tie, as a stable sort ranks them;
    `np.partition` finds the k-th value, so no column is fully sorted."""
    node_ids = g.paths.node_ids
    nodes = [g.node(n) for n in node_ids]
    n, b = len(node_ids), len(tasks)

    t_pred = predict_table(g, tasks, predictor)
    access, xtra_delay, cost, src_idx = price_cells(
        g, plan, tasks, np.arange(n)[:, None], np.arange(b)
    )
    t_eff = t_pred + access
    eta = 1.0 / np.maximum(t_eff, 1e-12)

    # each column's top k by eta, ties to the lowest node index, as a stable
    # argsort of -eta ranks them: all values past the k-th, then the first
    # ties at the k-th until k are taken; with k = n, every node
    k = min(L_MAX, n)
    if k == n:
        mask = np.ones((n, b), dtype=bool)
    else:
        neg = -eta
        kth = np.partition(neg, k - 1, axis=0)[k - 1]
        above = neg < kth
        tied = neg == kth
        mask = above | (tied & (np.cumsum(tied, axis=0) <= k - above.sum(axis=0)))

    return AssignmentProblem(
        g=g,
        plan=plan,
        tasks=tuple(tasks),
        node_ids=node_ids,
        task_ids=tuple(t.id for t in tasks),
        t_pred=t_pred,
        access=access,
        t_eff=t_eff,
        eta=eta,
        xtra_delay=xtra_delay,
        cost=cost,
        src_idx=src_idx,
        demand_mb=np.array([t.block_mb for t in tasks], dtype=float),
        capacity_mb=np.array([nd.capacity_mb for nd in nodes]),
        loss_prob=np.array([nd.loss_prob for nd in nodes]),
        candidate_mask=mask,
    )


def selection_weights(
    tau: np.ndarray, eta: np.ndarray, alpha: float, beta: float
) -> np.ndarray:
    """Unnormalized weights tau^alpha * eta^beta, elementwise over one
    task's column or the whole (n, B) matrix; an ant picks node i for task
    j with probability w[i, j] over the sum of w[:, j] on j's eligible
    nodes."""
    return np.power(tau, alpha) * np.power(eta, beta)


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
    from 0.0, as a task-by-task loop would: `np.add.at` for node loads, a
    running `cumsum` for delay, cost and loss (`np.sum` adds pairwise and
    moves last bits). Unassigned tasks add exact zeros, and loss is the
    mean over assigned tasks."""
    ants, b = nodes.shape
    rows = np.arange(ants)[:, None]
    t_eff = np.where(assigned, t_eff, 0.0)
    loads = np.zeros((ants, len(loss_prob)))
    counts = np.zeros_like(loads)
    np.add.at(loads, (rows, nodes), t_eff)
    np.add.at(counts, (rows, nodes), assigned)
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
    weights: np.ndarray, problem: AssignmentProblem, order: np.ndarray, draws: np.ndarray
) -> tuple[np.ndarray, bool]:
    """One ant: visit the tasks in `order`, and at step s pick a node for
    task order[s] with draw draws[s] in [0, 1), in proportion to `weights`
    (this iteration's `selection_weights`) over capacity-feasible
    candidates, uniformly where all their weights underflow to 0.0. The
    scaled draw is kept below the total, so the pick is an eligible node
    of positive weight. Runs to completion even when capacity strands a
    task; the row then holds -1 there and is flagged infeasible instead
    of raising."""
    n, b = weights.shape
    used = np.zeros(n)
    assign = np.full(b, -1, dtype=int)
    feasible = True
    for j, u in zip(order, draws):
        fits = used + problem.demand_mb[j] <= problem.capacity_mb + 1e-9
        mask = problem.candidate_mask[:, j] & fits
        if not mask.any():
            mask = fits  # fan-out cap must not manufacture infeasibility
        if not mask.any():
            feasible = False
            continue
        cum = np.cumsum(np.where(mask, weights[:, j], 0.0))
        if cum[-1] <= 0:
            cum = np.cumsum(mask)  # every weight underflowed: draw uniformly
        x = np.minimum(u * cum[-1], np.nextafter(cum[-1], 0.0))
        pick = int(np.searchsorted(cum, x, side="right"))
        assign[j] = pick
        used[pick] += problem.demand_mb[j]
    return assign, feasible


def _draws(rng: np.random.Generator, ants: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """An iteration's (ants, B) task orders, one permutation per row, and
    its (ants, B) draws in [0, 1), the draw of row a's step s in [a, s]."""
    return rng.permuted(np.tile(np.arange(b), (ants, 1)), axis=1), rng.random((ants, b))


def construct_solution(
    weights: np.ndarray,
    problem: AssignmentProblem,
    rng: np.random.Generator,
) -> AntSolution:
    """One ant (`_ant_row`) as a scored solution, its order and draws
    taken as `construct_colony` takes a one-ant iteration's."""
    orders, draws = _draws(rng, 1, weights.shape[1])
    assign, feasible = _ant_row(weights, problem, orders[0], draws[0])
    return _solution_from_indices(problem, assign[None], feasible)[0]


def construct_colony(
    weights: np.ndarray,
    problem: AssignmentProblem,
    rng: np.random.Generator,
    ants: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One iteration's ants, all picks at once: the (ants, B) node-index
    matrix and each ant's feasible flag. The orders and draws come from
    `_draws`, and each draw becomes a pick over its task's row of
    `problem.candidates`, k = min(L_MAX, n) nodes, not all n. Row a is
    `_ant_row` on row a of the orders and draws whenever every `fits`
    check that walk makes holds: then its mask is the candidate column,
    and a pick depends on the task's weights and the ant's draw, not on
    the order of steps.
    Loads only grow (a float sum of non-negative terms never falls), so
    the checks all held if each ant's final loads, summed in its step
    order as the walk sums them, still fit the largest demand. Otherwise
    the rows are built with `_ant_row` from the same orders and draws."""
    n, b = weights.shape
    orders, draws = _draws(rng, ants, b)
    # row j: task j's cumulative weights at its k candidates, uniform where
    # every weight underflowed to 0.0. They are the masked full-row cumsum
    # at those nodes bit for bit, as adding 0.0 is exact.
    cand = problem.candidates
    k = cand.shape[1]
    cols = np.arange(b)
    cum = np.cumsum(weights[cand, cols[:, None]], axis=1)
    cum[cum[:, -1] <= 0] = np.arange(1, k + 1)
    total = cum[:, -1]
    # x[a, j]: ant a's draw for task j, scaled to j's total and kept below
    # it. The count of cum <= x is searchsorted(cum, x, side="right"), as
    # cum never decreases; it is below k, and candidate c of that count is
    # the node the full row's count reaches, since every weight before it
    # is 0.0
    rows = np.arange(ants)[:, None]
    x = np.empty((ants, b))
    x[rows, orders] = draws
    x *= total
    np.minimum(x, np.nextafter(total, 0.0), out=x)
    assign = cand[cols, np.count_nonzero(cum <= x[..., None], axis=2)]
    used = np.zeros((ants, n))
    np.add.at(used, (rows, np.take_along_axis(assign, orders, axis=1)), problem.demand_mb[orders])
    if (used + problem.demand_mb.max(initial=0.0) <= problem.capacity_mb + 1e-9).all():
        return assign, np.ones(ants, dtype=bool)
    built, flags = zip(*(_ant_row(weights, problem, o, d) for o, d in zip(orders, draws)))
    return np.array(built), np.array(flags)


def update_pheromones_full(
    pheromones: PheromoneMatrix, assign: np.ndarray, makespan: np.ndarray, config: AcoConfig
) -> None:
    """Evaporate, then deposit Q/makespan along the edges of every row of
    `assign`, the (k, B) node-index rows of feasible plans, with their (k,)
    makespans. One `np.add.at` adds the deposits edge by edge in row
    order, as a loop over the rows would."""
    pheromones.tau *= 1.0 - config.rho
    keep = makespan > 0
    cols = np.arange(len(pheromones.task_ids))
    np.add.at(pheromones.tau, (assign[keep], cols), (Q_CONST / makespan[keep])[:, None])
    pheromones.clamp()


def update_pheromones_ewma(
    pheromones: PheromoneMatrix, best: np.ndarray | None, t_eff: np.ndarray, config: AcoConfig
) -> None:
    """Evaporate everywhere; nudge only the best plan's edges (`best`, its
    (B,) node-index row, None before any feasible plan) toward 1/T at rate
    rho, T the edge's effective time in `t_eff` (the problem's (n, B)
    table). Repeated application with a fixed best converges each
    reinforced entry to exactly 1/T."""
    pheromones.tau *= 1.0 - config.rho
    if best is not None:
        cols = np.arange(len(pheromones.task_ids))
        delta = 1.0 / np.maximum(t_eff[best, cols], 1e-12)
        pheromones.tau[best, cols] += config.rho * delta
    pheromones.clamp()


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
    pheromones: PheromoneMatrix | None = None  # final trail state


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
                if used[dst] + problem.demand_mb[j] > problem.capacity_mb[dst] + 1e-9:
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


def solve(
    tasks: list[TaskSpec],
    plan: PlacementPlan,
    g: ClusterGraph,
    predictor,
    config: AcoConfig,
    seed: int,
) -> SolveResult:
    """Run the colony; returns the best-ever feasible solution and the
    per-iteration convergence trace.

    Early-stops once the best value improves by less than `TOL`
    (relatively) for `PATIENCE` consecutive iterations. Raises
    InfeasibleScheduleError when no ant ever produced a feasible
    assignment.
    """
    config.validate()
    problem = build_problem(g, plan, tasks, predictor)
    return solve_problem(problem, config, seed)


def fits_capacity(problem: AssignmentProblem, assign: np.ndarray) -> bool:
    """Whether a (B,) node-index row assigns every task within every
    node's capacity."""
    return _fits(assign, problem.demand_mb, problem.capacity_mb)


def _fits(assign: np.ndarray, demand_mb: np.ndarray, capacity_mb: np.ndarray) -> bool:
    if (assign < 0).any():
        return False
    used = np.zeros(len(capacity_mb))
    np.add.at(used, assign, demand_mb)
    return bool(np.all(used <= capacity_mb + 1e-9))


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
    room = (problem.capacity_mb + 1e-9).tolist()
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
    config.validate()
    ants = LIGHTWEIGHT_ANTS if config.variant == "lightweight" else config.ants
    by_makespan = config.objective == "makespan"
    ph = PheromoneMatrix.initial(problem.node_ids, problem.task_ids)
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
        weights = selection_weights(ph.tau, problem.eta, config.alpha, config.beta)
        assign, feasible = construct_colony(weights, problem, rng, ants)
        feasible_ants += int(feasible.sum())
        if it == 1:
            elites = [r for r in (preallocation_row(problem), greedy_local_row(problem))
                      if fits_capacity(problem, r)]
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
            update_pheromones_ewma(ph, best_row, problem.t_eff, config)
        else:
            if best_row is not None:
                # best-ever rides along as an elitist depositor
                assign = np.vstack([assign, best_row])
                makespan = np.append(makespan, best_makespan)
            update_pheromones_full(ph, assign, makespan, config)

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
        ants=len(trace) * ants,
        feasible_ants=feasible_ants,
        refine_moves=refine_moves,
        pheromones=ph,
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
        fits = used + demand_mb[j] <= capacity_mb + 1e-9
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
            and used[i] + task.block_mb <= capacity_mb[i] + 1e-9
        )
        if not ok:
            chosen = -1
            fallback = -1
            for _ in range(n):
                cand = spill % n
                spill += 1
                if used[cand] + task.block_mb > capacity_mb[cand] + 1e-9:
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
