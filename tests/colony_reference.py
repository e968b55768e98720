"""The colony's iteration as it stood before `aco.Workspace`: every
function rebuilt its per-solve constants (the order template, eta^beta,
row offsets, the climb's float lists, the elite rows' holders) on each
call. Kept as the reference the lean iteration must equal bit for bit:
`tests/test_colony_reference.py` compares each step, and whole solves,
with the package's."""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from sccdso.aco import (
    PATIENCE,
    Q_CONST,
    TAU0,
    TAU_FLOOR,
    TOL,
    AcoConfig,
    AntSolution,
    AssignmentProblem,
    InfeasibleScheduleError,
    SolveResult,
    TraceRow,
    _solution,
)
from sccdso.cluster import CAPACITY_SLACK_MB


class Weights(NamedTuple):
    """An iteration's selection weights: `cand` (B, k) at each task's
    candidates, and `column(j)` task j's weights at all n nodes."""

    cand: np.ndarray
    column: Callable[[int], np.ndarray]


def selection_weights(
    tau: np.ndarray, eta: np.ndarray, alpha: float, beta: float
) -> np.ndarray:
    """Unnormalized weights tau^alpha * eta^beta, elementwise over any
    cells: one task's column, the (B, k) candidate cells or the whole
    (n, B) matrix, each cell with the bits of the others; an ant picks
    node i for task j with probability w[i, j] over the sum of w[:, j] on
    j's eligible nodes."""
    return np.power(tau, alpha) * np.power(eta, beta)


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


def score_makespans(problem: AssignmentProblem, assign: np.ndarray) -> np.ndarray:
    """Each row's makespan alone, the bits of `score_rows`' first result:
    `_node_loads` of the row's t_eff cells, with no delay, cost or loss."""
    assigned = assign >= 0
    nodes = np.where(assigned, assign, 0)
    t_eff = problem.t_eff[nodes, np.arange(assign.shape[1])]
    return _node_loads(nodes, assigned, t_eff, len(problem.node_ids))[1]


def _node_loads(
    nodes: np.ndarray, assigned: np.ndarray, t_eff: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The one definition of a plan's makespan. For (ants, B) cells as
    `score_cells` takes them, returns the (ants, n) node loads, each
    node's total t_eff over its assigned tasks (`_row_sums`, in task
    order from 0.0), and each row's makespan, its largest load, inf when
    nothing is assigned."""
    loads = _row_sums(nodes, np.where(assigned, t_eff, 0.0), n)
    return loads, np.where(assigned.any(axis=1), loads.max(axis=1), np.inf)


def score_cells(
    nodes: np.ndarray,
    assigned: np.ndarray,
    t_eff: np.ndarray,
    xtra_delay: np.ndarray,
    cost: np.ndarray,
    src_idx: np.ndarray,
    loss_prob: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The one definition of a plan's delay, cost and loss. Each argument
    but `loss_prob` (n,) is (ants, B): task j of row a runs on node
    nodes[a, j] when assigned[a, j], and the cell arrays hold that cell's
    t_eff, xtra_delay, cost and src_idx (values at unassigned tasks are
    ignored). Returns each row's makespan and its raw (delay, cost, loss)
    as a (3, ants) array. The makespan and node loads are `_node_loads`',
    the shared definition that the colony's `score_makespans`
    reads without the rest. Every total adds its terms in task order from
    0.0, as a task-by-task loop would: `_row_sums` for node loads and
    counts, a running `cumsum` for delay, cost and loss (`np.sum` adds
    pairwise and moves last bits). Unassigned tasks add exact zeros, and
    loss is the mean over assigned tasks."""
    ants, b = nodes.shape
    n = len(loss_prob)
    loads, makespan = _node_loads(nodes, assigned, t_eff, n)
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
    return makespan, metrics


def _solution_from_indices(
    problem: AssignmentProblem, assign: np.ndarray, feasible: bool
) -> list[AntSolution]:
    """One `AntSolution` per row of `score_rows`; a row is feasible when
    `feasible` holds and it assigns every task."""
    makespan, metrics = score_rows(problem, assign)
    return [
        _solution(problem.node_ids, problem.task_ids, row, mk, m, feasible)
        for row, mk, m in zip(assign, makespan, metrics.T)
    ]


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


def _refine_makespan(
    problem: AssignmentProblem, assign: np.ndarray, max_rounds: int = 64
) -> tuple[np.ndarray, int]:
    """Bounded hill climb on a complete node-index row: repeatedly move one
    task off the most loaded node (the first on a tie) while that strictly
    lowers the makespan and respects capacity, taking the move of least
    new makespan, the first in (task, node) order on a tie. Returns the
    climbed row (a copy) and the number of moves. The loop adds and
    compares Python floats, the float64 values numpy would."""
    n = len(problem.node_ids)
    t_eff = problem.t_eff.tolist()
    demand = problem.demand_mb.tolist()
    room = (problem.capacity_mb + CAPACITY_SLACK_MB).tolist()
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

    Early-stops once the best makespan improves by less than `TOL`
    (relatively) for `PATIENCE` consecutive iterations. Raises
    InfeasibleScheduleError when no ant ever produced a feasible
    assignment.
    """
    config.validate()
    tau = np.full(problem.t_eff.shape, TAU0)
    rng = np.random.default_rng(seed)

    best_row: np.ndarray | None = None
    best_makespan = float("inf")
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
        # the makespan reads node loads alone; the winner is priced in full
        # once, after the last iteration
        makespan = score_makespans(problem, assign)
        if feasible.any():
            fi = np.flatnonzero(feasible)
            refined, moves = _refine_makespan(problem, assign[fi[np.argmin(makespan[fi])]])
            if moves:
                refine_moves += moves
                assign = np.vstack([assign, refined])
                feasible = np.append(feasible, True)
                makespan = np.append(makespan, score_makespans(problem, refined[None]))
        if not feasible.all():
            if not feasible.any():
                stranded_assigned = int((assign[0] >= 0).sum())
            assign, makespan = assign[feasible], makespan[feasible]
        n_feas = len(assign)
        if n_feas:
            # the first row of least makespan; a later iteration replaces
            # the best only with a strictly smaller one
            k = int(np.argmin(makespan))
            if makespan[k] < best_makespan:
                best_row = assign[k]
                best_makespan = float(makespan[k])

        trace.append(
            TraceRow(
                iteration=it,
                best_makespan=best_makespan,
                mean_makespan=float(np.mean(makespan)) if n_feas else float("inf"),
                feasible_ants=n_feas,
            )
        )

        if best_row is not None:
            # best-ever rides along as an elitist depositor
            assign = np.vstack([assign, best_row])
            makespan = np.append(makespan, best_makespan)
        update_pheromones_full(tau, assign, makespan, config)

        if best_row is not None:
            if np.isfinite(prev_val):
                improvement = (prev_val - best_makespan) / max(abs(prev_val), 1e-12)
                stall = stall + 1 if improvement < TOL else 0
            prev_val = best_makespan
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
    return SolveResult(
        best=_solution_from_indices(problem, best_row[None], True)[0],
        trace=tuple(trace),
        iterations=len(trace),
        converged_iteration=converged,
        ants=len(trace) * config.ants,
        feasible_ants=feasible_ants,
        refine_moves=refine_moves,
        pheromones=tau,
    )
