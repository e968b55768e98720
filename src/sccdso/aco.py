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

An iteration builds its ants together (`construct_colony`): every ant's
task order and draws are taken from the generator up front, then all ants
step through their t-th task at once over (ants, n) arrays, and
`_solution_from_indices` scores the (ants, B) assignment matrix in one
pass. The result is bit-for-bit the per-ant loop's (`construct_solution`,
ant after ant on the same generator): each sum keeps the loop's order.
The one exception is a stranded task (no node has room), which the
per-ant loop skips without a draw; an iteration where any ant strands
rewinds the generator and runs `construct_solution` per ant.

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
synchronization delay, and plain round robin.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
    """Everything an ant needs, precomputed as dense arrays."""

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


def build_problem(
    g: ClusterGraph,
    plan: PlacementPlan,
    tasks: list[TaskSpec],
    predictor,
) -> AssignmentProblem:
    """Price every (node, task) cell. A task whose block has a replica on
    the node is local: compute cost only. Otherwise the task fetches from
    the replica with the least fetch seconds in `g.paths` (transfer plus
    extras), the lowest node index on a tie; `access` holds that fetch's
    transfer seconds and `xtra_delay` its extras."""
    paths = g.paths
    node_ids = paths.node_ids
    task_ids = tuple(t.id for t in tasks)
    nodes = [g.node(n) for n in node_ids]
    n, b = len(node_ids), len(tasks)

    t_pred = np.asarray(predictor.predict_matrix(nodes, list(tasks)), dtype=float)

    # (B, RF) replica node indices in ascending order, so the first least
    # price is the lowest index; a shorter replica list repeats its first
    # holder, a duplicate candidate that changes no minimum
    replicas = [sorted(paths.index[r] for r in plan.replicas(t.block_id)) for t in tasks]
    rf = max((len(r) for r in replicas), default=1)
    src = np.array([reps + reps[:1] * (rf - len(reps)) for reps in replicas], dtype=int)
    src = src.reshape(b, rf)
    mb = np.array([t.block_mb for t in tasks], dtype=float)
    gcycles = np.array([t.compute_gcycles for t in tasks], dtype=float)

    # (n, B): the replica each destination node i fetches task j's block from
    price = mb[:, None] / paths.bandwidth[:, src] + paths.extras_s[:, src]
    best = src[np.arange(b), price.argmin(axis=2)]
    rows = np.arange(n)[:, None]

    local = (src == rows[..., None]).any(axis=2)
    compute_cost = (np.array([nd.cost_per_cycle for nd in nodes])[:, None] * gcycles) * 1e9
    access = np.where(local, 0.0, mb / paths.bandwidth[rows, best])
    xtra_delay = np.where(local, 0.0, paths.extras_s[rows, best])
    cost = np.where(local, compute_cost, paths.cost_per_mb[rows, best] * mb + compute_cost)
    src_idx = np.where(local, -1, best)

    t_eff = t_pred + access
    eta = 1.0 / np.maximum(t_eff, 1e-12)

    mask = np.zeros((n, b), dtype=bool)
    top = np.argsort(-eta, axis=0, kind="stable")[: min(L_MAX, n)]
    mask[top, np.arange(b)] = True

    return AssignmentProblem(
        g=g,
        plan=plan,
        tasks=tuple(tasks),
        node_ids=node_ids,
        task_ids=task_ids,
        t_pred=t_pred,
        access=access,
        t_eff=t_eff,
        eta=eta,
        xtra_delay=xtra_delay,
        cost=cost,
        src_idx=src_idx,
        demand_mb=mb,
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


def _solution_from_indices(
    problem: AssignmentProblem, assign: np.ndarray, feasible: bool
) -> list[AntSolution]:
    """Score each row of an (ants, B) node-index matrix (-1: unassigned).
    Every total adds its terms in task order from 0.0, as a task-by-task
    loop would: `np.add.at` for node loads, a running `cumsum` for delay,
    cost and loss (`np.sum` adds pairwise and moves last bits). Unassigned
    tasks add exact zeros."""
    ants, b = assign.shape
    assigned = assign >= 0
    nodes = np.where(assigned, assign, 0)
    cols = np.arange(b)
    rows = np.arange(ants)[:, None]
    t_eff = np.where(assigned, problem.t_eff[nodes, cols], 0.0)
    loads = np.zeros((ants, len(problem.node_ids)))
    counts = np.zeros_like(loads)
    np.add.at(loads, (rows, nodes), t_eff)
    np.add.at(counts, (rows, nodes), assigned)
    lp = problem.loss_prob
    src = problem.src_idx[nodes, cols]
    survive = 1.0 - lp[nodes]
    survive = np.where(src >= 0, survive * (1.0 - lp[src]), survive)
    # (delay, cost, loss) terms behind a column of 0.0, the loop's start
    terms = np.zeros((3, ants, b + 1))
    terms[:, :, 1:] = problem.xtra_delay[nodes, cols], problem.cost[nodes, cols], 1.0 - survive
    terms[:, :, 1:][:, ~assigned] = 0.0
    delay, cost, loss = terms.cumsum(axis=2)[:, :, -1]
    sols = []
    for a in range(ants):
        js = np.flatnonzero(assigned[a])
        tids = [problem.task_ids[j] for j in js.tolist()]
        count = len(js)
        # Each task's latency is dominated by its node's backlog (the
        # workload at the node over its capacity), so the plan delay sums
        # every node's drain time once per task served there, plus
        # fetch-path extras.
        plan_delay = delay[a] + float((counts[a] * loads[a]).sum())
        sols.append(AntSolution(
            assignment=dict(zip(tids, [problem.node_ids[i] for i in assign[a, js].tolist()])),
            makespan=float(loads[a].max()) if count else float("inf"),
            metrics=(float(plan_delay), float(cost[a]), loss[a] / count if count else 0.0),
            feasible=feasible and count == b,
            node_index=assign[a].copy(),
        ))
    return sols


def construct_solution(
    weights: np.ndarray,
    problem: AssignmentProblem,
    rng: np.random.Generator,
) -> AntSolution:
    """One ant: visit tasks in random order, sample a node per task in
    proportion to `weights` (this iteration's `selection_weights`) over
    capacity-feasible candidates, uniformly where all their weights
    underflow to 0.0. Runs to completion even when capacity
    strands a task; the result is then flagged infeasible instead of
    raising. `construct_colony` falls back to it when an ant strands."""
    n, b = weights.shape
    order = rng.permutation(b)
    used = np.zeros(n)
    assign = np.full(b, -1, dtype=int)
    feasible = True
    for j in order:
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
        pick = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        pick = min(pick, n - 1)
        assign[j] = pick
        used[pick] += problem.demand_mb[j]
    return _solution_from_indices(problem, assign[None], feasible)[0]


def construct_colony(
    weights: np.ndarray,
    problem: AssignmentProblem,
    rng: np.random.Generator,
    ants: int,
) -> list[AntSolution]:
    """One iteration's ants, stepped together over (ants, n) arrays; each
    equals the `construct_solution` call it replaces, and `rng` ends in
    the same state. Each ant's permutation and then its B draws are taken
    up front, in ant order: the stream the per-ant calls read while no
    task strands. A stranded task takes no draw, so an iteration in which
    any ant strands restores the generator and reruns as per-ant calls."""
    n, b = weights.shape
    state = rng.bit_generator.state
    orders = np.empty((ants, b), dtype=int)
    draws = np.empty((ants, b))
    for a in range(ants):
        orders[a] = rng.permutation(b)
        draws[a] = rng.random(b)
    # row j: task j's column, contiguous for the per-step gathers
    task_weights = np.ascontiguousarray(weights.T)
    task_candidates = np.ascontiguousarray(problem.candidate_mask.T)
    room = problem.capacity_mb + 1e-9
    # eligible weights can sum to 0.0 only where some weight underflowed
    underflow = not weights.all()
    rows = np.arange(ants)
    used = np.zeros((ants, n))
    assign = np.empty((ants, b), dtype=int)
    for s in range(b):
        js = orders[:, s]
        demand = problem.demand_mb[js]
        fits = used + demand[:, None] <= room
        mask = task_candidates[js] & fits
        empty = ~mask.any(axis=1)
        if empty.any():
            mask[empty] = fits[empty]  # fan-out cap must not manufacture infeasibility
            if not mask[empty].any(axis=1).all():
                rng.bit_generator.state = state
                return [construct_solution(weights, problem, rng) for _ in range(ants)]
        cum = np.cumsum(np.where(mask, task_weights[js], 0.0), axis=1)
        if underflow:
            zero = cum[:, -1] <= 0
            cum[zero] = np.cumsum(mask[zero], axis=1)  # every weight underflowed: draw uniformly
        # the count of cum <= x is searchsorted(cum, x, side="right"), as
        # cum never decreases
        pick = np.minimum((cum <= draws[:, s, None] * cum[:, -1:]).sum(axis=1), n - 1)
        assign[rows, js] = pick
        used[rows, pick] += demand
    return _solution_from_indices(problem, assign, True)


def update_pheromones_full(
    pheromones: PheromoneMatrix, solutions: list[AntSolution], config: AcoConfig
) -> None:
    """Evaporate, then deposit Q/makespan along every feasible ant's edges."""
    pheromones.tau *= 1.0 - config.rho
    cols = np.arange(len(pheromones.task_ids))
    for sol in solutions:
        if not sol.feasible or sol.makespan <= 0:
            continue
        pheromones.tau[sol.node_index, cols] += Q_CONST / sol.makespan
    pheromones.clamp()


def update_pheromones_ewma(
    pheromones: PheromoneMatrix, best: AntSolution, t_eff: np.ndarray, config: AcoConfig
) -> None:
    """Evaporate everywhere; nudge only the best assignment's edges toward
    1/T at rate rho, T the edge's effective time in `t_eff` (the problem's
    (n, B) table). Repeated application with a fixed best converges each
    reinforced entry to exactly 1/T."""
    pheromones.tau *= 1.0 - config.rho
    if best is not None and best.feasible:
        cols = np.arange(len(pheromones.task_ids))
        delta = 1.0 / np.maximum(t_eff[best.node_index, cols], 1e-12)
        pheromones.tau[best.node_index, cols] += config.rho * delta
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
    pheromones: PheromoneMatrix | None = None  # final trail state


def _refine_makespan(
    problem: AssignmentProblem, sol: AntSolution, max_rounds: int = 64
) -> AntSolution:
    """Bounded hill climb: repeatedly move one task off the most loaded
    node while that strictly lowers the makespan and respects capacity."""
    n = len(problem.node_ids)
    assign = sol.node_index.copy()
    if (assign < 0).any():
        return sol
    loads = np.zeros(n)
    used = np.zeros(n)
    for j, i in enumerate(assign):
        loads[i] += problem.t_eff[i, j]
        used[i] += problem.demand_mb[j]
    improved_any = False
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
        improved_any = True
    if not improved_any:
        return sol
    return _solution_from_indices(problem, assign[None], True)[0]


def _weighted(metrics, refs) -> float:
    # Scale by the first iteration's mean per metric: each term is measured
    # in relative units, so a near-constant metric cannot hijack the sum
    # the way a min-max span close to zero would.
    parts = [v / ref if ref > 0 else 0.0 for v, ref in zip(metrics, refs)]
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


def preallocation_solution(problem: AssignmentProblem) -> AntSolution:
    """The balanced pre-allocation list: every task on its block's primary
    owner. Used to seed the colony's first iteration."""
    pos = {nid: i for i, nid in enumerate(problem.node_ids)}
    assign = np.array(
        [pos[problem.plan.primary(t.block_id)] for t in problem.tasks], dtype=int
    )
    return _assignment_solution(problem, assign)


def greedy_local_solution(problem: AssignmentProblem) -> AntSolution:
    """Longest-task-first over replica holders: keep every task local while
    leveling per-node load; fall back to the globally least-loaded node
    only when a holder cannot take the data. Second colony seed."""
    pos = {nid: i for i, nid in enumerate(problem.node_ids)}
    n = len(problem.node_ids)
    loads = np.zeros(n)
    used = np.zeros(n)
    assign = np.full(len(problem.tasks), -1, dtype=int)
    order = sorted(
        range(len(problem.tasks)),
        key=lambda j: (-float(problem.t_eff[:, j].min()), j),
    )
    for j in order:
        task = problem.tasks[j]
        holders = [pos[r] for r in problem.plan.replicas(task.block_id)]
        fits = [
            i for i in holders
            if used[i] + problem.demand_mb[j] <= problem.capacity_mb[i] + 1e-9
        ]
        if not fits:
            fits = [
                i for i in range(n)
                if used[i] + problem.demand_mb[j] <= problem.capacity_mb[i] + 1e-9
            ]
        if not fits:
            return _assignment_solution(problem, assign)  # infeasible
        i = min(fits, key=lambda i: (loads[i] + problem.t_eff[i, j], i))
        assign[j] = i
        loads[i] += problem.t_eff[i, j]
        used[i] += problem.demand_mb[j]
    return _assignment_solution(problem, assign)


def solve_problem(
    problem: AssignmentProblem, config: AcoConfig, seed: int
) -> SolveResult:
    config.validate()
    ants = LIGHTWEIGHT_ANTS if config.variant == "lightweight" else config.ants
    ph = PheromoneMatrix.initial(problem.node_ids, problem.task_ids)
    rng = np.random.default_rng(seed)

    best: AntSolution | None = None
    best_key: tuple | None = None
    refs = None
    trace: list[TraceRow] = []
    prev_val = float("inf")
    stall = 0
    converged = None
    last_infeasible: AntSolution | None = None

    for it in range(1, config.max_iters + 1):
        # pheromones change only between iterations
        weights = selection_weights(ph.tau, problem.eta, config.alpha, config.beta)
        sols = construct_colony(weights, problem, rng, ants)
        if it == 1:
            for elite in (preallocation_solution(problem), greedy_local_solution(problem)):
                if elite.feasible:
                    sols.append(elite)
        if config.objective == "makespan":
            iter_best = min(
                (s for s in sols if s.feasible),
                key=lambda s: s.makespan,
                default=None,
            )
            if iter_best is not None:
                refined = _refine_makespan(problem, iter_best)
                if refined is not iter_best:
                    sols.append(refined)
        feas = [s for s in sols if s.feasible]
        if not feas and sols:
            last_infeasible = sols[0]
        if refs is None and feas:
            cols = list(zip(*(s.metrics for s in feas)))
            refs = [float(np.mean(c)) for c in cols]
        for idx, s in enumerate(feas):
            obj = (
                s.makespan
                if config.objective == "makespan"
                else _weighted(s.metrics, refs)
            )
            feas[idx] = replace(s, objective=obj)
            key = (
                (s.makespan, tuple(sorted(s.assignment.items())))
                if config.objective == "makespan"
                else (obj, s.makespan, tuple(sorted(s.assignment.items())))
            )
            if best_key is None or key < best_key:
                best_key, best = key, feas[idx]

        mean_mk = float(np.mean([s.makespan for s in feas])) if feas else float("inf")
        trace.append(
            TraceRow(
                iteration=it,
                best_objective=best.objective if best else float("inf"),
                best_makespan=best.makespan if best else float("inf"),
                mean_makespan=mean_mk,
                feasible_ants=len(feas),
            )
        )

        if config.variant == "lightweight":
            update_pheromones_ewma(ph, best, problem.t_eff, config)
        else:
            # best-ever rides along as an elitist depositor
            update_pheromones_full(ph, feas + ([best] if best else []), config)

        if best is not None:
            val = best.objective if config.objective == "weighted" else best.makespan
            if np.isfinite(prev_val):
                improvement = (prev_val - val) / max(abs(prev_val), 1e-12)
                stall = stall + 1 if improvement < TOL else 0
            prev_val = val
            if stall >= PATIENCE:
                converged = it
                break

    if best is None:
        diag = {}
        if last_infeasible is not None:
            diag = {
                "assigned": len(last_infeasible.assignment),
                "tasks": len(problem.task_ids),
                "total_demand_mb": float(problem.demand_mb.sum()),
                "total_capacity_mb": float(problem.capacity_mb.sum()),
            }
        raise InfeasibleScheduleError(
            "no feasible assignment found within the iteration budget", diag
        )
    return SolveResult(
        best=best,
        trace=tuple(trace),
        iterations=len(trace),
        converged_iteration=converged,
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


def _assignment_solution(problem: AssignmentProblem, assign: np.ndarray) -> AntSolution:
    within = True
    used = np.zeros(len(problem.node_ids))
    for j, i in enumerate(assign):
        if i < 0:
            within = False
            continue
        used[i] += problem.demand_mb[j]
    within = within and bool(np.all(used <= problem.capacity_mb + 1e-9))
    return _solution_from_indices(problem, assign[None], within)[0]


def baseline_round_robin(
    tasks: list[TaskSpec], g: ClusterGraph, plan: PlacementPlan, predictor
) -> AntSolution:
    """Neutral control: task k on node k mod n, node order by id."""
    problem = build_problem(g, plan, tasks, predictor)
    n = len(problem.node_ids)
    assign = np.array([j % n for j in range(len(tasks))], dtype=int)
    return _assignment_solution(problem, assign)


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
    problem = build_problem(g, plan, tasks, predictor)
    n = len(problem.node_ids)
    t_est = problem.t_pred  # regression estimate, no locality signal
    fair = float(t_est.mean(axis=0).sum()) / n
    threshold = fair * reservation_headroom
    loads = np.zeros(n)
    used = np.zeros(n)
    assign = np.full(len(tasks), -1, dtype=int)
    for j in range(len(tasks)):
        placed = False
        for i in range(n):
            if used[i] + problem.demand_mb[j] > problem.capacity_mb[i] + 1e-9:
                continue
            if loads[i] + t_est[i, j] <= threshold:
                assign[j] = i
                placed = True
                break
        if not placed:
            fits = np.where(used + problem.demand_mb[j] <= problem.capacity_mb + 1e-9)[0]
            if len(fits) == 0:
                raise InfeasibleScheduleError(
                    f"capacity exhausted while placing task {tasks[j].id}"
                )
            assign[j] = int(fits[np.argmin(loads[fits])])
        loads[assign[j]] += t_est[assign[j], j]
        used[assign[j]] += problem.demand_mb[j]
    return _assignment_solution(problem, assign)


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
    problem = build_problem(g, plan, tasks, predictor)
    n = len(problem.node_ids)
    if affinity_depth is None:
        affinity_depth = max(1, (2 * len(tasks) + n - 1) // n)
    pos = {nid: i for i, nid in enumerate(problem.node_ids)}
    depth = np.zeros(n, dtype=int)
    used = np.zeros(n)
    assign = np.full(len(tasks), -1, dtype=int)
    spill = 0
    for j, task in enumerate(tasks):
        primary = pos[plan.primary(task.block_id)]
        i = primary
        ok = (
            depth[i] < affinity_depth
            and used[i] + problem.demand_mb[j] <= problem.capacity_mb[i] + 1e-9
        )
        if not ok:
            chosen = -1
            fallback = -1
            for _ in range(n):
                cand = spill % n
                spill += 1
                if used[cand] + problem.demand_mb[j] > problem.capacity_mb[cand] + 1e-9:
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
        used[i] += problem.demand_mb[j]
    return _assignment_solution(problem, assign)
