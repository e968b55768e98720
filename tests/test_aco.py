from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sccdso import aco
from sccdso.aco import (
    L_MAX,
    AcoConfig,
    AntSolution,
    InfeasibleScheduleError,
    Q_CONST,
    TAU0,
    TAU_FLOOR,
    _solution_from_indices,
    baseline_rf_fd,
    baseline_round_robin,
    baseline_rsync,
    build_problem,
    construct_colony,
    construct_solution,
    greedy_local_row,
    iteration_weights,
    local_first,
    preallocation_row,
    score_makespans,
    score_rows,
    selection_weights,
    solve_problem,
    update_pheromones_full,
    write_trace_csv,
)
from sccdso.cluster import CAPACITY_SLACK_MB, build_cluster, synthetic_cluster_config
from sccdso.experiment import brute_force_makespan, oracle_instance
from sccdso.placement import PlacementPlan, place_rack_aware, place_random
from sccdso.predictor import predict_table
from sccdso.sim import TrueTimeModel, validate_schedule
from sccdso.workload import Application, TaskSpec, Workload, partition, tasks_for

from conftest import FixedTimer, array_problem, make_app_tasks, make_cluster, workspace
from test_solver_pin import pipeline_problem


def small_problem(n_nodes=3, n_tasks=4, rf=1, times=None, **cluster_kw):
    g = make_cluster(
        [(f"n{i}", "r1", 2.0, 200.0) for i in range(n_nodes)], **cluster_kw
    )
    app = Application(
        id="app0", input_mb=n_tasks * 64, block_size_mb=64, replication_factor=rf
    )
    blocks = partition(app)
    tasks = tasks_for(app, blocks)
    plan = place_rack_aware(g, blocks, "n0", rf=rf)
    timer = times or FixedTimer({f"n{i}": 1.0 for i in range(n_nodes)})
    return g, plan, tasks, build_problem(g, plan, tasks, timer)


def dense_weights(tau, eta, alpha, beta):
    """Selection weights on whole cells of `tau` and `eta`, eta raised to
    beta here, as a solve raises its candidate cells' once."""
    return selection_weights(tau, np.power(eta, beta), alpha)


def draw_probabilities(tau, eta, alpha, beta, mask):
    # construct_solution draws node i with probability w[i] / w.sum() over
    # the eligible nodes
    w = np.where(mask, dense_weights(tau, eta, alpha, beta), 0.0)
    return w / w.sum()


def test_selection_probabilities_sum_to_one():
    tau = np.array([0.2, 0.5, 0.3])
    eta = np.array([1.0, 2.0, 0.5])
    p = draw_probabilities(tau, eta, 1.5, 2.5, np.ones(3, dtype=bool))
    assert p.sum() == pytest.approx(1.0, abs=1e-9)
    masked = draw_probabilities(tau, eta, 1.5, 2.5, np.array([True, False, True]))
    assert masked[1] == 0.0 and masked.sum() == pytest.approx(1.0, abs=1e-9)


def test_selection_weights_of_matrix_equal_its_columns():
    # the colony evaluates the rule on the candidate cells, and on one
    # task's column at a step where no candidate fits; each column must
    # carry the bits of the whole (n, B) matrix's evaluation
    rng = np.random.default_rng(3)
    tau = rng.uniform(1e-3, 5.0, size=(37, 23))
    eta = 1.0 / rng.uniform(0.05, 40.0, size=(37, 23))
    for alpha, beta in ((0.8, 1.2), (1.5, 2.5)):
        whole = dense_weights(tau, eta, alpha, beta)
        for j in range(tau.shape[1]):
            column = dense_weights(tau[:, j], eta[:, j], alpha, beta)
            assert whole[:, j].tobytes() == column.tobytes()


def test_iteration_weights_equal_the_grid_at_every_cell():
    # the colony's weights, gathered at the (k, B) candidate cells with the
    # workspace's eta^beta and taken column by column, carry the bits of
    # the (n, B) grid's; unlike the solver pins this holds on any host, as
    # np.power is elementwise
    for seed, (n, b) in enumerate([(37, 23), (12, 208), (200, 64), (3, 5)]):
        problem = random_problem(seed, n, b)
        tau = np.random.default_rng(seed).uniform(TAU_FLOOR, 5.0, size=(n, b))
        cand = problem.candidates.T
        for alpha, beta in ((0.8, 1.2), (1.5, 2.5), (1.5, 120.0)):
            whole = dense_weights(tau, problem.eta, alpha, beta)
            weights = iteration_weights(tau, workspace(problem, alpha=alpha, beta=beta))
            assert weights.cand.shape == weights.cum.shape == (min(L_MAX, n), b)
            assert weights.cand.tobytes() == whole[cand, np.arange(b)].tobytes()
            for j in range(b):
                assert weights.column(j).tobytes() == whole[:, j].tobytes()


def grid(weights, problem):
    """An (n, B) weight matrix as an iteration hands it to the colony: its
    (k, B) cells at each task's candidates, their running sums, and its
    columns."""
    cand = weights[problem.candidates.T, np.arange(len(problem.candidates))]
    return aco.Weights(cand, aco._cumulative_weights(cand), lambda j: weights[:, j])


def colony(weights, problem, rng, ants):
    """`construct_colony` on a fresh workspace of `ants` ants: copies of
    its rows and flags."""
    assign, feasible = construct_colony(weights, workspace(problem, ants=ants), rng)
    return assign.copy(), feasible.copy()


def test_uniform_inputs_give_uniform_choice():
    tau = np.full(3, 0.05)
    eta = np.full(3, 2.0)
    p = draw_probabilities(tau, eta, 1.0, 2.0, np.ones(3, dtype=bool))
    assert np.allclose(p, 1 / 3)


def test_single_node_gets_probability_one():
    p = draw_probabilities(
        np.array([0.05]), np.array([1.3]), 1.0, 2.0, np.ones(1, dtype=bool)
    )
    assert p[0] == pytest.approx(1.0)


def test_eta_scaling_invariance():
    tau = np.array([0.3, 0.1, 0.6, 0.2])
    eta = np.array([1.0, 2.0, 0.5, 1.5])
    mask = np.ones(4, dtype=bool)
    p1 = draw_probabilities(tau, eta, 0.8, 1.2, mask)
    p2 = draw_probabilities(tau, eta * 7.3, 0.8, 1.2, mask)
    assert np.allclose(p1, p2)


def test_high_beta_is_greedy_argmin():
    # beta -> inf limit: compare against the argmin oracle over 1000 draws
    g, plan, tasks, problem = small_problem(
        n_nodes=3,
        n_tasks=1,
        times=FixedTimer({"n0": 2.0, "n1": 0.5, "n2": 3.0}),
    )
    cfg = AcoConfig(beta=50.0, ants=1, max_iters=1)
    weights = dense_weights(np.full((3, 1), TAU0), problem.eta, cfg.alpha, cfg.beta)
    rng = np.random.default_rng(0)
    ws = workspace(problem)
    argmin_node = problem.node_ids[int(np.argmin(problem.t_eff[:, 0]))]
    hits = sum(
        construct_solution(grid(weights, problem), ws, rng).assignment[tasks[0].id]
        == argmin_node
        for _ in range(1000)
    )
    assert hits >= 990


def scalar_ant(weights, problem, order, draws, branches=None):
    """Reference ant on one row of an iteration's orders and draws and the
    (n, B) weight matrix: one task at a time, each pick over all n nodes,
    each total summed by a Python loop in task order; every ant of
    `construct_colony` must equal it. `branches`, a set, collects the
    kinds of step taken: "candidate" (some candidate fits), "fallback"
    (only a non-candidate fits), "stranded" (no node fits) and "uniform"
    (every eligible weight is 0.0)."""
    n, b = weights.shape
    used = np.zeros(n)
    assign = np.full(b, -1, dtype=int)
    feasible = True
    seen = set() if branches is None else branches
    chosen = candidate_grid(problem)
    for j, u in zip(order, draws):
        fits = used + problem.demand_mb[j] <= problem.capacity_mb + 1e-9
        mask = chosen[:, j] & fits
        seen.add("candidate" if mask.any() else "fallback" if fits.any() else "stranded")
        if not mask.any():
            mask = fits
        if not mask.any():
            feasible = False
            continue
        cum = np.cumsum(np.where(mask, weights[:, j], 0.0))
        if cum[-1] <= 0:
            seen.add("uniform")
            cum = np.cumsum(mask)
        top = np.nextafter(cum[-1], 0.0)  # the largest float below the total
        pick = int(np.searchsorted(cum, min(u * cum[-1], top), side="right"))
        assign[j] = pick
        used[pick] += problem.demand_mb[j]
    loads = np.zeros(n)
    counts = np.zeros(n)
    delay = cost = loss_sum = 0.0
    assignment = {}
    for j, i in enumerate(assign):
        if i < 0:
            continue
        loads[i] += problem.t_eff[i, j]
        counts[i] += 1
        delay += problem.xtra_delay[i, j]
        cost += problem.cost[i, j]
        survive = 1.0 - problem.loss_prob[i]
        if problem.src_idx[i, j] >= 0:
            survive *= 1.0 - problem.loss_prob[problem.src_idx[i, j]]
        loss_sum += 1.0 - survive
        assignment[problem.task_ids[j]] = problem.node_ids[i]
    delay += float((counts * loads).sum())
    assigned = assign >= 0
    return AntSolution(
        assignment=assignment,
        makespan=float(loads.max()) if assigned.any() else float("inf"),
        metrics=(float(delay), float(cost), loss_sum / max(int(assigned.sum()), 1)),
        feasible=feasible and bool(assigned.all()),
        node_index=assign,
    )


def candidate_grid(problem):
    """(n, B): whether node i is one of task j's `problem.candidates`."""
    chosen = np.zeros(problem.t_eff.shape, dtype=bool)
    chosen[problem.candidates, np.arange(len(problem.candidates))[:, None]] = True
    return chosen


def random_problem(seed, n, b, slots=None, slow=0.0, ties=False):
    """Dense random instance: top-L_MAX candidates by desirability,
    replica sources on half the cells, unequal demands; `slots` caps each
    node at about that many mean-sized tasks (None: no cap). A share `slow`
    of the tasks run a thousand times slower on every node. With `ties`,
    times are rounded up to a multiple of 4 s, so many nodes tie on eta."""
    rng = np.random.default_rng(seed)
    # node speed dominates, so tasks share most of their candidates
    t_eff = rng.uniform(0.5, 20.0, size=(n, 1)) * rng.uniform(1.0, 1.5, size=(n, b))
    if ties:
        t_eff = np.ceil(t_eff / 4.0) * 4.0
    t_eff[:, rng.random(b) < slow] *= 1000.0
    src = np.where(rng.random((n, b)) < 0.5, rng.integers(0, n, size=(n, b)), -1)
    problem = array_problem(
        t_eff,
        xtra_delay=rng.uniform(0.0, 0.3, size=(n, b)),
        cost=rng.uniform(0.1, 9.0, size=(n, b)),
        src_idx=src,
        loss_prob=rng.uniform(0.0, 0.02, size=n),
    )
    demand = rng.choice([16.0, 32.0, 48.0, 64.0], size=b)
    capacity = (
        np.full(n, np.inf) if slots is None
        else rng.uniform(0.8, 1.2, size=n) * slots * demand.mean()
    )
    top = np.argsort(-problem.eta, axis=0, kind="stable")[: min(L_MAX, n)]
    return replace(
        problem, demand_mb=demand, capacity_mb=capacity, candidates=np.sort(top.T, axis=1))


def twin_draws(seed, ants, b):
    """A generator seeded like the colony's, and the (ants, B) orders and
    draws it yields when drawn the colony's way: every order in one call,
    then every draw in one."""
    rng = np.random.default_rng(seed)
    orders = rng.permuted(np.tile(np.arange(b), (ants, 1)), axis=1)
    return rng, orders, rng.random((ants, b))


def assert_colony_matches_scalar(weights, problem, seed, ants=10):
    """On the (n, B) weight matrix `weights`, the colony's rows and flags
    equal `_ant_row`'s ants on a twin generator's orders and draws, and
    `score_rows` prices them as `scalar_ant`'s loop does, bit for bit.
    Returns the colony's (rows, flags)."""
    cells = grid(weights, problem)
    batch_rng = np.random.default_rng(seed)
    ws = workspace(problem, ants=ants)
    assign, feasible = construct_colony(cells, ws, batch_rng)
    twin, orders, draws = twin_draws(seed, ants, weights.shape[1])
    per_ant = [
        _solution_from_indices(ws, row[None], ok)[0]
        for row, ok in (aco._ant_row(cells, ws, o, d) for o, d in zip(orders, draws))
    ]
    scalar = [scalar_ant(weights, problem, o, d) for o, d in zip(orders, draws)]
    assert assign.tolist() == [s.node_index.tolist() for s in per_ant]
    assert feasible.tolist() == [s.feasible for s in per_ant]
    assert per_ant == scalar
    makespan, metrics = score_rows(ws, assign)
    for a, want in enumerate(scalar):
        assert [makespan[a], *metrics[:, a]] == [want.makespan, *want.metrics]
        assert [type(m) for m in per_ant[a].metrics] == [type(m) for m in want.metrics]
    assert batch_rng.bit_generator.state == twin.bit_generator.state
    return assign.copy(), feasible.copy()


def test_construct_solution_is_a_one_ant_colony():
    problem = random_problem(12, 40, 90, slots=3.0)
    weights = dense_weights(np.full(problem.t_eff.shape, TAU0), problem.eta, 0.8, 1.2)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        sol = construct_solution(grid(weights, problem), workspace(problem), rng)
        assign, feasible = assert_colony_matches_scalar(weights, problem, seed, ants=1)
        assert sol.node_index.tolist() == assign[0].tolist() and sol.feasible == feasible[0]
        assert rng.bit_generator.state == twin_draws(seed, 1, 90)[0].bit_generator.state


def ties_at_the_cap(problem):
    """Columns where a node outside the candidates ties the last one in."""
    kth = np.sort(problem.eta, axis=0)[-L_MAX]
    return int(((problem.eta == kth) & ~candidate_grid(problem)).any(axis=0).sum())


def test_colony_equals_scalar_ants_on_random_instances():
    # n > L_MAX throughout; the tied instances put equal weights across the
    # candidate boundary and inside each candidate table
    tied_columns = 0
    for seed in range(6):
        size = np.random.default_rng(100 + seed)
        n, b = int(size.integers(30, 61)), int(size.integers(50, 209))
        tau = size.uniform(TAU_FLOOR, 2.0, size=(n, b))
        for ties in (False, True):
            problem = random_problem(seed, n, b, ties=ties)
            tied_columns += ties * ties_at_the_cap(problem)
            pheromone = np.full((n, b), TAU0) if ties else tau
            for alpha, beta in ((0.8, 1.2), (1.5, 2.5)):
                weights = dense_weights(pheromone, problem.eta, alpha, beta)
                assert_colony_matches_scalar(weights, problem, seed)
    assert tied_columns > 100


class EdgeDraws:
    """Generator stub: tasks in index order, and every draw
    np.nextafter(1, 0), the largest float below 1."""

    def permuted(self, orders, axis):
        return orders

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


def test_a_draw_at_the_total_picks_the_last_candidate():
    # every weight is the least subnormal, so a draw just below 1 scales to
    # exactly the column total; kept below it, the draw picks the last
    # candidate, node L_MAX - 1, and never node n - 1, which is no candidate
    n, b = 30, 12
    t_eff = np.tile(np.arange(1.0, n + 1.0)[:, None], (1, b))  # node 0 fastest
    problem = replace(array_problem(t_eff), candidates=np.tile(np.arange(L_MAX), (b, 1)))
    weights = grid(np.full((n, b), np.nextafter(0.0, 1.0)), problem)
    ws = workspace(problem, ants=3)
    assign, feasible = construct_colony(weights, ws, EdgeDraws())
    row, ok = aco._ant_row(weights, ws, np.arange(b), EdgeDraws().random(b))
    assert (assign == L_MAX - 1).all() and feasible.all()
    assert (row == L_MAX - 1).all() and ok


def test_subnormal_totals_keep_picks_on_candidates_that_fit():
    # 40 tasks of 10 MB on 12 nodes whose candidates are nodes 0-9; node 11
    # holds 15 MB. Every weight is three least subnormals, so each column
    # total is subnormal and a draw near 1 scales to the total itself: no
    # pick may then leave the candidates, and no ant flagged feasible may
    # overfill a node
    n, b = 12, 40
    capacity = np.full(n, 1000.0)
    capacity[11] = 15.0
    problem = replace(
        array_problem(np.ones((n, b))), candidates=np.tile(np.arange(10), (b, 1)),
        demand_mb=np.full(b, 10.0), capacity_mb=capacity)
    weights = grid(np.full((n, b), 3 * np.nextafter(0.0, 1.0)), problem)
    rng = np.random.default_rng(19)
    rows, flags = zip(*(colony(weights, problem, rng, 10) for _ in range(5)))
    ants = [construct_solution(weights, workspace(problem), rng) for _ in range(200)]
    rows = np.vstack([*rows, *(s.node_index for s in ants)])
    flags = np.concatenate([*flags, [s.feasible for s in ants]])
    assert flags.all()
    assert (rows < 10).all()
    assert all(aco._fits(row, problem.demand_mb, problem.capacity_mb) for row in rows)


def test_colony_equals_scalar_ants_on_every_oracle_shape():
    shapes = {}
    seed = 0
    while len(shapes) < 21:  # 2-4 nodes x 2-8 tasks
        problem = oracle_instance(seed)
        shapes.setdefault(problem.t_eff.shape, problem)
        seed += 1
    cfg = AcoConfig.preset("table1")
    for k, problem in enumerate(shapes.values()):
        weights = dense_weights(
            np.full(problem.t_eff.shape, TAU0), problem.eta, cfg.alpha, cfg.beta)
        assert_colony_matches_scalar(weights, problem, k, ants=cfg.ants)


def underflow_weights(problem):
    tau = np.full(problem.t_eff.shape, TAU_FLOOR)
    return dense_weights(tau, problem.eta, 1.5, 120.0)


def test_colony_equals_scalar_ants_when_weights_underflow():
    # beta = 120 on tasks a thousand times slower drives tau^alpha * eta^beta
    # to 0.0, so no node weighs anything for them and each of their picks
    # is uniform over the eligible nodes
    problem = random_problem(7, 40, 120, slow=0.3)
    weights = underflow_weights(problem)
    zero = (weights == 0.0).all(axis=0)
    assert zero.any() and not zero.all()
    assert_colony_matches_scalar(weights, problem, 7)


def test_zero_weight_picks_respect_capacity():
    # the underflow instance with about six tasks of room per node: a pick
    # over zero total weight must still land on an eligible node that fits
    problem = random_problem(7, 40, 120, slots=6, slow=0.3)
    assign, feasible = assert_colony_matches_scalar(underflow_weights(problem), problem, 7)
    assert feasible.all()
    for row in assign:
        used = np.zeros(len(problem.node_ids))
        np.add.at(used, row, problem.demand_mb)
        assert (used <= problem.capacity_mb + 1e-9).all()


def test_colony_equals_scalar_ants_when_candidates_fill_up():
    # two mean-sized tasks per node: the top-L_MAX candidates fill long
    # before the last task, which then draws from every node that fits
    problem = random_problem(8, 40, 60, slots=2.6)
    weights = dense_weights(np.full(problem.t_eff.shape, 0.05), problem.eta, 0.8, 1.2)
    assign, feasible = assert_colony_matches_scalar(weights, problem, 8)
    assert feasible.all()
    assert (~candidate_grid(problem)[assign, np.arange(assign.shape[1])]).any()


def test_colony_equals_scalar_ants_when_a_task_strands():
    # about one mean-sized task of room per node for 1.1 tasks per node:
    # ants strand tasks, and the iteration reruns ant by ant
    problem = random_problem(9, 30, 33, slots=1.0)
    weights = dense_weights(np.full(problem.t_eff.shape, 0.05), problem.eta, 0.8, 1.2)
    assign, feasible = assert_colony_matches_scalar(weights, problem, 9)
    assert not feasible.all()
    assert ((assign < 0).any(axis=1) == ~feasible).all()


def test_ant_row_walks_k_candidates_like_the_full_width_loop():
    # `_ant_row` reads a task's k candidates, and all n nodes only at a
    # step where none of them fits; on tight problems its ants equal the
    # full-width reference walk at every kind of step
    branches = set()
    cases = (
        (random_problem(8, 40, 60, slots=2.6), None),  # candidates fill up
        (random_problem(9, 30, 33, slots=1.0), None),  # tasks strand
        (random_problem(7, 40, 120, slots=6, slow=0.3), underflow_weights),
    )
    for seed, (problem, weigh) in enumerate(cases):
        tau = np.full(problem.t_eff.shape, TAU0)
        weights = weigh(problem) if weigh else dense_weights(tau, problem.eta, 0.8, 1.2)
        _, orders, draws = twin_draws(seed, 10, weights.shape[1])
        for order, row_draws in zip(orders, draws):
            row, ok = aco._ant_row(grid(weights, problem), workspace(problem), order, row_draws)
            want = scalar_ant(weights, problem, order, row_draws, branches)
            assert row.tolist() == want.node_index.tolist() and ok == want.feasible
    assert branches == {"candidate", "fallback", "stranded", "uniform"}


def rebuilt_ants(monkeypatch, run):
    """`run()`'s value and the `_ant_row` calls it made: the ants an
    iteration rebuilt one by one after its capacity guard failed."""
    calls = []
    ant_row = aco._ant_row
    with monkeypatch.context() as m:
        m.setattr(aco, "_ant_row", lambda *args: calls.append(args) or ant_row(*args))
        value = run()
    return value, len(calls)


def test_capacity_guard_boundary(monkeypatch):
    # room for the most loaded ant's final load plus the largest demand:
    # every fits check held, so no ant is rebuilt; 1 MB less, a check could
    # have failed, so the whole iteration is rebuilt ant by ant (none did
    # here: the rows stay those of the uncapped colony)
    n, ants = 30, 10
    problem = random_problem(11, n, 120)
    weights = dense_weights(np.full(problem.t_eff.shape, 0.05), problem.eta, 0.8, 1.2)
    free, _ = colony(grid(weights, problem), problem, np.random.default_rng(11), ants)
    used = np.zeros((ants, n))
    np.add.at(used, (np.arange(ants)[:, None], free), problem.demand_mb)
    room = used.max() + problem.demand_mb.max()
    for capacity, rebuilt in ((room, 0), (room - 1.0, ants)):
        capped = replace(problem, capacity_mb=np.full(n, capacity))
        rng = np.random.default_rng(11)
        (assign, _), calls = rebuilt_ants(
            monkeypatch, lambda: colony(grid(weights, capped), capped, rng, ants))
        assert calls == rebuilt
        assert assign.tolist() == free.tolist()
        assert_colony_matches_scalar(weights, capped, 11, ants)


def benchmark_problem(n_nodes, seed=3):
    """The benchmark's pipeline shape: 208 x 64 MB tasks at RF 2 on
    `n_nodes` synthetic nodes, with the nodes' own capacities."""
    g = build_cluster(synthetic_cluster_config(n_nodes))
    app = Application(id="app0", input_mb=208 * 64, block_size_mb=64, replication_factor=2)
    blocks = partition(app)
    plan = place_random(g, blocks, 2, seed=seed)
    return build_problem(g, plan, tasks_for(app, blocks), TrueTimeModel())


@pytest.mark.parametrize("n_nodes", [200, 20])
def test_benchmark_shapes_take_every_pick_at_once(n_nodes, monkeypatch):
    # large-cluster (about 1 task per node) and deep-queue (about 10): no
    # iteration of a solve is rebuilt ant by ant, on the first trails or
    # on the trails a solve leaves, and the picks still equal the loop's
    problem = benchmark_problem(n_nodes)
    for preset in ("stage7", "table1"):  # 10 and 20 ants
        cfg = AcoConfig.preset(preset)
        ants = cfg.ants
        result, calls = rebuilt_ants(monkeypatch, lambda: solve_problem(problem, cfg, n_nodes))
        assert calls == 0
        for tau in (np.full(problem.t_eff.shape, aco.TAU0), result.pheromones):
            ws = aco.Workspace(problem, cfg)
            weights = iteration_weights(tau, ws)
            rng = np.random.default_rng(ants)
            _, calls = rebuilt_ants(monkeypatch, lambda: construct_colony(weights, ws, rng))
            assert calls == 0
            whole = dense_weights(tau, problem.eta, cfg.alpha, cfg.beta)
            assert_colony_matches_scalar(whole, problem, ants, ants)


def test_an_iteration_weighs_only_the_cells_its_picks_read(monkeypatch):
    # large-cluster's shape, where the capacity guard holds: each iteration
    # weighs the (k, B) candidate cells once and never the (n, B) grid; on
    # a tight problem, whose ants are rebuilt one by one, a step where no
    # candidate fits weighs its one (n,) column
    shapes = []
    weigh = aco.selection_weights

    def spy(tau, eta_beta, alpha):
        shapes.append(np.shape(tau))
        return weigh(tau, eta_beta, alpha)

    monkeypatch.setattr(aco, "selection_weights", spy)
    problem = benchmark_problem(200)
    result, calls = rebuilt_ants(
        monkeypatch, lambda: solve_problem(problem, AcoConfig.preset("stage7"), 5))
    assert calls == 0
    assert shapes == [(L_MAX, 208)] * result.iterations
    shapes.clear()
    tight = pipeline_problem(tight=True)
    n, b = tight.t_eff.shape
    _, calls = rebuilt_ants(monkeypatch, lambda: solve_problem(tight, AcoConfig.preset("stage7"), 0))
    assert calls > 0
    assert (L_MAX, b) in shapes and (n,) in shapes and (n, b) not in shapes


def deposit_reference(tau, rows, rho, makespan):
    """Per-edge pheromone loop over the rows in order: Q / makespan on each
    edge of a row with a positive makespan."""
    tau = tau * (1.0 - rho)
    for k, row in enumerate(rows):
        for j, i in enumerate(row.tolist()):
            if makespan[k] > 0:
                tau[i, j] += Q_CONST / makespan[k]
    return np.maximum(tau, TAU_FLOOR)


def test_deposits_equal_per_edge_loops():
    problem = random_problem(10, 45, 150)
    rng = np.random.default_rng(10)
    tau = rng.uniform(TAU_FLOOR, 2.0, size=problem.t_eff.shape)
    ws = workspace(problem, ants=8)
    assign, _ = construct_colony(iteration_weights(tau, ws), ws, rng)
    makespan, _ = score_rows(ws, assign)
    # best-ever rides along after the ants, so each of its edges takes a
    # second deposit; a row with makespan 0.0 deposits nothing
    k = int(np.argmin(makespan))
    rows = np.vstack([assign, assign[k], assign[0]])
    mks = np.append(makespan, [makespan[k], 0.0])
    hits = np.zeros(tau.shape, dtype=int)
    np.add.at(hits, (rows[:-1], np.arange(150)), 1)
    assert hits.max() >= 4  # several ants and best-ever share an edge
    cfg = AcoConfig(rho=0.2)
    ph = tau.copy()
    update_pheromones_full(ph, rows, mks, cfg)
    assert ph.tobytes() == deposit_reference(tau, rows, cfg.rho, mks).tobytes()
    # the loop this replaced: one fancy-index add per solution, in order
    sequential = tau * (1.0 - cfg.rho)
    for row, mk in zip(rows, mks):
        if mk > 0:
            sequential[row, np.arange(150)] += Q_CONST / mk
    assert ph.tobytes() == np.maximum(sequential, TAU_FLOOR).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(0, 5),
    n=st.integers(1, 8),
    cells=st.lists(
        st.tuples(st.integers(0, 7), st.booleans(), st.floats(-1e290, 1e290)), max_size=30),
)
def test_row_sums_equal_add_at(rows, n, cells):
    # one bincount over row * n + node carries the bits of np.add.at onto
    # zeros: each node's total adds its cells in column order from 0.0. An
    # unassigned cell adds 0.0 at node 0, as `score_cells` passes it; row r
    # holds the cells rotated by r, so rows differ
    b = len(cells)
    node = np.array([c[0] for c in cells], dtype=int)
    assigned = np.array([c[1] for c in cells], dtype=bool)
    value = np.array([c[2] for c in cells], dtype=float)
    pick = (np.arange(b) + np.arange(rows)[:, None]) % max(b, 1)
    assigned = assigned[pick]
    nodes = np.where(assigned, node[pick] % n, 0)
    bins = np.arange(rows)[:, None] * n + nodes
    for values in (np.where(assigned, value[pick], 0.0), assigned, None):
        want = np.zeros((rows, n))
        np.add.at(want, (np.arange(rows)[:, None], nodes), 1.0 if values is None else values)
        got = aco._row_sums(bins, values, rows, n)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_full_update_evaporation_only():
    cfg = AcoConfig(rho=0.1)
    ph = np.array([[1.0]])
    update_pheromones_full(ph, np.empty((0, 1), dtype=int), np.empty(0), cfg)
    assert ph[0, 0] == pytest.approx(0.9)


def test_full_update_deposit_arithmetic():
    cfg = AcoConfig(rho=0.1)
    ph = np.array([[1.0]])
    update_pheromones_full(ph, np.array([[0]]), np.array([50.0]), cfg)
    assert ph[0, 0] == pytest.approx(0.9 + Q_CONST / 50.0)


def test_pheromone_floor_clamps():
    cfg = AcoConfig(rho=0.3)
    ph = np.array([[1.2 * TAU_FLOOR]])
    update_pheromones_full(ph, np.empty((0, 1), dtype=int), np.empty(0), cfg)
    assert ph[0, 0] == TAU_FLOOR


def test_solve_two_tasks_two_identical_nodes():
    g, plan, tasks, _ = small_problem(n_nodes=2, n_tasks=2, rf=2)
    timer = FixedTimer({"n0": 1.5, "n1": 1.5})
    cfg = AcoConfig.preset("stage7")
    res = solve_problem(build_problem(g, plan, tasks, timer), cfg, seed=0)
    assert res.best.makespan == pytest.approx(1.5)  # one task per node
    assert set(res.best.assignment.values()) == {"n0", "n1"}


def test_solve_deterministic_given_seed():
    g, plan, tasks, _ = small_problem(n_nodes=3, n_tasks=5, rf=1)
    timer = FixedTimer({"n0": 1.0, "n1": 2.0, "n2": 0.5})
    cfg = AcoConfig.preset("stage7")
    a = solve_problem(build_problem(g, plan, tasks, timer), cfg, seed=11)
    b = solve_problem(build_problem(g, plan, tasks, timer), cfg, seed=11)
    assert a.best.assignment == b.best.assignment
    assert a.trace == b.trace


def test_trace_best_objective_monotone():
    problem = oracle_instance(5, max_tasks=8, max_nodes=4)
    cfg = AcoConfig.preset("table1")
    res = solve_problem(problem, cfg, seed=3)
    mks = [r.best_makespan for r in res.trace]
    assert all(b <= a for a, b in zip(mks, mks[1:]))
    assert all(np.isfinite(m) for m in mks)


def test_solve_constraints_on_random_instances():
    for s in range(40):
        problem = oracle_instance(7000 + s, max_tasks=6, max_nodes=4)
        cfg = AcoConfig(ants=4, max_iters=5)
        res = solve_problem(problem, cfg, seed=s)
        sol = res.best
        assert sol.feasible
        # every task assigned exactly once
        assert set(sol.assignment) == set(problem.task_ids)
        # capacity respected
        used = {}
        for tid, nid in sol.assignment.items():
            j = problem.task_ids.index(tid)
            used[nid] = used.get(nid, 0.0) + problem.demand_mb[j]
        for nid, u in used.items():
            cap = problem.capacity_mb[problem.node_ids.index(nid)]
            assert u <= cap + 1e-9


def test_solve_infeasible_raises_with_diagnosis():
    g = make_cluster(
        [
            {"id": "n0", "rack": "r1", "cpu_ghz": 2.0, "io_mbps": 200.0, "capacity_mb": 64},
        ]
    )
    app = Application(id="app0", input_mb=256, block_size_mb=64, replication_factor=1)
    blocks = partition(app)
    tasks = tasks_for(app, blocks)
    plan = place_rack_aware(g, blocks, "n0", rf=1)
    timer = FixedTimer({"n0": 1.0})
    with pytest.raises(InfeasibleScheduleError) as err:
        solve_problem(build_problem(g, plan, tasks, timer), AcoConfig(ants=2, max_iters=2), seed=0)
    assert err.value.diagnosis["tasks"] == 4


def test_oracle_brute_force_agreement_small():
    # ACO within 5% of exhaustive optimum on a small sample (full sweep in
    # the acceptance suite)
    cfg = AcoConfig.preset("table1")
    hits = 0
    for s in range(20):
        problem = oracle_instance(2000 + s, max_tasks=6, max_nodes=3)
        optimum = brute_force_makespan(problem)
        res = solve_problem(problem, cfg, seed=s)
        if res.best.makespan <= 1.05 * optimum + 1e-9:
            hits += 1
    assert hits >= 19


def test_solve_counts_ants_and_refine_moves():
    _, _, _, problem = small_problem(n_nodes=4, n_tasks=8, rf=1)
    for colony in (10, 7):
        res = solve_problem(problem, AcoConfig.preset("stage7", ants=colony), seed=4)
        assert res.ants == res.iterations * colony
        assert res.feasible_ants == res.ants  # no capacity binds
    # ants strand on a capacity-tight instance; the trace also counts elites
    res = solve_problem(pipeline_problem(tight=True), AcoConfig.preset("stage7"), seed=0)
    assert res.ants == res.iterations * 10
    assert 0 < res.feasible_ants < res.ants
    assert res.feasible_ants <= sum(r.feasible_ants for r in res.trace)
    cfg = AcoConfig.preset("table1")
    moves = [solve_problem(oracle_instance(1000 + s), cfg, seed=s).refine_moves for s in range(10)]
    assert any(moves)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ants=st.integers(1, 6),
    n=st.integers(1, 9),
    b=st.integers(0, 14),
)
def test_loads_only_makespans_equal_score_rows(seed, ants, n, b):
    # the colony's scorer reads the makespan that `score_rows`
    # prices, bit for bit: random rows with unassigned (-1) tasks, t_eff
    # over six orders of magnitude, and a last row with nothing assigned
    rng = np.random.default_rng(seed)
    problem = array_problem(rng.uniform(0.5, 2.0, (n, b)) * 10.0 ** rng.integers(-3, 3, (n, b)))
    assign = rng.integers(-1, n, size=(ants, b))
    assign[rng.random((ants, b)) < 0.2] = -1
    assign = np.vstack([assign, np.full(b, -1)])
    ws = workspace(problem, ants=ants)
    got = score_makespans(ws, assign)
    want = score_rows(ws, assign)[0]
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert got[-1] == np.inf


def reference_refine(problem, assign, max_rounds=64):
    """`aco._refine_makespan` as numpy loops, the reference for the
    Python-float climb: the same row and move count."""
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


def test_refine_on_floats_equals_the_numpy_climb():
    # random complete rows, on instances whose capacity binds (`slots`) or
    # not, with t_eff rounded to multiples of 4 s so loads and moves tie
    # exactly, and with budgets of 1, 3 and 64 rounds
    hit_budget = capacity_bound = tied = 0
    for seed in range(60):
        n, b = 1 + seed % 7, 2 + 3 * (seed % 9)
        problem = random_problem(seed, n, b, slots=(None, 2.0, 4.0)[seed % 3], ties=seed % 2 == 0)
        row = np.random.default_rng(seed).integers(0, n, size=b)
        free = replace(problem, capacity_mb=np.full(n, np.inf))
        for max_rounds in (1, 3, 64):
            want = reference_refine(problem, row, max_rounds)
            got = aco._refine_makespan(workspace(problem), row, max_rounds)
            assert got[0].dtype == row.dtype
            assert (got[0].tolist(), got[1]) == (want[0].tolist(), want[1])
            assert row.tolist() == np.random.default_rng(seed).integers(0, n, size=b).tolist()
            hit_budget += got[1] == max_rounds
            capacity_bound += (
                got[0].tolist() != aco._refine_makespan(workspace(free), row, max_rounds)[0].tolist())
        loads = aco._row_sums(row, problem.t_eff[row, np.arange(b)], 1, n)[0]
        tied += len(set(loads.tolist())) < n
    assert hit_budget and capacity_bound and tied
    # a climb that still improves when its budget runs out
    problem = array_problem(np.ones((4, 20)))
    row = np.zeros(20, dtype=int)
    for max_rounds in (1, 5, 9):
        want = reference_refine(problem, row, max_rounds)
        got = aco._refine_makespan(workspace(problem), row, max_rounds)
        assert (got[0].tolist(), got[1]) == (want[0].tolist(), max_rounds)


def test_makespan_winner_is_scored_in_full():
    # iterations score by loads alone; the winner still carries
    # `score_rows`' makespan and (delay, cost, loss)
    cfg = AcoConfig.preset("table1")
    for s in range(24):
        problem = oracle_instance(1000 + s)
        best = solve_problem(problem, cfg, seed=s).best
        makespan, metrics = score_rows(workspace(problem), best.node_index[None])
        assert best.makespan == makespan[0]
        assert best.metrics == (metrics[0, 0], metrics[1, 0], metrics[2, 0])
        assert type(best.metrics[2]) is type(metrics[2, 0])


@pytest.mark.parametrize("first", ["ab", "ba"])
def test_exact_ties_keep_the_earlier_row(first, monkeypatch):
    # twelve equal tasks on two nodes; rows a and b swap the nodes of t2 and
    # t10, so they tie on every metric. The first iteration's two ants are
    # the two rows in the order `first`, the second's the other row twice:
    # the earlier row wins the first iteration, and the exact tie in the
    # second keeps it. Both elite rows put every task on n0, which is worse.
    problem = array_problem(np.ones((2, 12)), cost=np.ones((2, 12)))
    problem = replace(
        problem,
        plan=SimpleNamespace(primary=lambda block: "n0", replicas=lambda block: ("n0",)),
        tasks=tuple(SimpleNamespace(block_id=f"b{j}") for j in range(12)),
    )
    a = np.arange(12) * 2 // 12
    b = a.copy()
    b[[2, 10]] = a[[10, 2]]
    rows = {"a": a, "b": b}
    colonies = iter([[rows[first[0]], rows[first[1]]], [rows[first[1]]] * 2])

    def two_ants(weights, ws, rng):
        ws.rows[:2] = next(colonies)
        ws.feasible[:2] = True

    monkeypatch.setattr(aco, "construct_colony", two_ants)
    res = solve_problem(problem, AcoConfig(ants=2, max_iters=2), seed=0)
    makespan, metrics = score_rows(workspace(problem), np.array([a, b]))
    assert makespan[0] == makespan[1] and (metrics[:, 0] == metrics[:, 1]).all()
    assert res.iterations == 2
    assert res.best.node_index.tolist() == rows[first[0]].tolist()
    assert res.trace[0].best_makespan == res.trace[1].best_makespan


def test_elite_seeds_are_feasible_and_local():
    problem = oracle_instance(42, max_tasks=6, max_nodes=4)
    ws = workspace(problem)
    pre = preallocation_row(ws)
    greedy = greedy_local_row(ws)
    for row in (pre, greedy):
        assert aco._fits(row, problem.demand_mb, problem.capacity_mb)
    for task, i in zip(problem.tasks, pre):
        assert problem.node_ids[i] == problem.plan.primary(task.block_id)
    for task, i in zip(problem.tasks, greedy):
        assert problem.node_ids[i] in problem.plan.replicas(task.block_id)


def row_input(capacities, tasks, loss=None):
    """A cluster of one node per capacity (n0, n1, ...), node i losing a
    task with probability loss[i] (default 0), and, per (MB, replica node
    indices) pair, a task on its own block held there, primary first;
    returns (cluster, plan, tasks)."""
    loss = [0.0] * len(capacities) if loss is None else loss
    g = make_cluster([
        {"id": f"n{i}", "rack": "r1", "cpu_ghz": 2.0, "io_mbps": 200.0, "capacity_mb": cap,
         "loss_prob": p}
        for i, (cap, p) in enumerate(zip(capacities, loss))
    ])
    specs = [
        TaskSpec(id=f"t{j}", block_id=f"b{j}", block_mb=mb, resource_demand=0.5,
                 compute_gcycles=0.08 * mb)
        for j, (mb, _) in enumerate(tasks)
    ]
    plan = PlacementPlan(
        {f"b{j}": tuple(f"n{i}" for i in holders) for j, (_, holders) in enumerate(tasks)},
        strategy="test",
    )
    return g, plan, specs


def primary_row(g, plan, tasks):
    return np.array([g.paths.index[plan.primary(t.block_id)] for t in tasks])


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 6),
    sizes=st.lists(st.sampled_from([16.0, 32.0, 64.0]), min_size=1, max_size=16),
    rf=st.integers(1, 3),
    room=st.floats(0.5, 2.5),
    seed=st.integers(0, 2**16),
)
def test_local_first_keeps_a_fitting_primary_row_and_respects_capacity(n, sizes, rf, room, seed):
    # whole MB, so a node's total has the same bits in any order of addition
    rng = np.random.default_rng(seed)
    capacities = sum(sizes) / n * room * rng.uniform(0.5, 1.5, size=n)
    tasks = [(mb, rng.choice(n, size=min(rf, n), replace=False).tolist()) for mb in sizes]
    g, plan, tasks = row_input(capacities.tolist(), tasks)
    primary = primary_row(g, plan, tasks)
    demand = np.array(sizes)
    primary_fits = aco._fits(primary, demand, capacities)
    try:
        sol = local_first(tasks, g, plan, FixedTimer({f"n{i}": 1.0 for i in range(n)}))
    except InfeasibleScheduleError:
        assert not primary_fits
        return
    assert sol.feasible and aco._fits(sol.node_index, demand, capacities)
    if primary_fits:
        assert sol.node_index.tolist() == primary.tolist()


ROW_RULES = {
    "local_first": local_first,
    "rf-fd": baseline_rf_fd,
    "rsync": baseline_rsync,
    "rr": baseline_round_robin,
}


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 6),
    sizes=st.lists(st.sampled_from([16.0, 32.0, 64.0]), min_size=1, max_size=16),
    rf=st.integers(1, 3),
    room=st.floats(0.5, 2.5),
    seed=st.integers(0, 2**16),
)
def test_row_rules_cover_every_task_and_agree_on_capacity(n, sizes, rf, room, seed):
    # the four rules the pipeline runs, on random capacities, replica sets,
    # node speeds and loss probabilities; whole MB, so a node's total has
    # the same bits in any order of addition. rr ignores capacity, so its
    # rows are where `_fits` and the simulator's schedule check must agree
    # on a rejection
    rng = np.random.default_rng(seed)
    capacities = sum(sizes) / n * room * rng.uniform(0.5, 1.5, size=n)
    tasks = [(mb, rng.choice(n, size=min(rf, n), replace=False).tolist()) for mb in sizes]
    g, plan, tasks = row_input(capacities.tolist(), tasks, rng.uniform(0.0, 0.5, n).tolist())
    timer = FixedTimer({f"n{i}": t for i, t in enumerate(rng.uniform(0.5, 2.0, n).tolist())})
    demand = np.array(sizes)
    capacity = np.array([g.node(nid).capacity_mb for nid in g.paths.node_ids])
    workload = Workload(apps=(), blocks=(), tasks=tuple(tasks))
    for name, rule in ROW_RULES.items():
        try:
            sol = rule(tasks, g, plan, timer)
        except InfeasibleScheduleError:
            assert name != "rr"
            continue
        row = sol.node_index
        assert (row >= 0).all() and set(sol.assignment) == {t.id for t in tasks}
        fits = aco._fits(row, demand, capacity)
        assert fits or name == "rr"
        assert sol.feasible == fits
        try:
            validate_schedule(g, workload, sol.assignment)
        except ValueError:
            assert not fits
        else:
            assert fits
        assert np.isfinite([sol.makespan, *sol.metrics]).all()


def test_local_first_fits_where_the_primary_row_overflows():
    # every block's only replica is on n0, which holds two of the four
    # tasks' data. Largest first, the 64 MB tasks t1 and t2 stay local, t3
    # goes to n1, the node with most room, and t0 (32 MB) fills n1; in task
    # order, t0 and t1 would fill n0 to 96 MB and t3 would find no room
    g, plan, tasks = row_input([128.0, 96.0], [(32.0, [0]), (64.0, [0]), (64.0, [0]), (64.0, [0])])
    timer = FixedTimer({"n0": 1.0, "n1": 1.0})
    demand, capacity = np.array([32.0, 64.0, 64.0, 64.0]), np.array([128.0, 96.0])
    assert not aco._fits(primary_row(g, plan, tasks), demand, capacity)
    sol = local_first(tasks, g, plan, timer)
    assert [sol.assignment[t.id] for t in tasks] == ["n1", "n0", "n0", "n1"]
    assert sol.feasible


def test_local_first_raises_when_the_roomiest_node_lacks_room():
    # t0 fills n0 and t1 goes to n1, the node with most room; then no node
    # has room for t2
    g, plan, tasks = row_input([64.0, 64.0], [(64.0, [0]), (64.0, [0]), (64.0, [0])])
    with pytest.raises(InfeasibleScheduleError, match="placing task t2$"):
        local_first(tasks, g, plan, FixedTimer({"n0": 1.0, "n1": 1.0}))


def test_round_robin_splits_evenly():
    g, plan, tasks, _ = small_problem(n_nodes=2, n_tasks=4, rf=1)
    timer = FixedTimer({"n0": 1.0, "n1": 1.0})
    sol = baseline_round_robin(tasks, g, plan, timer)
    nodes = list(sol.assignment.values())
    assert nodes.count("n0") == 2 and nodes.count("n1") == 2
    again = baseline_round_robin(tasks, g, plan, timer)
    assert again.assignment == sol.assignment


def test_round_robin_single_node():
    g, plan, tasks, _ = small_problem(n_nodes=1, n_tasks=3, rf=1)
    sol = baseline_round_robin(tasks, g, plan, FixedTimer({"n0": 1.0}))
    assert set(sol.assignment.values()) == {"n0"}


def test_rf_fd_fills_first_node_to_capacity():
    g = make_cluster(
        [
            {"id": "n0", "rack": "r1", "cpu_ghz": 2.0, "io_mbps": 200.0, "capacity_mb": 128},
            {"id": "n1", "rack": "r1", "cpu_ghz": 2.0, "io_mbps": 200.0, "capacity_mb": 1024},
        ]
    )
    app = Application(id="app0", input_mb=256, block_size_mb=64, replication_factor=1)
    blocks = partition(app)
    tasks = tasks_for(app, blocks)
    plan = place_rack_aware(g, blocks, "n0", rf=1)
    timer = FixedTimer({"n0": 1.0, "n1": 1.0})
    sol = baseline_rf_fd(tasks, g, plan, timer, reservation_headroom=float("inf"))
    nodes = [sol.assignment[t.id] for t in tasks]
    assert nodes == ["n0", "n0", "n1", "n1"]  # first two exhaust n0's 128 MB


def reference_rf_fd(g, tasks, model, reservation_headroom=1.25):
    """`baseline_rf_fd`'s pick as the scalar loop it replaced: walk nodes in
    index order for the first that fits and stays under the threshold, else
    the least loaded node that fits. Returns (node-index row, fallbacks
    taken); raises InfeasibleScheduleError when no node fits a task."""
    t_est = predict_table(g, tasks, model)
    n, b = t_est.shape
    demand_mb = [t.block_mb for t in tasks]
    capacity_mb = np.array([g.node(nid).capacity_mb for nid in g.node_ids()])
    threshold = float(t_est.mean(axis=0).sum()) / n * reservation_headroom
    loads, used = np.zeros(n), np.zeros(n)
    assign = np.full(b, -1, dtype=int)
    fallbacks = 0
    for j in range(b):
        placed = False
        for i in range(n):
            if used[i] + demand_mb[j] > capacity_mb[i] + 1e-9:
                continue
            if loads[i] + t_est[i, j] <= threshold:
                assign[j] = i
                placed = True
                break
        if not placed:
            fallbacks += 1
            fits = np.where(used + demand_mb[j] <= capacity_mb + 1e-9)[0]
            if len(fits) == 0:
                raise InfeasibleScheduleError(f"capacity exhausted while placing task {j}")
            assign[j] = int(fits[np.argmin(loads[fits])])
        loads[assign[j]] += t_est[assign[j], j]
        used[assign[j]] += demand_mb[j]
    return assign, fallbacks


@pytest.mark.parametrize("headroom", [1.25, 1.0, 3.0])
def test_rf_fd_equals_scalar_first_fit_on_200_nodes(headroom):
    g = build_cluster(synthetic_cluster_config(200))
    _, blocks, tasks = make_app_tasks(input_mb=208 * 64, rf=2)
    plan = place_random(g, blocks, rf=2, seed=4)
    model = TrueTimeModel()
    sol = baseline_rf_fd(tasks, g, plan, model, reservation_headroom=headroom)
    want, _ = reference_rf_fd(g, tasks, model, headroom)
    assert sol.node_index.tolist() == want.tolist()


def test_rf_fd_threshold_admits_a_load_equal_to_it():
    # four equal nodes, eight 1 s tasks, headroom 1: the threshold is 2 s,
    # and a node's second task brings its load to exactly 2 s
    g, plan, tasks, _ = small_problem(n_nodes=4, n_tasks=8, rf=1)
    timer = FixedTimer({f"n{i}": 1.0 for i in range(4)})
    sol = baseline_rf_fd(tasks, g, plan, timer, reservation_headroom=1.0)
    want, fallbacks = reference_rf_fd(g, tasks, timer, 1.0)
    assert sol.node_index.tolist() == want.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]
    assert fallbacks == 0


def test_rf_fd_equals_scalar_first_fit_when_capacity_binds():
    # 12 nodes with room for one to three 64 MB blocks: the threshold turns
    # nodes away, the fallback places tasks, and 25 blocks exceed the room
    nodes = [
        {"id": f"n{i:02d}", "rack": f"r{i % 3}", "cpu_ghz": 1.0 + i % 3, "io_mbps": 200.0,
         "capacity_mb": 64.0 * (1 + i % 3)}
        for i in range(12)
    ]
    g = make_cluster(nodes)
    model = TrueTimeModel()
    fallbacks = 0
    for blocks_n in (12, 20, 24):
        _, blocks, tasks = make_app_tasks(input_mb=blocks_n * 64, rf=1)
        plan = place_random(g, blocks, rf=1, seed=blocks_n)
        for headroom in (1.0, 1.25):
            want, taken = reference_rf_fd(g, tasks, model, headroom)
            sol = baseline_rf_fd(tasks, g, plan, model, reservation_headroom=headroom)
            assert sol.node_index.tolist() == want.tolist()
            fallbacks += taken
    assert fallbacks > 0
    _, blocks, tasks = make_app_tasks(input_mb=25 * 64, rf=1)
    plan = place_random(g, blocks, rf=1, seed=25)
    with pytest.raises(InfeasibleScheduleError):
        reference_rf_fd(g, tasks, model)
    with pytest.raises(InfeasibleScheduleError, match="capacity exhausted"):
        baseline_rf_fd(tasks, g, plan, model)


class TableTimer:
    """Predictor stub: a fixed (n, B) table of seconds, rows the nodes in
    id order, columns the tasks in order."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=float)

    def predict_matrix(self, nodes, tasks):
        return self.table


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 12),
    b=st.integers(1, 60),
    ties=st.booleans(),
    headroom=st.sampled_from([0.5, 1.0, 1.25, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_rf_fd_equals_scalar_first_fit_on_random_instances(n, b, ties, headroom, seed):
    # mixed 16/32/64 MB blocks, times that vary per task (from a few values
    # when `ties`, so loads tie) and capacities of the total MB over n
    # times U(0.9, 1.6): the walk drops nodes, the fallback holds nodes
    # aside, and some draws have no room for a task
    rng = np.random.default_rng(seed)
    sizes = rng.choice([16.0, 32.0, 64.0], size=b)
    if ties:
        table = rng.choice([0.5, 1.0, 1.5, 2.0], size=(n, b))
    else:
        table = rng.uniform(0.01, 10.0, size=(n, b))
    share = sizes.sum() / n
    g = make_cluster([
        {"id": f"n{i:02d}", "rack": "r1", "cpu_ghz": 2.0, "io_mbps": 200.0,
         "capacity_mb": share * rng.uniform(0.9, 1.6)}
        for i in range(n)
    ])
    tasks = [
        TaskSpec(id=f"t{j}", block_id=f"b{j}", block_mb=float(mb), resource_demand=0.5,
                 compute_gcycles=1.0)
        for j, mb in enumerate(sizes)
    ]
    plan = PlacementPlan({f"b{j}": ("n00",) for j in range(b)}, "test")
    timer = TableTimer(table)
    try:
        want, _ = reference_rf_fd(g, tasks, timer, headroom)
    except InfeasibleScheduleError as err:
        with pytest.raises(InfeasibleScheduleError) as got:
            baseline_rf_fd(tasks, g, plan, timer, reservation_headroom=headroom)
        # the reference names the task by index, the baseline by id
        assert str(got.value) == str(err).replace("task ", "task t")
        return
    sol = baseline_rf_fd(tasks, g, plan, timer, reservation_headroom=headroom)
    assert sol.node_index.tolist() == want.tolist()


def test_rsync_equals_rf_fd_on_single_node():
    g, plan, tasks, _ = small_problem(n_nodes=1, n_tasks=3, rf=1)
    timer = FixedTimer({"n0": 2.0})
    a = baseline_rf_fd(tasks, g, plan, timer)
    b = baseline_rsync(tasks, g, plan, timer)
    assert a.assignment == b.assignment
    assert a.makespan == pytest.approx(b.makespan)


def test_rsync_primary_affinity_until_depth():
    g, plan, tasks, _ = small_problem(n_nodes=3, n_tasks=6, rf=1)
    timer = FixedTimer({f"n{i}": 1.0 for i in range(3)})
    sol = baseline_rsync(tasks, g, plan, timer, affinity_depth=2)
    nodes = [sol.assignment[t.id] for t in tasks]
    assert nodes[:2] == ["n0", "n0"]  # primaries live on the client
    assert nodes.count("n0") <= 3


def test_config_validation_and_presets():
    with pytest.raises(ValueError):
        AcoConfig(rho=0.0).validate()
    with pytest.raises(ValueError):
        AcoConfig(ants=0).validate()
    for objective in ("turbo", "weighted"):
        with pytest.raises(ValueError, match="unknown objective"):
            AcoConfig(objective=objective).validate()
    t1 = AcoConfig.preset("table1")
    assert (t1.alpha, t1.beta, t1.rho, t1.ants, t1.max_iters) == (1.5, 2.5, 0.2, 20, 50)
    s7 = AcoConfig.preset("stage7")
    assert (s7.alpha, s7.beta, s7.rho) == (0.8, 1.2, 0.1)
    assert AcoConfig.preset("table1", ants=7) == replace(t1, ants=7)
    with pytest.raises(ValueError):
        AcoConfig(beta=0.0).validate()
    with pytest.raises(ValueError, match="unknown preset"):
        AcoConfig.preset("stage8")


@pytest.mark.parametrize(
    "name, value",
    [("alpha", float("nan")), ("beta", float("inf")), ("ants", 2.5), ("max_iters", True)],
)
def test_config_rejects_non_finite_weights_and_non_integer_counts(name, value):
    # each used to reach the colony: NaN or inf selection weights, a float
    # ant count failing inside numpy, True running one iteration
    with pytest.raises(ValueError, match=f"^{name} must be"):
        AcoConfig.preset("table1", **{name: value})
    with pytest.raises(ValueError, match=f"^{name} must be"):
        solve_problem(oracle_instance(1000), replace(AcoConfig(), **{name: value}), seed=0)


def test_trace_csv_format(tmp_path):
    problem = oracle_instance(11, max_tasks=4, max_nodes=3)
    res = solve_problem(problem, AcoConfig(ants=4, max_iters=4), seed=1)
    path = tmp_path / "trace.csv"
    write_trace_csv(res.trace, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iter,best_makespan,mean_makespan,feasible_ants"
    assert len(lines) == 1 + len(res.trace)
