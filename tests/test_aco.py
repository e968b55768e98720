from dataclasses import replace

import numpy as np
import pytest

from sccdso import aco
from sccdso.aco import (
    L_MAX,
    LIGHTWEIGHT_ANTS,
    AcoConfig,
    AntSolution,
    InfeasibleScheduleError,
    PheromoneMatrix,
    Q_CONST,
    TAU_FLOOR,
    _pick_best,
    _solution_from_indices,
    _tie_order,
    _weighted,
    baseline_rf_fd,
    baseline_round_robin,
    baseline_rsync,
    build_problem,
    construct_colony,
    construct_solution,
    fits_capacity,
    greedy_local_row,
    preallocation_row,
    score_rows,
    selection_weights,
    solve,
    solve_problem,
    update_pheromones_ewma,
    update_pheromones_full,
    write_trace_csv,
)
from sccdso.cluster import build_cluster, synthetic_cluster_config
from sccdso.experiment import brute_force_makespan, oracle_instance
from sccdso.placement import place_rack_aware, place_random
from sccdso.sim import TrueTimeModel
from sccdso.workload import Application, partition, tasks_for

from conftest import FixedTimer, array_problem, make_app_tasks, make_cluster
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


def draw_probabilities(tau, eta, alpha, beta, mask):
    # construct_solution draws node i with probability w[i] / w.sum() over
    # the eligible nodes
    w = np.where(mask, selection_weights(tau, eta, alpha, beta), 0.0)
    return w / w.sum()


def test_selection_probabilities_sum_to_one():
    tau = np.array([0.2, 0.5, 0.3])
    eta = np.array([1.0, 2.0, 0.5])
    p = draw_probabilities(tau, eta, 1.5, 2.5, np.ones(3, dtype=bool))
    assert p.sum() == pytest.approx(1.0, abs=1e-9)
    masked = draw_probabilities(tau, eta, 1.5, 2.5, np.array([True, False, True]))
    assert masked[1] == 0.0 and masked.sum() == pytest.approx(1.0, abs=1e-9)


def test_selection_weights_of_matrix_equal_its_columns():
    # the colony evaluates the rule once per iteration on the whole (n, B)
    # matrix; each column must carry the bits of the one-column evaluation
    rng = np.random.default_rng(3)
    tau = rng.uniform(1e-3, 5.0, size=(37, 23))
    eta = 1.0 / rng.uniform(0.05, 40.0, size=(37, 23))
    for alpha, beta in ((0.8, 1.2), (1.5, 2.5)):
        whole = selection_weights(tau, eta, alpha, beta)
        for j in range(tau.shape[1]):
            column = selection_weights(tau[:, j], eta[:, j], alpha, beta)
            assert whole[:, j].tobytes() == column.tobytes()


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
    ph = PheromoneMatrix.initial(problem.node_ids, problem.task_ids)
    weights = selection_weights(ph.tau, problem.eta, cfg.alpha, cfg.beta)
    rng = np.random.default_rng(0)
    argmin_node = problem.node_ids[int(np.argmin(problem.t_eff[:, 0]))]
    hits = sum(
        construct_solution(weights, problem, rng).assignment[tasks[0].id] == argmin_node
        for _ in range(1000)
    )
    assert hits >= 990


def scalar_ant(weights, problem, rng):
    """Reference ant: one task at a time, each total summed by a Python
    loop in task order; every ant of `construct_colony` must equal it."""
    n, b = weights.shape
    order = rng.permutation(b)
    used = np.zeros(n)
    assign = np.full(b, -1, dtype=int)
    feasible = True
    for j in order:
        fits = used + problem.demand_mb[j] <= problem.capacity_mb + 1e-9
        mask = problem.candidate_mask[:, j] & fits
        if not mask.any():
            mask = fits
        if not mask.any():
            feasible = False
            continue
        cum = np.cumsum(np.where(mask, weights[:, j], 0.0))
        if cum[-1] <= 0:
            cum = np.cumsum(mask)
        pick = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        pick = min(pick, n - 1)
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


def random_problem(seed, n, b, slots=None, slow=0.0):
    """Dense random instance: top-L_MAX candidate masks by desirability,
    replica sources on half the cells, unequal demands; `slots` caps each
    node at about that many mean-sized tasks (None: no cap). A share `slow`
    of the tasks run a thousand times slower on every node."""
    rng = np.random.default_rng(seed)
    # node speed dominates, so tasks share most of their candidates
    t_eff = rng.uniform(0.5, 20.0, size=(n, 1)) * rng.uniform(1.0, 1.5, size=(n, b))
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
    mask = np.zeros((n, b), dtype=bool)
    top = np.argsort(-problem.eta, axis=0, kind="stable")[: min(L_MAX, n)]
    mask[top, np.arange(b)] = True
    return replace(problem, demand_mb=demand, capacity_mb=capacity, candidate_mask=mask)


def assert_colony_matches_scalar(weights, problem, seed, ants=10):
    """The colony's rows and flags equal `construct_solution`'s ants on the
    same generator, and `score_rows` prices them as `scalar_ant`'s loop
    does, bit for bit. Returns the colony's (rows, flags)."""
    batch_rng, ant_rng, scalar_rng = (np.random.default_rng(seed) for _ in range(3))
    assign, feasible = construct_colony(weights, problem, batch_rng, ants)
    per_ant = [construct_solution(weights, problem, ant_rng) for _ in range(ants)]
    scalar = [scalar_ant(weights, problem, scalar_rng) for _ in range(ants)]
    assert assign.tolist() == [s.node_index.tolist() for s in per_ant]
    assert feasible.tolist() == [s.feasible for s in per_ant]
    assert per_ant == scalar
    makespan, metrics = score_rows(problem, assign)
    for a, want in enumerate(scalar):
        assert [makespan[a], *metrics[:, a]] == [want.makespan, *want.metrics]
        assert [type(m) for m in per_ant[a].metrics] == [type(m) for m in want.metrics]
    assert batch_rng.bit_generator.state == scalar_rng.bit_generator.state
    assert ant_rng.bit_generator.state == scalar_rng.bit_generator.state
    return assign, feasible


def test_colony_equals_scalar_ants_on_random_instances():
    for seed in range(6):
        size = np.random.default_rng(100 + seed)
        n, b = int(size.integers(30, 61)), int(size.integers(50, 209))
        problem = random_problem(seed, n, b)
        tau = size.uniform(TAU_FLOOR, 2.0, size=(n, b))
        for alpha, beta in ((0.8, 1.2), (1.5, 2.5)):
            weights = selection_weights(tau, problem.eta, alpha, beta)
            assert_colony_matches_scalar(weights, problem, seed)


def test_colony_equals_scalar_ants_on_every_oracle_shape():
    shapes = {}
    seed = 0
    while len(shapes) < 21:  # 2-4 nodes x 2-8 tasks
        problem = oracle_instance(seed)
        shapes.setdefault(problem.t_eff.shape, problem)
        seed += 1
    cfg = AcoConfig.preset("table1")
    for k, problem in enumerate(shapes.values()):
        ph = PheromoneMatrix.initial(problem.node_ids, problem.task_ids)
        weights = selection_weights(ph.tau, problem.eta, cfg.alpha, cfg.beta)
        assert_colony_matches_scalar(weights, problem, k, ants=cfg.ants)


def underflow_weights(problem):
    tau = np.full(problem.t_eff.shape, TAU_FLOOR)
    return selection_weights(tau, problem.eta, 1.5, 120.0)


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
    weights = selection_weights(np.full(problem.t_eff.shape, 0.05), problem.eta, 0.8, 1.2)
    assign, feasible = assert_colony_matches_scalar(weights, problem, 8)
    assert feasible.all()
    assert any(
        not problem.candidate_mask[i, j]
        for row in assign for j, i in enumerate(row)
    )


def test_colony_equals_scalar_ants_when_a_task_strands():
    # about one mean-sized task of room per node for 1.1 tasks per node:
    # ants strand tasks, and the iteration reruns ant by ant
    problem = random_problem(9, 30, 33, slots=1.0)
    weights = selection_weights(np.full(problem.t_eff.shape, 0.05), problem.eta, 0.8, 1.2)
    assign, feasible = assert_colony_matches_scalar(weights, problem, 9)
    assert not feasible.all()
    assert ((assign < 0).any(axis=1) == ~feasible).all()


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
    weights = selection_weights(np.full(problem.t_eff.shape, 0.05), problem.eta, 0.8, 1.2)
    free, _ = construct_colony(weights, problem, np.random.default_rng(11), ants)
    used = np.zeros((ants, n))
    np.add.at(used, (np.arange(ants)[:, None], free), problem.demand_mb)
    room = used.max() + problem.demand_mb.max()
    for capacity, rebuilt in ((room, 0), (room - 1.0, ants)):
        capped = replace(problem, capacity_mb=np.full(n, capacity))
        rng = np.random.default_rng(11)
        (assign, _), calls = rebuilt_ants(
            monkeypatch, lambda: construct_colony(weights, capped, rng, ants))
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
        for tau in (np.full(problem.t_eff.shape, aco.TAU0), result.pheromones.tau):
            weights = selection_weights(tau, problem.eta, cfg.alpha, cfg.beta)
            rng = np.random.default_rng(ants)
            _, calls = rebuilt_ants(monkeypatch, lambda: construct_colony(weights, problem, rng, ants))
            assert calls == 0
            assert_colony_matches_scalar(weights, problem, ants, ants)


def deposit_reference(tau, rows, rho, makespan=None, t_eff=None):
    """Per-edge pheromone loop over the rows in order: Q / makespan on each
    edge of a row with a positive makespan, or with `t_eff` the EWMA
    deposit of 1/T at rate rho."""
    tau = tau * (1.0 - rho)
    for k, row in enumerate(rows):
        for j, i in enumerate(row.tolist()):
            if t_eff is not None:
                tau[i, j] += rho * (1.0 / max(float(t_eff[i, j]), 1e-12))
            elif makespan[k] > 0:
                tau[i, j] += Q_CONST / makespan[k]
    return np.maximum(tau, TAU_FLOOR)


def test_deposits_equal_per_edge_loops():
    problem = random_problem(10, 45, 150)
    rng = np.random.default_rng(10)
    tau = rng.uniform(TAU_FLOOR, 2.0, size=problem.t_eff.shape)
    weights = selection_weights(tau, problem.eta, 0.8, 1.2)
    assign, _ = construct_colony(weights, problem, rng, 8)
    makespan, _ = score_rows(problem, assign)
    # best-ever rides along after the ants, so each of its edges takes a
    # second deposit; a row with makespan 0.0 deposits nothing
    k = int(np.argmin(makespan))
    rows = np.vstack([assign, assign[k], assign[0]])
    mks = np.append(makespan, [makespan[k], 0.0])
    hits = np.zeros(tau.shape, dtype=int)
    np.add.at(hits, (rows[:-1], np.arange(150)), 1)
    assert hits.max() >= 4  # several ants and best-ever share an edge
    cfg = AcoConfig(rho=0.2)
    ph = PheromoneMatrix(problem.node_ids, problem.task_ids, tau.copy())
    update_pheromones_full(ph, rows, mks, cfg)
    assert ph.tau.tobytes() == deposit_reference(tau, rows, cfg.rho, mks).tobytes()
    # the loop this replaced: one fancy-index add per solution, in order
    sequential = tau * (1.0 - cfg.rho)
    for row, mk in zip(rows, mks):
        if mk > 0:
            sequential[row, np.arange(150)] += Q_CONST / mk
    assert ph.tau.tobytes() == np.maximum(sequential, TAU_FLOOR).tobytes()
    ph = PheromoneMatrix(problem.node_ids, problem.task_ids, tau.copy())
    update_pheromones_ewma(ph, assign[3], problem.t_eff, cfg)
    want = deposit_reference(tau, assign[3:4], cfg.rho, t_eff=problem.t_eff)
    assert ph.tau.tobytes() == want.tobytes()


def test_full_update_evaporation_only():
    cfg = AcoConfig(rho=0.1)
    ph = PheromoneMatrix(("a",), ("t",), np.array([[1.0]]))
    update_pheromones_full(ph, np.empty((0, 1), dtype=int), np.empty(0), cfg)
    assert ph.tau[0, 0] == pytest.approx(0.9)


def test_full_update_deposit_arithmetic():
    cfg = AcoConfig(rho=0.1)
    ph = PheromoneMatrix(("a",), ("t",), np.array([[1.0]]))
    update_pheromones_full(ph, np.array([[0]]), np.array([50.0]), cfg)
    assert ph.tau[0, 0] == pytest.approx(0.9 + Q_CONST / 50.0)


def test_pheromone_floor_clamps():
    cfg = AcoConfig(rho=0.3)
    ph = PheromoneMatrix(("a",), ("t",), np.array([[1.2 * TAU_FLOOR]]))
    update_pheromones_full(ph, np.empty((0, 1), dtype=int), np.empty(0), cfg)
    assert ph.tau[0, 0] == TAU_FLOOR


def test_ewma_update_examples():
    cfg = AcoConfig(rho=0.1)
    ph = PheromoneMatrix(("a", "b"), ("t",), np.array([[1.0], [1.0]]))
    update_pheromones_ewma(ph, np.array([0]), np.array([[2.0], [2.0]]), cfg)
    assert ph.tau[0, 0] == pytest.approx(0.95)  # (1-rho) + rho/T
    assert ph.tau[1, 0] == pytest.approx(0.90)  # evaporation only


def test_ewma_fixed_point_is_inverse_time():
    cfg = AcoConfig(rho=0.1)
    ph = PheromoneMatrix(("a",), ("t",), np.array([[1.0]]))
    for _ in range(300):
        update_pheromones_ewma(ph, np.array([0]), np.array([[2.0]]), cfg)
    assert ph.tau[0, 0] == pytest.approx(0.5, abs=1e-6)


def test_solve_two_tasks_two_identical_nodes():
    g, plan, tasks, _ = small_problem(n_nodes=2, n_tasks=2, rf=2)
    timer = FixedTimer({"n0": 1.5, "n1": 1.5})
    cfg = AcoConfig.preset("stage7", objective="makespan")
    res = solve(tasks, plan, g, timer, cfg, seed=0)
    assert res.best.makespan == pytest.approx(1.5)  # one task per node
    assert set(res.best.assignment.values()) == {"n0", "n1"}


def test_solve_deterministic_given_seed():
    g, plan, tasks, _ = small_problem(n_nodes=3, n_tasks=5, rf=1)
    timer = FixedTimer({"n0": 1.0, "n1": 2.0, "n2": 0.5})
    cfg = AcoConfig.preset("stage7")
    a = solve(tasks, plan, g, timer, cfg, seed=11)
    b = solve(tasks, plan, g, timer, cfg, seed=11)
    assert a.best.assignment == b.best.assignment
    assert a.trace == b.trace


def test_trace_best_objective_monotone():
    problem = oracle_instance(5, max_tasks=8, max_nodes=4)
    cfg = AcoConfig.preset("table1")
    res = solve_problem(problem, cfg, seed=3)
    objs = [r.best_objective for r in res.trace]
    assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))
    mks = [r.best_makespan for r in res.trace]
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
        solve(tasks, plan, g, timer, AcoConfig(ants=2, max_iters=2), seed=0)
    assert err.value.diagnosis["tasks"] == 4


def test_oracle_brute_force_agreement_small():
    # ACO within 5% of exhaustive optimum on a small sample (full sweep in
    # the acceptance suite)
    cfg = AcoConfig.preset("table1", objective="makespan")
    hits = 0
    for s in range(20):
        problem = oracle_instance(2000 + s, max_tasks=6, max_nodes=3)
        optimum = brute_force_makespan(problem)
        res = solve_problem(problem, cfg, seed=s)
        if res.best.makespan <= 1.05 * optimum + 1e-9:
            hits += 1
    assert hits >= 19


def test_lightweight_uses_five_ants_and_converges():
    g, plan, tasks, _ = small_problem(n_nodes=4, n_tasks=8, rf=1)
    timer = FixedTimer({f"n{i}": 1.0 + 0.3 * i for i in range(4)})
    cfg = AcoConfig.preset("stage7", variant="lightweight", max_iters=30)
    res = solve(tasks, plan, g, timer, cfg, seed=2)
    assert res.best.feasible
    assert res.converged_iteration is not None


def test_solve_counts_ants_and_refine_moves():
    _, _, _, problem = small_problem(n_nodes=4, n_tasks=8, rf=1)
    for variant, colony in (("lightweight", LIGHTWEIGHT_ANTS), ("full", 10)):
        res = solve_problem(problem, AcoConfig.preset("stage7", variant=variant), seed=4)
        assert res.ants == res.iterations * colony
        assert res.feasible_ants == res.ants  # no capacity binds
        assert res.refine_moves == 0  # only the makespan objective climbs
    # ants strand on a capacity-tight instance; the trace also counts elites
    res = solve_problem(pipeline_problem(tight=True), AcoConfig.preset("stage7"), seed=0)
    assert res.ants == res.iterations * 10
    assert 0 < res.feasible_ants < res.ants
    assert res.feasible_ants <= sum(r.feasible_ants for r in res.trace)
    cfg = AcoConfig.preset("table1", objective="makespan")
    moves = [solve_problem(oracle_instance(1000 + s), cfg, seed=s).refine_moves for s in range(10)]
    assert any(moves)


@pytest.mark.parametrize("n_nodes, want", [(2, "a"), (12, "a")])
def test_ties_go_to_the_smaller_sorted_assignment(n_nodes, want):
    # twelve equal tasks, ids "t0".."t11": task-id order ("t10" < "t2") is
    # not index order, nor, on twelve nodes, is node-id order. Rows a and b
    # swap the nodes of t2 and t10, so they tie on every metric; in task-id
    # order they first differ at t10, where a's node id is the smaller
    problem = array_problem(np.ones((n_nodes, 12)), cost=np.ones((n_nodes, 12)))
    a = np.arange(12) * n_nodes // 12
    if n_nodes == 2:
        a[[2, 10]] = 1, 0  # a: t2 -> n1, t10 -> n0; by index b looks smaller
    b = a.copy()
    b[[2, 10]] = a[[10, 2]]
    rows = np.array([b, a])
    sols = _solution_from_indices(problem, rows, True)
    makespan, metrics = score_rows(problem, rows)
    assert makespan[0] == makespan[1] and (metrics[:, 0] == metrics[:, 1]).all()
    objective = _weighted(metrics, [float(np.mean(m)) for m in metrics])
    k, key = _pick_best(rows, objective, makespan, _tie_order(problem))
    assert "ba"[k] == want
    reference = min(range(2), key=lambda r: tuple(sorted(sols[r].assignment.items())))
    assert k == reference
    assert key[:2] == (objective[k], makespan[k])


def test_elite_seeds_are_feasible_and_local():
    problem = oracle_instance(42, max_tasks=6, max_nodes=4)
    pre = preallocation_row(problem)
    greedy = greedy_local_row(problem)
    assert fits_capacity(problem, pre) and fits_capacity(problem, greedy)
    for task, i in zip(problem.tasks, pre):
        assert problem.node_ids[i] == problem.plan.primary(task.block_id)
    for task, i in zip(problem.tasks, greedy):
        assert problem.node_ids[i] in problem.plan.replicas(task.block_id)


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
    with pytest.raises(ValueError):
        AcoConfig(variant="turbo").validate()
    t1 = AcoConfig.preset("table1")
    assert (t1.alpha, t1.beta, t1.rho, t1.ants, t1.max_iters) == (1.5, 2.5, 0.2, 20, 50)
    s7 = AcoConfig.preset("stage7")
    assert (s7.alpha, s7.beta, s7.rho) == (0.8, 1.2, 0.1)
    with pytest.raises(ValueError):
        AcoConfig(beta=0.0).validate()


def test_trace_csv_format(tmp_path):
    problem = oracle_instance(11, max_tasks=4, max_nodes=3)
    res = solve_problem(problem, AcoConfig(ants=4, max_iters=4), seed=1)
    path = tmp_path / "trace.csv"
    write_trace_csv(res.trace, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iter,best_objective,best_makespan,mean_makespan,feasible_ants"
    assert len(lines) == 1 + len(res.trace)
