from dataclasses import replace

import numpy as np
import pytest

from sccdso.aco import (
    L_MAX,
    AcoConfig,
    AntSolution,
    InfeasibleScheduleError,
    PheromoneMatrix,
    Q_CONST,
    TAU_FLOOR,
    baseline_rf_fd,
    baseline_round_robin,
    baseline_rsync,
    build_problem,
    construct_colony,
    construct_solution,
    greedy_local_solution,
    preallocation_solution,
    selection_weights,
    solve,
    solve_problem,
    update_pheromones_ewma,
    update_pheromones_full,
    write_trace_csv,
)
from sccdso.experiment import brute_force_makespan, oracle_instance
from sccdso.placement import place_rack_aware
from sccdso.sim import TrueTimeModel
from sccdso.workload import Application, partition, tasks_for

from conftest import FixedTimer, array_problem, make_app_tasks, make_cluster


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
    batch_rng = np.random.default_rng(seed)
    scalar_rng = np.random.default_rng(seed)
    batch = construct_colony(weights, problem, batch_rng, ants)
    scalar = [scalar_ant(weights, problem, scalar_rng) for _ in range(ants)]
    assert batch == scalar
    for got, want in zip(batch, scalar):
        assert type(got.makespan) is type(want.makespan)
        assert [type(m) for m in got.metrics] == [type(m) for m in want.metrics]
        assert got.node_index.tolist() == want.node_index.tolist()
    assert batch_rng.bit_generator.state == scalar_rng.bit_generator.state
    return batch


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
    batch = assert_colony_matches_scalar(underflow_weights(problem), problem, 7)
    assert all(s.feasible for s in batch)
    for s in batch:
        used = np.zeros(len(problem.node_ids))
        np.add.at(used, s.node_index, problem.demand_mb)
        assert (used <= problem.capacity_mb + 1e-9).all()


def test_colony_equals_scalar_ants_when_candidates_fill_up():
    # two mean-sized tasks per node: the top-L_MAX candidates fill long
    # before the last task, which then draws from every node that fits
    problem = random_problem(8, 40, 60, slots=2.6)
    weights = selection_weights(np.full(problem.t_eff.shape, 0.05), problem.eta, 0.8, 1.2)
    batch = assert_colony_matches_scalar(weights, problem, 8)
    assert all(s.feasible for s in batch)
    assert any(
        not problem.candidate_mask[i, j]
        for s in batch for j, i in enumerate(s.node_index)
    )


def test_colony_equals_scalar_ants_when_a_task_strands():
    # about one mean-sized task of room per node for 1.1 tasks per node:
    # ants strand tasks, and the iteration reruns ant by ant
    problem = random_problem(9, 30, 33, slots=1.0)
    weights = selection_weights(np.full(problem.t_eff.shape, 0.05), problem.eta, 0.8, 1.2)
    batch = assert_colony_matches_scalar(weights, problem, 9)
    assert not all(s.feasible for s in batch)


def deposit_reference(tau, solutions, rho, t_eff=None):
    """Per-edge pheromone loop over each solution's assignment dict; with
    `t_eff`, the EWMA deposit of 1/T at rate rho."""
    tau = tau * (1.0 - rho)
    for sol in solutions:
        for tid, nid in sol.assignment.items():
            i, j = int(nid[1:]), int(tid[1:])
            if t_eff is not None:
                tau[i, j] += rho * (1.0 / max(float(t_eff[i, j]), 1e-12))
            else:
                tau[i, j] += Q_CONST / sol.makespan
    return np.maximum(tau, TAU_FLOOR)


def test_deposits_equal_per_edge_loops():
    problem = random_problem(10, 45, 150)
    rng = np.random.default_rng(10)
    tau = rng.uniform(TAU_FLOOR, 2.0, size=problem.t_eff.shape)
    weights = selection_weights(tau, problem.eta, 0.8, 1.2)
    sols = construct_colony(weights, problem, rng, 8)
    cfg = AcoConfig(rho=0.2)
    ph = PheromoneMatrix(problem.node_ids, problem.task_ids, tau.copy())
    update_pheromones_full(ph, sols, cfg)
    assert ph.tau.tobytes() == deposit_reference(tau, sols, cfg.rho).tobytes()
    ph = PheromoneMatrix(problem.node_ids, problem.task_ids, tau.copy())
    update_pheromones_ewma(ph, sols[3], problem.t_eff, cfg)
    assert ph.tau.tobytes() == deposit_reference(tau, sols[3:4], cfg.rho, problem.t_eff).tobytes()


def test_full_update_evaporation_only():
    cfg = AcoConfig(rho=0.1)
    ph = PheromoneMatrix(("a",), ("t",), np.array([[1.0]]))
    update_pheromones_full(ph, [], cfg)
    assert ph.tau[0, 0] == pytest.approx(0.9)


def test_full_update_deposit_arithmetic():
    cfg = AcoConfig(rho=0.1)
    ph = PheromoneMatrix(("a",), ("t",), np.array([[1.0]]))
    sol = AntSolution(
        assignment={"t": "a"}, makespan=50.0, metrics=(0, 0, 0), feasible=True,
        node_index=np.array([0]),
    )
    update_pheromones_full(ph, [sol], cfg)
    assert ph.tau[0, 0] == pytest.approx(0.9 + Q_CONST / 50.0)


def test_pheromone_floor_clamps():
    cfg = AcoConfig(rho=0.3)
    ph = PheromoneMatrix(("a",), ("t",), np.array([[1.2 * TAU_FLOOR]]))
    update_pheromones_full(ph, [], cfg)
    assert ph.tau[0, 0] == TAU_FLOOR


def test_ewma_update_examples():
    cfg = AcoConfig(rho=0.1)
    ph = PheromoneMatrix(("a", "b"), ("t",), np.array([[1.0], [1.0]]))
    best = AntSolution(
        assignment={"t": "a"}, makespan=2.0, metrics=(0, 0, 0), feasible=True,
        node_index=np.array([0]),
    )
    update_pheromones_ewma(ph, best, np.array([[2.0], [2.0]]), cfg)
    assert ph.tau[0, 0] == pytest.approx(0.95)  # (1-rho) + rho/T
    assert ph.tau[1, 0] == pytest.approx(0.90)  # evaporation only


def test_ewma_fixed_point_is_inverse_time():
    cfg = AcoConfig(rho=0.1)
    ph = PheromoneMatrix(("a",), ("t",), np.array([[1.0]]))
    best = AntSolution(
        assignment={"t": "a"}, makespan=2.0, metrics=(0, 0, 0), feasible=True,
        node_index=np.array([0]),
    )
    for _ in range(300):
        update_pheromones_ewma(ph, best, np.array([[2.0]]), cfg)
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


def test_elite_seeds_are_feasible_and_local():
    problem = oracle_instance(42, max_tasks=6, max_nodes=4)
    pre = preallocation_solution(problem)
    greedy = greedy_local_solution(problem)
    assert pre.feasible and greedy.feasible
    for tid, nid in pre.assignment.items():
        task = next(t for t in problem.tasks if t.id == tid)
        assert nid == problem.plan.primary(task.block_id)


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
