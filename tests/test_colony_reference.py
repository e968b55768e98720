"""The colony's iteration against `colony_reference`, the same steps as
they stood before `aco.Workspace`: weights, picks, the capacity guard and
its ant-by-ant replay, scoring, the hill climb, the elite rows and whole
solves must equal the reference bit for bit."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import colony_reference as ref
from sccdso import aco
from sccdso.aco import L_MAX, TAU_FLOOR, AcoConfig, Workspace
from sccdso.experiment import oracle_instance

from test_aco import benchmark_problem, random_problem, rebuilt_ants
from test_solver_pin import pipeline_problem


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def compare_iteration(problem, tau, config, seed, monkeypatch):
    """One iteration's steps on `problem` at the trail `tau`, the
    workspace's against the reference's. Returns what the iteration met:
    whether its ants were rebuilt one by one, whether some task's weights
    all underflowed, and whether a row stranded a task."""
    ws = Workspace(problem, config)
    weights = aco.iteration_weights(tau, ws)
    want = ref.iteration_weights(tau, problem, config.alpha, config.beta)
    assert same(weights.cand.T, want.cand)
    assert same(weights.cum.T, ref._cumulative_weights(want.cand))
    for j in range(len(problem.task_ids)):
        assert same(weights.column(j), want.column(j))

    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    (rows, flags), rebuilt = rebuilt_ants(
        monkeypatch, lambda: aco.construct_colony(weights, ws, rng))
    want_rows, want_flags = ref.construct_colony(want, problem, twin, config.ants)
    assert same(rows, want_rows) and same(flags, want_flags)
    assert rng.bit_generator.state == twin.bit_generator.state

    # the ants, and copies of them with some tasks unassigned
    holes = np.where(np.random.default_rng(seed).random(rows.shape) < 0.2, -1, rows)
    for scored in (rows, holes, rows[:1]):
        got, expect = aco.score_rows(ws, scored), ref.score_rows(problem, scored)
        assert same(got[0], expect[0]) and same(got[1], expect[1])
        assert same(aco.score_makespans(ws, scored), ref.score_makespans(problem, scored))
    for row in rows[flags]:
        for rounds in (1, 64):
            got = aco._refine_makespan(ws, row, rounds)
            expect = ref._refine_makespan(problem, row, rounds)
            assert same(got[0], expect[0]) and got[1] == expect[1]
    underflow = bool((want.cand.sum(axis=1) <= 0).any())
    return rebuilt > 0, underflow, bool((rows < 0).any())


CONFIGS = st.sampled_from([(0.8, 1.2), (1.5, 2.5), (1.5, 120.0)])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 14),
    b=st.integers(1, 30),
    ants=st.integers(1, 6),
    slots=st.sampled_from([None, 6.0, 2.6, 1.0]),
    slow=st.sampled_from([0.0, 0.3]),
    ties=st.booleans(),
    weights=CONFIGS,
)
def test_an_iteration_equals_the_reference(seed, n, b, ants, slots, slow, ties, weights):
    # k = n up to L_MAX nodes, k < n beyond; capacity from none to about
    # one mean task per node, so that ants strand tasks and the guard fails
    problem = random_problem(seed % 2**31, n, b, slots=slots, slow=slow, ties=ties)
    tau = np.random.default_rng(seed).uniform(TAU_FLOOR, 5.0, size=(n, b))
    config = AcoConfig(alpha=weights[0], beta=weights[1], ants=ants)
    with pytest.MonkeyPatch.context() as monkeypatch:
        compare_iteration(problem, tau, config, seed, monkeypatch)


def test_the_reference_cases_reach_every_branch(monkeypatch):
    # fixed cases that take each path the hypothesis test may miss: the
    # replay after a failed guard, weights that all underflow, a stranded
    # task, k < n and k = n, one ant and one task
    met = set()
    cases = [
        (random_problem(9, 30, 33, slots=1.0), (0.8, 1.2), 10),  # strands, replays
        (random_problem(8, 40, 60, slots=2.6), (0.8, 1.2), 10),  # candidates fill up
        (random_problem(7, 40, 120, slow=0.3), (1.5, 120.0), 10),  # underflow
        (random_problem(7, 40, 120, slots=6, slow=0.3), (1.5, 120.0), 10),
        (random_problem(3, L_MAX, 20), (1.5, 2.5), 1),  # k = n, one ant
        (random_problem(4, 25, 1), (0.8, 1.2), 4),  # one task
        (random_problem(5, 1, 6), (0.8, 1.2), 3),  # one node
    ]
    for seed, (problem, (alpha, beta), ants) in enumerate(cases):
        n, b = problem.t_eff.shape
        tau = np.random.default_rng(seed).uniform(TAU_FLOOR, 5.0, size=(n, b))
        config = AcoConfig(alpha=alpha, beta=beta, ants=ants)
        replayed, underflow, stranded = compare_iteration(problem, tau, config, seed, monkeypatch)
        met |= {name for name, hit in (
            ("replay", replayed), ("underflow", underflow), ("stranded", stranded),
            ("k<n", problem.candidates.shape[1] < n), ("k=n", problem.candidates.shape[1] == n),
            ("one ant", ants == 1), ("one task", b == 1)) if hit}
    assert met == {"replay", "underflow", "stranded", "k<n", "k=n", "one ant", "one task"}


def elite_problems():
    tight = pipeline_problem(tight=True)
    # room for about two tasks per node: holders fill, and the greedy row
    # falls back to other nodes
    crowded = replace(benchmark_problem(20), capacity_mb=np.full(20, 64.0 * 11))
    stuck = replace(tight, capacity_mb=np.full(25, 64.0))  # some task fits nowhere
    return [oracle_instance(1000 + s) for s in range(12)] + [
        pipeline_problem(), tight, crowded, stuck, benchmark_problem(200)]


def test_elite_rows_equal_the_reference():
    fallback = stuck = 0
    for problem in elite_problems():
        ws = Workspace(problem, AcoConfig())
        assert same(aco.preallocation_row(ws), ref.preallocation_row(problem))
        greedy = aco.greedy_local_row(ws)
        assert same(greedy, ref.greedy_local_row(problem))
        local = [problem.node_ids[i] in problem.plan.replicas(t.block_id)
                 for t, i in zip(problem.tasks, greedy) if i >= 0]
        fallback += not all(local)
        stuck += bool((greedy < 0).any())
    assert fallback and stuck


def record(result):
    best = result.best
    return (
        best.assignment, best.node_index.tolist(), best.feasible,
        [float(x).hex() for x in (best.makespan, *best.metrics)],
        [type(m) for m in best.metrics],
        result.trace, result.iterations, result.converged_iteration, result.ants,
        result.feasible_ants, result.refine_moves, result.pheromones.tobytes(),
    )


def solve_cases():
    oracle = [oracle_instance(1000 + s) for s in range(6)]
    tight = pipeline_problem(tight=True)
    table1 = AcoConfig.preset("table1")
    stage7 = AcoConfig.preset("stage7")
    yield from ((p, table1, s) for s, p in enumerate(oracle))
    yield tight, stage7, 1
    yield benchmark_problem(20), stage7, 2
    yield benchmark_problem(200), stage7, 3
    yield one_task_problem(), replace(stage7, ants=1, max_iters=4), 4


def one_task_problem():
    """An oracle instance cut to its first task: one task on two nodes."""
    problem = oracle_instance(1003)
    keep = [0]
    return replace(
        problem, tasks=problem.tasks[:1], task_ids=problem.task_ids[:1],
        **{f: getattr(problem, f)[:, keep] for f in (
            "t_pred", "t_eff", "eta", "xtra_delay", "cost", "src_idx")},
        demand_mb=problem.demand_mb[keep], candidates=problem.candidates[keep])


def test_solves_equal_the_reference():
    moved = 0
    for problem, config, seed in solve_cases():
        got = aco.solve_problem(problem, config, seed)
        want = ref.solve_problem(problem, config, seed)
        assert record(got) == record(want)
        moved += got.refine_moves
    assert moved


def test_an_infeasible_solve_raises_as_the_reference_does():
    problem = replace(pipeline_problem(tight=True), capacity_mb=np.full(25, 40.0))
    config = AcoConfig(ants=3, max_iters=2)
    with pytest.raises(aco.InfeasibleScheduleError) as got:
        aco.solve_problem(problem, config, 0)
    with pytest.raises(aco.InfeasibleScheduleError) as want:
        ref.solve_problem(problem, config, 0)
    assert str(got.value) == str(want.value) and got.value.diagnosis == want.value.diagnosis
