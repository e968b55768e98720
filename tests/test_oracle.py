"""The exact oracle: `brute_force_makespan`'s pruned search against full
enumeration, and the oracle suite's checks and timings."""

import dataclasses

import numpy as np

from sccdso import aco, experiment
from sccdso.cli import main as cli_main
from sccdso.experiment import brute_force_makespan, oracle_instance


def reference_brute_force(problem: aco.AssignmentProblem) -> float:
    """Exact minimum makespan by enumerating every capacity-feasible
    assignment. Exponential; keep instances small."""
    n = len(problem.node_ids)
    b = len(problem.task_ids)
    grids = np.meshgrid(*([np.arange(n)] * b), indexing="ij")
    assigns = np.stack([gr.ravel() for gr in grids], axis=1)  # (n^b, b)
    m = assigns.shape[0]
    loads = np.zeros((m, n))
    used = np.zeros((m, n))
    rows = np.arange(m)
    for j in range(b):
        loads[rows, assigns[:, j]] += problem.t_eff[assigns[:, j], j]
        used[rows, assigns[:, j]] += problem.demand_mb[j]
    feasible = (used <= problem.capacity_mb[None, :] + 1e-9).all(axis=1)
    if not feasible.any():
        raise aco.InfeasibleScheduleError("no feasible assignment exists")
    return float(loads[feasible].max(axis=1).min())


def exact(search, problem) -> str | None:
    """The optimum as `float.hex`, or None when the search finds the
    instance infeasible."""
    try:
        return search(problem).hex()
    except aco.InfeasibleScheduleError:
        return None


def instances_of_every_shape(per_shape=5):
    """`per_shape` oracle instances of each of the 21 default shapes
    (2-4 nodes x 2-8 tasks), in seed order."""
    by_shape: dict[tuple[int, int], list] = {}
    seed = 0
    while len(by_shape) < 21 or min(map(len, by_shape.values())) < per_shape:
        problem = oracle_instance(seed)
        taken = by_shape.setdefault(problem.t_eff.shape, [])
        if len(taken) < per_shape:
            taken.append(problem)
        seed += 1
    return [p for shape in sorted(by_shape) for p in by_shape[shape]]


SHAPES = instances_of_every_shape()


def test_pruned_search_equals_enumeration_on_every_oracle_shape():
    assert len({p.t_eff.shape for p in SHAPES}) == 21
    for problem in SHAPES:
        want = exact(reference_brute_force, problem)
        assert want is not None
        assert exact(brute_force_makespan, problem) == want


def test_pruned_search_equals_enumeration_when_capacity_binds():
    # every node holds 1-3 of the equal-demand tasks: capacity prunes, and
    # an instance whose nodes hold fewer than all of its tasks is infeasible,
    # where both searches must raise (`exact` gives None)
    rng = np.random.default_rng(0)
    binding = infeasible = 0
    for problem in SHAPES:
        blocks = rng.integers(1, 4, size=len(problem.node_ids))
        tight = dataclasses.replace(problem, capacity_mb=blocks * problem.demand_mb.max())
        want = exact(reference_brute_force, tight)
        assert exact(brute_force_makespan, tight) == want
        if want is None:
            infeasible += 1
        elif want != exact(reference_brute_force, problem):
            binding += 1
    assert infeasible > 0 and binding > 0


def test_pruned_search_equals_enumeration_on_tied_times():
    for problem in SHAPES:
        tied = dataclasses.replace(problem, t_eff=np.round(problem.t_eff * 2.0) / 2.0)
        assert exact(brute_force_makespan, tied) == exact(reference_brute_force, tied)


def test_pruned_search_equals_enumeration_on_4_nodes_x_9_tasks():
    seed = 0
    while (problem := oracle_instance(seed, max_tasks=9)).t_eff.shape != (4, 9):
        seed += 1
    assert exact(brute_force_makespan, problem) == exact(reference_brute_force, problem)


def test_oracle_suite_splits_its_time_between_search_and_colony():
    summary = experiment.run_oracle_suite(seeds=5, max_tasks=4, max_nodes=3)
    assert summary["below_optimum"] == 0
    assert summary["brute_force_s"] >= 0.0 and summary["colony_s"] >= 0.0
    assert summary["brute_force_s"] + summary["colony_s"] <= summary["elapsed_s"]


def test_a_colony_below_the_optimum_fails_the_suite_and_the_cli(monkeypatch, capsys):
    # an exact search that returns too large an optimum must not pass as a
    # better colony
    monkeypatch.setattr(
        experiment, "brute_force_makespan", lambda problem: 1.1 * brute_force_makespan(problem)
    )
    summary = experiment.run_oracle_suite(seeds=5, max_tasks=4, max_nodes=3)
    assert summary["below_optimum"] == 5
    assert summary["within_bound"] == 0
    assert summary["worst_ratio"] < 1.0
    code = cli_main(["oracle", "--seeds", "5", "--max-tasks", "4", "--max-nodes", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert "5 colony makespan(s) below the exhaustive optimum" in captured.err
