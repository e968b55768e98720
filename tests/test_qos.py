"""The QoS terms the colony minimises.

`aco.build_problem` prices every (node, task) cell: fetch-path extras
(queueing plus tier latency), link plus compute cost, and the replica
source the task reads from. `aco._solution_from_indices` turns each
assignment row into the plan's raw (delay, cost, loss), and `aco._weighted`
blends them into the weighted objective.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sccdso import aco
from sccdso.placement import place_rack_aware
from sccdso.workload import Application, partition, tasks_for

from conftest import FixedTimer, array_problem, make_cluster, workspace


def metrics(problem, assign):
    return aco._solution_from_indices(
        workspace(problem), np.array([assign], dtype=int), True)[0].metrics


def one_block_problem(block_mb=64.0, node_kw=None, **cluster_kw):
    """One 10-Gcycle task whose block lives on n0 only; n1 shares n0's
    rack, so its fetch crosses two links."""
    g = make_cluster(
        [
            {"id": nid, "rack": "r1", "cpu_ghz": 5.0, "io_mbps": 200.0, **(node_kw or {})}
            for nid in ("n0", "n1")
        ],
        bw=100.0,
        **cluster_kw,
    )
    app = Application(
        id="app0", input_mb=block_mb, block_size_mb=block_mb, gcycles_per_mb=10.0 / 64
    )
    blocks = partition(app)
    plan = place_rack_aware(g, blocks, "n0", rf=1)
    timer = FixedTimer({"n0": 1.0, "n1": 1.0})
    return aco.build_problem(g, plan, tasks_for(app, blocks), timer)


def test_delay_two_term_sum():
    # fetch-path extras plus the node's backlog, once per task it serves
    problem = array_problem([[3.5]], xtra_delay=[[0.5]])
    assert metrics(problem, [0])[0] == pytest.approx(4.0)


def test_delay_empty_path_is_zero():
    problem = array_problem([[2.0, 3.0]], xtra_delay=[[1.0, 1.0]], cost=[[1.0, 1.0]])
    assert metrics(problem, [-1, -1]) == (0.0, 0.0, 0.0)


def test_delay_queue_term_additive():
    base = one_block_problem()
    queued = one_block_problem(link_queue_delay_ms=250.0)
    assert metrics(queued, [1])[0] - metrics(base, [1])[0] == pytest.approx(0.5)
    assert metrics(queued, [0])[0] == metrics(base, [0])[0]  # local: no fetch


def test_cost_arithmetic():
    # remote: 64 MB over two links at 0.01 per MB, plus 10 Gcycles at 1e-10
    problem = one_block_problem(link_cost_per_mb=0.01)
    assert metrics(problem, [1])[1] == pytest.approx(2 * 0.64 + 1.0)
    assert metrics(problem, [0])[1] == pytest.approx(1.0)


def test_cost_zero_coefficients():
    problem = one_block_problem(node_kw={"cost_per_cycle": 0.0})
    assert metrics(problem, [0])[1] == 0.0
    assert metrics(problem, [1])[1] == 0.0


def test_cost_linear_in_carried_bytes():
    def fetch_cost(mb):
        problem = one_block_problem(
            block_mb=mb, node_kw={"cost_per_cycle": 0.0}, link_cost_per_mb=0.02
        )
        return metrics(problem, [1])[1]

    assert fetch_cost(128) == pytest.approx(2 * fetch_cost(64))


def test_loss_product_form():
    # task on n0 (p 0.1) reading its block from n1 (p 0.2)
    problem = array_problem(np.ones((2, 1)), src_idx=[[1], [-1]], loss_prob=[0.1, 0.2])
    assert metrics(problem, [0])[2] == pytest.approx(0.28)
    assert metrics(problem, [1])[2] == pytest.approx(0.2)  # local on n1


def test_loss_absorbing_and_empty():
    problem = array_problem(np.ones((2, 1)), src_idx=[[1], [-1]], loss_prob=[0.0, 1.0])
    assert metrics(problem, [0])[2] == 1.0  # lossless node, certain loss at the source
    assert metrics(problem, [1])[2] == 1.0
    assert metrics(problem, [-1])[2] == 0.0


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1)),
        min_size=1,
        max_size=8,
    )
)
def test_loss_bounds_and_order_independence(pairs):
    # task j runs on node 2j and reads from node 2j + 1, or the other way round
    b = len(pairs)
    cols = np.arange(b)
    src = np.full((2 * b, b), -1)
    src[2 * cols, cols] = 2 * cols + 1
    src[2 * cols + 1, cols] = 2 * cols
    problem = array_problem(
        np.ones((2 * b, b)), src_idx=src, loss_prob=np.array(pairs).ravel()
    )
    loss = metrics(problem, 2 * cols)[2]
    assert 0.0 <= loss <= 1.0
    assert loss == pytest.approx(metrics(problem, 2 * cols + 1)[2])


def test_loss_matches_monte_carlo():
    rng = np.random.default_rng(0)
    probs = rng.uniform(0, 0.4, size=2)
    problem = array_problem(np.ones((2, 1)), src_idx=[[1], [-1]], loss_prob=probs)
    exact = metrics(problem, [0])[2]
    n = 1_000_000
    hits = (rng.random((n, len(probs))) < probs[None, :]).any(axis=1).mean()
    sigma = np.sqrt(exact * (1 - exact) / n)
    assert abs(hits - exact) <= 3 * sigma + 1e-9


cell = st.tuples(*[st.floats(min_value=0, max_value=100)] * 3)  # (t_eff, extras, cost)


@given(st.lists(cell, max_size=5), st.lists(cell, max_size=5))
def test_delay_and_cost_additive_under_concat(spec_a, spec_b):
    # plan a runs on n0 and plan b on n1, so joining them adds no backlog
    spec = np.array(spec_a + spec_b, dtype=float).reshape(-1, 3)
    t_eff, xtra, cost = (np.tile(spec[:, k], (2, 1)) for k in range(3))
    problem = array_problem(t_eff, xtra_delay=xtra, cost=cost)
    na, nb = len(spec_a), len(spec_b)
    joined = metrics(problem, [0] * na + [1] * nb)
    a = metrics(problem, [0] * na + [-1] * nb)
    b = metrics(problem, [-1] * na + [1] * nb)
    assert joined[0] == pytest.approx(a[0] + b[0])
    assert joined[1] == pytest.approx(a[1] + b[1])


def test_objective_convexity_points():
    assert aco._weighted((1.0, 1.0, 1.0), (1, 1, 1)) == pytest.approx(1.0)
    assert aco._weighted((0.0, 0.0, 0.0), (1, 1, 1)) == 0.0


def test_objective_monotone_in_each_metric():
    base = aco._weighted((0.4, 0.4, 0.4), (1, 1, 1))
    for bump in ((0.5, 0.4, 0.4), (0.4, 0.5, 0.4), (0.4, 0.4, 0.5)):
        assert aco._weighted(bump, (1, 1, 1)) > base
