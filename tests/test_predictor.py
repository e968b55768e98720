import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

import sccdso.predictor as predictor_mod
from sccdso.cluster import NodeSpec, build_cluster, load_cluster_config, synthetic_cluster_config
from sccdso.predictor import (
    ExecRecord,
    FeatureRegression,
    KernelModel,
    LinearModel,
    fit_feature_regression,
    features_for,
    fit_kernel,
    loss_and_gradient,
    rbf_kernel,
)
from sccdso.sim import TrueTimeModel
from sccdso.workload import TaskSpec

CLUSTER_100 = os.path.join(os.path.dirname(__file__), "..", "configs", "cluster_100.json")


def node(nid="n", cpu=2.0, mem=8.0, io=200.0):
    return NodeSpec(id=nid, cpu_ghz=cpu, mem_gb=mem, io_mbps=io, rack="r", capacity_mb=1024)


def task(mb=32.0, demand=0.5, gcycles=2.0):
    return TaskSpec(id="t", block_id="b", block_mb=mb, resource_demand=demand, compute_gcycles=gcycles)


def synth_records(rng, n, fn):
    m = rng.uniform(8, 64, n)
    cpu = rng.uniform(1, 4, n)
    mem = rng.uniform(2, 32, n)
    io = rng.uniform(50, 400, n)
    t = fn(m, cpu, mem, io) + rng.normal(0, 0.05, n)
    return [
        ExecRecord((m[i], cpu[i], mem[i], io[i]), max(float(t[i]), 1e-3))
        for i in range(n)
    ]


def test_kernel_value_at_zero_distance_is_one():
    x = np.array([[1.0, 2.0, 3.0, 4.0]])
    for sigma in (0.5, 1.0, 2.0):
        assert rbf_kernel(x, x, sigma)[0, 0] == pytest.approx(1.0)


@given(
    st.lists(st.floats(min_value=-5, max_value=5), min_size=4, max_size=4),
    st.lists(st.floats(min_value=-5, max_value=5), min_size=4, max_size=4),
    st.floats(min_value=0.5, max_value=2.0),
)
def test_kernel_symmetric_and_bounded(a, b, sigma):
    xa = np.array([a])
    xb = np.array([b])
    k_ab = rbf_kernel(xa, xb, sigma)[0, 0]
    k_ba = rbf_kernel(xb, xa, sigma)[0, 0]
    assert k_ab == pytest.approx(k_ba)
    assert 0.0 < k_ab <= 1.0


def test_kernel_equals_its_out_of_place_formula_bitwise():
    # rbf_kernel scales the product in place; this is the same arithmetic
    # written with temporaries, step for step
    rng = np.random.default_rng(11)
    for trial in range(120):
        a = rng.standard_normal((int(rng.integers(1, 40)), 4)) * rng.uniform(0.1, 5.0)
        b = a if trial % 3 == 0 else rng.standard_normal((int(rng.integers(1, 250)), 4))
        sigma = 1.0 if trial % 2 else float(rng.uniform(0.2, 3.0))
        sq = (
            np.sum(a * a, axis=1)[:, None]
            - 2.0 * np.einsum("ik,jk->ij", a, b)
            + np.sum(b * b, axis=1)[None, :]
        )
        want = np.exp(-np.maximum(sq, 0.0) / (2.0 * sigma * sigma))
        assert rbf_kernel(a, b, sigma).tobytes() == want.tobytes()


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(3)
    records = synth_records(rng, 8, lambda m, c, me, io: 0.5 * m / io)
    feats = np.array([r.features for r in records])
    targets = np.array([r.observed_time_s for r in records])
    std = feats.std(axis=0)
    std[std == 0] = 1
    x = (feats - feats.mean(axis=0)) / std
    gram = rbf_kernel(x, x, 1.0)
    w = rng.normal(0, 0.1, len(records))
    b = 0.3
    _, grad_w, grad_b = loss_and_gradient(w, b, gram, targets)
    h = 1e-6
    for i in range(len(w)):
        wp, wm = w.copy(), w.copy()
        wp[i] += h
        wm[i] -= h
        num = (
            loss_and_gradient(wp, b, gram, targets)[0]
            - loss_and_gradient(wm, b, gram, targets)[0]
        ) / (2 * h)
        assert abs(num - grad_w[i]) / max(abs(num), 1e-8) < 1e-5
    num_b = (
        loss_and_gradient(w, b + h, gram, targets)[0]
        - loss_and_gradient(w, b - h, gram, targets)[0]
    ) / (2 * h)
    assert abs(num_b - grad_b) / max(abs(num_b), 1e-8) < 1e-5


def test_fit_reaches_holdout_mae_budget():
    # oracle: generate from a known function, fit, evaluate on held-out rows
    rng = np.random.default_rng(0)
    records = synth_records(rng, 200, lambda m, c, me, io: 0.5 * m / io)
    train, test = records[:160], records[160:]
    model = fit_kernel(train, sigma=1.0, learning_rate=0.05, epochs=400)
    feats = np.array([r.features for r in test])
    mae = float(
        np.mean(np.abs(model.predict_features(feats) - [r.observed_time_s for r in test]))
    )
    assert mae <= 0.10


def test_training_loss_non_increasing():
    rng = np.random.default_rng(1)
    model = fit_kernel(
        synth_records(rng, 60, lambda m, c, me, io: 0.5 * m / io), epochs=200
    )
    diffs = np.diff(model.loss_history)
    assert np.all(diffs <= 1e-9)
    assert model.loss_history[-1] < model.loss_history[0]


def test_degenerate_records_collapse_to_bias():
    rec = ExecRecord((32.0, 2.0, 8.0, 200.0), 1.7)
    model = fit_kernel([rec, rec, rec])
    assert model.degenerate
    assert model.predict(node(), task()) == pytest.approx(1.7)


def test_faster_cpu_predicts_lower_time():
    rng = np.random.default_rng(1)
    records = synth_records(rng, 200, lambda m, c, me, io: 0.5 * m / io + 0.8 / c)
    model = fit_kernel(records, epochs=400)
    slow = node("slow", cpu=1.5)
    fast = node("fast", cpu=3.0)
    assert model.predict(fast, task()) < model.predict(slow, task())


def test_linear_model_noiseless_prediction():
    model = LinearModel()
    assert model.predict(node(), task(demand=0.6)) == pytest.approx(0.40)
    # affine and deterministic
    assert model.predict(node(), task(demand=0.6)) == model.predict(None, task(demand=0.6))


def test_kernel_predict_touches_each_support_once(monkeypatch):
    rng = np.random.default_rng(5)
    records = synth_records(rng, 40, lambda m, c, me, io: 0.5 * m / io)
    model = fit_kernel(records, epochs=50)
    counted = {"pairs": 0}
    real = predictor_mod.rbf_kernel

    def counting(a, b, sigma):
        out = real(a, b, sigma)
        counted["pairs"] += out.size
        return out

    monkeypatch.setattr(predictor_mod, "rbf_kernel", counting)
    model.predict(node(), task())
    assert counted["pairs"] == len(model.supports)  # exactly S kernel evaluations

    counted["pairs"] = 0
    LinearModel().predict(node(), task())
    assert counted["pairs"] == 0  # constant-time path, no kernel work


def test_support_set_capped_by_reservoir():
    rng = np.random.default_rng(6)
    records = synth_records(rng, 300, lambda m, c, me, io: 0.5 * m / io)
    model = fit_kernel(records, epochs=10, s_max=128)
    assert len(model.supports) == 128


def test_fit_input_validation():
    rng = np.random.default_rng(7)
    records = synth_records(rng, 10, lambda m, c, me, io: 0.5 * m / io)
    with pytest.raises(ValueError):
        fit_kernel(records[:1])
    with pytest.raises(ValueError):
        fit_kernel(records, learning_rate=0.5)
    with pytest.raises(ValueError):
        fit_kernel(records, sigma=0.0)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        (dict(sigma=float("nan")), "sigma"),
        (dict(sigma=float("inf")), "sigma"),
        (dict(epochs=-5), "epochs"),
        (dict(epochs=2.5), "epochs"),
        (dict(s_max=0), "s_max"),
        (dict(s_max=1), "s_max"),
        (dict(s_max=2.5), "s_max"),
    ],
    ids=["sigma-nan", "sigma-inf", "epochs-negative", "epochs-float",
         "s_max-0", "s_max-1", "s_max-float"],
)
def test_fit_kernel_rejects_a_bad_argument_by_name(kwargs, name):
    # unchecked, sigma=nan fits a model that predicts NaN, sigma=inf and
    # epochs=-5 pass silently, s_max=0 or 2.5 fails inside numpy or range()
    # and s_max=1 fits a degenerate model
    records = synth_records(np.random.default_rng(7), 10, lambda m, c, me, io: 0.5 * m / io)
    with pytest.raises(ValueError, match=name):
        fit_kernel(records, **kwargs)


@pytest.mark.parametrize("fit", [fit_kernel, fit_feature_regression])
@pytest.mark.parametrize(
    "features, time_s, message",
    [
        ((32.0, 2.0, 8.0, 200.0), float("nan"), "observed_time_s"),
        ((32.0, 2.0, 8.0, 200.0), float("inf"), "observed_time_s"),
        ((32.0, 2.0, 8.0, 200.0), 0.0, "observed_time_s"),
        ((float("nan"), 2.0, 8.0, 200.0), 1.0, "features"),
        ((32.0, float("inf"), 8.0, 200.0), 1.0, "features"),
        ((32.0, 2.0, -8.0, 200.0), 1.0, "features"),
    ],
    ids=["time-nan", "time-inf", "time-zero", "feature-nan", "feature-inf", "feature-negative"],
)
def test_both_fits_reject_a_bad_record(fit, features, time_s, message):
    # one check, ExecRecord.validate, for both fits: a NaN or infinite time
    # must not pass it, and an unchecked NaN feature reaches LAPACK in the
    # regression as "SVD did not converge"
    records = synth_records(np.random.default_rng(7), 10, lambda m, c, me, io: 0.5 * m / io)
    bad = ExecRecord(features, time_s)
    with pytest.raises(ValueError, match=message):
        bad.validate()
    with pytest.raises(ValueError, match=message):
        fit(records[:5] + [bad] + records[5:])


def test_feature_regression_recovers_linear_map():
    rng = np.random.default_rng(9)
    records = synth_records(rng, 200, lambda m, c, me, io: 0.02 * m + 0.1 * c)
    reg = fit_feature_regression(records)
    assert isinstance(reg, FeatureRegression)
    probe_node, probe_task = node(cpu=2.0), task(mb=40.0)
    expected = 0.02 * 40 + 0.1 * 2.0
    assert reg.predict(probe_node, probe_task) == pytest.approx(expected, abs=0.05)


def per_pair_rows(nodes, tasks):
    return np.array([features_for(n, t) for n in nodes for t in tasks], dtype=float)


def grid_cases(rng):
    """(nodes, tasks) pairs: 1 node, 1 task, both, the four hardware tiers
    of a synthetic cluster in shuffled subsets, all-distinct hardware, and
    uniform or mixed block sizes; grid sizes cover every remainder mod 4."""
    tiered = [n for _, n in sorted(build_cluster(synthetic_cluster_config(30)).nodes.items())]
    distinct = [
        node(f"d{i}", cpu=float(rng.uniform(1, 4)), mem=float(rng.uniform(2, 32)),
             io=float(rng.uniform(50, 400)))
        for i in range(12)
    ]
    for trial in range(60):
        pool = distinct if trial % 5 == 4 else tiered
        count = 1 if trial % 6 == 0 else int(rng.integers(1, 21))
        nodes = [pool[i] for i in rng.permutation(len(pool))[:count]]
        b = 1 if trial % 7 == 0 else int(rng.integers(1, 26))
        sizes = [64.0] if trial % 3 == 0 else [64.0, 32.0, 16.0, 5.5]
        tasks = [task(mb=float(rng.choice(sizes))) for _ in range(b)]
        yield nodes, tasks


def test_predict_matrix_bitwise_equals_per_pair_rows():
    # bitwise against predict_features over the per-pair rows, and for the
    # regression against a BLAS product over them; every grid (<= 500 rows)
    # stays below the size at which BLAS splits a matrix-vector product
    # across threads.
    rng = np.random.default_rng(12)
    records = synth_records(rng, 60, lambda m, c, me, io: 0.5 * m / io + 0.8 / c)
    models = [
        fit_kernel(records, epochs=60, s_max=16),
        fit_kernel([ExecRecord((32.0, 2.0, 8.0, 200.0), 1.7)] * 3),
        fit_feature_regression(records),
    ]
    assert models[1].degenerate and len(models[0].supports) == 16
    for nodes, tasks in grid_cases(rng):
        rows = per_pair_rows(nodes, tasks)
        for model in models:
            got = model.predict_matrix(nodes, tasks)
            if isinstance(model, KernelModel):
                want = model.predict_features(rows).reshape(len(nodes), len(tasks))
            else:
                want = np.maximum(model.theta[0] + rows @ model.theta[1:], 1e-3).reshape(
                    len(nodes), len(tasks)
                )
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_predict_is_one_cell_of_the_table():
    # one definition: predict(n, t) is its table cell, and a sub-grid's
    # table is the matching block of the full one, bitwise, for every
    # model, over the mixed grids and the 100-node shipped cluster
    rng = np.random.default_rng(15)
    records = synth_records(rng, 60, lambda m, c, me, io: 0.5 * m / io + 0.8 / c)
    models = [
        fit_kernel(records, epochs=60),
        fit_kernel([ExecRecord((32.0, 2.0, 8.0, 200.0), 1.7)] * 3),
        fit_feature_regression(records),
        LinearModel(),
        TrueTimeModel(),
    ]
    assert models[1].degenerate
    g = build_cluster(load_cluster_config(CLUSTER_100))
    shipped = ([g.node(n) for n in g.node_ids()], [task(mb=(64.0, 32.0)[k % 2]) for k in range(30)])
    for nodes, tasks in [*grid_cases(rng), shipped]:
        sub_n = sorted(rng.permutation(len(nodes))[: max(1, len(nodes) // 2)].tolist())
        sub_t = rng.permutation(len(tasks))[: max(1, len(tasks) // 2)].tolist()
        for model in models:
            table = model.predict_matrix(nodes, tasks)
            cells = np.array([[model.predict(n, t) for t in tasks] for n in nodes])
            assert cells.tobytes() == table.tobytes()
            sub = model.predict_matrix([nodes[i] for i in sub_n], [tasks[j] for j in sub_t])
            assert sub.tobytes() == table[np.ix_(sub_n, sub_t)].tobytes()


class BadCells:
    """Predictor stub: 1.0 s on every cell but `bad`, a {(node id, task
    index): seconds} map."""

    def __init__(self, bad):
        self.bad = bad

    def predict_matrix(self, nodes, tasks):
        return np.array([[self.bad.get((n.id, j), 1.0) for j in range(len(tasks))] for n in nodes])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
def test_a_prediction_not_finite_and_positive_is_an_error(value):
    # a NaN time used to price plans at NaN, which compares false, so a
    # solve, rf-fd and round robin returned makespan nan marked feasible;
    # the error names the first bad (node, task) in node-then-task order,
    # wherever the table is read
    from sccdso import aco
    from sccdso.placement import place_heterogeneous, place_random
    from sccdso.workload import Application, partition, tasks_for

    g = build_cluster(synthetic_cluster_config(10))
    app = Application(id="app0", input_mb=8 * 64, block_size_mb=64, replication_factor=2)
    blocks = partition(app)
    tasks = tasks_for(app, blocks)
    plan = place_random(g, blocks, 2, seed=0)
    ids = g.node_ids()
    stub = BadCells({(ids[3], 2): value, (ids[3], 5): value, (ids[6], 0): value})
    first = f"node {ids[3]}, task {tasks[2].id}"
    with pytest.raises(ValueError, match=first):
        predictor_mod.predict_table(g, tasks, stub)
    with pytest.raises(ValueError, match=first):
        aco.build_problem(g, plan, tasks, stub)
    for baseline in (aco.baseline_rf_fd, aco.baseline_round_robin):
        with pytest.raises(ValueError, match=first):
            baseline(tasks, g, plan, stub)
    # placement predicts one reference task per node
    with pytest.raises(ValueError, match=f"node {ids[6]}, task __ref__"):
        place_heterogeneous(g, blocks, BadCells({(ids[6], 0): value}), {"app0": 2})
    # an all-NaN table names its first cell
    everywhere = BadCells({(nid, j): value for nid in ids for j in range(len(tasks))})
    with pytest.raises(ValueError, match=f"node {ids[0]}, task {tasks[0].id}"):
        aco.build_problem(g, plan, tasks, everywhere)
    # a table of positive finite times passes through as it is
    good = BadCells({(ids[3], 2): 1e300, (ids[6], 0): 5e-324})
    table = predictor_mod.predict_table(g, tasks, good)
    assert table[3, 2] == 1e300 and table[6, 0] == 5e-324
