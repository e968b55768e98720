"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Tolerances are pinned here, not tuned at runtime.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines go by;
the full suite takes a few minutes (the single-copy sweep and the straggler
sweep dominate).
"""

import json
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from sccdso import aco, experiment, predictor as pred, sim
from sccdso.cli import main as cli_main
from sccdso.cluster import build_cluster, load_cluster_config, synthetic_cluster_config

from conftest import array_problem, workspace

CLUSTER_50 = os.path.join(os.path.dirname(__file__), "..", "configs", "cluster_50.json")
CLUSTER_25 = os.path.join(os.path.dirname(__file__), "..", "configs", "cluster_25.json")


def report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def test_01_oracle_optimality():
    t0 = time.perf_counter()
    summary = experiment.run_oracle_suite(
        seeds=100, max_tasks=8, max_nodes=4, preset="table1", ratio_bound=1.05
    )
    elapsed = time.perf_counter() - t0
    ok = summary["within_bound"] >= 95 and summary["below_optimum"] == 0 and elapsed < 60.0
    report(
        1,
        ok,
        f"{summary['within_bound']}/100 instances within 1.05x of the "
        f"exhaustive optimum (worst {summary['worst_ratio']:.3f}, "
        f"{summary['below_optimum']} below it) in {elapsed:.1f}s",
    )


def test_02_constraint_soundness():
    violations = 0
    floor_breaches = 0
    cfg = aco.AcoConfig(ants=3, max_iters=3)
    for k in range(10_000):
        problem = experiment.oracle_instance(100_000 + k, max_tasks=5, max_nodes=4)
        res = aco.solve_problem(problem, cfg, seed=k)
        sol = res.best
        if set(sol.assignment) != set(problem.task_ids):
            violations += 1
        used: dict[str, float] = {}
        for tid, nid in sol.assignment.items():
            j = problem.task_ids.index(tid)
            used[nid] = used.get(nid, 0.0) + float(problem.demand_mb[j])
        for nid, total in used.items():
            cap = problem.capacity_mb[problem.node_ids.index(nid)]
            if total > cap + 1e-9:
                violations += 1
        if (res.pheromones < aco.TAU_FLOOR - 1e-15).any():
            floor_breaches += 1
    report(
        2,
        violations == 0 and floor_breaches == 0,
        f"10,000 fuzzed solves: {violations} constraint violations, "
        f"{floor_breaches} pheromone floor breaches",
    )


def test_03_analytic_qos_checks():
    # the colony's own per-plan metrics, as construct_solution and the
    # baselines compute them
    rng = np.random.default_rng(0)
    worst_loss_err = 0.0
    for _ in range(1000):
        n, b = int(rng.integers(2, 6)), int(rng.integers(1, 9))
        p = rng.uniform(0, 1, size=n)
        src = rng.integers(-1, n, size=(n, b))  # -1: the task's data is local
        problem = array_problem(np.ones((n, b)), src_idx=src, loss_prob=p)
        assign = rng.integers(0, n, size=b)
        ws = workspace(problem)
        loss = aco._solution_from_indices(ws, assign[None], True)[0].metrics[2]
        chosen = src[assign, np.arange(b)]
        p_src = np.where(chosen >= 0, p[np.maximum(chosen, 0)], 0.0)
        closed_form = float(np.mean(1.0 - (1.0 - p[assign]) * (1.0 - p_src)))
        worst_loss_err = max(worst_loss_err, abs(loss - closed_form))

    # dyadic magnitudes make float sums associativity-exact, so additivity
    # over disjoint halves and the delay closed form are asserted with
    # equality, not tolerance
    exact = True
    for s in range(500):
        r = np.random.default_rng(s)
        n, b = int(r.integers(2, 6)), int(r.integers(2, 9))
        t_eff, xtra, cost = r.integers(1, 2**10, size=(3, n, b)) / 2.0**5
        problem = array_problem(t_eff, xtra_delay=xtra, cost=cost)
        assign = r.integers(0, n, size=b)
        half = r.random(b) < 0.5
        ws = workspace(problem)
        metrics = aco._solution_from_indices(ws, assign[None], True)[0].metrics
        first = aco._solution_from_indices(ws, np.where(half, assign, -1)[None], True)[0]
        second = aco._solution_from_indices(ws, np.where(half, -1, assign)[None], True)[0]
        exact &= metrics[1] == first.metrics[1] + second.metrics[1]
        cols = np.arange(b)
        counts = np.bincount(assign, minlength=n)
        loads = np.bincount(assign, weights=t_eff[assign, cols], minlength=n)
        exact &= metrics[0] == xtra[assign, cols].sum() + (counts * loads).sum()
    report(
        3,
        worst_loss_err <= 1e-12 and exact,
        f"solver loss within {worst_loss_err:.1e} of the closed form on 1000 plans; "
        f"cost additivity over disjoint halves and the delay closed form exact "
        f"on 500 dyadic plans",
    )


def test_04_predictor_quality():
    rng = np.random.default_rng(0)
    n = 200
    m = rng.uniform(8, 64, n)
    cpu = rng.uniform(1, 4, n)
    mem = rng.uniform(2, 32, n)
    io = rng.uniform(50, 400, n)
    t = 0.5 * m / io + rng.normal(0, 0.05, n)
    records = [
        pred.ExecRecord((m[i], cpu[i], mem[i], io[i]), max(float(t[i]), 1e-3))
        for i in range(n)
    ]
    model = pred.fit_kernel(records[:160], sigma=1.0, learning_rate=0.05, epochs=400)
    feats = np.array([r.features for r in records[160:]])
    mae = float(
        np.mean(
            np.abs(model.predict_features(feats) - [r.observed_time_s for r in records[160:]])
        )
    )

    feats_g = np.array([r.features for r in records[:10]])
    targets_g = np.array([r.observed_time_s for r in records[:10]])
    std = feats_g.std(axis=0)
    std[std == 0] = 1
    x = (feats_g - feats_g.mean(axis=0)) / std
    gram = pred.rbf_kernel(x, x, 1.0)
    w = rng.normal(0, 0.1, 10)
    b = 0.2
    _, grad_w, grad_b = pred.loss_and_gradient(w, b, gram, targets_g)
    h = 1e-6
    worst_rel = 0.0
    for i in range(10):
        wp, wm = w.copy(), w.copy()
        wp[i] += h
        wm[i] -= h
        num = (
            pred.loss_and_gradient(wp, b, gram, targets_g)[0]
            - pred.loss_and_gradient(wm, b, gram, targets_g)[0]
        ) / (2 * h)
        worst_rel = max(worst_rel, abs(num - grad_w[i]) / max(abs(num), 1e-8))
    num_b = (
        pred.loss_and_gradient(w, b + h, gram, targets_g)[0]
        - pred.loss_and_gradient(w, b - h, gram, targets_g)[0]
    ) / (2 * h)
    worst_rel = max(worst_rel, abs(num_b - grad_b) / max(abs(num_b), 1e-8))
    report(
        4,
        mae <= 0.10 and worst_rel < 1e-5,
        f"held-out MAE {mae:.3f}s (budget 0.10); gradient vs central "
        f"differences within {worst_rel:.1e} (budget 1e-5)",
    )


def test_05_single_copy_headline():
    t0 = time.perf_counter()
    g = build_cluster(load_cluster_config(CLUSTER_50))
    cfg = experiment.ExperimentConfig()
    cache = experiment._PredictorCache()
    margins = {}
    ok = True
    for size in (20, 40, 60, 80, 100):
        means = {}
        for scheduler in ("scc-dso", "rf-fd", "rsync"):
            vals = []
            for rep in range(50):
                seed = experiment.derive_seed(42, "completion-by-file-size", f"{size}MB", scheduler, rep)
                w = experiment._single_app_workload(size, 16.0, 1, cfg, seed)
                trace = experiment.run_pipeline(
                    g, w, scheduler, seed, cache=cache
                )
                vals.append(trace.metrics.completion_time_s)
            means[scheduler] = float(np.mean(vals))
        margin = (means["rf-fd"] - means["scc-dso"]) / means["rf-fd"]
        margins[size] = margin
        ok &= margin >= 0.05 and means["scc-dso"] < means["rsync"]
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    report(
        5,
        ok,
        "mean completion beats the first-fit baseline by "
        + ", ".join(f"{s}MB:{m * 100:.0f}%" for s, m in margins.items())
        + f" (budget ≥5% each) and the sync baseline everywhere; {elapsed:.0f}s of 300s",
    )


def test_06_locality_band():
    cfg = experiment.ExperimentConfig()
    cache = experiment._PredictorCache()
    summary = []
    ok = True
    for n in (10, 20, 30, 40, 50):
        g = build_cluster(synthetic_cluster_config(n))
        loc = {}
        for scheduler in ("scc-dso", "rf-fd", "rsync"):
            vals = []
            for rep in range(20):
                seed = experiment.derive_seed(42, "locality-by-cluster-size", str(n), scheduler, rep)
                w = experiment._single_app_workload(1664, 64, 2, cfg, seed)
                trace = experiment.run_pipeline(
                    g, w, scheduler, seed, cache=cache
                )
                vals.append(trace.metrics.locality_ratio)
            loc[scheduler] = float(np.mean(vals))
        ok &= loc["scc-dso"] >= 0.85
        ok &= loc["scc-dso"] > loc["rf-fd"] and loc["scc-dso"] > loc["rsync"]
        summary.append(f"{n}:{loc['scc-dso'] * 100:.0f}%")
    report(6, ok, "locality ≥85% and above both baselines at every size: " + ", ".join(summary))


def test_07_straggler_dominance():
    cfg = experiment.ExperimentConfig()
    cache = experiment._PredictorCache()
    results = []
    ok = True
    for n in (60, 70, 80, 90, 100):
        g = build_cluster(synthetic_cluster_config(n))
        wins = 0
        for rep in range(100):
            seed = experiment.derive_seed(42, "straggler-completion", str(n), "cmp", rep)
            w = experiment._single_app_workload(1664, 64, 2, cfg, seed)
            view = sim.inject_stragglers(g, 0.1, 4.0, seed)
            ours = experiment.run_pipeline(
                g, w, "scc-dso", seed, cache=cache, sim_cluster=view
            )
            base = experiment.run_pipeline(
                g, w, "rf-fd", seed, cache=cache, sim_cluster=view
            )
            wins += ours.metrics.completion_time_s < base.metrics.completion_time_s
        ok &= wins >= 90
        results.append(f"{n}:{wins}/100")
    report(7, ok, "completion beats first-fit under 10% 4x stragglers: " + ", ".join(results))


def test_08_lightweight_fidelity():
    # scc-dso-lite is scc-dso with the linear predictor: its locality stays
    # within 90% of scc-dso's
    g = build_cluster(load_cluster_config(CLUSTER_25))
    cfg = experiment.ExperimentConfig()
    cache = experiment._PredictorCache()
    full_loc, lite_loc = [], []
    for rep in range(20):
        seed = experiment.derive_seed(42, "lightweight", "25", "pair", rep)
        w = experiment._single_app_workload(1664, 64, 2, cfg, seed)
        full = experiment.run_pipeline(g, w, "scc-dso", seed, cache=cache)
        lite = experiment.run_pipeline(g, w, "scc-dso-lite", seed, cache=cache)
        full_loc.append(full.metrics.locality_ratio)
        lite_loc.append(lite.metrics.locality_ratio)
    ratio = float(np.mean(lite_loc)) / max(float(np.mean(full_loc)), 1e-9)
    report(
        8,
        ratio >= 0.90,
        f"scc-dso-lite locality is {ratio * 100:.0f}% of scc-dso's (budget ≥90%)",
    )


def test_09_adaptive_runtime_monotonicity():
    g = build_cluster(load_cluster_config(CLUSTER_25))
    cfg = experiment.ExperimentConfig()
    cache = experiment._PredictorCache()
    regressions = 0
    engaged = 0
    for rep in range(100):
        seed = experiment.derive_seed(42, "monotonic", "25", "rr", rep)
        w = experiment._single_app_workload(8320, 64, 2, cfg, seed)  # deep queues
        sched = experiment.schedule(g, w, "rr", seed, cache=cache)
        on_rt, off_rt = (replace(sched.runtime, enable_migration=m) for m in (True, False))
        on = experiment.execute(replace(sched, runtime=on_rt), g, w)
        off = experiment.execute(replace(sched, runtime=off_rt), g, w)
        if on.metrics.completion_time_s > off.metrics.completion_time_s + 1e-9:
            regressions += 1
        if on.metrics.migrations > 0:
            engaged += 1
    report(
        9,
        regressions == 0 and engaged > 0,
        f"adaptive runtime never slower on 100 multi-copy instances "
        f"(0 allowed, saw {regressions}); engaged in {engaged}/100",
    )


def test_10_reproducible_runs(tmp_path):
    config = {
        "schedulers": ["rr", "scc-dso"],
        "scenarios": ["completion-by-file-size"],
        "repetitions": 2,
        "file_sizes_mb": [20, 40],
        "seed": 42,
        "cluster": os.path.abspath(CLUSTER_50),
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(config))
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli_main(["run", "--config", str(path), "--out", out1]) == 0
    assert cli_main(["run", "--config", str(path), "--out", out2]) == 0
    identical = True
    for name in sorted(os.listdir(out1)):
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        identical &= a == b
    report(10, identical, "two runs with identical config and seed emit byte-identical CSVs")
