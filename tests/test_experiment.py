import json
import os
import pathlib
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import sccdso
from sccdso import aco, experiment, predictor as pred, sim, workload as wl
from sccdso.cli import main as cli_main
from sccdso.cluster import build_cluster, load_cluster_config, synthetic_cluster_config
from sccdso.experiment import (
    AggregateRow,
    ExperimentConfig,
    ExperimentResult,
    aggregate,
    config_from_dict,
    derive_seed,
    emit,
    run_experiment,
)

from conftest import workspace


REPO = pathlib.Path(__file__).resolve().parents[1]


def tiny_config(**kw):
    base = dict(
        schedulers=("rr", "rsync"),
        scenarios=("completion-by-file-size",),
        repetitions=2,
        file_sizes_mb=(20, 40),
        seed=7,
    )
    base.update(kw)
    cfg = ExperimentConfig(**base)
    cfg.validate()
    return cfg


def test_aggregate_examples():
    assert aggregate([2, 2, 2])[:2] == (2.0, 0.0)
    mean, sd, ci = aggregate([1, 3])
    assert (mean, sd) == (2.0, 1.0)
    assert ci == pytest.approx(1.96 * 1.0 / np.sqrt(2))


def test_aggregate_ci_shrinks_like_inverse_sqrt_n():
    rng = np.random.default_rng(0)
    pool = rng.normal(10, 2, 6400).tolist()
    widths = [aggregate(pool[:n])[2] for n in (100, 400, 1600, 6400)]
    for a, b in zip(widths, widths[1:]):
        assert b < a
        assert b == pytest.approx(a / 2, rel=0.3)  # quadrupling n halves it


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        aggregate([])


def test_derived_seeds_are_scheduler_independent():
    a = derive_seed(42, "sc", "cell", "rr", 3)
    b = derive_seed(42, "sc", "cell", "rr", 3)
    assert a == b
    # adding another scheduler never perturbs this cell's stream
    assert derive_seed(42, "sc", "cell", "scc-dso", 3) != a
    assert derive_seed(42, "sc", "other", "rr", 3) != a


def test_run_experiment_covers_every_cell():
    cfg = tiny_config()
    result = run_experiment(cfg)
    assert not result.failures
    cells = {
        (r.scenario, r.cell, r.scheduler)
        for r in result.aggregates
        if r.metric == "completion_time_s"
    }
    assert cells == {
        ("completion-by-file-size", "20MB", "rr"),
        ("completion-by-file-size", "20MB", "rsync"),
        ("completion-by-file-size", "40MB", "rr"),
        ("completion-by-file-size", "40MB", "rsync"),
    }
    assert len(result.runs) == 2 * 2 * 2


def test_cell_failure_is_isolated(monkeypatch):
    real = experiment.run_pipeline

    def flaky(g, workload, scheduler, seed, **kw):
        if scheduler == "rsync":
            raise RuntimeError("boom")
        return real(g, workload, scheduler, seed, **kw)

    monkeypatch.setattr(experiment, "run_pipeline", flaky)
    result = run_experiment(tiny_config())
    assert len(result.failures) == 2  # one per rsync cell
    ok = {r.scheduler for r in result.aggregates}
    assert ok == {"rr"}
    for f in result.failures:
        assert "boom" in f["error"]


def test_emit_csv_quoting_and_layout(tmp_path):
    result = ExperimentResult(
        aggregates=[
            AggregateRow("completion-by-file-size", 'cell,with"quote', "rr",
                         "completion_time_s", 1.0, 0.5, 0.2, 4)
        ],
        runs=[],
    )
    paths = emit(result, str(tmp_path), fmt="csv")
    body = open(paths[1], encoding="utf-8").read()
    assert '"cell,with""quote"' in body  # RFC 4180 quoting


def test_emit_formats(tmp_path):
    cfg = tiny_config(repetitions=1, file_sizes_mb=(20,))
    result = run_experiment(cfg)
    for fmt in ("csv", "json", "md"):
        out = tmp_path / fmt
        paths = emit(result, str(out), fmt=fmt)
        assert any(p.endswith("runs.csv") for p in paths)
        table = [p for p in paths if "completion-by-file-size" in p][0]
        text = open(table, encoding="utf-8").read()
        if fmt == "md":
            assert text.startswith("### completion-by-file-size")
            assert "| cell |" in text
        elif fmt == "json":
            rows = json.loads(text)
            assert all({"cell", "scheduler", "metric", "mean"} <= set(r) for r in rows)
        else:
            assert text.splitlines()[0].startswith("cell,scheduler,metric,mean")


def test_markdown_table_lists_cells_in_run_order(tmp_path):
    # a block-size sweep runs each block size's file sizes in turn; the
    # markdown table keeps that order, as the CSV does
    cfg = tiny_config(repetitions=1, schedulers=("rr",), block_sizes_mb=(16, 32),
                      file_sizes_mb=(20, 100))
    result = run_experiment(cfg)
    order = ["20MB/b16", "100MB/b16", "20MB/b32", "100MB/b32"]
    tables = {}
    for fmt in ("csv", "md"):
        paths = emit(result, str(tmp_path / fmt), fmt=fmt)
        table = [p for p in paths if "completion-by-file-size" in p][0]
        tables[fmt] = open(table, encoding="utf-8").read().splitlines()
    csv_cells = [line.split(",")[0] for line in tables["csv"][1:]]
    assert list(dict.fromkeys(csv_cells)) == order
    md_cells = [line.split(" | ")[0][2:] for line in tables["md"][4:]]
    assert md_cells == order


def test_emit_is_byte_stable(tmp_path):
    cfg = tiny_config(repetitions=1, file_sizes_mb=(20,))
    blobs = []
    for sub in ("a", "b"):
        result = run_experiment(cfg)
        paths = emit(result, str(tmp_path / sub), fmt="csv")
        blobs.append(b"".join(open(p, "rb").read() for p in sorted(paths)))
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("slowdown", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_a_non_finite_slowdown(tmp_path, capsys, slowdown):
    # json reads NaN and Infinity, so a config could carry either; the
    # slowed nodes would then run at NaN or 0 GHz
    with pytest.raises(ValueError, match="straggler_slowdown: slowdown must be > 1 and finite"):
        config_from_dict({"straggler_slowdown": slowdown})
    path = write_config(tmp_path, straggler_slowdown=slowdown)
    assert cli_main(["validate", "--config", path]) == 1
    assert "straggler_slowdown: slowdown must be > 1 and finite" in capsys.readouterr().err


def test_config_from_dict_validation():
    with pytest.raises(ValueError, match="unknown scheduler"):
        config_from_dict({"schedulers": ["warp-drive"]})
    with pytest.raises(ValueError, match="repetitions"):
        config_from_dict({"repetitions": 0})
    with pytest.raises(ValueError, match="unknown scenario"):
        config_from_dict({"scenarios": ["tableau"]})
    cfg = config_from_dict({"schedulers": ["rr"], "repetitions": 1})
    assert cfg.schedulers == ("rr",)
    # an integer field takes no fraction and no bool, which int() would
    # truncate to 2 reps, seed 1 and 1 rep
    for bad, shown in (({"repetitions": 2.5}, "2.5"), ({"seed": 1.9}, "1.9"),
                       ({"repetitions": True}, "true")):
        key = next(iter(bad))
        with pytest.raises(ValueError, match=f"^{key} must be an integer, got {shown}$"):
            config_from_dict(bad)
    assert config_from_dict({"repetitions": 2.0, "seed": 7}).repetitions == 2
    with pytest.raises(ValueError, match="mapping"):
        config_from_dict([])


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"locality_block_mb": True}, "locality_block_mb must be a number, got true"),
        ({"network_load": False}, "network_load must be a number, got false"),
        ({"seed": "7"}, 'seed must be an integer, got "7"'),
        ({"repetitions": "2.5"}, 'repetitions must be an integer, got "2.5"'),
        ({"file_sizes_mb": [True, "20"]}, "file_sizes_mb[0] must be a number, got true"),
        ({"file_sizes_mb": [20, "20"]}, 'file_sizes_mb[1] must be a number, got "20"'),
        ({"cluster_sizes": [10, 2.5]}, "cluster_sizes[1] must be an integer, got 2.5"),
        ({"block_size_mb": "16"}, 'block_size_mb must be a number, got "16"'),
        ({"demand": True}, "demand: unrecognized distribution spec: True"),
        ({"gcycles_per_mb": {"uniform": [True, 0.1]}},
         "gcycles_per_mb: spec values must be numbers, got True"),
        ({"demand": {"choice": [0.5, "0.6"]}}, "demand: spec values must be numbers, got '0.6'"),
        ({"out_dir": 5}, "out_dir must be a string, got 5"),
        ({"cluster": 5}, "cluster must be a string, got 5"),
        ({"workload": ["a"]}, 'workload must be a string, got ["a"]'),
        ({"format": None}, "format must be a string, got null"),
    ],
    ids=["bool-float", "bool-load", "string-int", "string-fraction", "bool-in-list",
         "string-in-list", "fraction-in-int-list", "string-legacy-block", "bool-spec",
         "bool-in-uniform-spec", "string-in-choice-spec", "number-out-dir",
         "number-cluster", "list-workload", "null-format"],
)
def test_config_numbers_must_be_json_numbers(tmp_path, capsys, bad, message):
    # float() and int() would read true as 1.0 and "7" as 7, and a bool or
    # a string in a list failed later with a TypeError that named no key;
    # a distribution spec read true as a fixed 1.0. A path or a name must
    # be a string: a number out_dir was accepted, and a number cluster
    # failed with an os.path TypeError that named no key
    with pytest.raises(ValueError) as err:
        config_from_dict(bad)
    assert str(err.value) == message
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert cli_main(["validate", "--config", str(path)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("schedulers", "rr"), ("scenarios", "straggler-completion"), ("block_sizes_mb", 16),
     ("file_sizes_mb", 20), ("cluster_sizes", 10), ("replication_factors", 2),
     ("straggler_node_counts", 60)],
)
def test_config_rejects_a_repeated_sweep_entry(tmp_path, capsys, key, value):
    # a repeated entry ran its cell, or its scheduler, twice: every run row
    # was written twice and its aggregate rows stood twice for one cell
    message = f"{key} lists {value!r} more than once"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        config_from_dict({key: [value, value]})
    path = write_config(tmp_path, **{key: [value, value]})
    assert cli_main(["validate", "--config", path]) == 1
    assert message in capsys.readouterr().err


def test_cli_run_rejects_a_repeated_scheduler(tmp_path, capsys):
    path = REPO / "configs" / "experiment_deep_queue.json"
    out = tmp_path / "out"
    code = cli_main(["run", "--config", str(path), "--schedulers", "rr,rr", "--reps", "1",
                     "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("config error: schedulers lists 'rr' more than once")
    assert not out.exists()


def test_every_aggregated_metric_reads_above_zero_in_the_default_sweep():
    # a metric that is 0 in every run of the shipped sweep measures nothing:
    # recovery latency read 0 in all of them, since its blackout came after
    # every task had picked its replica
    path = REPO / "configs" / "experiment_default.json"
    cfg = replace(experiment.load_experiment_config(str(path)), repetitions=1,
                  schedulers=experiment.SCHEDULERS)
    result = run_experiment(cfg)
    assert not result.failures
    dead = [k for k in experiment._METRIC_KEYS if not any(r[k] for r in result.runs)]
    assert dead == []


@pytest.mark.parametrize("name", ["experiment_default", "experiment_deep_queue", "experiment_jobs"])
def test_shipped_configs_validate(name, capsys):
    path = pathlib.Path(__file__).resolve().parent.parent / "configs" / f"{name}.json"
    assert cli_main(["validate", "--config", str(path)]) == 0
    assert "config ok" in capsys.readouterr().out


def test_config_from_dict_defaults_paths_and_legacy_block_size(tmp_path):
    assert config_from_dict({}) == ExperimentConfig()
    cfg = config_from_dict(
        {"cluster": "c.json", "workload": str(tmp_path / "w.json"), "block_size_mb": 32},
        base_dir=str(tmp_path),
    )
    assert cfg.cluster_path == os.path.join(str(tmp_path), "c.json")
    assert cfg.workload_path == str(tmp_path / "w.json")
    assert cfg.block_sizes_mb == (32.0,)
    both = {"block_size_mb": 32, "block_sizes_mb": [8, 16]}
    assert config_from_dict(both).block_sizes_mb == (8, 16)


def test_workload_file_drives_replication_sweep(tmp_path):
    jobs = tmp_path / "jobs.json"
    jobs.write_text(
        '{"jobs": [{"input_mb": 192, "block_size_mb": 64, "replication": 1, "demand": 0.5},'
        ' {"input_mb": 64, "block_size_mb": 64, "replication": 1, "demand": 0.5}]}'
    )
    cfg = tiny_config(
        scenarios=("throughput-by-replication",),
        replication_factors=(1, 2),
        repetitions=1,
        schedulers=("rr",),
        workload_path=str(jobs),
    )
    result = run_experiment(cfg)
    assert not result.failures
    cells = {r.cell for r in result.aggregates}
    assert cells == {"RF1", "RF2"}
    # 3 + 1 blocks from the jobs file -> 4 tasks per run
    assert all(run["tasks"] == 4 for run in result.runs)


def test_generator_profile_arrivals_reach_the_run(tmp_path):
    # tasks arrive tens of seconds apart, far beyond a 64 MB task's run
    data = {"apps": [{"input_mb": 192, "block_size_mb": 64}], "arrival_rate_per_s": 0.1}
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(data))
    cfg = tiny_config(
        scenarios=("throughput-by-replication",),
        replication_factors=(1,),
        schedulers=("rr", "scc-dso"),
        workload_path=str(path),
    )
    result = run_experiment(cfg)
    assert not result.failures and result.runs
    profile = wl.profile_from_dict(data)
    for run in result.runs:
        last = max(wl.generate_workload(run["seed"], profile).arrivals.values())
        assert run["completion_time_s"] >= last > 0


def test_workload_file_is_read_once_per_scenario(tmp_path, monkeypatch):
    jobs = tmp_path / "jobs.json"
    jobs.write_text('{"jobs": [{"input_mb": 128, "replication": 2}]}')
    reads = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        if str(file) == str(jobs):
            reads.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    cfg = tiny_config(
        scenarios=("locality-by-cluster-size", "throughput-by-replication"),
        cluster_sizes=(4,),
        replication_factors=(1, 2),
        repetitions=2,
        schedulers=("rr", "rsync"),
        workload_path=str(jobs),
    )
    result = run_experiment(cfg)
    assert not result.failures
    assert len(result.runs) == 12
    assert len(reads) == 2


def test_block_size_sweep_labels():
    cfg = tiny_config(
        block_sizes_mb=(16.0, 32.0),
        file_sizes_mb=(20,),
        schedulers=("rr",),
        repetitions=1,
    )
    result = run_experiment(cfg)
    cells = {r.cell for r in result.aggregates}
    assert cells == {"20MB/b16", "20MB/b32"}


@pytest.mark.parametrize("scheduler", experiment.SCHEDULERS)
def test_schedule_is_reproducible(scheduler):
    cfg = tiny_config(
        scenarios=("throughput-by-replication",),
        replication_factors=(2,),
        repetitions=1,
        schedulers=(scheduler,),
    )
    [run] = run_experiment(cfg).runs
    g = build_cluster(experiment._default_cluster(cfg))
    w = experiment._workload_source(cfg)(run["seed"], 2)
    cache = experiment._PredictorCache()
    a, b = (
        experiment.schedule(g, w, scheduler, run["seed"], cache=cache)
        for _ in range(2)
    )
    assert a.assignment == b.assignment
    assert a.plan.block_to_nodes == b.plan.block_to_nodes
    assert a.metrics == b.metrics == (run["sched_delay"], run["sched_cost"], run["sched_loss"])
    # the run executed that same schedule
    assert experiment.execute(a, g, w).metrics.completion_time_s == run["completion_time_s"]


@pytest.mark.parametrize("scheduler", ["scc-dso", "scc-dso-lite"])
def test_scc_dso_schedules_its_placements_primary_row(scheduler, monkeypatch):
    # no colony runs: at default capacities every task stays on its block's
    # primary, and the row's (delay, cost, loss) carry the bits the colony's
    # scorer gives the same row on build_problem's grid
    g = build_cluster(synthetic_cluster_config(25))
    w = experiment._single_app_workload(1664.0, 64.0, 2, ExperimentConfig(), 3)
    build_problem = aco.build_problem

    def colony(*args, **kwargs):
        raise AssertionError("schedule ran the colony")

    monkeypatch.setattr(aco, "build_problem", colony)
    monkeypatch.setattr(aco, "solve_problem", colony)
    sched = experiment.schedule(g, w, scheduler, 3)
    assert sched.assignment == {t.id: sched.plan.primary(t.block_id) for t in w.tasks}
    problem = build_problem(g, sched.plan, list(w.tasks), sched.model)
    row = np.array([problem.node_ids.index(sched.assignment[t]) for t in problem.task_ids])
    [want] = aco._solution_from_indices(workspace(problem), row[None], True)
    assert [float(m).hex() for m in sched.metrics] == [float(m).hex() for m in want.metrics]
    assert [type(m) for m in sched.metrics] == [type(m) for m in want.metrics]


def tight_input(seed):
    """Three apps of 16, 32 and 64 MB blocks at RF 2 on eight synthetic
    nodes, each with room for its share of the data times U(1, 1.6)."""
    rng = np.random.default_rng(seed)
    apps = [
        wl.Application(id=f"app{a}", input_mb=6 * mb, block_size_mb=mb, replication_factor=2)
        for a, mb in enumerate((16.0, 32.0, 64.0))
    ]
    w = wl.workload_from_apps(apps)
    cfg = synthetic_cluster_config(8)
    share = sum(t.block_mb for t in w.tasks) / 8
    for node in cfg["nodes"]:
        node["capacity_mb"] = share * float(rng.uniform(1.0, 1.6))
    return build_cluster(cfg), w


@pytest.mark.parametrize("scheduler", ["scc-dso", "scc-dso-lite"])
def test_scc_dso_respects_tight_capacity(scheduler):
    # the primary row overflows a node, and the schedule that executes
    # still keeps every node within its capacity
    cache = experiment._PredictorCache()
    for seed in range(3):
        g, w = tight_input(seed)
        sched = experiment.schedule(g, w, scheduler, seed, cache=cache)
        primary = {t.id: sched.plan.primary(t.block_id) for t in w.tasks}
        with pytest.raises(ValueError, match="over its"):
            sim.validate_schedule(g, w, primary)
        sim.validate_schedule(g, w, sched.assignment)
        trace = experiment.execute(sched, g, w)
        assert trace.metrics.tasks == len(w.tasks)


CLUSTER_50 = str(REPO / "configs" / "cluster_50.json")


@pytest.mark.parametrize("scheduler", experiment.SCHEDULERS)
def test_every_block_gets_its_own_apps_replication_factor(scheduler):
    # jobs_example.json mixes apps at RF 2 and RF 3
    from sccdso.workload import apps_from_jobs, workload_from_apps

    g = build_cluster(load_cluster_config(CLUSTER_50))
    jobs = json.loads((REPO / "configs" / "jobs_example.json").read_text())
    w = workload_from_apps(apps_from_jobs(jobs))
    rf = {app.id: app.replication_factor for app in w.apps}
    assert sorted(set(rf.values())) == [2, 3]
    plan = experiment.schedule(g, w, scheduler, seed=3).plan
    for block in w.blocks:
        replicas = plan.replicas(block.id)
        assert len(replicas) == len(set(replicas)) == rf[block.app_id]


def test_predictor_cache_shares_models_across_equal_hardware():
    # built apart, from the shipped file and from the generator, with equal
    # hardware: one kernel and one regression serve both, whatever label
    # the caller passes
    shipped = build_cluster(load_cluster_config(CLUSTER_50))
    generated = build_cluster(synthetic_cluster_config(50))
    assert shipped is not generated
    cache = experiment._PredictorCache()
    assert cache.kernel("a", shipped, seed=1) is cache.kernel("b", generated, seed=1)
    assert cache.regression("a", shipped, seed=1) is cache.regression("b", generated, seed=1)


def test_predictor_cache_refits_for_other_hardware_or_seed():
    g = build_cluster(synthetic_cluster_config(50))
    faster = synthetic_cluster_config(50)
    faster["nodes"][0]["cpu_ghz"] += 0.5
    faster = build_cluster(faster)
    cache = experiment._PredictorCache()
    model = cache.kernel("", g, seed=1)
    for other in (cache.kernel("", faster, seed=1), cache.kernel("", g, seed=2)):
        assert other is not model
        assert other.supports.tobytes() != model.supports.tobytes()
    assert cache.regression("", faster, seed=1) is not cache.regression("", g, seed=1)


def test_predictor_cache_fits_both_models_on_one_history(monkeypatch):
    calls = []
    history = experiment._history

    def spy(g, seed):
        calls.append(seed)
        return history(g, seed)

    monkeypatch.setattr(experiment, "_history", spy)
    g = build_cluster(synthetic_cluster_config(20))
    cache = experiment._PredictorCache()
    for _ in range(2):
        cache.kernel("", g, seed=1)
        cache.regression("", g, seed=1)
    assert calls == [1]


def test_run_experiment_fits_once_per_distinct_hardware(monkeypatch):
    fits = {"kernel": 0, "linreg": 0}
    fit_kernel, fit_regression = pred.fit_kernel, pred.fit_feature_regression

    def kernel_spy(*args, **kwargs):
        fits["kernel"] += 1
        return fit_kernel(*args, **kwargs)

    def regression_spy(*args, **kwargs):
        fits["linreg"] += 1
        return fit_regression(*args, **kwargs)

    # the module attributes, as the benchmark's tracer wraps them
    monkeypatch.setattr(pred, "fit_kernel", kernel_spy)
    monkeypatch.setattr(pred, "fit_feature_regression", regression_spy)
    cfg = tiny_config(
        cluster_path=CLUSTER_50,
        schedulers=("scc-dso", "rf-fd"),
        scenarios=("completion-by-file-size", "locality-by-cluster-size",
                   "throughput-by-replication"),
        repetitions=1,
        file_sizes_mb=(20, 40),
        cluster_sizes=(10, 50),
        replication_factors=(1,),
    )
    result = run_experiment(cfg)
    assert not result.failures
    assert len({(r["scenario"], r["cell"]) for r in result.runs}) == 5
    # five cells on two hardware sets: the shipped 50-node file equals the
    # generated 50-node cluster
    assert fits == {"kernel": 2, "linreg": 2}


def run_with_spies(monkeypatch, cfg, fail_cell=None):
    """`run_experiment(cfg)` with spies on the attributes the run looks up,
    as the benchmark's tracer wraps them. Returns the result, every config
    `build_cluster` got, and the graph each (scenario, cell) ran on, one per
    cell; the runs of the (scenario, cell) `fail_cell` raise."""
    built, graph_of_seed = [], {}
    build, run = experiment.build_cluster, experiment.run_pipeline
    failing = {
        derive_seed(cfg.seed, *fail_cell, scheduler, rep)
        for scheduler in cfg.schedulers
        for rep in range(cfg.repetitions)
    } if fail_cell else set()

    def build_spy(config):
        built.append(config)
        return build(config)

    def run_spy(g, workload, scheduler, seed, **kw):
        if seed in failing:
            raise RuntimeError("boom")
        graph_of_seed[seed] = g
        return run(g, workload, scheduler, seed, **kw)

    monkeypatch.setattr(experiment, "build_cluster", build_spy)
    monkeypatch.setattr(experiment, "run_pipeline", run_spy)
    result = run_experiment(cfg)
    graphs = {}
    for r in result.runs:
        graphs.setdefault((r["scenario"], r["cell"]), set()).add(id(graph_of_seed[r["seed"]]))
    assert all(len(ids) == 1 for ids in graphs.values())
    return result, built, {cell: ids.pop() for cell, ids in graphs.items()}


def test_run_experiment_builds_one_cluster_per_distinct_config(monkeypatch):
    path = REPO / "configs" / "experiment_default.json"
    cfg = replace(experiment.load_experiment_config(str(path)), repetitions=1)
    result, built, graphs = run_with_spies(monkeypatch, cfg)
    assert not result.failures
    assert len(graphs) == 19
    # the shipped 50-node file equals the generated 50-node cluster, so the
    # 19 cells run on ten configs: that one, cluster sizes 10-40 and
    # straggler node counts 60-100, each built once
    assert len(built) == 10
    assert all(a != b for i, a in enumerate(built) for b in built[:i])
    fifty = {cell: g for cell, g in graphs.items()
             if cell[0] in ("completion-by-file-size", "throughput-by-replication")
             or cell == ("locality-by-cluster-size", "50")}
    assert len(fifty) == 10 and len(set(fifty.values())) == 1
    assert len(set(graphs.values())) == 10


def test_a_failing_cell_leaves_the_shared_cluster_to_the_cells_after_it(monkeypatch):
    cfg = tiny_config(
        cluster_path=CLUSTER_50,
        scenarios=("completion-by-file-size", "throughput-by-replication"),
        repetitions=1,
        file_sizes_mb=(20, 40, 60),
        replication_factors=(1, 2),
    )
    result, built, graphs = run_with_spies(
        monkeypatch, cfg, fail_cell=("completion-by-file-size", "40MB")
    )
    assert len(built) == 1
    assert {(f["scenario"], f["cell"]) for f in result.failures} == {
        ("completion-by-file-size", "40MB")
    }
    assert len(result.failures) == len(cfg.schedulers)
    assert sorted(graphs) == [
        ("completion-by-file-size", "20MB"),
        ("completion-by-file-size", "60MB"),
        ("throughput-by-replication", "RF1"),
        ("throughput-by-replication", "RF2"),
    ]
    assert len(set(graphs.values())) == 1


def test_cached_kernel_equals_a_fresh_fit():
    g = build_cluster(load_cluster_config(CLUSTER_50))
    cached = experiment._PredictorCache().kernel("", g, seed=1)
    fresh = pred.fit_kernel(experiment._history(g, 1), epochs=300)
    assert cached.coeffs.tobytes() == fresh.coeffs.tobytes()
    assert cached.supports.tobytes() == fresh.supports.tobytes()
    assert cached.bias == fresh.bias


def test_shipped_deep_queue_config_migrates():
    # the scenario named after migration must migrate in every adaptive run
    path = REPO / "configs" / "experiment_deep_queue.json"
    cfg = replace(
        experiment.load_experiment_config(str(path)),
        repetitions=1, schedulers=("scc-dso", "scc-dso-lite"),
    )
    result = run_experiment(cfg)
    assert not result.failures
    assert [r["scheduler"] for r in result.runs] == ["scc-dso", "scc-dso-lite"]
    assert all(r["migrations"] > 0 for r in result.runs)


def test_runtime_table_matches_the_colonys_on_unslowed_nodes():
    # one prediction per (node, task): the table the simulator reads on the
    # straggler view repeats the scheduling table's rows, bitwise, for every
    # node the view did not slow
    path = REPO / "configs" / "experiment_deep_queue.json"
    cfg = experiment.load_experiment_config(str(path))
    cell, cluster_cfg, make_workload, straggle = next(
        experiment._cells_for(cfg, "straggler-completion")
    )
    g = build_cluster(cluster_cfg)
    seed = derive_seed(cfg.seed, "straggler-completion", cell, "scc-dso", 0)
    w = make_workload(seed)
    sched = experiment.schedule(g, w, "scc-dso", seed)
    tables = []

    class Recording:
        def predict_matrix(self, nodes, tasks):
            tables.append(sched.model.predict_matrix(nodes, tasks))
            return tables[-1]

    view = straggle(g, seed)
    trace = experiment.execute(replace(sched, model=Recording()), view, w)
    assert trace.metrics.migrations > 0 and len(tables) == 1
    t_pred = pred.predict_table(g, w.tasks, sched.model)
    kept = [i for i, nid in enumerate(g.node_ids()) if view.node(nid) is g.node(nid)]
    assert 0 < len(kept) < len(g.nodes)
    assert tables[0][kept].tobytes() == t_pred[kept].tobytes()


def test_readme_python_blocks_run(monkeypatch):
    # README's python blocks, joined in order, run against the package
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert blocks
    monkeypatch.syspath_prepend(str(REPO / "src"))
    exec(compile("".join(blocks), "README.md", "exec"), {})


# --- CLI --------------------------------------------------------------------


def write_config(tmp_path, **kw):
    data = dict(
        schedulers=["rr"],
        scenarios=["completion-by-file-size"],
        repetitions=1,
        file_sizes_mb=[20],
        seed=3,
        out_dir=str(tmp_path / "results"),
    )
    data.update(kw)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_cli_validate_ok(tmp_path, capsys):
    path = write_config(tmp_path)
    assert cli_main(["validate", "--config", path]) == 0
    assert "config ok" in capsys.readouterr().out


def test_cli_validate_rejects_bad_config(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schedulers": ["nope"]}')
    assert cli_main(["validate", "--config", str(path)]) == 1
    assert cli_main(["validate", "--config", str(tmp_path / "missing.json")]) == 1


def test_cli_run_produces_identical_csv_on_rerun(tmp_path):
    path = write_config(tmp_path)
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert cli_main(["run", "--config", path, "--out", out1]) == 0
    assert cli_main(["run", "--config", path, "--out", out2]) == 0
    for name in sorted(os.listdir(out1)):
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b, name


def test_cli_run_overrides(tmp_path):
    path = write_config(tmp_path)
    out = str(tmp_path / "ovr")
    code = cli_main(
        ["run", "--config", path, "--out", out, "--format", "md", "--reps", "2",
         "--schedulers", "rr,rsync", "--seed", "9"]
    )
    assert code == 0
    files = os.listdir(out)
    assert "completion-by-file-size.md" in files


def test_cli_run_bad_config_exit_1(tmp_path):
    assert cli_main(["run", "--config", str(tmp_path / "nope.json")]) == 1


@pytest.mark.parametrize(
    "key, content, message",
    [
        ("cluster", None, "No such file"),
        ("workload", None, "No such file"),
        ("workload", '{"jobs": [{"block_size_mb": 64}]}', "job 0: input_mb is required"),
    ],
    ids=["missing-cluster-file", "missing-workload-file", "job-without-input-mb"],
)
def test_cli_checks_the_input_files_at_load(tmp_path, capsys, key, content, message):
    target = tmp_path / f"{key}-file.json"
    if content is not None:
        target.write_text(content)
    path = write_config(tmp_path, **{key: str(target)})
    for command in ("validate", "run"):
        assert cli_main([command, "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err, err


def test_config_network_load_conflicts_with_a_generator_profile(tmp_path, capsys):
    profile = tmp_path / "profile.json"
    profile.write_text('{"apps": [{"input_mb": 128}], "network_load": 0.1}')
    path = write_config(tmp_path, workload=str(profile), network_load=0.2)
    for command in ("validate", "run"):
        assert cli_main([command, "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: network_load and workload:"), err
    # the profile's own value applies when the config sets none
    cfg = experiment.load_experiment_config(write_config(tmp_path, workload=str(profile)))
    assert experiment._workload_source(cfg)(0, 1).network_load == 0.1
    # a job-profile file takes the config's
    jobs = tmp_path / "jobs.json"
    jobs.write_text('{"jobs": [{"input_mb": 128}]}')
    cfg = experiment.load_experiment_config(
        write_config(tmp_path, workload=str(jobs), network_load=0.2)
    )
    assert experiment._workload_source(cfg)(0, 1).network_load == 0.2


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"cluster_sizes": 5}, "cluster_sizes must be a list"),
        ({"repetitions": None}, "repetitions must be an integer, got null"),
        ({"schedulers": "rr"}, "schedulers must be a list"),
        ({"demand": "x"}, "demand: unrecognized distribution spec"),
        ({"gcycles_per_mb": {"uniform": [1]}}, "gcycles_per_mb:"),
        ({"straggler_fraction": 1.5}, "straggler_fraction: fraction must be in [0, 1)"),
        ({"straggler_slowdown": 0.5}, "straggler_slowdown: slowdown must be > 1"),
        ({"replication_factors": [5]}, "replication_factors: app RF5: replication_factor"),
        ({"file_sizes_mb": [-5]}, "file_sizes_mb: app -5: input_mb must be > 0"),
        ({"network_load": 1.0}, "network_load: network_load must be in [0, 1)"),
        ({"cluster_sizes": [0]}, "cluster_sizes: n_nodes must be >= 1"),
        ({"locality_input_mb": -5}, "locality_input_mb: app locality: input_mb must be > 0"),
        ({"demand": 1.5}, "demand: app demand=1.5: demand must be in (0, 1]"),
        ({"demand": {"uniform": [0.5, 1.5]}}, "demand: app demand=1.5: demand must be"),
        ({"gcycles_per_mb": -1}, "gcycles_per_mb: app gcycles_per_mb=-1: gcycles_per_mb must"),
        ({"gcycles_per_mb": {"choice": [0.1, 0]}}, "gcycles_per_mb: app gcycles_per_mb=0:"),
        ({"repetitions": 2.5}, "repetitions must be an integer, got 2.5"),
        ({"seed": 1.9}, "seed must be an integer, got 1.9"),
        ({"repetitions": True}, "repetitions must be an integer, got true"),
    ],
    ids=[
        "number-for-list", "null-for-int", "string-for-list",
        "string-for-demand-spec", "short-uniform-spec",
        "straggler-fraction-above-1", "straggler-slowdown-below-1",
        "replication-factor-above-4", "negative-file-size",
        "network-load-of-1", "empty-cluster", "negative-locality-input",
        "demand-above-1", "uniform-demand-above-1", "negative-gcycles",
        "zero-gcycles-choice", "fractional-repetitions", "fractional-seed",
        "bool-repetitions",
    ],
)
def test_cli_wrong_config_type_is_a_config_error(tmp_path, capsys, bad, message):
    path = write_config(tmp_path, **bad)
    for command in ("validate", "run"):
        assert cli_main([command, "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err, err
        assert "Traceback" not in err


def test_cli_oracle_smoke(capsys):
    code = cli_main(
        ["oracle", "--max-tasks", "4", "--max-nodes", "3", "--seeds", "5"]
    )
    out = capsys.readouterr().out
    assert "instances within" in out
    assert "brute force" in out and "colony" in out
    assert code in (0, 2)


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--seeds", "0", "seeds must be >= 1"),
        ("--max-tasks", "1", "max_tasks must be >= 2"),
        ("--max-nodes", "1", "max_nodes must be >= 2"),
        ("--ratio-bound", "0", "ratio_bound must be a finite number >= 1"),
        ("--ratio-bound", "0.5", "ratio_bound must be a finite number >= 1"),
        ("--ratio-bound", "nan", "ratio_bound must be a finite number >= 1"),
    ],
)
def test_cli_oracle_rejects_bad_sizes(capsys, flag, value, message):
    args = {"--seeds": "3", "--max-tasks": "4", "--max-nodes": "3", flag: value}
    code = cli_main(["oracle", *(x for kv in args.items() for x in kv)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("config error:") and message in captured.err, captured.err
    assert "instances within" not in captured.out


def test_cli_entrypoint_subprocess(tmp_path):
    # the installed console script path: module invocation keeps it honest
    path = write_config(tmp_path)
    # the child must import the same sccdso as this process, from any cwd
    pkg_root = str(pathlib.Path(sccdso.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sccdso.cli", "validate", "--config", path],
        capture_output=True,
        text=True,
        cwd=str(tmp_path),
        env=env,
    )
    assert proc.returncode == 0
    assert "config ok" in proc.stdout
