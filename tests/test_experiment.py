import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import sccdso
from sccdso import experiment
from sccdso.cli import main as cli_main
from sccdso.cluster import build_cluster, synthetic_cluster_config
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
from sccdso.placement import PlacementPlan
from sccdso.workload import TaskSpec

from conftest import make_cluster


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


def test_emit_is_byte_stable(tmp_path):
    cfg = tiny_config(repetitions=1, file_sizes_mb=(20,))
    blobs = []
    for sub in ("a", "b"):
        result = run_experiment(cfg)
        paths = emit(result, str(tmp_path / sub), fmt="csv")
        blobs.append(b"".join(open(p, "rb").read() for p in sorted(paths)))
    assert blobs[0] == blobs[1]


def test_config_from_dict_validation():
    with pytest.raises(ValueError, match="unknown scheduler"):
        config_from_dict({"schedulers": ["warp-drive"]})
    with pytest.raises(ValueError, match="repetitions"):
        config_from_dict({"repetitions": 0})
    with pytest.raises(ValueError, match="unknown scenario"):
        config_from_dict({"scenarios": ["tableau"]})
    cfg = config_from_dict({"schedulers": ["rr"], "repetitions": 1})
    assert cfg.schedulers == ("rr",)
    with pytest.raises(ValueError, match="mapping"):
        config_from_dict([])


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


def test_eff_order_local_first_by_predicted_time_then_remote_by_id():
    g = make_cluster([("a", "r1", 2.0, 200.0), ("b", "r1", 2.0, 200.0)])
    times = {"t1": 3.0, "t2": 1.0, "t3": 2.0, "t4": 9.0, "t5": 0.5, "t6": 1.0, "t7": 1.0}
    holder = {"t1": "a", "t2": "a", "t3": "a", "t4": "b", "t5": "b", "t6": "a", "t7": "b"}
    tasks = [
        TaskSpec(id=t, block_id=f"blk-{t}", block_mb=64.0, resource_demand=0.5,
                 compute_gcycles=1.0)
        for t in times
    ]
    plan = PlacementPlan({f"blk-{t}": (n,) for t, n in holder.items()}, strategy="fixed")

    class ByTask:
        def predict(self, node, task):
            return times[task.id]

    assignment = {t: "a" for t in times}
    assignment["t7"] = "b"
    queues = experiment._eff_order(plan, ByTask(), g, assignment, tasks)
    # local tasks by ascending predicted time (ties by id), then remote by id
    assert queues == {"a": ["t2", "t6", "t3", "t1", "t4", "t5"], "b": ["t7"]}


def test_sim_trace_exports(tmp_path):
    from sccdso.workload import Application, workload_from_apps

    g = build_cluster(synthetic_cluster_config(4))
    w = workload_from_apps(
        [Application(id="app0", input_mb=128, block_size_mb=64, replication_factor=2)]
    )
    trace = experiment.run_pipeline(g, w, "rr", seed=5)
    csv_path = tmp_path / "events.csv"
    json_path = tmp_path / "metrics.json"
    trace.to_event_csv(str(csv_path))
    trace.to_metrics_json(str(json_path))
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "time,kind,task,node,info"
    assert len(lines) > 1
    payload = json.loads(json_path.read_text())
    assert payload["tasks"] == 2
    assert "completion_time_s" in payload


def test_recovery_latency_recorded_for_multicopy(tmp_path):
    cfg = tiny_config(
        scenarios=("throughput-by-replication",),
        replication_factors=(1, 2),
        repetitions=1,
        schedulers=("rr",),
        cluster_path=None,
    )
    result = run_experiment(cfg)
    assert not result.failures
    rec = {
        r.cell: r.mean
        for r in result.aggregates
        if r.metric == "recovery_latency_s" and r.scheduler == "rr"
    }
    assert rec["RF1"] == 0.0
    assert rec["RF2"] >= 0.0


@pytest.mark.parametrize("scheduler", experiment.SCHEDULERS)
def test_schedule_is_reproducible_and_reused_for_recovery(scheduler):
    cfg = tiny_config(
        scenarios=("throughput-by-replication",),
        replication_factors=(2,),
        repetitions=1,
        schedulers=(scheduler,),
    )
    [run] = run_experiment(cfg).runs
    g = build_cluster(experiment._default_cluster(cfg))
    w = experiment._base_workload(cfg, 2, run["seed"])
    cache = experiment._PredictorCache()
    a, b = (
        experiment.schedule(g, w, scheduler, run["seed"], cache=cache,
                            cache_key="throughput-by-replication|RF2")
        for _ in range(2)
    )
    assert a.assignment == b.assignment and a.queues == b.queues
    assert a.plan.block_to_nodes == b.plan.block_to_nodes
    assert a.metrics == b.metrics == (run["sched_delay"], run["sched_cost"], run["sched_loss"])
    # recovery latency is the base run's schedule executed with a blackout
    base = experiment.execute(a, g, w).metrics.completion_time_s
    assert base == run["completion_time_s"]
    blackout = experiment.execute(a, g, w, replica_blackout=(sorted(g.nodes)[0], base / 2.0))
    assert run["recovery_latency_s"] == max(0.0, blackout.metrics.completion_time_s - base)


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
    "bad, message",
    [
        ({"cluster_sizes": 5}, "cluster_sizes must be a list"),
        ({"repetitions": None}, "NoneType"),
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
    ],
    ids=[
        "number-for-list", "null-for-int", "string-for-list",
        "string-for-demand-spec", "short-uniform-spec",
        "straggler-fraction-above-1", "straggler-slowdown-below-1",
        "replication-factor-above-4", "negative-file-size",
        "network-load-of-1", "empty-cluster", "negative-locality-input",
        "demand-above-1", "uniform-demand-above-1", "negative-gcycles",
        "zero-gcycles-choice",
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
    assert code in (0, 2)


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
