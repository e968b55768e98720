"""Experiment harness: sweeps, repetition seeding, aggregation, emission.

Four standard sweeps mirror the evaluation protocol:

* completion-by-file-size   — single-copy job completion time per scheduler
* locality-by-cluster-size  — locality ratio across cluster scales (RF=2)
* throughput-by-replication — cluster throughput across replication
                              factors
* straggler-completion      — completion under injected slow nodes across
                              cluster sizes

Every (scenario, cell, scheduler, repetition) gets its own seed derived by
hashing the master seed with those coordinates, so adding a scheduler or a
cell never perturbs any other cell's randomness. A failed cell is recorded
as a failure row; the rest of the experiment proceeds.

Scheduler pipelines. `schedule` places the blocks, assigns the tasks with
the scheduler's row rule (`aco`) and prices that row, returning a
`Schedule` that also carries the scheduler's runtime settings;
`execute` simulates a `Schedule` on a cluster view, optionally overriding
those settings. `run_pipeline` is one of each, run once per repetition.

Fitted predictors are cached for one `run_experiment` call, keyed by the
fit's seed and the per-node hardware (cpu_ghz, mem_gb, io_mbps) it is
trained on, so the cells that share a cluster's hardware share its kernel
and regression, and both models of a cluster are fitted on one history.
Within one call, cells with equal cluster configs also share one built
`ClusterGraph`.

* scc-dso       kernel predictor + equalized placement + its placement's
                local-first row + runtime migration
* scc-dso-lite  scc-dso with the linear predictor in place of the kernel
* rf-fd         rack-aware placement + reservation first-fit over a linear
                regression estimate
* rsync         rack-aware placement + sequential primary affinity with a
                sync delay per non-local access
* rr            rack-aware placement + round robin
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from typing import get_args, get_type_hints

import numpy as np

from . import aco, placement, predictor as pred, sim, workload as wl
from .cluster import (
    CAPACITY_SLACK_MB,
    ClusterGraph,
    build_cluster,
    load_cluster_config,
    scale_bandwidth,
    synthetic_cluster_config,
)

SCHEDULERS = ("scc-dso", "scc-dso-lite", "rf-fd", "rsync", "rr")
SCENARIOS = (
    "completion-by-file-size",
    "locality-by-cluster-size",
    "throughput-by-replication",
    "straggler-completion",
)
RSYNC_SYNC_DELAY_S = 0.25
HISTORY_RECORDS = 240


@dataclass(frozen=True)
class ExperimentConfig:
    cluster_path: str | None = None
    workload_path: str | None = None
    schedulers: tuple[str, ...] = ("rf-fd", "rsync", "scc-dso")
    scenarios: tuple[str, ...] = SCENARIOS
    seed: int = 42
    repetitions: int = 50
    block_sizes_mb: tuple[float, ...] = (16.0,)
    file_sizes_mb: tuple[float, ...] = (20, 40, 60, 80, 100)
    cluster_sizes: tuple[int, ...] = (10, 20, 30, 40, 50)
    replication_factors: tuple[int, ...] = (1, 2, 3, 4)
    straggler_node_counts: tuple[int, ...] = (60, 70, 80, 90, 100)
    straggler_fraction: float = 0.1
    straggler_slowdown: float = 4.0
    locality_input_mb: float = 1664.0
    locality_block_mb: float = 64.0
    demand: object = field(default_factory=lambda: {"uniform": [0.3, 0.8]})
    gcycles_per_mb: object = field(default_factory=lambda: {"uniform": [0.06, 0.1]})
    network_load: float = 0.0
    out_dir: str = "results"
    format: str = "csv"

    def validate(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not self.schedulers:
            raise ValueError("need at least one scheduler")
        for s in self.schedulers:
            if s not in SCHEDULERS:
                raise ValueError(f"unknown scheduler: {s}")
        for s in self.scenarios:
            if s not in SCENARIOS:
                raise ValueError(f"unknown scenario: {s}")
        # a repeated entry would run, and write, its rows twice
        for key in ("schedulers", "scenarios", "block_sizes_mb", "file_sizes_mb",
                    "cluster_sizes", "replication_factors", "straggler_node_counts"):
            seen = set()
            for v in getattr(self, key):
                if v in seen:
                    raise ValueError(f"{key} lists {v!r} more than once")
                seen.add(v)
        if not self.block_sizes_mb or any(b <= 0 for b in self.block_sizes_mb):
            raise ValueError("block sizes must be > 0")
        if self.locality_block_mb <= 0:
            raise ValueError("block sizes must be > 0")
        if self.format not in ("csv", "json", "md"):
            raise ValueError(f"unknown format: {self.format}")

        def check(key: str, build) -> None:
            try:
                build()
            except (ValueError, TypeError) as exc:
                raise ValueError(f"{key}: {exc}") from None

        # the checks the cells run, so that a bad value is a config error
        # here and not a failure of every cell (or, for a cluster size, of
        # the whole run)
        for name in ("demand", "gcycles_per_mb"):
            check(name, lambda: [
                wl.Application(f"{name}={v:g}", 1.0, **{name: v}).validate()
                for v in wl.parse_spec(getattr(self, name))[1]
            ])
        check(
            "locality_input_mb",
            lambda: wl.Application("locality", self.locality_input_mb).validate(),
        )
        for size in self.file_sizes_mb:
            check("file_sizes_mb", lambda: wl.Application(str(size), size).validate())
        for rf in self.replication_factors:
            check(
                "replication_factors",
                lambda: wl.Application(f"RF{rf}", 1.0, replication_factor=rf).validate(),
            )
        for key in ("cluster_sizes", "straggler_node_counts"):
            for n in getattr(self, key):
                check(key, lambda: synthetic_cluster_config(n))
        check(
            "network_load",
            lambda: wl.WorkloadProfile((wl.AppProfile(),), network_load=self.network_load).validate(),
        )
        check("straggler_fraction", lambda: sim.check_stragglers(fraction=self.straggler_fraction))
        check("straggler_slowdown", lambda: sim.check_stragglers(slowdown=self.straggler_slowdown))


_PATH_KEYS = {"cluster_path": "cluster", "workload_path": "workload"}


def _json_number(key: str, value, kind: type):
    """`value` of config key `key` as a `kind` (int or float). A bool, a
    string or, for an int, a number with a fractional part is a config
    error that names the key, where int() would truncate 2.5 to 2, read
    true as 1 and "7" as 7."""
    if not wl.is_number(value) or kind is int and not float(value).is_integer():
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{key} must be {what}, got {json.dumps(value)}")
    return kind(value)


def config_from_dict(data: dict, base_dir: str = ".") -> ExperimentConfig:
    """Build and validate a config; an absent key keeps the field's default.
    The `cluster` and `workload` paths are relative to `base_dir`, and a
    scalar `block_size_mb` stands for a one-element `block_sizes_mb`. A
    numeric field, or an element of a numeric list, must be a JSON number,
    and a path or a name (`cluster`, `workload`, `out_dir`, `format`) a
    JSON string; the float lists keep their elements as written."""
    if not isinstance(data, dict):
        raise ValueError("experiment config must be a mapping")
    hints = get_type_hints(ExperimentConfig)
    values = {}
    for f in fields(ExperimentConfig):
        key = _PATH_KEYS.get(f.name, f.name)
        if key not in data:
            continue
        value = data[key]
        hint = hints[f.name]
        if f.name in _PATH_KEYS or hint is str:
            if not isinstance(value, str):
                raise ValueError(f"{key} must be a string, got {json.dumps(value)}")
            if f.name in _PATH_KEYS and value and not os.path.isabs(value):
                value = os.path.join(base_dir, value)
        elif isinstance(f.default, tuple):
            # tuple() would split a string into characters and reject a
            # number with a TypeError; name the key instead
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{key} must be a list, got {value!r}")
            kind = get_args(hint)[0]
            if kind in (int, float):
                checked = [_json_number(f"{key}[{i}]", x, kind) for i, x in enumerate(value)]
                if kind is int:
                    value = checked
            value = tuple(value)
        elif hint in (int, float):
            value = _json_number(key, value, hint)
        values[f.name] = value
    if "block_sizes_mb" not in data and "block_size_mb" in data:
        values["block_sizes_mb"] = (_json_number("block_size_mb", data["block_size_mb"], float),)
    cfg = ExperimentConfig(**values)
    cfg.validate()
    return cfg


def load_experiment_config(path: str) -> ExperimentConfig:
    """`config_from_dict` on the file, then the cluster and the workload the
    config names, built as the cells build them, so that a bad file is a
    config error here and not a failure of the run or of every cell."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    cfg = config_from_dict(data, base_dir=os.path.dirname(os.path.abspath(path)))
    if cfg.cluster_path:
        build_cluster(load_cluster_config(cfg.cluster_path))
    if cfg.workload_path:
        _workload_source(cfg)(0, 1)
    return cfg


def derive_seed(master: int, scenario: str, cell: str, scheduler: str, rep: int) -> int:
    key = f"{master}|{scenario}|{cell}|{scheduler}|{rep}".encode()
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big") & (2**63 - 1)


# --- single pipeline run --------------------------------------------------


def _history(g: ClusterGraph, seed: int, n: int = HISTORY_RECORDS) -> list[pred.ExecRecord]:
    """Synthetic execution history: observed times for random (node, task)
    pairs with small measurement noise.

    Each record draws, in this order, a node (uniform over the sorted ids),
    a block size in [4, 64) MB, a resource demand in [0.2, 0.9) that the
    time does not read, a compute intensity in [0.06, 0.1) gigacycles per
    MB and a noise factor. The demand is still drawn, as the one double
    `rng.random()` takes (the draw `rng.uniform` scales), so every later
    draw stays where it was. The time is `sim.true_service_time` written
    out on those numbers (block / io + gigacycles / cpu), so no task object
    is built."""
    rng = np.random.default_rng(seed)
    nodes = [g.nodes[nid] for nid in g.node_ids()]
    records = []
    for _ in range(n):
        node = nodes[int(rng.integers(0, len(nodes)))]
        mb = float(rng.uniform(4.0, 64.0))
        rng.random()  # the unread resource demand
        gcycles = mb * float(rng.uniform(0.06, 0.1))
        t = (mb / node.io_mbps + gcycles / node.cpu_ghz) * float(
            1.0 + 0.03 * rng.standard_normal()
        )
        records.append(
            pred.ExecRecord(
                features=(mb, node.cpu_ghz, node.mem_gb, node.io_mbps),
                observed_time_s=max(t, 1e-3),
            )
        )
    return records


class _PredictorCache:
    """The models one run fits, each fitted once.

    A fit reads only its seed and each node's (cpu_ghz, mem_gb, io_mbps) in
    sorted-id order, since `_history` reads nothing else of the cluster, so
    that is the key: two clusters built apart with equal hardware share a
    model, and a cluster's kernel and regression share one history. The
    cache lives as long as its instance (one `run_experiment` call, or one
    caller's); the fits resolve `pred.fit_kernel` and
    `pred.fit_feature_regression` through the module when they run."""

    def __init__(self):
        self._models = {}
        self._histories = {}

    def _model(self, kind: str, g: ClusterGraph, seed: int, fit):
        nodes = [g.nodes[nid] for nid in g.node_ids()]
        hardware = tuple((n.cpu_ghz, n.mem_gb, n.io_mbps) for n in nodes)
        key = (kind, seed, hardware)
        if key not in self._models:
            if (seed, hardware) not in self._histories:
                self._histories[seed, hardware] = _history(g, seed)
            self._models[key] = fit(self._histories[seed, hardware])
        return self._models[key]

    # the leading positional parameter of kernel() and regression() is a
    # label the cache ignores; the benchmark's set-up still passes one
    def kernel(self, _label, g: ClusterGraph, seed: int) -> pred.KernelModel:
        return self._model("kernel", g, seed, lambda h: pred.fit_kernel(h, epochs=300))

    def regression(self, _label, g: ClusterGraph, seed: int) -> pred.FeatureRegression:
        return self._model("linreg", g, seed, pred.fit_feature_regression)


@dataclass(frozen=True)
class Schedule:
    """One scheduler's decision for one workload: replica plan, task
    assignment, the predictor that made it, the scheduler's own (delay,
    cost, loss), and the runtime settings the scheduler runs with."""

    plan: placement.PlacementPlan
    assignment: dict[str, str]
    model: object
    metrics: tuple[float, float, float]
    runtime: sim.RuntimeConfig


def schedule(
    g: ClusterGraph,
    workload: wl.Workload,
    scheduler: str,
    seed: int,
    *,
    cache: _PredictorCache | None = None,
) -> Schedule:
    """Place the workload's blocks and assign its tasks under one scheduler:
    the scheduler's placement, then its row rule priced into the schedule's
    (delay, cost, loss), then its runtime settings."""
    cache = cache or _PredictorCache()
    tasks = list(workload.tasks)
    blocks = list(workload.blocks)

    if scheduler == "scc-dso":
        model, rule = cache.kernel("", g, seed=1), aco.local_first
        runtime = sim.RuntimeConfig(enable_migration=True)
    elif scheduler == "scc-dso-lite":
        model, rule = pred.LinearModel(), aco.local_first
        runtime = sim.RuntimeConfig(enable_migration=True)
    elif scheduler == "rf-fd":
        model, rule = cache.regression("", g, seed=1), aco.baseline_rf_fd
        runtime = sim.RuntimeConfig()
    elif scheduler == "rsync":
        model, rule = cache.regression("", g, seed=1), aco.baseline_rsync
        runtime = sim.RuntimeConfig(sync_delay_s=RSYNC_SYNC_DELAY_S)
    elif scheduler == "rr":
        model, rule = pred.LinearModel(), aco.baseline_round_robin
        runtime = sim.RuntimeConfig()
    else:
        raise ValueError(f"unknown scheduler: {scheduler}")

    if scheduler in ("scc-dso", "scc-dso-lite"):
        plan = placement.place_heterogeneous(
            g, blocks, model, {app.id: app.replication_factor for app in workload.apps}
        )
    else:
        # rack-aware placement, one independently seeded upload client per app
        rng = np.random.default_rng(seed)
        node_ids = g.node_ids()
        mapping: dict[str, tuple[str, ...]] = {}
        for app in workload.apps:
            client = node_ids[int(rng.integers(0, len(node_ids)))]
            app_blocks = [b for b in blocks if b.app_id == app.id]
            part = placement.place_rack_aware(g, app_blocks, client, rf=app.replication_factor)
            mapping.update(part.block_to_nodes)
        plan = placement.PlacementPlan(block_to_nodes=mapping, strategy="rack-aware")
    sol = rule(tasks, g, plan, model)
    return Schedule(plan, sol.assignment, model, sol.metrics, runtime)


def execute(sched: Schedule, view: ClusterGraph, workload: wl.Workload) -> sim.SimTrace:
    """Simulate `sched` under its RuntimeConfig on the runtime view `view`
    (which may differ from the scheduling view, e.g. stragglers injected
    after scheduling)."""
    if workload.network_load > 0:
        view = scale_bandwidth(view, 1.0 - workload.network_load)
    trace = sim.simulate(
        view, sched.plan, sched.assignment, workload, sched.runtime, predictor=sched.model,
    )
    return replace(trace, schedule=sched)


def run_pipeline(
    g: ClusterGraph,
    workload: wl.Workload,
    scheduler: str,
    seed: int,
    *,
    cache: _PredictorCache | None = None,
    sim_cluster: ClusterGraph | None = None,
) -> sim.SimTrace:
    """Schedule on `g`, then execute on `sim_cluster` (default `g`)."""
    sched = schedule(g, workload, scheduler, seed, cache=cache)
    return execute(sched, sim_cluster or g, workload)


def _single_app_workload(
    input_mb: float, block_mb: float, rf: int, cfg: ExperimentConfig, seed: int
) -> wl.Workload:
    profile = wl.WorkloadProfile(
        apps=(
            wl.AppProfile(
                count=1,
                input_mb=input_mb,
                block_size_mb=block_mb,
                replication_factor=rf,
                demand=cfg.demand,
                gcycles_per_mb=cfg.gcycles_per_mb,
            ),
        ),
        network_load=cfg.network_load,
    )
    return wl.generate_workload(seed, profile)


def _workload_source(cfg: ExperimentConfig):
    """The (seed, rf) -> Workload builder of the scenarios that do not sweep
    file size: the configured workload file when present, job profiles or a
    generator profile, read here once; otherwise the built-in single-app
    reference. The cell's replication factor replaces every app's, which
    changes no block, task or arrival."""
    if not cfg.workload_path:
        return lambda seed, rf: _single_app_workload(
            cfg.locality_input_mb, cfg.locality_block_mb, rf, cfg, seed
        )
    with open(cfg.workload_path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    profile = jobs = None
    if isinstance(data, dict) and "jobs" not in data:
        if cfg.network_load:
            raise ValueError(
                "network_load and workload: the workload file is a generator "
                "profile, whose own network_load applies; set network_load there"
            )
        profile = wl.profile_from_dict(data)
    else:
        jobs = wl.workload_from_apps(wl.apps_from_jobs(data), network_load=cfg.network_load)

    def source(seed: int, rf: int) -> wl.Workload:
        w = jobs if profile is None else wl.generate_workload(seed, profile)
        return replace(w, apps=tuple(replace(a, replication_factor=rf) for a in w.apps))

    return source


# --- aggregation ----------------------------------------------------------


@dataclass(frozen=True)
class AggregateRow:
    scenario: str
    cell: str
    scheduler: str
    metric: str
    mean: float
    sd: float
    ci95: float
    n: int


def aggregate(values: list[float]) -> tuple[float, float, float]:
    """Mean, population SD, and normal-approximation 95% CI half-width."""
    if not values:
        raise ValueError("no runs to aggregate")
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    sd = float(arr.std())
    ci = 1.96 * sd / math.sqrt(len(arr))
    return mean, sd, ci


_METRIC_KEYS = (
    "completion_time_s",
    "locality_ratio",
    "throughput_mbps",
    "network_mb",
    "migrations",
)


def _rows_for(
    scenario: str, cell: str, scheduler: str, runs: list[sim.RunMetrics]
) -> list[AggregateRow]:
    rows = []
    for key in _METRIC_KEYS:
        vals = [getattr(m, key) for m in runs]
        mean, sd, ci = aggregate(vals)
        rows.append(AggregateRow(scenario, cell, scheduler, key, mean, sd, ci, len(runs)))
    return rows


# --- scenarios ------------------------------------------------------------


@dataclass
class ExperimentResult:
    aggregates: list[AggregateRow] = field(default_factory=list)
    runs: list[dict] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)


def _default_cluster(cfg: ExperimentConfig) -> dict:
    if cfg.cluster_path:
        return load_cluster_config(cfg.cluster_path)
    return synthetic_cluster_config(50)


def _cells_for(cfg: ExperimentConfig, scenario: str):
    """Yield (cell_label, cluster_config, workload_builder, sim_view_fn)."""
    if scenario == "completion-by-file-size":
        cluster_cfg = _default_cluster(cfg)
        sweep_blocks = len(cfg.block_sizes_mb) > 1
        for block_mb in cfg.block_sizes_mb:
            for size in cfg.file_sizes_mb:
                label = f"{size:g}MB" + (f"/b{block_mb:g}" if sweep_blocks else "")
                build = partial(_single_app_workload, size, block_mb, 1, cfg)
                yield label, cluster_cfg, build, None
        return
    source = _workload_source(cfg)
    if scenario == "locality-by-cluster-size":
        for n in cfg.cluster_sizes:
            yield f"{n}", synthetic_cluster_config(n), partial(source, rf=2), None
    elif scenario == "throughput-by-replication":
        cluster_cfg = _default_cluster(cfg)
        for rf in cfg.replication_factors:
            yield f"RF{rf}", cluster_cfg, partial(source, rf=rf), None
    elif scenario == "straggler-completion":
        def straggle(g, seed):
            return sim.inject_stragglers(g, cfg.straggler_fraction, cfg.straggler_slowdown, seed)

        for n in cfg.straggler_node_counts:
            yield f"{n}", synthetic_cluster_config(n), partial(source, rf=2), straggle
    else:
        raise ValueError(f"unknown scenario: {scenario}")


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run every (scenario, cell, scheduler, repetition) of `cfg`.

    Cells whose cluster configs are equal share one `ClusterGraph`, path
    table included: a graph is frozen, and a straggler view shares its
    paths, so a run cannot tell a shared graph from its own. Each graph is
    built at the first cell that uses it and dropped after the last, so no
    more graphs stay alive than the cells between those two need. Fitted
    models are shared through one `_PredictorCache` for the call. A cell
    whose runs raise is recorded as a failure row, and the cells after it
    still run."""
    cfg.validate()
    result = ExperimentResult()
    cache = _PredictorCache()
    cells = [(scenario, *cell) for scenario in cfg.scenarios for cell in _cells_for(cfg, scenario)]
    configs = [cluster_cfg for _, _, cluster_cfg, _, _ in cells]
    first = [configs.index(c) for c in configs]  # the first cell with an equal config
    last = {k: i for i, k in enumerate(first)}
    graphs: dict[int, ClusterGraph] = {}
    for i, (scenario, cell, cluster_cfg, make_workload, straggle) in enumerate(cells):
        k = first[i]
        if k not in graphs:
            graphs[k] = build_cluster(cluster_cfg)
        g = graphs[k] if last[k] > i else graphs.pop(k)
        for scheduler in cfg.schedulers:
            runs: list[sim.RunMetrics] = []
            try:
                for rep in range(cfg.repetitions):
                    seed = derive_seed(cfg.seed, scenario, cell, scheduler, rep)
                    workload = make_workload(seed)
                    sim_view = straggle(g, seed) if straggle else None
                    trace = run_pipeline(
                        g,
                        workload,
                        scheduler,
                        seed,
                        cache=cache,
                        sim_cluster=sim_view,
                    )
                    metrics = trace.metrics
                    runs.append(metrics)
                    delay, cost, loss = trace.schedule.metrics
                    result.runs.append(
                        {
                            "scenario": scenario,
                            "cell": cell,
                            "scheduler": scheduler,
                            "rep": rep,
                            "seed": seed,
                            **asdict(metrics),
                            "sched_delay": delay,
                            "sched_cost": cost,
                            "sched_loss": loss,
                        }
                    )
                result.aggregates.extend(_rows_for(scenario, cell, scheduler, runs))
            except Exception as exc:  # noqa: BLE001 - cell isolation
                result.failures.append(
                    {
                        "scenario": scenario,
                        "cell": cell,
                        "scheduler": scheduler,
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                )
    return result


# --- emission -------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def emit(result: ExperimentResult, out_dir: str, fmt: str = "csv") -> list[str]:
    """Write per-run and aggregate outputs; returns the file paths.
    Identical inputs produce byte-identical files."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []

    runs_path = os.path.join(out_dir, "runs.csv")
    with open(runs_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        header = [
            "scenario", "cell", "scheduler", "rep", "seed",
            *(f.name for f in fields(sim.RunMetrics)),
            "sched_delay", "sched_cost", "sched_loss",
        ]
        writer.writerow(header)
        for run in result.runs:
            writer.writerow(
                [run["scenario"], run["cell"], run["scheduler"], run["rep"], run["seed"]]
                + [_fmt(float(run[k])) for k in header[5:]]
            )
    paths.append(runs_path)

    scenarios = sorted({r.scenario for r in result.aggregates})
    for scenario in scenarios:
        rows = [r for r in result.aggregates if r.scenario == scenario]
        base = os.path.join(out_dir, scenario)
        if fmt == "csv":
            path = base + ".csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["cell", "scheduler", "metric", "mean", "sd", "ci95", "n"])
                for r in rows:
                    writer.writerow(
                        [r.cell, r.scheduler, r.metric, _fmt(r.mean), _fmt(r.sd), _fmt(r.ci95), r.n]
                    )
        elif fmt == "json":
            path = base + ".json"
            payload = [
                {
                    "cell": r.cell,
                    "scheduler": r.scheduler,
                    "metric": r.metric,
                    "mean": round(r.mean, 6),
                    "sd": round(r.sd, 6),
                    "ci95": round(r.ci95, 6),
                    "n": r.n,
                }
                for r in rows
            ]
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
        else:
            path = base + ".md"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_markdown_table(scenario, rows))
        paths.append(path)

    if result.failures:
        fail_path = os.path.join(out_dir, "failures.csv")
        with open(fail_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["scenario", "cell", "scheduler", "error"])
            for f in result.failures:
                writer.writerow([f["scenario"], f["cell"], f["scheduler"], f["error"]])
        paths.append(fail_path)
    return paths


_PRIMARY_METRIC = {
    "completion-by-file-size": "completion_time_s",
    "locality-by-cluster-size": "locality_ratio",
    "throughput-by-replication": "throughput_mbps",
    "straggler-completion": "completion_time_s",
}


def _markdown_table(scenario: str, rows: list[AggregateRow]) -> str:
    """Pivot to one row per cell, one column per scheduler (mean ± sd of
    the scenario's primary metric). Cells keep their order of first
    appearance, the config order the CSV and JSON tables list them in."""
    metric = _PRIMARY_METRIC.get(scenario, "completion_time_s")
    picked = [r for r in rows if r.metric == metric]
    cells = list(dict.fromkeys(r.cell for r in picked))
    schedulers = sorted({r.scheduler for r in picked})
    lines = [f"### {scenario} ({metric})", ""]
    lines.append("| cell | " + " | ".join(schedulers) + " |")
    lines.append("|---" * (len(schedulers) + 1) + "|")
    by_key = {(r.cell, r.scheduler): r for r in picked}
    for cell in cells:
        vals = []
        for s in schedulers:
            r = by_key.get((cell, s))
            scale = 100.0 if metric == "locality_ratio" else 1.0
            vals.append(f"{r.mean * scale:.1f} ± {r.sd * scale:.1f}" if r else "—")
        lines.append(f"| {cell} | " + " | ".join(vals) + " |")
    return "\n".join(lines) + "\n"


# --- brute-force oracle suite ----------------------------------------------


def brute_force_makespan(problem: aco.AssignmentProblem) -> float:
    """Exact minimum makespan over every capacity-feasible assignment of
    the tasks to the nodes, found by a branch and bound over task prefixes.

    The search adds one task at a time, in task order, to every surviving
    prefix on every node, with one broadcast add per level. A prefix is
    dropped when some node's used MB exceeds `capacity_mb + CAPACITY_SLACK_MB`
    or when its largest load exceeds the makespan of `_greedy_makespan`'s list
    schedule. The pruning is exact:

    * each per-node sum adds its terms in task order from 0.0, and every
      other slot adds 0.0, which changes no value; so a complete row's
      loads and used MB are bitwise what summing its assignment gives, and
      max and min are exact;
    * loads and used MB only grow as tasks are added, so a dropped prefix
      has no completion that is feasible with a makespan at or below the
      bound;
    * the greedy schedule's own row sums the same terms in the same order
      and passes the same capacity test, so it survives every level: the
      minimum found is the exact optimum, and the search runs out of rows
      only when no feasible assignment exists (the bound is then `inf`
      and only capacity prunes).

    Memory follows the prefixes that survive, not the n^b assignments.
    """
    n = len(problem.node_ids)
    limit = problem.capacity_mb + CAPACITY_SLACK_MB
    bound = _greedy_makespan(problem)
    nodes = np.arange(n)
    state = np.zeros((1, 2, n))  # per prefix: loads, used MB
    for j in range(len(problem.task_ids)):
        step = np.zeros((n, 2, n))  # row i: task j on node i
        step[nodes, 0, nodes] = problem.t_eff[:, j]
        step[nodes, 1, nodes] = problem.demand_mb[j]
        state = (state[:, None] + step).reshape(-1, 2, n)
        keep = (state[:, 1] <= limit).all(axis=1) & (state[:, 0].max(axis=1) <= bound)
        state = state[keep]
        if not len(state):
            raise aco.InfeasibleScheduleError("no feasible assignment exists")
    return float(state[:, 0].max(axis=1).min())


def _greedy_makespan(problem: aco.AssignmentProblem) -> float:
    """Makespan of an earliest-finish list schedule (Graham): tasks in
    order, each on the node where it would finish first among those it
    fits, ties to the lowest node index; `inf` when a task fits nowhere.
    Its sums and capacity test are `brute_force_makespan`'s, in Python
    floats, so its row is one the search keeps."""
    t_eff = problem.t_eff.tolist()
    limit = (problem.capacity_mb + CAPACITY_SLACK_MB).tolist()
    loads = [0.0] * len(limit)
    used = [0.0] * len(limit)
    for j, demand in enumerate(problem.demand_mb.tolist()):
        fits = [i for i, cap in enumerate(limit) if used[i] + demand <= cap]
        if not fits:
            return math.inf
        i = min(fits, key=lambda i: loads[i] + t_eff[i][j])
        loads[i] += t_eff[i][j]
        used[i] += demand
    return max(loads)


def oracle_instance(seed: int, max_tasks: int = 8, max_nodes: int = 4):
    """Random small scheduling instance with exact (ground-truth) times."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_nodes + 1))
    b = int(rng.integers(2, max_tasks + 1))
    cluster_cfg = {
        "racks": ["r0", "r1"],
        "nodes": [
            {
                "id": f"n{i}",
                "cpu_ghz": float(rng.uniform(1.0, 4.0)),
                "mem_gb": 8.0,
                "io_mbps": float(rng.uniform(80.0, 400.0)),
                "slots": 2,
                "rack": "r0" if i < (n + 1) // 2 else "r1",
            }
            for i in range(n)
        ],
        "link_bandwidth_mbps": float(rng.uniform(60.0, 125.0)),
        "intra_rack_latency_ms": 1.0,
        "inter_rack_latency_ms": 5.0,
    }
    g = build_cluster(cluster_cfg)
    app = wl.Application(
        id="app0",
        input_mb=b * 32.0,
        block_size_mb=32.0,
        replication_factor=min(2, n),
        gcycles_per_mb=float(rng.uniform(0.2, 0.6)),
        demand=0.5,
    )
    blocks = wl.partition(app)
    tasks = wl.tasks_for(app, blocks)
    plan = placement.place_random(g, blocks, app.replication_factor, seed)
    problem = aco.build_problem(g, plan, tasks, sim.TrueTimeModel())
    return problem


def run_oracle_suite(
    seeds: int = 100,
    max_tasks: int = 8,
    max_nodes: int = 4,
    preset: str = "table1",
    ratio_bound: float = 1.05,
) -> dict:
    """Head-to-head against the exact optimum on small instances.

    `below_optimum` counts colony makespans under optimum x (1 - 1e-9): a
    feasible plan cannot beat the optimum, so any such run means the exact
    search returned too large a value, and it is not counted as a hit.
    `brute_force_s` and `colony_s` split `elapsed_s` between the exact
    search and the colony; instance generation makes up the rest."""
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    if max_tasks < 2:
        raise ValueError("max_tasks must be >= 2")
    if max_nodes < 2:
        raise ValueError("max_nodes must be >= 2")
    if not (math.isfinite(ratio_bound) and ratio_bound >= 1.0):
        raise ValueError("ratio_bound must be a finite number >= 1")
    cfg = aco.AcoConfig.preset(preset)
    hits = 0
    below = 0
    worst = 0.0
    brute_force_s = 0.0
    colony_s = 0.0
    t0 = time.perf_counter()
    for s in range(seeds):
        problem = oracle_instance(1000 + s, max_tasks, max_nodes)
        t1 = time.perf_counter()
        optimum = brute_force_makespan(problem)
        t2 = time.perf_counter()
        result = aco.solve_problem(problem, cfg, seed=s)
        t3 = time.perf_counter()
        brute_force_s += t2 - t1
        colony_s += t3 - t2
        ratio = result.best.makespan / optimum
        worst = max(worst, ratio)
        if result.best.makespan < optimum * (1 - 1e-9):
            below += 1
        elif ratio <= ratio_bound + 1e-9:
            hits += 1
    return {
        "instances": seeds,
        "within_bound": hits,
        "below_optimum": below,
        "ratio_bound": ratio_bound,
        "worst_ratio": worst,
        "elapsed_s": time.perf_counter() - t0,
        "brute_force_s": brute_force_s,
        "colony_s": colony_s,
    }
