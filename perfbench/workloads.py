"""The benchmark's four workloads and its correctness gate.

Each workload builds its inputs from the seed in `setup` and then exposes a
fixed list of units; a unit is one rep of every scheduler, one
`run_experiment` sweep, or one oracle instance. The timed loop repeats whole
passes over the list, so a unit rerun must reproduce its first rows exactly.
Only the first pass feeds the simulated figures and the digest, which
therefore depend on the seed alone, never on how many passes fit in the
time budget.
"""

from __future__ import annotations

import hashlib
import os
import time
import traceback
from dataclasses import replace

from sccdso import aco, experiment as ex, sim, workload as wl
from sccdso.cluster import build_cluster, synthetic_cluster_config

from pace import Pace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_CONFIG = os.path.join(ROOT, "configs", "experiment_default.json")
ORACLE_RATIO_BOUND = 1.05  # run_oracle_suite's default


class Gate:
    """Per-run invariants. A run that breaks any of them counts as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{label}: {'; '.join(problems)}")


def run_problems(row: dict, expected_tasks: int | None) -> list[str]:
    """Invariants of one simulated run's metrics."""
    problems = []
    if row["tasks"] != expected_tasks:
        problems.append(f"{row['tasks']} tasks finished, expected {expected_tasks}")
    if not 0.0 <= row["locality_ratio"] <= 1.0:
        problems.append(f"locality {row['locality_ratio']} outside [0, 1]")
    if not row["completion_time_s"] > 0.0:
        problems.append(f"completion {row['completion_time_s']} not > 0")
    return problems


class Probe:
    """Wraps `experiment.run_pipeline` to time every call (recovery reruns
    included) and to record each (scheduler, seed)'s task count and any
    call whose own trace broke an invariant. It samples the host pace
    before each call, outside the call's time."""

    def __init__(self, pace: Pace):
        self.pace = pace
        self.calls: list[tuple[float, float]] = []  # (start, end) of every call
        self.expected: dict[tuple[str, int], int] = {}
        self.bad: dict[tuple[str, int], list[str]] = {}
        self._original = None

    def install(self) -> None:
        original = self._original = ex.run_pipeline
        calls, expected, bad = self.calls, self.expected, self.bad

        def run_pipeline(g, workload, scheduler, seed, **kwargs):
            self.pace.sample()
            start = time.perf_counter()
            trace = original(g, workload, scheduler, seed, **kwargs)
            calls.append((start, time.perf_counter()))
            key = (scheduler, seed)
            expected[key] = len(workload.tasks)
            problems = run_problems(trace.metrics_dict(), len(workload.tasks))
            if problems:
                bad.setdefault(key, []).extend(problems)
            return trace

        ex.run_pipeline = run_pipeline

    def uninstall(self) -> None:
        ex.run_pipeline = self._original

    def problems(self, row: dict) -> list[str]:
        if "error" in row:
            return [row["error"]]
        key = (row["scheduler"], row["seed"])
        return run_problems(row, self.expected.get(key)) + self.bad.pop(key, [])


def _row_key(row: dict) -> tuple:
    return tuple(sorted(row.items()))


def digest(rows: list[dict]) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(_row_key(row)).encode())
    return h.hexdigest()[:16]


class Workload:
    name = ""

    def __init__(self, seed: int, tiny: bool, pace: Pace):
        self.seed = seed
        self.tiny = tiny
        self.gate = Gate()
        self.pace = pace
        self.probe = Probe(self.pace)
        self.calls = self.probe.calls
        self._first: list[list[dict] | None] = []

    # subclasses: setup() builds inputs; units() lists the unit callables;
    # problems(row) gates one run; outcome(rows) gives the simulated (or,
    # for the oracle, the quality) figures of the first pass
    def setup(self) -> None:
        raise NotImplementedError

    def units(self) -> list:
        raise NotImplementedError

    def problems(self, row: dict) -> list[str]:
        return self.probe.problems(row)

    def outcome(self, rows: list[dict]) -> dict[str, tuple[float, str]]:
        ours = [r for r in rows if r["scheduler"] == "scc-dso" and "error" not in r]
        return {
            "sim_completion_s": (sum(r["completion_time_s"] for r in ours) / len(ours), "s"),
            "sim_locality": (sum(r["locality_ratio"] for r in ours) / len(ours), "ratio"),
        }

    def run_unit(self, i: int, unit) -> int:
        """Run one unit and gate each of its runs, including that a rerun
        reproduces the unit's first pass. Returns the number of runs."""
        try:
            rows = unit()
        except Exception:  # noqa: BLE001 - a crashed unit is a failed run
            traceback.print_exc()
            self.gate.record(f"unit {i}", ["raised"])
            return 1
        first = self._first[i]
        if first is None:
            first = self._first[i] = rows
        for k, row in enumerate(rows):
            problems = self.problems(row)
            if len(rows) != len(first) or _row_key(row) != _row_key(first[k]):
                problems.append("rerun with the same seed changed the outcome")
            label = " ".join(str(row.get(f, "")) for f in ("scenario", "cell", "scheduler", "seed"))
            self.gate.record(label, problems)
        return len(rows)

    def run_passes(self, units: list, stop, between=None):
        """Run whole passes over `units` until stop(passes, elapsed) holds,
        calling between() untimed after each pass that is not the last.
        The host pace is sampled before each unit. Returns (passes, runs,
        (start, end, host seconds spent sampling the pace inside) of every
        unit in run order)."""
        if not self._first:
            self._first = [None] * len(units)
        passes = runs = 0
        unit_spans = []
        start = time.perf_counter()
        while True:
            for i, unit in enumerate(units):
                self.pace.sample()
                spent = self.pace.spent
                t = time.perf_counter()
                runs += self.run_unit(i, unit)
                unit_spans.append((t, time.perf_counter(), self.pace.spent - spent))
            passes += 1
            if stop(passes, time.perf_counter() - start):
                return passes, runs, unit_spans
            if between is not None:
                paused = time.perf_counter()
                between()
                start += time.perf_counter() - paused

    def first_pass(self) -> list[dict]:
        return [row for rows in self._first if rows for row in rows]


class PipelineWorkload(Workload):
    """Synthetic single-app workload on a synthetic cluster: every unit is
    one seeded rep under all five schedulers, with models fitted once in
    set-up and shared by every run."""

    nodes = 0
    blocks = 208
    block_mb = 64.0
    reps = 1
    stragglers = 0.0

    def setup(self) -> None:
        nodes, blocks, reps = self.nodes, self.blocks, self.reps
        if self.tiny:
            nodes, blocks, reps = self.tiny_size
        self.g = build_cluster(synthetic_cluster_config(nodes))
        self.cache = ex._PredictorCache()
        # run_pipeline fits with seed=1 under the cache key it is given
        self.cache.kernel("", self.g, seed=1)
        self.cache.regression("", self.g, seed=1)
        profile = wl.WorkloadProfile(apps=(wl.AppProfile(
            count=1,
            input_mb=blocks * self.block_mb,
            block_size_mb=self.block_mb,
            replication_factor=2,
            demand={"uniform": [0.3, 0.8]},
            gcycles_per_mb={"uniform": [0.06, 0.1]},
        ),))
        self.inputs = []
        for r in range(reps):
            s = ex.derive_seed(self.seed, self.name, "rep", "", r)
            view = (
                sim.inject_stragglers(self.g, self.stragglers, 4.0, s)
                if self.stragglers else None
            )
            self.inputs.append((s, wl.generate_workload(s, profile), view))

    def units(self) -> list:
        return [
            (lambda rep=rep, inp=inp: self._rep(rep, *inp))
            for rep, inp in enumerate(self.inputs)
        ]

    def _rep(self, rep: int, seed: int, workload, view) -> list[dict]:
        rows = []
        for scheduler in ex.SCHEDULERS:
            trace = ex.run_pipeline(
                self.g, workload, scheduler, seed, cache=self.cache, sim_cluster=view
            )
            rows.append({"scheduler": scheduler, "rep": rep, "seed": seed, **trace.metrics_dict()})
        return rows



class LargeCluster(PipelineWorkload):
    name = "large-cluster"
    nodes = 200
    reps = 2
    tiny_size = (20, 16, 1)


class DeepQueueStraggler(PipelineWorkload):
    name = "deep-queue-straggler"
    nodes = 20
    # 8 jobs: the 16 adaptive (scc-dso, scc-dso-lite) runs are the slowest,
    # so run_ms_tail (10 runs beyond it) falls inside their group, not on
    # its edge with the baselines
    reps = 8
    stragglers = 0.2
    tiny_size = (10, 60, 1)

    def problems(self, row):
        problems = super().problems(row)
        if row["scheduler"] == "scc-dso" and row.get("migrations", 1) <= 0:
            problems.append("scc-dso run made no migration on a deep straggler queue")
        return problems


class PaperSweep(Workload):
    """configs/experiment_default.json with all five schedulers at one
    repetition: each unit is one run_experiment call, per-cell fits and RF>=2
    recovery reruns included, as `sccdso run` users pay them."""

    name = "paper-sweep"

    def setup(self) -> None:
        cfg = ex.load_experiment_config(DEFAULT_CONFIG)
        cfg = replace(cfg, seed=self.seed, repetitions=1, schedulers=ex.SCHEDULERS)
        if self.tiny:
            cfg = replace(
                cfg, file_sizes_mb=(20,), cluster_sizes=(10,),
                replication_factors=(2,), straggler_node_counts=(60,),
            )
        self.cfg = cfg

    def units(self) -> list:
        return [self._sweep]

    def _sweep(self) -> list[dict]:
        result = ex.run_experiment(self.cfg)
        # a failed cell becomes one failed run
        return list(result.runs) + list(result.failures)


def oracle_case(instance_seed: int, colony_seed: int, cfg) -> dict:
    """One iteration of run_oracle_suite's loop: a small instance, its exact
    optimum and the colony's makespan."""
    problem = ex.oracle_instance(instance_seed)
    optimum = ex.brute_force_makespan(problem)
    best = aco.solve_problem(problem, cfg, seed=colony_seed).best
    return {
        "seed": instance_seed,
        "tasks": len(problem.task_ids),
        "nodes": len(problem.node_ids),
        "assigned": len(best.assignment),
        "feasible": best.feasible,
        "optimum": optimum,
        "makespan": best.makespan,
    }


class Oracle(Workload):
    """run_oracle_suite at its defaults (<= 8 tasks, <= 4 nodes, table1
    preset, makespan objective), with instance seeds drawn from the workload
    seed. An instance's cost grows steeply with its shape, so a pass takes
    the same number of instances of every shape (2-4 nodes x 2-8 tasks) and
    its cost does not hang on the seed's size mix."""

    name = "oracle"
    shapes = 3 * 7
    per_shape = 6

    def setup(self) -> None:
        self.cfg = aco.AcoConfig.preset("table1", objective="makespan")
        per_shape = 1 if self.tiny else self.per_shape
        taken: dict[tuple[int, int], int] = {}
        self.seeds = []
        r = 0
        while len(self.seeds) < self.shapes * per_shape:
            seed = ex.derive_seed(self.seed, self.name, "instance", "", r)
            r += 1
            problem = ex.oracle_instance(seed)
            shape = (len(problem.node_ids), len(problem.task_ids))
            if taken.get(shape, 0) < per_shape:
                taken[shape] = taken.get(shape, 0) + 1
                self.seeds.append(seed)

    def units(self) -> list:
        return [(lambda s=s: [self._case(s)]) for s in self.seeds]

    def _case(self, seed: int) -> dict:
        start = time.perf_counter()
        row = oracle_case(seed, seed, self.cfg)
        self.calls.append((start, time.perf_counter()))
        return row

    def problems(self, row):
        problems = []
        if row["assigned"] != row["tasks"] or not row["feasible"]:
            problems.append("colony returned an incomplete or infeasible assignment")
        if not row["makespan"] >= row["optimum"] * (1 - 1e-9) > 0.0:
            problems.append(f"makespan {row['makespan']} vs optimum {row['optimum']}")
        return problems

    def outcome(self, rows):
        ratios = [r["makespan"] / r["optimum"] for r in rows]
        within = sum(r <= ORACLE_RATIO_BOUND + 1e-9 for r in ratios)
        return {
            "oracle_within_bound_frac": (within / len(ratios), "ratio"),
            "oracle_worst_ratio": (max(ratios), "ratio"),
        }


WORKLOADS = {w.name: w for w in (PaperSweep, LargeCluster, DeepQueueStraggler, Oracle)}
