"""In-memory span tracer that wraps the public functions of each sccdso layer.

Nothing in the package is edited: `Tracer.install` replaces the attribute a
caller actually looks up (for example `experiment.build_cluster`, which
`run_experiment` and `oracle_instance` resolve through the experiment
module's globals) with a timing wrapper, and `uninstall` puts the originals
back. A span is (name, start, end, parent index); the layer is the part of
the name before the first dot. A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

LAYERS = ("cluster", "workload", "placement", "predictor", "aco", "sim", "experiment")


def _targets(sccdso):
    """(owner, attribute, span name, count hook) for every wrapped callable.

    Hooks receive (counts, result) and record work done at the boundary."""
    ex, aco, pred, placement, sim, wl = (
        sccdso.experiment, sccdso.aco, sccdso.predictor,
        sccdso.placement, sccdso.sim, sccdso.workload,
    )

    def rows(counts, result):
        counts["predictor.predict_matrix.rows"] += result.size

    def cells(counts, result):
        counts["aco.build_problem.cells"] += result.t_pred.size

    def colony(counts, result):
        counts["aco.iterations"] += result.iterations

    def simulated(counts, result):
        counts["sim.events"] += len(result.events)
        counts["sim.migrations"] += result.metrics.migrations
        counts["sim.prefetches"] += result.metrics.prefetches

    targets = [
        (ex, "build_cluster", "cluster.build_cluster", None),
        (ex, "load_cluster_config", "cluster.load_cluster_config", None),
        (ex, "synthetic_cluster_config", "cluster.synthetic_cluster_config", None),
        (ex, "scale_bandwidth", "cluster.scale_bandwidth", None),
        (wl, "generate_workload", "workload.generate_workload", None),
        (wl, "workload_from_apps", "workload.workload_from_apps", None),
        (wl, "partition", "workload.partition", None),
        (wl, "tasks_for", "workload.tasks_for", None),
        (placement, "place_heterogeneous", "placement.place", None),
        (placement, "place_rack_aware", "placement.place", None),
        (placement, "place_random", "placement.place", None),
        (pred, "fit_kernel", "predictor.fit_kernel", None),
        (pred, "fit_feature_regression", "predictor.fit_feature_regression", None),
        (aco, "build_problem", "aco.build_problem", cells),
        (aco, "solve_problem", "aco.solve_problem", colony),
        (aco, "baseline_rf_fd", "aco.baselines", None),
        (aco, "baseline_rsync", "aco.baselines", None),
        (aco, "baseline_round_robin", "aco.baselines", None),
        (sim, "simulate", "sim.simulate", simulated),
        (sim, "inject_stragglers", "sim.inject_stragglers", None),
        (ex, "run_experiment", "experiment.run_experiment", None),
        (ex, "run_pipeline", "experiment.run_pipeline", None),
        (ex, "oracle_instance", "experiment.oracle_instance", None),
        (ex, "brute_force_makespan", "experiment.brute_force", None),
    ]
    for model in (pred.KernelModel, pred.LinearModel, pred.FeatureRegression):
        targets.append((model, "predict", "predictor.predict", None))
        targets.append((model, "predict_matrix", "predictor.predict_matrix", rows))
    return targets


class Tracer:
    def __init__(self, sccdso, pace):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        # the benchmark's own pace samples get spans of a layer that is not
        # reported, so that no layer's self time holds them
        self._targets = _targets(sccdso) + [(pace, "sample", "pace.sample", None)]
        self._aco = sccdso.aco
        self._saved: list[tuple[object, str, object]] = []

    def _span(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, time.perf_counter(), parent)
                stack.pop()
            if hook is not None:
                hook(counts, result)
            return result

        return wrapper

    def _ants(self, fn):
        # one call per ant; counted without a span so the colony's time stays
        # in aco.solve_problem and tracing adds little to the inner loop
        counts = self.counts

        def wrapper(*args, **kwargs):
            sol = fn(*args, **kwargs)
            counts["aco.ants"] += 1
            counts["aco.feasible_ants"] += sol.feasible
            return sol

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        patches = [(o, a, self._span(n, getattr(o, a), h)) for o, a, n, h in self._targets]
        patches.append(
            (self._aco, "construct_solution", self._ants(self._aco.construct_solution))
        )
        for owner, attr, wrapper in patches:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def by_name(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, total self seconds)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        return {name: (calls[name], self_s[name]) for name in calls}


def layer_metrics(
    tracer: Tracer, wall_s: float, runs: int, overhead: float
) -> dict[str, float]:
    """Per-layer figures for one traced window of `runs` runs taking
    `wall_s`. Self times and counts are per run; shares are fractions of
    the traced wall time."""
    names = tracer.by_name()
    counts = tracer.counts

    def calls(name):
        return names.get(name, (0, 0.0))[0]

    def self_s(name):
        return names.get(name, (0, 0.0))[1]

    layer_self = defaultdict(float)
    for name, (_, s) in names.items():
        layer_self[name.split(".", 1)[0]] += s
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer] / runs
        out[f"{layer}.share"] = layer_self[layer] / wall_s
    events = counts["sim.events"]
    out.update({
        "predictor.fit_kernel.calls": calls("predictor.fit_kernel") / runs,
        "predictor.fit_kernel.self_s": self_s("predictor.fit_kernel") / runs,
        "predictor.predict_matrix.rows": counts["predictor.predict_matrix.rows"] / runs,
        "predictor.predict_matrix.self_s": self_s("predictor.predict_matrix") / runs,
        "predictor.predict.calls": calls("predictor.predict") / runs,
        "predictor.predict.self_s": self_s("predictor.predict") / runs,
        "aco.build_problem.calls": calls("aco.build_problem") / runs,
        "aco.build_problem.cells": counts["aco.build_problem.cells"] / runs,
        "aco.build_problem.self_s": self_s("aco.build_problem") / runs,
        "aco.solve_problem.self_s": self_s("aco.solve_problem") / runs,
        "aco.iterations": counts["aco.iterations"] / runs,
        "aco.ants": counts["aco.ants"] / runs,
        "aco.feasible_ant_frac": (
            counts["aco.feasible_ants"] / counts["aco.ants"] if counts["aco.ants"] else 0.0
        ),
        "aco.baselines.self_s": self_s("aco.baselines") / runs,
        "sim.simulate.calls": calls("sim.simulate") / runs,
        "sim.simulate.self_s": self_s("sim.simulate") / runs,
        "sim.events": events / runs,
        "sim.us_per_event": self_s("sim.simulate") / events * 1e6 if events else 0.0,
        "sim.migrations": counts["sim.migrations"] / runs,
        "sim.prefetches": counts["sim.prefetches"] / runs,
        "placement.calls": calls("placement.place") / runs,
        "experiment.pipeline_calls_per_run": calls("experiment.run_pipeline") / runs,
        "experiment.brute_force.self_s": self_s("experiment.brute_force") / runs,
        "trace_overhead_frac": overhead,
    })
    return out
