"""Smoke test of the benchmark itself, on shrunken inputs.

    python3 -m pytest perfbench -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(workload, seed, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    cmd = [sys.executable, script, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


_runs = {}


def run(workload, seed, trace):
    key = (workload, seed, trace)
    if key not in _runs:
        out = bench(workload, seed, trace)
        assert out.returncode == 0, out.stdout + out.stderr
        lines = out.stdout.strip().splitlines()
        digest = next(l.split()[1] for l in lines if l.startswith("digest "))
        _runs[key] = (lines, json.loads(lines[-1]), digest)
    return _runs[key]


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    for section in ("end_to_end", "per_layer"):
        for m in SPEC[section]:
            names.append(m["name"])
            assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    assert all(NAME.match(n) for n in names) and len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, section):
    lines, result, _ = run(workload, 1, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    printed = {l.split()[1]: l.split()[3] for l in lines if l.startswith("metric ")}
    for name, unit in expected.items():
        assert printed[name] == unit


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_fit_in_wall_time(workload):
    _, result, _ = run(workload, 1, 1)
    shares = [m["value"] for n, m in result["metrics"].items() if n.endswith(".share")]
    assert all(s >= 0 for s in shares)
    assert sum(shares) <= 1.0 + 1e-9


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digest_follows_the_seed(workload):
    assert run(workload, 1, 0)[2] == run(workload, 1, 1)[2]
    assert bench_digest(workload, 1) == run(workload, 1, 0)[2]
    assert run(workload, 2, 0)[2] != run(workload, 1, 0)[2]


def bench_digest(workload, seed):
    # a fresh process, so an accidental dependence on hashing or state shows
    out = bench(workload, seed, 0)
    assert out.returncode == 0, out.stderr
    return next(l.split()[1] for l in out.stdout.splitlines() if l.startswith("digest "))


def test_oracle_case_reproduces_run_oracle_suite():
    from sccdso import aco, experiment

    from workloads import ORACLE_RATIO_BOUND, oracle_case

    suite = experiment.run_oracle_suite(seeds=3)
    cfg = aco.AcoConfig.preset("table1", objective="makespan")
    cases = [oracle_case(1000 + s, s, cfg) for s in range(3)]
    ratios = [c["makespan"] / c["optimum"] for c in cases]
    assert max([1.0] + ratios) == suite["worst_ratio"]
    assert sum(r <= ORACLE_RATIO_BOUND + 1e-9 for r in ratios) == suite["within_bound"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("oracle", 1, 0, cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_pace_scales_by_the_samples_near_an_interval():
    from pace import NOMINAL_S, WINDOW_S, Pace

    pace = Pace()
    pace.at = [0.0, 1.0, 2.0] + [100.0 + i for i in range(5)]
    pace.ref = [NOMINAL_S] * 3 + [2 * NOMINAL_S] * 5
    # a drift to half speed halves the reference seconds of a call
    assert pace.seconds(101.0, 103.0) == pytest.approx(1.0)
    assert pace.seconds(101.0, 103.0, excluded=1.0) == pytest.approx(0.5)
    # too few samples within the window: the nearest ones set the pace
    assert pace.scale(0.5, 0.5) == pytest.approx(1.0)
    assert pace.scale(90.0, 100.0 - 2 * WINDOW_S) == pytest.approx(0.5)
