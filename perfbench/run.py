"""sccdso benchmark: seeded closed-loop workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload large-cluster --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 3          # every workload, one process each

One process, one thread: each run starts when the previous one returns.
`--trace 0` prints the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer ones (untraced and traced passes alternating).
Every run passes the correctness gate; the last stdout line is a JSON
object {correct, attempted, failed, metrics}, and the exit code is nonzero
when any run broke an invariant.
"""

import os

# Pin BLAS before numpy is imported anywhere in this process.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
SETUP_REPEATS = 5
SETUP_PACE_SAMPLES = 3  # forced pace samples on each side of a set-up
TAIL_BEYOND = 10  # the tail is the highest percentile with this many runs above it

# Times the package import in a fresh interpreter, so set-up can be repeated.
IMPORT_PROBE = """
import os, sys, time
for var in {vars!r}:
    os.environ[var] = "1"
sys.path.insert(0, {src!r})
start = time.perf_counter()
import sccdso.experiment
print(time.perf_counter() - start)
"""


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def import_seconds() -> float:
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE.format(vars=BLAS_THREAD_VARS, src=SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(out.stdout.strip().splitlines()[-1])


def timed_setup(cls, args, pace):
    """One set-up: the package import in a fresh interpreter, then building
    the workload's inputs here. Returns (workload, host seconds, reference
    seconds), the pace sampled just before and after."""
    for _ in range(SETUP_PACE_SAMPLES):
        pace.sample(force=True)
    start = time.perf_counter()
    imported = import_seconds()
    local = time.perf_counter()
    w = cls(args.seed, args.tiny, pace)
    w.setup()
    end = time.perf_counter()
    for _ in range(SETUP_PACE_SAMPLES):
        pace.sample(force=True)
    host = imported + end - local
    return w, host, host * pace.scale(start, end)


def machine_facts(seed: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ[BLAS_THREAD_VARS[0]],
        "seed": seed,
    }


def by_position(values: list[float], passes: int) -> list[list[float]]:
    """The repetitions of each position of a pass."""
    width = len(values) // passes
    return [values[i:width * passes:width] for i in range(width)]


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the slowest run with TAIL_BEYOND runs above it;
    the slowest run when there are too few."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_workload(args, spec: dict) -> int:
    if not os.path.isdir(os.path.join(SRC, "sccdso")):
        return fail(f"no sccdso package under {SRC}")
    sys.path.insert(0, SRC)
    import sccdso

    if os.path.dirname(os.path.abspath(sccdso.__file__)) != os.path.join(SRC, "sccdso"):
        return fail(f"imported sccdso from {sccdso.__file__}, not from {SRC}")
    import spans
    from pace import NOMINAL_S, Pace
    from workloads import WORKLOADS, digest

    facts = machine_facts(args.seed)
    print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()))

    cls = WORKLOADS[args.workload]
    repeats = 1 if args.tiny else SETUP_REPEATS
    pace = Pace()  # one record for every set-up and the timed loop
    w, *first_setup = timed_setup(cls, args, pace)
    setups = [first_setup]

    def set_up_again() -> None:
        # repeats are spread between passes so that their median does not
        # hang on one moment of the host's drifting speed
        if len(setups) < repeats:
            setups.append(timed_setup(cls, args, pace)[1:])

    def budget_spent(passes: int, elapsed: float) -> bool:
        # whole passes only, ending as near the budget as the pass length allows
        return elapsed * (1.0 + 0.5 / passes) >= args.seconds

    w.probe.install()
    units = w.units()
    if args.trace:
        # untraced and traced passes alternate, so the host's drifting speed
        # touches both sides of trace_overhead_frac alike
        tracer = spans.Tracer(sccdso, pace)
        plain, traced = [], []  # unit spans
        passes_t = runs_t = 0
        start = time.perf_counter()
        while passes_t == 0 or not budget_spent(passes_t, time.perf_counter() - start):
            for tracing, acc in ((False, plain), (True, traced)):
                if tracing:
                    tracer.install()
                try:
                    _, runs, unit_spans = w.run_passes(units, lambda passes, elapsed: True)
                finally:
                    tracer.uninstall()
                acc.extend(unit_spans)
            passes_t += 1
            runs_t += runs  # of the traced pass
        overhead = (
            sum(pace.seconds(*span) for span in traced)
            / sum(pace.seconds(*span) for span in plain) - 1.0
        )
        wall = sum(end - begin - spent for begin, end, spent in traced)
        metrics = spans.layer_metrics(tracer, wall, runs_t, overhead)
        section = "per_layer"
    else:
        passes, runs, unit_spans = w.run_passes(units, budget_spent, set_up_again)
        while len(setups) < repeats:
            set_up_again()
        calls = [
            statistics.fmean(reps)
            for reps in by_position([pace.seconds(*span) for span in w.calls], passes)
        ]
        tail_s, tail_pct = tail(calls)
        print(f"{passes} passes; run_ms_tail is p{tail_pct:.1f} of {len(calls)} calls")
        host_s = [host for host, _ in setups]
        print(f"host seconds at median: set-up {statistics.median(host_s):.4g}, "
              f"pace {statistics.median(pace.ref) / NOMINAL_S:.4g}x reference")
        metrics = {
            "runs_per_s": runs / sum(pace.seconds(*span) for span in unit_spans),
            "run_ms_p50": statistics.median(calls) * 1e3,
            "run_ms_tail": tail_s * 1e3,
            "setup_s": statistics.median(paced for _, paced in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        section = "end_to_end"
    w.probe.uninstall()

    gate = w.gate
    first = w.first_pass()
    for message in gate.messages:
        print(f"violation {message}")
    print(f"metric failed_frac {gate.failed / max(gate.attempted, 1):.6g} ratio")
    for name, (value, unit) in w.outcome(first).items():
        print(f"metric {name} {value!r} {unit} (first pass)")
    print(f"digest {digest(first)} over {len(first)} first-pass runs")

    units_of = {m["name"]: m["unit"] for m in spec[section]}
    if set(metrics) != set(units_of):
        raise RuntimeError(f"computed metrics differ from BENCHMARK.json {section}")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units_of[name]}")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {n: {"value": metrics[n], "unit": units_of[n]} for n in units_of},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args, names: list[str]) -> int:
    """Every workload in its own process, so peak RSS and set-up are its own."""
    status = 0
    summary = {}
    for name in names:
        print(f"== {name}", flush=True)
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--tiny"] if args.tiny else [])
        out = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            status = 1
        lines = out.stdout.strip().splitlines()
        summary[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    print(json.dumps(summary), flush=True)
    return status


def main(argv=None) -> int:
    try:
        with open(SPEC_PATH, encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read {SPEC_PATH}: {exc}")
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names,
                        help="one workload; default: all, each in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken inputs, for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload is None:
        return run_all(args, names)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
