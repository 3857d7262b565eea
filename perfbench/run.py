"""The thermofock benchmark: time real CLI workloads end to end and per layer.

    python3 perfbench/run.py --workload cool-kraus --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --summary --seed 1 --seconds 25

Run from the root of a source checkout; the package is imported from
`src/`.  Each run starts the workload in a fresh interpreter (worker.py),
so `ru_maxrss` is the workload's own.  The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`.  The lines before it give the provenance and a readable
summary.  Raw results and spans go to `.perfbench_out/`.

`--summary` runs every workload with tracing off and on and prints every
metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402

WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 5  # fresh interpreters per run; setup_s is their median
BLAS_THREADS_MAX = 2
RUN_TIMEOUT_S = 170.0  # a run kills its workers after this long

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Functions whose calls, total time and self time are reported per traced pass.
LAYER_FUNCTIONS = (
    "cli.main",
    "cli.format_csv",
    "thermo.cooling_curve",
    "thermo.fit_geometric",
    "thermo.effective_temperature",
    "channel.apply_kraus",
    "channel.damping_weights",
    "channel.lindblad_integrate",
    "channel.kraus_operators",
    "kernels.apply_damping",
    "kernels.rk4_evolve",
    "kernels.hermiticity_defect",
    "fock.trace_distance",
    "fock.partial_trace",
    "fock.matrix_exponential",
    "fock.outer",
    "fock.purity",
    "fock.expectation",
    "fock.multiply",
    "fock.number",
    "states.chaotic_state",
    "states.thermal_vacuum",
    "states.evolved_two_mode_state",
    "states.thermo_squeeze_operator",
    "verify.run_checks",
)
LAYER_STATS = (("calls", "count"), ("total_s", "s"), ("self_s", "s"))

# Work counts computed from argument shapes: (metric, layer, count key, unit).
LAYER_COUNTS = (
    ("kernels.apply_damping.macs", "kernels.apply_damping", "macs", "count"),
    ("kernels.rk4_evolve.steps", "kernels.rk4_evolve", "steps", "count"),
    ("kernels.hermiticity_defect.bytes", "kernels.hermiticity_defect", "bytes", "B"),
    ("fock.trace_distance.dim", "fock.trace_distance", "dim", "count"),
)

# (name, unit, better) of the remaining per-layer metrics
LAYER_EXTRA = (
    ("channel.apply_kraus.nonzero_frac", "ratio", "higher"),
    ("channel.lindblad_integrate.useful_step_frac", "ratio", "higher"),
    ("fock.max_array_mb", "MB", "lower"),
    ("tau_err_max", "abs", "lower"),
    ("spans_per_pass", "count", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
    ("import.thermofock.cum_s", "s", "lower"),
    ("import.thermofock.self_s", "s", "lower"),
    ("import.numpy.cum_s", "s", "lower"),
    ("import.scipy.linalg.cum_s", "s", "lower"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    spec = [(f"{fn}.{stat}", unit, "lower") for fn in LAYER_FUNCTIONS for stat, unit in LAYER_STATS]
    spec += [(name, unit, "lower") for name, _, _, unit in LAYER_COUNTS]
    spec += list(LAYER_EXTRA)
    return spec


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


def blas_threads() -> int:
    return max(1, min(len(os.sched_getaffinity(0)), BLAS_THREADS_MAX))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_worker(args: list[str], deadline: float, importtime: bool = False) -> tuple[float, list[str], str]:
    """Start worker.py; return (seconds from spawn to `ready`, later stdout lines, stderr).

    The worker is killed if it is still running at `deadline` (a perf_counter value).
    """
    OUT.mkdir(exist_ok=True)
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), str(WORKER), *args]
    with open(OUT / "worker-stderr.txt", "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter() - start
            rest = proc.stdout.read().splitlines()
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        err.seek(0)
        stderr = err.read()
    if code != 0 or first.strip() != "ready":
        tail = "\n".join(stderr.strip().splitlines()[-5:])
        raise BenchError(f"worker {' '.join(args)} exited with {code}: {tail}")
    return ready, rest, stderr


def import_seconds(stderr: str) -> dict[str, float]:
    """Cumulative and self import times from `python -X importtime` output."""
    cumulative: dict[str, float] = {}
    own = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        name = name.strip()
        cumulative[name] = int(cum_us) / 1e6
        if name.split(".")[0] == "thermofock":
            own += int(self_us) / 1e6
    return {
        # `from thermofock import cli` imports the package, then cli on top
        "import.thermofock.cum_s": cumulative.get("thermofock", 0.0) + cumulative.get("thermofock.cli", 0.0),
        "import.thermofock.self_s": own,
        "import.numpy.cum_s": cumulative.get("numpy", 0.0),
        "import.scipy.linalg.cum_s": cumulative.get("scipy.linalg", 0.0),
    }


def percentile(values: list[float], share: float) -> float:
    """Linear-interpolation percentile, as `statistics.quantiles(..., method='inclusive')`."""
    ordered = sorted(values)
    pos = share * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_values(raw: dict) -> dict[str, float]:
    """Per-layer metrics: counts from the first traced pass, times as medians over passes."""
    passes = raw["layer_passes"]
    first = passes[0]
    values: dict[str, float] = {}
    for fn in LAYER_FUNCTIONS:
        stats = [p["layers"].get(fn, {}) for p in passes]
        values[f"{fn}.calls"] = first["layers"].get(fn, {}).get("calls", 0)
        for stat in ("total_s", "self_s"):
            values[f"{fn}.{stat}"] = statistics.median(s.get(stat, 0.0) for s in stats)
    for name, layer, key, _ in LAYER_COUNTS:
        values[name] = first["layers"].get(layer, {}).get(key, 0)
    kraus = first["layers"].get("channel.apply_kraus", {})
    values["channel.apply_kraus.nonzero_frac"] = kraus["nonzero"] / kraus["entries"] if kraus.get("entries") else 1.0
    useful = first["useful_step_frac"]
    values["channel.lindblad_integrate.useful_step_frac"] = 1.0 if useful is None else useful
    values["fock.max_array_mb"] = first["max_array_mb"]
    values["tau_err_max"] = raw["tau_err_max"]
    values["spans_per_pass"] = first["spans"]
    untraced = statistics.median(raw["pass_seconds"])
    values["trace_overhead_frac"] = statistics.median(raw["traced_pass_seconds"]) / untraced - 1.0
    return values


def end_to_end_values(raw: dict, setup: list[float]) -> dict[str, float]:
    jobs = raw["job_seconds"]
    return {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(raw["pass_seconds"]),
        "job_p50_s": statistics.median(jobs),
        "job_p90_s": percentile(jobs, 0.9),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, raw worker output)."""
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    common = ["--workload", workload, "--seed", str(seed)]
    setup = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            ready, _, _ = run_worker([*common, "--setup-only"], deadline)
            setup.append(ready)
    ready, lines, stderr = run_worker(
        [*common, "--seconds", str(seconds), "--trace", str(trace)], deadline, importtime=bool(trace)
    )
    setup.append(ready)
    raw = json.loads(lines[-1])
    raw["setup_seconds"] = setup
    if trace:
        values = layer_values(raw) | import_seconds(stderr)
        units = {name: unit for name, unit, _ in per_layer_spec()}
    else:
        values = end_to_end_values(raw, setup)
        units = dict(END_TO_END)
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{workload}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "raw": raw}, fh, indent=1)
    return result, raw


def describe(workload: str, result: dict, raw: dict) -> list[str]:
    """Readable lines: every metric with its unit, failures with their base."""
    jobs = raw["job_seconds"]
    beyond_p90 = sum(1 for s in jobs if s > percentile(jobs, 0.9))
    lines = [
        f"== {workload}: {len(raw['jobs'])} jobs per pass, {raw['passes']} untraced pass(es), "
        f"{len(jobs)} timed jobs ({beyond_p90} beyond p90), {len(raw['setup_seconds'])} set-up samples",
        f"   failed_frac = {result['failed']}/{result['attempted']} = {result['failed'] / result['attempted']:.4g}",
    ]
    for failure in raw["failures"]:
        lines.append(f"   FAILED {failure}")
    for name, metric in result["metrics"].items():
        lines.append(f"   {name:<48s} {metric['value']:>14.6g} {metric['unit']}")
    return lines


def check_checkout() -> None:
    if not (ROOT / "src" / "thermofock" / "cli.py").is_file():
        raise BenchError(f"no thermofock sources under {ROOT / 'src'}; run from a source checkout")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summary", action="store_true", help="every workload, tracing off and on")
    args = parser.parse_args(argv)
    if not args.summary and args.workload is None:
        parser.error("--workload is required unless --summary is given")

    try:
        check_checkout()
        if args.summary:
            for workload in WORKLOADS:
                for trace in (0, 1):
                    result, raw = run_workload(workload, args.seed, args.seconds, trace)
                    if not trace:
                        print("provenance " + json.dumps(raw["provenance"]))
                    print("\n".join(describe(f"{workload} trace={trace}", result, raw)), flush=True)
            return 0
        result, raw = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print("provenance " + json.dumps(raw["provenance"]))
    print("\n".join(describe(args.workload, result, raw)))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
