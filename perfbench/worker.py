"""One workload in one fresh interpreter: set up, run passes, report JSON.

Started by `run.py`, never by hand.  Prints `ready` once `thermofock.cli`
is imported and the warm-up job has passed its gate, then (unless
`--setup-only`) runs passes over the job list for about `--seconds`
seconds, at least two, and prints one JSON line with the raw measurements.

Each job is `thermofock.cli.main(argv)` in process, one client, closed loop.
With `--trace 1`, untraced and traced passes alternate; the traced ones run
with every public function of the package wrapped (see tracing.py).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import gate, tracing, workloads  # noqa: E402

TRACED_MODULES = ("cli", "states", "fock", "channel", "kernels", "thermo", "verify")


def run_job(cli, job: workloads.Job) -> tuple[float, int, str, str]:
    """Time one in-process CLI call; returns (seconds, exit code, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback is a failed job, not a failed benchmark
        code, error = -1, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), error or err.getvalue().strip()


@dataclass
class Pass:
    """Results of one pass over the job list; failures maps job index to reason."""

    seconds: float = 0.0
    job_seconds: list[float] = field(default_factory=list)
    failures: dict[int, str] = field(default_factory=dict)
    digests: list[str] = field(default_factory=list)
    tau_err_max: float = 0.0


def run_pass(cli, jobs: list[workloads.Job]) -> Pass:
    result = Pass()
    start = time.perf_counter()
    for index, job in enumerate(jobs):
        seconds, code, stdout, error = run_job(cli, job)
        result.job_seconds.append(seconds)
        result.digests.append(hashlib.sha256(stdout.encode()).hexdigest())
        verdict = gate.check(job, code, stdout)
        result.tau_err_max = max(result.tau_err_max, verdict.tau_err)
        if not verdict.ok:
            result.failures[index] = f"job {index} {' '.join(job.argv)}: {verdict.reason} {error}".strip()
    result.seconds = time.perf_counter() - start
    return result


def layer_metrics(tracer: tracing.Tracer, pass_span: tracing.Span) -> dict:
    """Per-function stats of the spans under one traced pass."""
    spans = [s for s in tracer.spans if s.start >= pass_span.start and s.end <= pass_span.end]
    stats = tracing.layer_stats(spans)
    layers = {
        name: {"calls": st.calls, "total_s": st.total_s, "self_s": st.self_s, **st.counts}
        for name, st in stats.items()
    }
    return {
        "layers": layers,
        "spans": len(spans),
        "useful_step_frac": tracing.useful_step_frac(spans),
        "max_array_mb": pass_span.attrs["max_array_bytes"] / 1e6,
    }


def provenance(workload: str, seed: int, jobs: list[workloads.Job]) -> dict:
    import numpy
    import scipy
    import thermofock
    from thermofock import kernels

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = {}
    for index in sorted((Path("/sys/devices/system/cpu/cpu0/cache")).glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    largest = max(workloads.largest_array_mb(job) for job in jobs)
    l3_mb = _size_mb(caches.get("L3"))
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": _git_commit(),
        "package_version": thermofock.__version__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "kernel_backend": kernels.backend_name(),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "largest_array_mb_computed": largest,
        "largest_array_over_l3": largest / l3_mb if l3_mb else None,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, or None where the checkout is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _size_mb(text: str | None) -> float | None:
    if not text:
        return None
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    scale = units.get(text[-1].upper(), 1)
    digits = text[:-1] if text[-1].upper() in units else text
    return int(digits) * scale / 1e6


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from thermofock import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"thermofock was imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    warm = workloads.warmup_job(args.workload)
    _, code, stdout, error = run_job(cli, warm)
    verdict = gate.check(warm, code, stdout)
    if not verdict.ok:
        print(f"warm-up job failed: {verdict.reason} {error}", file=sys.stderr)
        return 3
    print("ready", flush=True)
    if args.setup_only:
        return 0

    jobs = workloads.make_jobs(args.workload, args.seed)
    modules = [sys.modules[f"thermofock.{name}"] for name in TRACED_MODULES]
    plain: list[Pass] = []
    traced: list[Pass] = []
    layer_passes: list[dict] = []
    tracer = tracing.Tracer()
    deadline = time.perf_counter() + args.seconds
    longest_round = 0.0
    # untraced medians need more than one pass; a traced round holds two
    min_rounds = 1 if args.trace else 2
    while len(plain) < min_rounds or time.perf_counter() + longest_round <= deadline:
        round_start = time.perf_counter()
        plain.append(run_pass(cli, jobs))
        if args.trace:
            with tracer.patched(modules), tracer.span("pass") as pass_span:
                tracer.max_array_bytes = 0
                traced.append(run_pass(cli, jobs))
                pass_span.attrs["max_array_bytes"] = tracer.max_array_bytes
            layer_passes.append(layer_metrics(tracer, pass_span))
        longest_round = max(longest_round, time.perf_counter() - round_start)

    everything = plain + traced
    job_seconds = [s for p in plain for s in p.job_seconds]
    # the CLI promises byte-identical output for identical input
    for p in everything[1:]:
        for index, (digest, first) in enumerate(zip(p.digests, everything[0].digests)):
            if digest != first:
                p.failures.setdefault(index, f"job {index}: output differs from the first pass")
    failures = [f for p in everything for f in p.failures.values()]
    result = {
        "provenance": provenance(args.workload, args.seed, jobs),
        "jobs": [list(job.argv) for job in jobs],
        "passes": len(plain),
        "pass_seconds": [p.seconds for p in plain],
        "job_seconds": job_seconds,
        "attempted": sum(len(p.job_seconds) for p in everything),
        "failed": len(failures),
        "failures": failures[:20],
        "tau_err_max": max(p.tau_err_max for p in everything),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        result["traced_pass_seconds"] = [p.seconds for p in traced]
        result["layer_passes"] = layer_passes
        OUT.mkdir(exist_ok=True)
        spans = [[s.id, s.parent, s.name, s.start, s.end] for s in tracer.spans]
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"], "spans": spans}, fh)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
