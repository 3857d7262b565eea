"""The benchmark's workloads: lists of `thermofock` CLI invocations made from a seed.

Every job is one argv for `thermofock.cli.main`.  The seed only chooses
inputs; the program sees nothing but the generated argv.  Each workload
also has a fixed warm-up job, run once before timing starts and counted in
set-up time.

Why these four workloads (BENCHMARK.json gates two-mode and verify; the two
cool workloads spend their time in the interpreter, whose speed wanders too
much on a shared machine for the bounds, so they are run by hand):

- cool-kraus: many short single-mode `cool` jobs, where per-call costs
  (channel weights, `DensityMatrix` validation, the geometric fit, CSV
  output) sit next to the O(N^3) operator sum.  tau0 above ~3.97 needs a
  cutoff above 128 and is clamped there, so the clamped region is exercised;
  its bias shows in `tau_err_max`.  The operator sum at cutoff 128 takes
  most of the time.
- cool-lindblad: two `cool --method both` jobs, at cutoffs 48 and 64.  RK4
  restarts from t = 0 at every grid point, so `kernels.rk4_evolve`
  dominates.  No two-mode code.
- two-mode: dense two-mode states at cutoffs 33 and 48, where
  `fock.trace_distance` eigensolves and the four-index damping dominate,
  with a ride-along dimension R = N (cool-kraus has R = 1).
- verify: `verify --suite all` with fixed inputs, the only workload that
  runs the squeeze operator, the Kraus family and the `expm` route.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("cool-kraus", "cool-lindblad", "two-mode", "verify")

# The package picks the cutoff N as the smallest one with thermal tail
# q^N below this target, so N = ceil(TAIL_LOG * tau0) before clamping.
TAIL_TARGET = 1e-14
TAIL_LOG = -math.log(TAIL_TARGET)

# cool-kraus draws tau0 up to 6.5: the clamp at cutoff 128 starts at 3.97,
# and up to 6.5 its bias (at most 1.8e-8) stays below the 1e-7 gate, so no
# job fails at the parent while the clamped region is still measured.
COOL_KRAUS_TAU0 = (0.2, 6.5)
COOL_KRAUS_GRID = 8  # 8 x 8 strata of (log tau0, steps): 64 jobs
COOL_STEPS = (8, 64)
COOL_KAPPA_T_MAX = (0.5, 4.0)
KAPPA = (0.5, 2.0)

# RK4 cost depends on tau0 only through the cutoff, and the number of RK4
# steps does not depend on kappa (dt = 1e-3 / kappa); each job therefore
# draws tau0 from the band that maps to a fixed cutoff, and kappa freely.
# Small cutoffs are left out: their RK4 steps are pure per-call overhead,
# whose wall time wanders most on a shared machine.
LINDBLAD_CUTOFFS = (48, 64)
LINDBLAD_KAPPA_T_MAX = 2.0
LINDBLAD_STEPS = 16

# two-mode: tau0 ranges keep q^N below the tail target at each cutoff.
TWO_MODE_JOBS = ((33, (0.5, 1.0)), (48, (0.7, 1.45)))


@dataclass(frozen=True)
class Job:
    """One CLI invocation plus the inputs its correctness gate needs."""

    command: str
    argv: tuple[str, ...]
    tau0: float = 0.0
    kappa: float = 0.0
    t_max: float = 0.0
    steps: int = 0


def _num(x: float) -> str:
    # repr round-trips, so the CLI parses exactly the value the gate uses
    return repr(float(x))


def curve_job(command: str, tau0: float, kappa: float, t_max: float, steps: int, *extra: str) -> Job:
    argv = (
        command,
        "--tau0", _num(tau0),
        "--kappa", _num(kappa),
        "--t-max", _num(t_max),
        "--steps", str(steps),
        *extra,
    )
    return Job(command, argv, tau0, kappa, t_max, steps)


def _log_uniform(rng: random.Random, lo: float, hi: float, u: float | None = None) -> float:
    u = rng.random() if u is None else u
    return lo * (hi / lo) ** u


def _cool_kraus(rng: random.Random) -> list[Job]:
    # Job cost grows steeply with tau0 (cutoff) and linearly with steps, so
    # both are stratified together: every tau0 stratum meets each of the k
    # stratum midpoints of steps once.  The cost of a pass and the upper
    # quantiles of job time then barely depend on the seed.
    k = COOL_KRAUS_GRID
    n_jobs = k * k
    kt_strata = rng.sample(range(n_jobs), n_jobs)
    lo_steps, hi_steps = COOL_STEPS
    jobs = []
    for cell, kt_stratum in zip(range(n_jobs), kt_strata):
        i, j = divmod(cell, k)
        tau0 = _log_uniform(rng, *COOL_KRAUS_TAU0, u=(i + rng.random()) / k)
        steps = lo_steps + (2 * j + 1) * (hi_steps - lo_steps) // (2 * k)
        kappa_t_max = _log_uniform(rng, *COOL_KAPPA_T_MAX, u=(kt_stratum + rng.random()) / n_jobs)
        kappa = _log_uniform(rng, *KAPPA)
        jobs.append(curve_job("cool", tau0, kappa, kappa_t_max / kappa, steps))
    rng.shuffle(jobs)
    return jobs


def tau0_band(cutoff: int) -> tuple[float, float]:
    """tau0 interval whose automatic cutoff is exactly `cutoff`."""
    return (cutoff - 1) / TAIL_LOG, cutoff / TAIL_LOG


def _cool_lindblad(rng: random.Random) -> list[Job]:
    jobs = []
    for cutoff in LINDBLAD_CUTOFFS:
        lo, hi = tau0_band(cutoff)
        # keep clear of the band edges so rounding cannot move the cutoff
        tau0 = lo + (hi - lo) * (0.05 + 0.9 * rng.random())
        kappa = _log_uniform(rng, *KAPPA)
        jobs.append(
            curve_job(
                "cool", tau0, kappa, LINDBLAD_KAPPA_T_MAX / kappa, LINDBLAD_STEPS, "--method", "both"
            )
        )
    return jobs


def _two_mode(rng: random.Random) -> list[Job]:
    jobs = []
    for cutoff, (lo, hi) in TWO_MODE_JOBS:
        tau0 = lo + (hi - lo) * rng.random()
        kappa = _log_uniform(rng, *KAPPA)
        kappa_t_max = _log_uniform(rng, *COOL_KAPPA_T_MAX)
        jobs.append(curve_job("two-mode", tau0, kappa, kappa_t_max / kappa, 1, "--cutoff", str(cutoff)))
    return jobs


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The job list of one pass; the same seed always gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cool-kraus":
        return _cool_kraus(rng)
    if workload == "cool-lindblad":
        return _cool_lindblad(rng)
    if workload == "two-mode":
        return _two_mode(rng)
    if workload == "verify":
        return [Job("verify", ("verify", "--suite", "all"))]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def warmup_job(workload: str) -> Job:
    """Small fixed job of the workload's subcommand, run once before timing."""
    if workload == "cool-kraus":
        return curve_job("cool", 1.0, 1.0, 1.0, 2)
    if workload == "cool-lindblad":
        return curve_job("cool", 0.5, 1.0, 0.05, 1, "--method", "both")
    if workload == "two-mode":
        return curve_job("two-mode", 0.25, 1.0, 1.0, 1, "--cutoff", "8")
    if workload == "verify":
        return Job("verify", ("verify", "--suite", "thermo"))
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def job_cutoff(job: Job) -> int:
    """Fock cutoff a job runs at: explicit, or the package's automatic rule."""
    if "--cutoff" in job.argv:
        return int(job.argv[job.argv.index("--cutoff") + 1])
    if job.command == "verify":
        return 33  # the verify suite's two-mode default
    return max(8, min(128, math.ceil(TAIL_LOG * job.tau0)))


def largest_array_mb(job: Job) -> float:
    """Computed size of the largest dense complex matrix a job builds."""
    n = job_cutoff(job)
    dim = n * n if job.command in ("two-mode", "verify") else n
    return 16.0 * dim * dim / 1e6
