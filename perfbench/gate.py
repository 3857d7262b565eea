"""Per-job correctness gate: checks one CLI job's exit code and output.

The bounds are the package's own and nothing looser:

- cool rows: |tau_numeric - tau_closed| < 1e-7, the bound of the
  acceptance test `test_closed_form_temperature_matches_simulation`;
- two-mode rows: trace distance < 1e-8, system tau within 1e-7 of the
  closed form, tilde nbar within 1e-8 of nbar(tau0);
- verify: exit code 0 and every line PASS.

On top of these, the gate checks what the job asked for: the header, one
row per grid point, the kappa*t column, and tau_closed against the cooling
law as evaluated here, independently of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from perfbench.workloads import Job

COOL_HEADER = "kappa_t,tau_closed,tau_numeric,nbar,trace_error"
TWO_MODE_HEADER = "kappa_t,trace_dist_analytic_vs_kraus,sys_tau_numeric,sys_tau_closed,tilde_nbar,purity_total"

TAU_TOL = 1e-7
TRACE_DIST_TOL = 1e-8
TILDE_NBAR_TOL = 1e-8
# the CSV carries 12 significant digits
CSV_REL_TOL = 1e-10

# verify lines that compare two temperatures; their largest observed value
# is the verify workload's tau error
VERIFY_TAU_CHECKS = ("effective_temperature_roundtrip", "theta_prime_vs_cooling_law", "cooling_law_vs_nbar_oracle")


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""
    tau_err: float = 0.0


def tau_after(tau0: float, kappa_t: float) -> float:
    """Closed-form cooling law tau' = -1 / ln(s q / (1 - (1 - s) q))."""
    q = math.exp(-1.0 / tau0)
    s = math.exp(-2.0 * kappa_t)
    return -1.0 / math.log(s * q / (1.0 - (1.0 - s) * q))


def nbar_from_tau(tau: float) -> float:
    return 1.0 / math.expm1(1.0 / tau)


def _close(a: float, b: float, rel: float = CSV_REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _rows(job: Job, text: str, header: str) -> list[list[float]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"bad CSV header {lines[:1]!r}")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    if len(rows) != job.steps + 1:
        raise ValueError(f"{len(rows)} rows for {job.steps} steps")
    width = header.count(",") + 1
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"row {i} has {len(row)} fields, not {width}")
        kappa_t = job.kappa * (job.t_max * i / job.steps)
        if not _close(row[0], kappa_t):
            raise ValueError(f"row {i}: kappa_t {row[0]!r}, expected {kappa_t!r}")
        closed = tau_after(job.tau0, kappa_t)
        if not _close(row[1] if header == COOL_HEADER else row[3], closed):
            raise ValueError(f"row {i}: tau_closed differs from the cooling law {closed!r}")
    return rows


def _check_cool(job: Job, text: str) -> Verdict:
    rows = _rows(job, text, COOL_HEADER)
    errs = [abs(r[2] - r[1]) for r in rows]
    worst = max(errs)
    for i, err in enumerate(errs):
        if not err < TAU_TOL:
            return Verdict(False, f"row {i}: |tau_numeric - tau_closed| = {err:.3e}", worst)
    return Verdict(True, tau_err=worst)


def _check_two_mode(job: Job, text: str) -> Verdict:
    rows = _rows(job, text, TWO_MODE_HEADER)
    nbar0 = nbar_from_tau(job.tau0)
    worst = max(abs(r[2] - r[3]) for r in rows)
    for i, (_, dist, tau_num, tau_closed, tilde_nbar, _) in enumerate(rows):
        if not dist < TRACE_DIST_TOL:
            return Verdict(False, f"row {i}: trace distance {dist:.3e}", worst)
        if not abs(tau_num - tau_closed) < TAU_TOL:
            return Verdict(False, f"row {i}: |sys_tau_numeric - sys_tau_closed| = {abs(tau_num - tau_closed):.3e}", worst)
        if not abs(tilde_nbar - nbar0) < TILDE_NBAR_TOL:
            return Verdict(False, f"row {i}: |tilde_nbar - nbar(tau0)| = {abs(tilde_nbar - nbar0):.3e}", worst)
    return Verdict(True, tau_err=worst)


def _check_verify(text: str) -> Verdict:
    lines = text.splitlines()
    if not lines:
        return Verdict(False, "verify printed nothing")
    worst = 0.0
    for line in lines:
        fields = line.split()
        if len(fields) != 4 or fields[0] != "PASS":
            return Verdict(False, f"not a PASS line: {line!r}")
        if fields[1] in VERIFY_TAU_CHECKS:
            worst = max(worst, float(fields[2]))
    return Verdict(True, tau_err=worst)


def check(job: Job, exit_code: int, stdout: str) -> Verdict:
    """Gate one job; a bad exit code or unparsable output fails it."""
    if exit_code != 0:
        return Verdict(False, f"exit code {exit_code}")
    try:
        if job.command == "cool":
            return _check_cool(job, stdout)
        if job.command == "two-mode":
            return _check_two_mode(job, stdout)
        return _check_verify(stdout)
    except ValueError as exc:
        return Verdict(False, str(exc))
