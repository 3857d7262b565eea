"""Amplitude-damping channel: Kraus operator sum and Lindblad integration.

The channel damps the system mode at rate kappa for a time t; in a two-mode
layout the tilde partner is left alone, as in the thermal-vacuum picture of
a damped thermal mode.  Its Kraus family is

    K_n = sqrt(V^n / n!) e^(-kappa t a+a) a^n,   V = 1 - e^(-2 kappa t),

so K_n removes exactly n quanta; on a space truncated at N occupations the
family K_0..K_{N-1} is exactly complete (sum K_n+ K_n = 1).  The matrix
element of K_n taking occupation j+n to j is

    W[n, j] = e^(-kappa t j) sqrt(V^n C(j+n, n)),

every factor of which is <= 1, so the table is built by a stable recurrence
and the operator sum is applied from the table instead of explicit matrix
products: on each stored offset diagonal for a single mode (see kernels),
and on the sector factors for two modes, where K_n takes sector d to
sector d + n.  The explicit matrices are an oracle that verify builds.

The Lindblad route integrates d rho / dt = kappa (2 a rho a+ - {a+a, rho})
for a single mode with fixed-step RK4, taken as powers of the step matrix
(see kernels), and checks the trace drift and the populations at every
requested time; both routes converge to the same state.
lindblad_integrate takes a list of times and steps the stored diagonals
from each time to the next, so a grid costs about one integration to its
last time; rk4_step_count gives that cost before any step is taken.
"""

from __future__ import annotations

import math

import numpy as np

from . import fock, kernels
from .fock import DensityMatrix

TRACE_PRESERVATION_TOL = 1e-10
TRACE_DRIFT_TOL = 1e-6


class IntegrationError(RuntimeError):
    """The Lindblad integration left its validity envelope, at time when known."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


# From kappa t = 750 on, e^(-kappa t) underflows to 0 and V rounds to 1, so the
# weight table no longer changes.  Clamping there keeps a huge kappa t from
# overflowing kappa t * j, and kappa t = inf from giving 0 * inf = nan.
KAPPA_T_SATURATION = 750.0


def _jump_weight(kappa_t: float) -> float:
    """Jump weight V = 1 - e^(-2 kappa t); a negative or NaN kappa_t raises
    ValueError, and kappa_t = inf gives V = 1."""
    if not kappa_t >= 0:
        raise ValueError(f"kappa_t must be >= 0, got {kappa_t}")
    return -math.expm1(-2.0 * kappa_t)


def damping_weights(cutoff: int, kappa_t: float) -> np.ndarray:
    """Table W[n, j] = e^(-kappa t j) sqrt(V^n C(j+n, n)) for n, j < cutoff.

    Built by the recurrence W[n, j] = W[n-1, j] sqrt(V (j + n) / n) from
    W[0, j] = e^(-kappa t j), as one running product down the columns;
    every entry stays in [0, 1].
    """
    kappa_t = min(kappa_t, KAPPA_T_SATURATION)
    v = _jump_weight(kappa_t)
    cols = np.arange(cutoff, dtype=np.float64)
    n = np.arange(1, cutoff, dtype=np.float64)[:, None]
    steps = np.vstack([np.exp(-kappa_t * cols), np.sqrt(v * (cols + n) / n)])
    return np.cumprod(steps, axis=0)


def apply_kraus(rho: DensityMatrix, kappa_t: float) -> DensityMatrix:
    """Push rho through the damping channel via the structured operator sum.

    The Kraus matrices are never formed.  K_n lowers an occupation by n
    with weight W[n, j], so both branches read the rows j + n of the state
    through kernels._lowered.  A single-mode state is mapped on each stored
    offset diagonal by kernels.apply_damping.  On a two-mode state K_n
    takes system occupation j + n of sector d to j of sector d + n, so the
    images of one input sector are the weight table times its lowered
    factor, stacked over n; each input sector's images take their own
    columns.  The thermal vacuum is one sector of one column, whose images
    are one triangular cutoff x cutoff array.  The family is complete, so
    the trace is preserved exactly (to round-off) even at the truncation
    boundary; a violation indicates a real defect and raises
    IntegrationError.
    """
    cutoff = rho.layout.cutoff
    weights = damping_weights(cutoff, kappa_t)
    if rho.factors is None:
        out = kernels.apply_damping(rho.diagonals.T, weights, cutoff).T
        _check_preserved(fock.diagonal_populations(out).sum(), rho)
        return DensityMatrix._stored(rho.layout, out)
    count, _, rank = rho.factors.shape
    # output sector d + n sits n rows below input sector d; none reaches d >= cutoff
    start = rho.sectors.start
    stop = min(rho.sectors.stop + cutoff - 1, cutoff)
    out = np.zeros((stop - start, cutoff, count * rank), dtype=rho.factors.dtype)
    for i in range(count):
        images = weights[:, :, None] * kernels._lowered(rho.factors[i], cutoff)
        out[i:i + cutoff, :, i * rank:(i + 1) * rank] = images[:stop - start - i]
    _check_preserved(np.vdot(out, out).real, rho)
    return DensityMatrix._stored(rho.layout, out, range(start, stop))


def _check_preserved(trace_out: complex, rho: DensityMatrix) -> None:
    drift = abs(trace_out - fock.trace(rho))
    if not drift <= TRACE_PRESERVATION_TOL:
        raise IntegrationError(f"operator sum changed the trace by {drift:.3e}")


def _rk4_plan(interval: float, kappa: float, dt: float | None = None) -> tuple[float, int | float, float]:
    """Step length, number of full steps and remainder step covering one interval.

    The default step is min(1e-3 / kappa, interval / 100); a remainder step
    covers an interval the step does not divide evenly.  The full-step count
    is inf when interval / step overflows.
    """
    if interval == 0:
        return 0.0, 0, 0.0
    if dt is None:
        # interval / 100 underflows to 0 below about 5e-322; one step covers that
        dt = min(1e-3 / kappa, interval / 100.0) or interval
    ratio = interval / dt
    if ratio == math.inf:
        return dt, math.inf, 0.0
    n_full = int(ratio)
    remainder = interval - n_full * dt
    if remainder < 1e-12 * dt:
        remainder = 0.0
    return dt, n_full, remainder


def _rk4_schedule(times: list[float], kappa: float, dt: float | None):
    """Yield (index, time, interval, step, n_full, remainder) in increasing time.

    Each interval runs from the previous time (0 at first) and is planned by
    _rk4_plan.
    """
    now = 0.0
    for i in sorted(range(len(times)), key=times.__getitem__):
        t = times[i]
        yield (i, t, t - now, *_rk4_plan(t - now, kappa, dt))
        now = t


def rk4_step_count(times, kappa: float) -> float:
    """Total RK4 steps lindblad_integrate takes to reach every time in times.

    The steps are summed as floats, so a count too large to hold reads inf.
    """
    plans = _rk4_schedule([float(t) for t in times], kappa, None)
    return sum(float(n_full) + (remainder > 0.0) for *_, n_full, remainder in plans)


def lindblad_integrate(
    rho: DensityMatrix, kappa: float, times, dt: float | None = None
) -> list[DensityMatrix]:
    """Integrate the damping generator with fixed-step RK4; one state per time.

    rho is a single-mode state: a two-mode one raises LayoutError, since the
    operator sum damps it exactly.  Its stored diagonals are stepped from 0
    through the times in increasing order, each interval between
    consecutive times planned by _rk4_plan, so a time grid costs about one
    integration to its last time.  kernels.rk4_evolve takes the full steps
    of an interval as one power of each diagonal's RK4 step matrix, which
    the equal intervals of a uniform grid share, and the remainder step as
    one more call.  Each returned state holds as many diagonals as rho: a
    chaotic state, cutoff reals per time.

    At each time, a trace drift beyond TRACE_DRIFT_TOL raises
    IntegrationError naming that time (the generator is exactly trace-free,
    so drift measures accumulated integration error), and so does a
    population outside [-TRACE_DRIFT_TOL, 1 + TRACE_DRIFT_TOL]: RK4 keeps
    the trace of a trace-free map exactly, so an unstable step shows only
    in the populations.
    """
    if not kappa > 0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    times = [float(t) for t in times]
    if any(not t >= 0 for t in times):
        raise ValueError(f"times must be >= 0, got {times}")
    if dt is not None and dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if rho.layout.modes != 1:
        raise fock.LayoutError("lindblad_integrate damps a single-mode state; apply_kraus damps two modes exactly")
    table = kernels.lindblad_table(rho.diagonals, kappa)
    # the powered step of each (step, full-step count) the grid uses
    powers: dict = {}
    diagonals = rho.diagonals
    n_steps = 0
    out: list = [None] * len(times)
    for i, t, interval, step, n_full, remainder in _rk4_schedule(times, kappa, dt):
        if n_full == math.inf:
            raise IntegrationError(f"a step of {step:.3e} cannot cover {interval:.3e}", time=t)
        n_tail = int(remainder > 0.0)
        diagonals = kernels.rk4_evolve(diagonals, table, step, n_full, powers=powers)
        diagonals = kernels.rk4_evolve(diagonals, table, remainder, n_tail)
        n_steps += n_full + n_tail
        pops = fock.diagonal_populations(diagonals)
        drift = abs(pops.sum() - fock.trace(rho))
        if not drift <= TRACE_DRIFT_TOL:
            raise IntegrationError(f"trace drifted by {drift:.3e} over {n_steps} RK4 steps", time=t)
        outside = np.maximum(-pops, pops - 1.0)
        if not outside.max() <= TRACE_DRIFT_TOL:
            worst = pops[np.argmax(outside)]
            raise IntegrationError(f"population {worst:.6g} left [0, 1] over {n_steps} RK4 steps", time=t)
        out[i] = DensityMatrix._stored(rho.layout, diagonals)
    return out
