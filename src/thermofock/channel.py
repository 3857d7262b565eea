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
products: per offset j - k for a single mode, per pair-number sector block
for two modes (see kernels).

The Lindblad route integrates d rho / dt = kappa (2 a rho a+ - {a+a, rho})
with fixed-step RK4 and checks trace drift at every requested time; both
routes converge to the same state.  lindblad_integrate takes a list of
times and steps one packed vector from each time to the next, so a grid
costs about one integration to its last time; rk4_step_count gives that
cost before any step is taken.
"""

from __future__ import annotations

import math

import numpy as np

from . import fock, kernels
from .fock import DensityMatrix, ModeLayout, Operator

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
    """Jump weight V = 1 - e^(-2 kappa t); a negative kappa_t raises ValueError."""
    if kappa_t < 0:
        raise ValueError(f"kappa_t must be >= 0, got {kappa_t}")
    return -math.expm1(-2.0 * kappa_t)


def damping_weights(cutoff: int, kappa_t: float) -> np.ndarray:
    """Table W[n, j] = e^(-kappa t j) sqrt(V^n C(j+n, n)) for n, j < cutoff.

    Built by the recurrence W[n, j] = W[n-1, j] sqrt(V (j + n) / n) from
    W[0, j] = e^(-kappa t j); every entry stays in [0, 1].
    """
    kappa_t = min(kappa_t, KAPPA_T_SATURATION)
    v = _jump_weight(kappa_t)
    w = np.zeros((cutoff, cutoff))
    w[0] = np.exp(-kappa_t * np.arange(cutoff))
    cols = np.arange(cutoff, dtype=np.float64)
    for n in range(1, cutoff):
        w[n] = w[n - 1] * np.sqrt(v * (cols + n) / n)
    return w


def kraus_operators(kappa_t: float, layout: ModeLayout) -> list[Operator]:
    """Materialize the single-mode Kraus family as dense operators.

    Built literally as sqrt(V^n / n!) e^(-kappa t a+a) a^n, with the diagonal
    e^(-kappa t a+a) taken entrywise; apply_kraus does not call this (it uses
    the weight table), so the two can check each other.  A two-mode layout
    raises LayoutError: its family would be cutoff dense matrices of
    cutoff^4 entries, and apply_kraus damps two-mode states by sector.
    """
    if layout.modes != 1:
        raise fock.LayoutError("kraus_operators builds the single-mode family")
    v = _jump_weight(kappa_t)
    decay = np.diag(np.exp(-kappa_t * np.arange(layout.cutoff)))
    a = fock.annihilation(layout).mat
    ops: list[Operator] = []
    power = np.eye(layout.dim, dtype=np.complex128)
    coef = 1.0
    for n in range(layout.cutoff):
        if n > 0:
            power = power @ a
            coef *= v / n
        ops.append(Operator(layout, math.sqrt(coef) * (decay @ power)))
    return ops


def _generator(layout: ModeLayout, blocks: dict, kappa: float) -> kernels.LindbladTable:
    """The packed damping generator for a state with these blocks."""
    sectors = {d: fock.sector_indices(layout, d) for d in fock._sector_range(layout)}
    return kernels.lindblad_table(sectors, blocks, kappa)


def apply_kraus(rho: DensityMatrix, kappa_t: float) -> DensityMatrix:
    """Push rho through the damping channel via the structured operator sum.

    The Kraus matrices are never formed.  A single-mode state is mapped per
    offset j - k by one banded product over its nonzero entries; a two-mode
    state is mapped block by block, input block (d, d') feeding output
    blocks (d + n, d' + n).  The family is complete, so the trace is
    preserved exactly (to round-off) even at the truncation boundary; a
    violation indicates a real defect and raises IntegrationError.
    """
    cutoff = rho.layout.cutoff
    weights = damping_weights(cutoff, kappa_t)
    if rho.layout.modes == 1:
        rho4 = rho.mat.reshape(cutoff, 1, cutoff, 1)
        out = {(0, 0): kernels.apply_damping(rho4, weights, cutoff).reshape(cutoff, cutoff)}
    else:
        out = kernels.damp_sectors(rho.blocks, weights)
    drift = abs(fock.sector_trace(out) - fock.trace(rho))
    if drift > TRACE_PRESERVATION_TOL:
        raise IntegrationError(f"operator sum changed the trace by {drift:.3e}")
    return DensityMatrix.from_blocks(rho.layout, out, trace_tol=rho.trace_tol + TRACE_PRESERVATION_TOL)


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

    One packed vector is stepped from 0 through the times in increasing
    order, each interval between consecutive times planned by _rk4_plan, so
    a time grid costs about one integration to its last time.  The state is
    re-hermitized every step, and a trace drift beyond 1e-6 at any time
    raises IntegrationError naming that time (the generator is exactly
    trace-free, so drift measures accumulated integration error).
    """
    if kappa <= 0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    times = [float(t) for t in times]
    if any(not t >= 0 for t in times):
        raise ValueError(f"times must be >= 0, got {times}")
    if dt is not None and dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    layout = rho.layout
    table = _generator(layout, rho.blocks, kappa)
    vec = table.pack(rho.blocks)
    n_steps = 0
    out: list = [None] * len(times)
    for i, t, interval, step, n_full, remainder in _rk4_schedule(times, kappa, dt):
        if n_full == math.inf:
            raise IntegrationError(f"a step of {step:.3e} cannot cover {interval:.3e}", time=t)
        n_tail = int(remainder > 0.0)
        vec = kernels.rk4_evolve(vec, table, step, n_full)
        vec = kernels.rk4_evolve(vec, table, remainder, n_tail)
        n_steps += n_full + n_tail
        blocks = table.unpack(vec)
        drift = abs(fock.sector_trace(blocks) - fock.trace(rho))
        if not drift <= TRACE_DRIFT_TOL:
            raise IntegrationError(f"trace drifted by {drift:.3e} over {n_steps} RK4 steps", time=t)
        out[i] = DensityMatrix.from_blocks(layout, blocks, trace_tol=rho.trace_tol + drift + 1e-12)
    return out
