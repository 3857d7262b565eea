"""Amplitude-damping channel: Kraus operator sum and Lindblad integration.

The channel damps one mode at rate kappa for a time t.  Its Kraus family is

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
with fixed-step RK4 and checks trace drift afterwards; both routes converge
to the same state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock, kernels
from .fock import DensityMatrix, ModeLayout, Operator

TRACE_PRESERVATION_TOL = 1e-10
TRACE_DRIFT_TOL = 1e-6


class IntegrationError(RuntimeError):
    """The Lindblad integration left its validity envelope."""


@dataclass(frozen=True)
class ChannelSpec:
    """Amplitude-damping channel with total decay exponent kappa * t.

    max_kraus limits the operator sum to K_0..K_{max_kraus-1}; None means
    every order the cutoff admits, which is the exactly complete family.
    """

    kappa_t: float
    max_kraus: int | None = None
    target_mode: str = fock.SYSTEM

    def __post_init__(self) -> None:
        if self.kappa_t < 0:
            raise ValueError(f"kappa_t must be >= 0, got {self.kappa_t}")
        if self.max_kraus is not None and self.max_kraus < 1:
            raise ValueError(f"max_kraus must be >= 1, got {self.max_kraus}")
        if self.target_mode not in (fock.SYSTEM, fock.TILDE):
            raise ValueError(f"target_mode must be system or tilde, got {self.target_mode!r}")

    @property
    def v(self) -> float:
        """Jump weight V = 1 - e^(-2 kappa t)."""
        return -math.expm1(-2.0 * self.kappa_t)


def damping_weights(cutoff: int, kappa_t: float, n_kraus: int) -> np.ndarray:
    """Table W[n, j] = e^(-kappa t j) sqrt(V^n C(j+n, n)) for n < n_kraus.

    Built by the recurrence W[n, j] = W[n-1, j] sqrt(V (j + n) / n) from
    W[0, j] = e^(-kappa t j); every entry stays in [0, 1].
    """
    v = -math.expm1(-2.0 * kappa_t)
    w = np.zeros((n_kraus, cutoff))
    w[0] = np.exp(-kappa_t * np.arange(cutoff))
    cols = np.arange(cutoff, dtype=np.float64)
    for n in range(1, n_kraus):
        w[n] = w[n - 1] * np.sqrt(v * (cols + n) / n)
    return w


def kraus_operators(spec: ChannelSpec, layout: ModeLayout) -> list[Operator]:
    """Materialize the single-mode Kraus family as dense operators.

    Built literally as sqrt(V^n / n!) e^(-kappa t a+a) a^n, with the diagonal
    e^(-kappa t a+a) taken entrywise; apply_kraus does not call this (it uses
    the weight table), so the two can check each other.  A two-mode layout
    raises LayoutError: its family would be n_kraus dense matrices of
    cutoff^4 entries, and apply_kraus damps two-mode states by sector.
    """
    if layout.modes != 1:
        raise fock.LayoutError("kraus_operators builds the single-mode family")
    n_kraus = spec.max_kraus or layout.cutoff
    decay = np.diag(np.exp(-spec.kappa_t * np.arange(layout.cutoff)))
    a = fock.annihilation(layout).mat
    ops: list[Operator] = []
    power = np.eye(layout.dim, dtype=np.complex128)
    coef = 1.0
    for n in range(n_kraus):
        if n > 0:
            power = power @ a
            coef *= spec.v / n
        ops.append(Operator(layout, math.sqrt(coef) * (decay @ power)))
    return ops


def _system_slot(layout: ModeLayout, blocks: dict, target_mode: str) -> dict:
    """The sector blocks with the damped mode in the system slot.

    Exchanging the modes is its own inverse, so the same call maps a
    kernel's output back.
    """
    if target_mode == fock.SYSTEM:
        return blocks
    if layout.modes == 1:
        raise fock.LayoutError("single-mode states have no tilde mode to damp")
    return fock.swap_modes(blocks)


def _generator(layout: ModeLayout, blocks: dict, kappa: float) -> kernels.LindbladTable:
    """The packed damping generator for a state with these blocks."""
    sectors = {d: fock.sector_indices(layout, d) for d in fock._sector_range(layout)}
    return kernels.lindblad_table(sectors, blocks, kappa)


def apply_kraus(rho: DensityMatrix, spec: ChannelSpec) -> DensityMatrix:
    """Push rho through the damping channel via the structured operator sum.

    The Kraus matrices are never formed.  A single-mode state is mapped per
    offset j - k by one banded product over its nonzero entries; a two-mode
    state is mapped block by block, input block (d, d') feeding output
    blocks (d + n, d' + n) for a damped system mode.  With the full Kraus
    family the trace is preserved exactly (to round-off) even at the
    truncation boundary; a violation indicates a real defect and raises
    IntegrationError.
    """
    cutoff = rho.layout.cutoff
    n_kraus = min(spec.max_kraus or cutoff, cutoff)
    weights = damping_weights(cutoff, spec.kappa_t, n_kraus)
    blocks = _system_slot(rho.layout, rho.blocks, spec.target_mode)
    if rho.layout.modes == 1:
        rho4 = rho.mat.reshape(cutoff, 1, cutoff, 1)
        out = {(0, 0): kernels.apply_damping(rho4, weights, n_kraus).reshape(cutoff, cutoff)}
    else:
        out = _system_slot(rho.layout, kernels.damp_sectors(blocks, weights, n_kraus, cutoff), spec.target_mode)
    tr = fock.sector_trace(out)
    if spec.max_kraus is None:
        drift = abs(tr - fock.trace(rho))
        if drift > TRACE_PRESERVATION_TOL:
            raise IntegrationError(f"operator sum changed the trace by {drift:.3e}")
        tol = rho.trace_tol + TRACE_PRESERVATION_TOL
    else:
        # a deliberately capped family is lossy; carry the measured deficit
        tol = abs(tr - 1.0) + rho.trace_tol + TRACE_PRESERVATION_TOL
    return DensityMatrix.from_blocks(rho.layout, out, trace_tol=tol)


def lindblad_rhs(rho: Operator | DensityMatrix, kappa: float, target_mode: str = fock.SYSTEM) -> Operator:
    """kappa (2 a rho a+ - a+a rho - rho a+a) on a single mode, evaluated by
    the packed generator that lindblad_integrate runs on either layout."""
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    layout = rho.layout
    if layout.modes == 2:
        raise fock.LayoutError("lindblad_rhs acts on single-mode operators")
    blocks = _system_slot(layout, {(0, 0): rho.mat}, target_mode)
    table = _generator(layout, blocks, kappa)
    return Operator(layout, table.unpack(table.rhs(table.pack(blocks)))[(0, 0)])


def lindblad_integrate(
    rho: DensityMatrix,
    kappa: float,
    t_final: float,
    dt: float | None = None,
    target_mode: str = fock.SYSTEM,
) -> DensityMatrix:
    """Integrate the damping generator from 0 to t_final with fixed-step RK4.

    The default step is min(1e-3 / kappa, t_final / 100); a remainder step
    covers grids that do not divide t_final evenly.  The state is
    re-hermitized every step, and a final trace drift beyond 1e-6 raises
    IntegrationError (the generator is exactly trace-free, so drift measures
    accumulated integration error).
    """
    if kappa <= 0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    if t_final < 0:
        raise ValueError(f"t_final must be >= 0, got {t_final}")
    layout = rho.layout
    blocks = _system_slot(layout, rho.blocks, target_mode)
    if t_final == 0:
        blocks = {key: block.copy() for key, block in rho.blocks.items()}
        return DensityMatrix.from_blocks(layout, blocks, trace_tol=rho.trace_tol)
    if dt is None:
        # t_final / 100 underflows to 0 below about 5e-322; one step covers that
        dt = min(1e-3 / kappa, t_final / 100.0) or t_final
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    n_full = int(t_final / dt)
    remainder = t_final - n_full * dt
    if remainder < 1e-12 * dt:
        remainder = 0.0
    n_tail = int(remainder > 0.0)

    table = _generator(layout, blocks, kappa)
    vec = kernels.rk4_evolve(table.pack(blocks), table, dt, n_full)
    vec = kernels.rk4_evolve(vec, table, remainder, n_tail)
    out = _system_slot(layout, table.unpack(vec), target_mode)
    drift = abs(fock.sector_trace(out) - fock.trace(rho))
    if drift > TRACE_DRIFT_TOL:
        raise IntegrationError(
            f"trace drifted by {drift:.3e} over {n_full + n_tail} RK4 steps"
        )
    return DensityMatrix.from_blocks(layout, out, trace_tol=rho.trace_tol + drift + 1e-12)
