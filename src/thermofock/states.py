"""Thermal states and their two-mode purifications.

A single-mode thermal (chaotic) state at dimensionless temperature tau has
geometric populations p_n = (1 - q) q^n with q = e^(-1/tau).  Its
purification is the thermal vacuum |0(beta)> = sech(theta) sum_n
tanh(theta)^n |n, n~| on the doubled space, generated from the two-mode
ground state by the squeeze operator exp[theta (a+ b+ - a b)] where b acts
on the tilde partner.  The thermal vacuum is built from its closed
amplitudes; verify builds the squeeze operator as an oracle.

Damping the system mode of the thermal vacuum for a time t (rate kappa)
gives a two-mode state with the closed form

    rho(t) = sech^2(theta) * E (|0><0| (x) sum_m mu^m |m~><m~|) E+,
    E = exp(lambda a+ b+),  lambda = e^(-kappa t) tanh(theta),
    mu = (1 - e^(-2 kappa t)) tanh^2(theta),

whose system reduction is thermal at the cooled temperature and whose tilde
reduction stays thermal at the initial temperature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock, thermo
from .fock import DensityMatrix, ModeLayout, StateError


class TruncationError(StateError):
    """The cutoff is too small to hold the requested state."""


@dataclass(frozen=True)
class ThermoParams:
    """One thermal state, fixed by its dimensionless temperature: a finite tau >= 0.

    The squeeze angle theta and the Boltzmann weight q are derived from tau
    on each access, so no second copy of the temperature can disagree with
    it; the mean occupation is thermo.nbar_from_tau(tau).
    """

    tau: float

    def __post_init__(self) -> None:
        if not 0 <= self.tau < math.inf:
            raise ValueError(f"tau must be finite and >= 0, got {self.tau}")

    @property
    def theta(self) -> float:
        """Squeeze angle of the purification: tanh(theta) = e^(-1/(2 tau))."""
        return thermo.theta_from_tau(self.tau)

    @property
    def q(self) -> float:
        """Boltzmann weight per quantum, e^(-1/tau) = tanh^2(theta); 0 at tau = 0.

        Taken from tau itself, so it keeps its digits where tanh(theta) is
        far below 1, down to the coldest tau whose weight is a normal float.
        """
        return math.exp(-1.0 / self.tau) if self.tau > 0 else 0.0

    def tail_weight(self, cutoff: int) -> float:
        """Thermal weight beyond the cutoff: q^cutoff."""
        return self.q**cutoff


def truncation_cutoff(params: ThermoParams, cutoff: int | None, deficit_tol: float = fock.DEFICIT_TOL) -> int:
    """The cutoff that holds params' thermal state: cutoff, or
    fock.default_cutoff when it is None.

    Every state built from params at that cutoff (the chaotic state, the
    thermal vacuum and its damped images) falls short of trace 1 by the
    tail weight q^cutoff, which would bias a temperature read off it; a
    tail above deficit_tol raises TruncationError.
    """
    if cutoff is None:
        cutoff = fock.default_cutoff(params.theta)
    tail = params.tail_weight(cutoff)
    if not tail <= deficit_tol:
        raise TruncationError(
            f"thermal tail weight {tail:.3e} at cutoff {cutoff} exceeds {deficit_tol:.3e}; raise the cutoff"
        )
    return cutoff


def chaotic_state(params: ThermoParams, layout: ModeLayout) -> DensityMatrix:
    """Single-mode thermal state diag((1 - q) q^n) on the truncated space,
    built through the checked dense constructor, which stores its one real
    diagonal.

    The populations are the exact infinite-space values, so the trace falls
    short of 1 by the tail weight q^cutoff, which the trace tolerance it is
    checked against admits.
    """
    if layout.modes != 1:
        raise fock.LayoutError("chaotic_state is single-mode")
    q = params.q
    pops = (1.0 - q) * q ** np.arange(layout.cutoff)
    tol = 1e-12 + params.tail_weight(layout.cutoff)
    return DensityMatrix(layout, np.diag(pops), trace_tol=tol)


def thermal_vacuum(params: ThermoParams, layout: ModeLayout) -> DensityMatrix:
    """The projector on |0(beta)> = sech(theta) sum_n tanh(theta)^n |n, n~>
    on the doubled space.

    |0(beta)> lies in pair-number sector 0, so the state is that sector's
    factor: the one real column sech(theta) tanh(theta)^n, read back with
    factor(0)[:, 0].  Its trace falls short of 1 by the tail weight
    q^cutoff.
    """
    if layout.modes != 2:
        raise fock.LayoutError("thermal_vacuum lives on a two-mode layout")
    n = layout.cutoff
    amps = (1.0 / math.cosh(params.theta)) * math.tanh(params.theta) ** np.arange(n)
    return DensityMatrix._stored(layout, amps[None, :, None], range(0, 1))


def evolved_two_mode_state(params: ThermoParams, kappa_t: float, layout: ModeLayout) -> DensityMatrix:
    """Build the damped thermal vacuum rho(t) on the truncated doubled space.

    lam and mu, fixed by theta and kappa t alone, are the lambda and mu of
    the module docstring; a negative or NaN kappa_t raises ValueError.

    E conserves the pair-number difference, so E|0, m~> lies in sector m and
    each term sech^2 mu^m E|0, m~><0, m~|E+ is the block m of the result,
    with the one-column factor sech mu^(m/2) E|0, m~>.  In sector m, lam a+
    b+ is nilpotent, so E|0, m~> is the finite series sum_n lam^n
    sqrt(C(m+n, n)) |n, (m+n)~>, whose amplitudes follow from the ratios
    lam sqrt((m + n) / n) of successive terms: one running product over n
    for all sectors at once.

    Damping leaves the tilde reduction thermal at the initial temperature,
    and every stored state has n_tilde >= n_sys, so the cut n_tilde < cutoff
    drops exactly the tilde tail: the trace falls short of 1 by the tail
    weight q^cutoff at every kappa t, as for chaotic_state and
    thermal_vacuum (truncation_cutoff bounds it).
    """
    if layout.modes != 2:
        raise fock.LayoutError("the evolved state lives on a two-mode layout")
    if not kappa_t >= 0:
        raise ValueError(f"kappa_t must be >= 0, got {kappa_t}")
    n = layout.cutoff
    th = math.tanh(params.theta)
    decay = math.exp(-kappa_t)
    lam = decay * th
    mu = (1.0 - decay * decay) * th * th

    # factors[m, k] is the amplitude of |k, (m+k)~>, zero past the cutoff
    m = np.arange(n)[:, None]
    k = np.arange(1, n)
    ratios = np.where(m + k < n, lam * np.sqrt((m + k) / k), 0.0)
    amps = np.cumprod(np.hstack([np.ones((n, 1)), ratios]), axis=1)
    factors = (np.sqrt((1.0 - th**2) * mu ** np.arange(n))[:, None] * amps)[:, :, None]
    return DensityMatrix._stored(layout, factors, range(n))
