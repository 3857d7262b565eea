"""Thermal states and their two-mode purifications.

A single-mode thermal (chaotic) state at dimensionless temperature tau has
geometric populations p_n = (1 - q) q^n with q = e^(-1/tau).  Its
purification is the thermal vacuum |0(beta)> = sech(theta) sum_n
tanh(theta)^n |n, n~| on the doubled space, generated from the two-mode
ground state by the squeeze operator exp[theta (a+ b+ - a b)] where b acts
on the tilde partner.

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
        """Boltzmann weight per quantum, tanh^2(theta)."""
        return math.tanh(self.theta) ** 2

    def tail_weight(self, cutoff: int) -> float:
        """Thermal weight beyond the cutoff: q^cutoff."""
        return self.q**cutoff


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


def pair_creation_block(layout: ModeLayout, d: int) -> np.ndarray:
    """a+ b+ restricted to sector d, in sector order: the real matrix with
    S[p+1, p] = sqrt((n_p + 1)(m_p + 1)) for the state p = (n_p, m_p~).

    a+ b+ raises both occupations, so it keeps d = n_tilde - n_sys and moves
    sector index p to p + 1; the block has cutoff - |d| states and is the
    same for d and -d.
    """
    if layout.modes != 2:
        raise fock.LayoutError("a+ b+ lives on a two-mode layout")
    p = np.arange(layout.cutoff - abs(d) - 1)
    block = np.zeros((p.size + 1, p.size + 1))
    block[p + 1, p] = np.sqrt((p + 1.0) * (p + 1.0 + abs(d)))
    return block


def thermo_squeeze_operator(theta: float, layout: ModeLayout) -> dict[int, np.ndarray]:
    """Unitary exp[theta (a+ b+ - a b)] mixing the system and tilde modes.

    The generator keeps the pair-number difference d, so the unitary is
    block diagonal; it is returned as {d: U_d}, U_d acting on sector d in
    sector order (see fock.sector_indices).  With S = pair_creation_block,
    theta (S - S^T) is real antisymmetric, and U_d = V exp(-i w) V^+ from one
    eigh of the hermitian i theta (S - S^T) = V diag(w) V^+.  Sectors d and
    -d share one array.
    """
    if layout.modes != 2:
        raise fock.LayoutError("the squeeze operator lives on a two-mode layout")
    if theta < 0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    unitaries = {}
    for d in range(layout.cutoff):
        pair_up = pair_creation_block(layout, d)
        w, v = np.linalg.eigh(1j * theta * (pair_up - pair_up.T))
        unitaries[d] = unitaries[-d] = (v * np.exp(-1j * w)) @ v.conj().T
    return unitaries


def tfd_expectation_identity(obs: np.ndarray, params: ThermoParams) -> tuple[complex, complex]:
    """Evaluate <0(beta)| A (x) 1 |0(beta)> and Tr(A rho_thermal) side by side.

    A is a (cutoff, cutoff) system observable.  On the untruncated space the
    two are equal for every system observable; on the truncated space they
    agree up to the thermal tail weight.  |0(beta)> pairs each |n> with its
    own |n~>, so the pure side is sum_n f_n^2 A_nn over the amplitudes f_n
    of the thermal vacuum.
    """
    layout = ModeLayout(obs.shape[0])
    # fock.expectation checks the shape of A before its diagonal is read
    mixed_side = fock.expectation(chaotic_state(params, layout), obs)
    amps = thermal_vacuum(params, layout.doubled()).factor(0)[:, 0]
    pure_side = complex(np.dot(amps * amps, np.diagonal(obs)))
    return pure_side, mixed_side


def evolved_two_mode_state(
    params: ThermoParams,
    kappa_t: float,
    layout: ModeLayout,
    deficit_tol: float = 1e-6,
) -> DensityMatrix:
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

    The exact state keeps a fraction tanh^2(theta)^cutoff of its weight above
    the truncation; a measured trace deficit beyond deficit_tol raises
    TruncationError instead of returning a visibly leaky state.
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

    deficit = 1.0 - np.vdot(factors, factors)
    if not deficit <= deficit_tol:
        raise TruncationError(
            f"trace deficit {deficit:.3e} exceeds {deficit_tol:.3e}; raise the cutoff"
        )
    return DensityMatrix._stored(layout, factors, range(n))
