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
from .fock import DensityMatrix, ModeLayout, Operator, PureState, StateError


class TruncationError(StateError):
    """The cutoff is too small to hold the requested state."""


@dataclass(frozen=True)
class ThermoParams:
    """Consistent (theta, tau, nbar) triple for one thermal state.

    The three parametrizations are redundant; the constructor enforces
    sinh^2(theta) = nbar = 1/(e^(1/tau) - 1) so a mixed-up triple cannot
    propagate.  Build instances with from_tau.
    """

    theta: float
    tau: float
    nbar: float

    def __post_init__(self) -> None:
        if self.theta < 0 or self.tau < 0 or self.nbar < 0:
            raise ValueError("theta, tau, nbar must all be >= 0")
        scale = 1.0 + self.nbar
        if abs(math.sinh(self.theta) ** 2 - self.nbar) > 1e-9 * scale:
            raise ValueError(f"inconsistent pair: sinh^2({self.theta}) != {self.nbar}")
        if abs(thermo.nbar_from_tau(self.tau) - self.nbar) > 1e-9 * scale:
            raise ValueError(f"inconsistent pair: nbar({self.tau}) != {self.nbar}")

    @classmethod
    def from_tau(cls, tau: float) -> "ThermoParams":
        return cls(theta=thermo.theta_from_tau(tau), tau=tau, nbar=thermo.nbar_from_tau(tau))

    @property
    def q(self) -> float:
        """Boltzmann weight per quantum, tanh^2(theta)."""
        return math.tanh(self.theta) ** 2

    def tail_weight(self, cutoff: int) -> float:
        """Thermal weight beyond the cutoff: q^cutoff."""
        return self.q**cutoff


def chaotic_state(params: ThermoParams, layout: ModeLayout) -> DensityMatrix:
    """Single-mode thermal state diag((1 - q) q^n) on the truncated space.

    The populations are the exact infinite-space values, so the trace falls
    short of 1 by the tail weight q^cutoff; the instance carries that
    deficit in its trace tolerance.
    """
    if layout.modes != 1:
        raise fock.LayoutError("chaotic_state is single-mode")
    q = params.q
    pops = (1.0 - q) * q ** np.arange(layout.cutoff)
    tol = 1e-12 + params.tail_weight(layout.cutoff)
    return DensityMatrix(layout, np.diag(pops.astype(np.complex128)), trace_tol=tol)


def thermal_vacuum(params: ThermoParams, layout: ModeLayout) -> PureState:
    """|0(beta)> = sech(theta) sum_n tanh(theta)^n |n, n~| on the doubled space."""
    if layout.modes != 2:
        raise fock.LayoutError("thermal_vacuum lives on a two-mode layout")
    n = layout.cutoff
    amps = (1.0 / math.cosh(params.theta)) * math.tanh(params.theta) ** np.arange(n)
    vec = np.zeros(layout.dim, dtype=np.complex128)
    vec[np.arange(n) * n + np.arange(n)] = amps
    return PureState(layout, vec, norm_tol=params.tail_weight(n) + 1e-12)


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


def tfd_expectation_identity(obs: Operator, params: ThermoParams) -> tuple[complex, complex]:
    """Evaluate <0(beta)| A (x) 1 |0(beta)> and Tr(A rho_thermal) side by side.

    On the untruncated space the two are equal for every system observable;
    on the truncated space they agree up to the thermal tail weight.
    """
    if obs.layout.modes != 1:
        raise fock.LayoutError("the observable acts on the system mode alone")
    doubled = obs.layout.doubled()
    psi = thermal_vacuum(params, doubled)
    grid = psi.vec.reshape(obs.layout.cutoff, obs.layout.cutoff)
    pure_side = complex(np.vdot(grid, obs.mat @ grid))
    rho = chaotic_state(params, obs.layout)
    mixed_side = fock.expectation(rho, obs)
    return pure_side, mixed_side


@dataclass(frozen=True)
class EvolvedTwoModeSpec:
    """The damped thermal vacuum in closed form, fixed by theta and kappa t.

    lam = e^(-kappa t) tanh(theta) weights the surviving pair correlations,
    mu = (1 - e^(-2 kappa t)) tanh^2(theta) weights the tilde-side mixture
    left behind by quanta lost from the system mode.
    """

    theta: float
    kappa_t: float

    def __post_init__(self) -> None:
        if self.theta < 0 or self.kappa_t < 0:
            raise ValueError("theta and kappa_t must be >= 0")

    @property
    def lam(self) -> float:
        return math.exp(-self.kappa_t) * math.tanh(self.theta)

    @property
    def mu(self) -> float:
        th = math.tanh(self.theta)
        decay = math.exp(-self.kappa_t)
        return (1.0 - decay * decay) * th * th


def evolved_two_mode_state(
    spec: EvolvedTwoModeSpec,
    layout: ModeLayout,
    deficit_tol: float = 1e-6,
) -> DensityMatrix:
    """Build the damped thermal vacuum rho(t) on the truncated doubled space.

    E conserves the pair-number difference, so E|0, m~> lies in sector m and
    each term sech^2 mu^m E|0, m~><0, m~|E+ is the block (m, m) of the
    result.  In sector m, lam a+ b+ is nilpotent, so E|0, m~> is the finite
    series sum_n lam^n sqrt(C(m+n, n)) |n, (m+n)~>, whose amplitude at index
    n of sector m is the n-th term; only blocks with d = d' are stored.

    The exact state keeps a fraction tanh^2(theta)^cutoff of its weight above
    the truncation; a measured trace deficit beyond deficit_tol raises
    TruncationError instead of returning a visibly leaky state.
    """
    if layout.modes != 2:
        raise fock.LayoutError("the evolved state lives on a two-mode layout")
    n = layout.cutoff
    sech2 = 1.0 - math.tanh(spec.theta) ** 2
    lam, mu = spec.lam, spec.mu

    blocks = {}
    for m in range(n):
        weight = sech2 * mu**m
        if weight == 0.0:
            break
        span = n - m
        amps = np.empty(span)
        amps[0] = 1.0
        for k in range(1, span):
            amps[k] = amps[k - 1] * lam * math.sqrt((m + k) / k)
        blocks[(m, m)] = weight * np.outer(amps, amps)

    deficit = 1.0 - fock.sector_trace(blocks).real
    if deficit > deficit_tol:
        raise TruncationError(
            f"trace deficit {deficit:.3e} exceeds {deficit_tol:.3e}; raise the cutoff"
        )
    return DensityMatrix.from_blocks(layout, blocks, trace_tol=abs(deficit) + 1e-12)
