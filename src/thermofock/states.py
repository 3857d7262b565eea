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


def pair_creation_weights(cutoff: int) -> np.ndarray:
    """The nonzero entries of a+ b+ in every sector m = |d| at once: row m
    holds sqrt(p (p + m)) for p = 1..cutoff - m - 1, then zeros, in an
    array of shape (cutoff, cutoff - 1).

    Entry p - 1 of row m is S[p, p - 1] of pair_creation_block(layout, m):
    the weight with which a+ b+ raises sector index p - 1 to p.
    """
    m = np.arange(cutoff)[:, None]
    p = np.arange(1.0, cutoff)
    return np.where(p + m < cutoff, np.sqrt(p * (p + m)), 0.0)


def pair_creation_block(layout: ModeLayout, d: int) -> np.ndarray:
    """a+ b+ restricted to sector d, in sector order: the real matrix with
    S[p+1, p] = sqrt((n_p + 1)(m_p + 1)) for the state p = (n_p, m_p~),
    read from pair_creation_weights.

    a+ b+ raises both occupations, so it keeps d = n_tilde - n_sys and moves
    sector index p to p + 1; the block has cutoff - |d| states and is the
    same for d and -d.
    """
    if layout.modes != 2:
        raise fock.LayoutError("a+ b+ lives on a two-mode layout")
    size = layout.cutoff - abs(d)
    return np.diag(pair_creation_weights(layout.cutoff)[abs(d), : size - 1], -1)


# sectors d < n/4, n/4 <= d < n/2, ... of a cutoff n share one SVD each: a
# batch is padded only to its own largest sector
SQUEEZE_BATCH_SPLITS = (0.25, 0.5, 0.75)


def thermo_squeeze_operator(theta: float, layout: ModeLayout) -> dict[int, np.ndarray]:
    """Unitary exp[theta (a+ b+ - a b)] mixing the system and tilde modes.

    The generator keeps the pair-number difference d, so the unitary is
    block diagonal; it is returned as {d: U_d}, U_d a real orthogonal
    float64 array acting on sector d in sector order (see
    fock.sector_indices).  Sectors d and -d share one array.

    In sector d the generator theta (S - S^T), S = pair_creation_block, is
    real antisymmetric and couples state p only to p +- 1, with weight
    t_p = theta sqrt((p + 1)(p + 1 + |d|)), theta times row |d| of
    pair_creation_weights.  With the even states first and
    the odd ones after, it is [[0, M], [-M^T, 0]] for the lower-bidiagonal
    M[i, i] = -t_(2i), M[i, i - 1] = t_(2i - 1), and from the full SVD
    M = X diag(s) Y^T its exponential is

        [[ X cos(s) X^T,  X sin(s) Y^T],
         [-Y sin(s) X^T,  Y cos(s) Y^T]],

    where a zero singular value (an odd sector's extra even state) gives
    cos 1 and sin 0.  The sectors are split into batches at the fractions
    SQUEEZE_BATCH_SPLITS of the cutoff, and each batch takes one batched
    SVD, each M zero-padded to the shape of the batch's largest: the
    padding only adds zero singular values whose vectors span the padded
    rows, so each sector's own rows of the three products are those of its
    unpadded M.  A theta that is negative, NaN or infinite raises
    ValueError.
    """
    if layout.modes != 2:
        raise fock.LayoutError("the squeeze operator lives on a two-mode layout")
    if not 0 <= theta < math.inf:
        raise ValueError(f"theta must be finite and >= 0, got {theta}")
    n = layout.cutoff
    edges = sorted({0, n, *(int(f * n) for f in SQUEEZE_BATCH_SPLITS)})
    coupling = theta * pair_creation_weights(n)
    unitaries = {}
    for lo, hi in zip(edges, edges[1:]):
        for d, block in zip(range(lo, hi), _squeeze_batch(coupling, lo, hi)):
            unitaries[d] = unitaries[-d] = block
    return unitaries


def _squeeze_batch(coupling: np.ndarray, lo: int, hi: int) -> list[np.ndarray]:
    """The blocks U_d of sectors lo <= d < hi, from one batched SVD of
    their M zero-padded to sector lo's shape (see thermo_squeeze_operator);
    coupling[d, p] = t_p of sector d, zero past the sector."""
    n = len(coupling)
    size = n - lo
    n_even, n_odd = (size + 1) // 2, size // 2
    # t[k, p] couples p and p + 1 in sector d = lo + k, whose n - d states end at p = n - d - 1
    t = coupling[lo:hi, : size - 1]
    m = np.zeros((hi - lo, n_even, n_odd))
    i = np.arange(n_odd)
    m[:, i, i] = -t[:, 2 * i]
    i = np.arange(1, n_even)
    m[:, i, i - 1] = t[:, 2 * i - 1]
    x, s, yt = np.linalg.svd(m)
    cos_x = np.ones((hi - lo, n_even))
    cos_x[:, :n_odd] = np.cos(s)
    # each padded stack is dropped once read
    del m
    blocks = np.empty((hi - lo, size, size))
    blocks[:, 0::2, 0::2] = (x * cos_x[:, None, :]) @ x.transpose(0, 2, 1)
    cross = (x[:, :, :n_odd] * np.sin(s)[:, None, :]) @ yt
    del x
    blocks[:, 0::2, 1::2] = cross
    blocks[:, 1::2, 0::2] = -cross.transpose(0, 2, 1)
    del cross
    blocks[:, 1::2, 1::2] = (yt.transpose(0, 2, 1) * np.cos(s)[:, None, :]) @ yt
    # padded even state i sits at row 2i and odd state j at row 2j + 1, so
    # each sector's block is the leading corner of its padded one, copied
    # out so that it owns its memory
    return [blocks[d - lo, : n - d, : n - d].copy() for d in range(lo, hi)]


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
