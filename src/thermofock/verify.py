"""Named invariant checks, grouped by module, for the `verify` subcommand.

Each check computes a single observed number and passes when it is below
(or, for signed-margin checks, at most) its tolerance.  Check functions
take an optional cutoff override, which no check caps: two-mode states,
the squeeze unitary and E = exp(lambda a+ b+) are all built by pair-number
sector, never as dense cutoff^2 x cutoff^2 matrices.  A check that raises
one of the package's numerical errors at some cutoff is reported as
failed, with observed value inf, and the rest of the suite still runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import channel, fock, states, thermo

SUITES = ("fock", "states", "channel", "thermo")

# numerical failures a check may raise; run_checks reports them as FAIL
CHECK_ERRORS = (
    fock.StateError,
    fock.LayoutError,
    channel.IntegrationError,
    thermo.NotChaoticError,
    ArithmeticError,
)

_GRID_TAU0 = (0.3, 1.0, 3.0)
_GRID_KAPPA_T = (0.1, 0.5, 1.0, 2.0, 5.0)


def _cutoff(cutoff: int | None, default: int = 32) -> int:
    return default if cutoff is None else cutoff


# ---------------------------------------------------------------------------
# fock
# ---------------------------------------------------------------------------


def _ladder_adjoint(cutoff: int | None) -> float:
    layout = fock.ModeLayout(_cutoff(cutoff))
    a = fock.annihilation(layout)
    return float(np.abs(fock.creation(layout) - a.conj().T).max())


def _commutator_interior(cutoff: int | None) -> float:
    n = _cutoff(cutoff)
    layout = fock.ModeLayout(n)
    a = fock.annihilation(layout)
    ad = fock.creation(layout)
    comm = a @ ad - ad @ a
    return float(np.abs(comm[: n - 1, : n - 1] - np.eye(n - 1)).max())


def _number_from_ladders(cutoff: int | None) -> float:
    layout = fock.ModeLayout(_cutoff(cutoff))
    a = fock.annihilation(layout)
    return float(np.abs(a.conj().T @ a - fock.number(layout)).max())


def _partial_trace_tensor(cutoff: int | None) -> float:
    layout = fock.ModeLayout(_cutoff(cutoff))
    doubled = layout.doubled()
    rho_a = states.chaotic_state(states.ThermoParams(1.0), layout)
    rho_b = states.chaotic_state(states.ThermoParams(0.5), layout)
    # both states are diagonal, so their product is too: its entry
    # n * cutoff + m is rho_a[n, n] rho_b[m, m], and the factor of each
    # sector is the diagonal of square roots, one column per state
    prod = np.sqrt(np.outer(np.diagonal(rho_a.mat).real, np.diagonal(rho_b.mat).real)).ravel()
    sectors = range(1 - layout.cutoff, layout.cutoff)
    factors = {d: np.diag(prod[fock.sector_indices(doubled, d)]) for d in sectors}
    joint = fock.DensityMatrix.from_factors(doubled, factors)
    kept_sys = fock.partial_trace(joint, over=fock.TILDE)
    kept_til = fock.partial_trace(joint, over=fock.SYSTEM)
    tr_a = fock.trace(rho_a).real
    tr_b = fock.trace(rho_b).real
    err_sys = np.abs(kept_sys.mat - tr_b * rho_a.mat).max()
    err_til = np.abs(kept_til.mat - tr_a * rho_b.mat).max()
    return float(max(err_sys, err_til))


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


def _squeeze_unitarity(cutoff: int | None) -> float:
    layout = fock.ModeLayout(_cutoff(cutoff, default=33)).doubled()
    unitaries = states.thermo_squeeze_operator(thermo.theta_from_tau(1.0), layout)
    # U+ U and the identity are zero between sectors, so the largest
    # deviation lies in the gram of one sector's block
    return max(float(np.abs(u.conj().T @ u - np.eye(len(u))).max()) for u in unitaries.values())


def _squeeze_generates_thermal_vacuum(cutoff: int | None) -> float:
    layout = fock.ModeLayout(_cutoff(cutoff, default=33)).doubled()
    params = states.ThermoParams(1.0)
    unitaries = states.thermo_squeeze_operator(params.theta, layout)
    # |0, 0~> is index 0 of sector 0; its image and the thermal vacuum both
    # lie in sector 0
    squeezed = unitaries[0][:, 0]
    target = states.thermal_vacuum(params, layout).factor(0)[:, 0]
    return float(np.linalg.norm(squeezed - target))


def _tfd_identity(cutoff: int | None) -> float:
    layout = fock.ModeLayout(_cutoff(cutoff, default=33))
    params = states.ThermoParams(1.0)
    worst = 0.0
    a = fock.annihilation(layout)
    quad = a + a.conj().T
    for obs in (fock.number(layout), quad):
        pure, mixed = states.tfd_expectation_identity(obs, params)
        worst = max(worst, abs(pure - mixed))
    return worst


def _evolved_series_vs_expm(cutoff: int | None) -> float:
    n = _cutoff(cutoff, default=33)
    layout = fock.ModeLayout(n).doubled()
    params, kappa_t = states.ThermoParams(1.0), 0.7
    via_series = states.evolved_two_mode_state(params, kappa_t, layout)
    # E|0, m~> from the operator itself: |0, m~> is index 0 of sector m, where
    # lam a+ b+ is the nilpotent block lam S_m, so the Taylor series of
    # exp(lam S_m) applied to it ends after n - m terms
    th = math.tanh(params.theta)
    lam = math.exp(-kappa_t) * th
    mu = (1.0 - math.exp(-2.0 * kappa_t)) * th * th
    factors = {}
    for m in range(n):
        step = lam * states.pair_creation_block(layout, m)
        term = np.zeros(n - m)
        term[0] = 1.0
        column = term.copy()
        for k in range(1, n - m):
            term = step @ term / k
            column += term
        factors[m] = math.sqrt((1.0 - th * th) * mu**m) * column[:, None]
    deficit = abs(fock.trace(via_series) - 1)
    via_expm = fock.DensityMatrix.from_factors(layout, factors, trace_tol=deficit + 1e-12)
    return fock.trace_distance(via_series, via_expm)


def _evolved_tilde_reduction_thermal(cutoff: int | None) -> float:
    n = _cutoff(cutoff, default=33)
    layout = fock.ModeLayout(n).doubled()
    params = states.ThermoParams(1.0)
    evolved = states.evolved_two_mode_state(params, 0.9, layout)
    tilde_side = fock.partial_trace(evolved, over=fock.SYSTEM)
    reference = states.chaotic_state(params, layout.single())
    return float(np.abs(tilde_side.mat - reference.mat).max())


# ---------------------------------------------------------------------------
# channel
# ---------------------------------------------------------------------------


def _kraus_completeness(cutoff: int | None) -> float:
    layout = fock.ModeLayout(_cutoff(cutoff))
    ops = channel.kraus_operators(0.5, layout)
    acc = np.zeros((layout.dim, layout.dim), dtype=np.complex128)
    for op in ops:
        acc += op.conj().T @ op
    return float(np.abs(acc - np.eye(layout.dim)).max())


def _trace_preservation(cutoff: int | None) -> float:
    layout = fock.ModeLayout(_cutoff(cutoff))
    rho = states.chaotic_state(states.ThermoParams(1.0), layout)
    out = channel.apply_kraus(rho, 0.37)
    return abs(fock.trace(out) - fock.trace(rho))


def _mean_photon_decay(cutoff: int | None) -> float:
    layout = fock.ModeLayout(_cutoff(cutoff))
    kappa_t = 0.5
    rho = states.chaotic_state(states.ThermoParams(1.0), layout)
    out = channel.apply_kraus(rho, kappa_t)
    num = fock.number(layout)
    before = fock.expectation(rho, num).real
    after = fock.expectation(out, num).real
    return abs(after - math.exp(-2.0 * kappa_t) * before)


def _kraus_vs_lindblad(cutoff: int | None) -> float:
    layout = fock.ModeLayout(_cutoff(cutoff))
    rho = states.chaotic_state(states.ThermoParams(1.0), layout)
    via_kraus = channel.apply_kraus(rho, 0.5)
    via_ode = channel.lindblad_integrate(rho, kappa=1.0, times=[0.5])[0]
    return fock.trace_distance(via_kraus, via_ode)


def _damped_state_positive(cutoff: int | None) -> float:
    layout = fock.ModeLayout(_cutoff(cutoff))
    rho = states.chaotic_state(states.ThermoParams(1.0), layout)
    out = channel.apply_kraus(rho, 0.5)
    return max(0.0, -out.min_eigenvalue())


def _structured_vs_explicit(cutoff: int | None) -> float:
    layout = fock.ModeLayout(_cutoff(cutoff, default=24))
    kappa_t = 0.8
    rho = states.chaotic_state(states.ThermoParams(1.0), layout)
    fast = channel.apply_kraus(rho, kappa_t).mat
    slow = np.zeros_like(fast)
    for op in channel.kraus_operators(kappa_t, layout):
        slow += op @ rho.mat @ op.conj().T
    return float(np.abs(fast - slow).max())


# ---------------------------------------------------------------------------
# thermo
# ---------------------------------------------------------------------------


def _cooling_law_vs_nbar_oracle(cutoff: int | None) -> float:
    worst = 0.0
    for tau0 in _GRID_TAU0:
        for kappa_t in _GRID_KAPPA_T:
            direct = thermo.tau_after(tau0, kappa_t)
            via_nbar = thermo.tau_from_nbar(
                math.exp(-2.0 * kappa_t) * thermo.nbar_from_tau(tau0)
            )
            worst = max(worst, abs(direct - via_nbar))
    return worst


def _theta_prime_vs_cooling_law(cutoff: int | None) -> float:
    worst = 0.0
    for tau0 in _GRID_TAU0:
        theta = thermo.theta_from_tau(tau0)
        for kappa_t in _GRID_KAPPA_T:
            via_theta = thermo.tau_from_theta(thermo.theta_prime(theta, kappa_t))
            worst = max(worst, abs(via_theta - thermo.tau_after(tau0, kappa_t)))
    return worst


def _cooling_denominator_margin(cutoff: int | None) -> float:
    # signed: e^(-2 kappa t) - [1 - (1 - e^(-2 kappa t)) tanh^2(theta)] must
    # stay negative for theta > 0, kappa t > 0
    worst = -math.inf
    for tau0 in _GRID_TAU0:
        th2 = math.tanh(thermo.theta_from_tau(tau0)) ** 2
        for kappa_t in _GRID_KAPPA_T:
            decay2 = math.exp(-2.0 * kappa_t)
            denom = 1.0 - (1.0 - decay2) * th2
            worst = max(worst, decay2 - denom)
    return worst


def _fit_geometric_roundtrip(cutoff: int | None) -> float:
    layout = fock.ModeLayout(_cutoff(cutoff, default=40))
    params = states.ThermoParams(1.7)
    fit = thermo.fit_geometric(states.chaotic_state(params, layout))
    return abs(fit.q - params.q)


def _effective_temperature_roundtrip(cutoff: int | None) -> float:
    layout = fock.ModeLayout(_cutoff(cutoff, default=33))
    rho = states.chaotic_state(states.ThermoParams(1.0), layout)
    return abs(thermo.effective_temperature(rho) - 1.0)


def _fit_rejects_offdiagonal(cutoff: int | None) -> float:
    layout = fock.ModeLayout(_cutoff(cutoff, default=8))
    vec = np.zeros(layout.dim, dtype=np.complex128)
    vec[0] = vec[1] = 1.0 / math.sqrt(2.0)
    rho = fock.DensityMatrix(layout, np.outer(vec, vec.conj()))
    try:
        thermo.fit_geometric(rho)
    except thermo.NotChaoticError:
        return 0.0
    return 1.0


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    name: str
    suite: str
    tol: float
    fn: Callable[[int | None], float]


@dataclass(frozen=True)
class CheckResult:
    name: str
    observed: float
    tol: float
    passed: bool


CHECKS: tuple[Check, ...] = (
    Check("ladder_adjoint", "fock", 1e-14, _ladder_adjoint),
    Check("commutator_interior", "fock", 1e-13, _commutator_interior),
    Check("number_from_ladders", "fock", 1e-12, _number_from_ladders),
    Check("partial_trace_tensor", "fock", 1e-12, _partial_trace_tensor),
    Check("squeeze_unitarity", "states", 1e-10, _squeeze_unitarity),
    Check("squeeze_generates_thermal_vacuum", "states", 1e-6, _squeeze_generates_thermal_vacuum),
    Check("tfd_identity", "states", 1e-10, _tfd_identity),
    Check("evolved_series_vs_expm", "states", 1e-10, _evolved_series_vs_expm),
    Check("evolved_tilde_reduction_thermal", "states", 1e-12, _evolved_tilde_reduction_thermal),
    Check("kraus_completeness", "channel", 1e-12, _kraus_completeness),
    Check("trace_preservation", "channel", 1e-12, _trace_preservation),
    Check("mean_photon_decay", "channel", 1e-10, _mean_photon_decay),
    Check("kraus_vs_lindblad", "channel", 1e-6, _kraus_vs_lindblad),
    Check("damped_state_positive", "channel", 1e-10, _damped_state_positive),
    Check("structured_vs_explicit", "channel", 1e-12, _structured_vs_explicit),
    Check("cooling_law_vs_nbar_oracle", "thermo", 1e-12, _cooling_law_vs_nbar_oracle),
    Check("theta_prime_vs_cooling_law", "thermo", 1e-12, _theta_prime_vs_cooling_law),
    Check("cooling_denominator_margin", "thermo", 0.0, _cooling_denominator_margin),
    Check("fit_geometric_roundtrip", "thermo", 1e-12, _fit_geometric_roundtrip),
    Check("effective_temperature_roundtrip", "thermo", 1e-10, _effective_temperature_roundtrip),
    Check("fit_rejects_offdiagonal", "thermo", 0.5, _fit_rejects_offdiagonal),
)


def select_checks(suite: str) -> list[Check]:
    if suite == "all":
        return list(CHECKS)
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from all, {', '.join(SUITES)}")
    return [c for c in CHECKS if c.suite == suite]


def run_checks(
    suite: str = "all",
    cutoff: int | None = None,
    tol_overrides: dict[str, float] | None = None,
) -> list[CheckResult]:
    """Run the named suite; tol_overrides must name checks in that suite.

    A check that raises one of CHECK_ERRORS is reported as failed with
    observed value inf.
    """
    checks = select_checks(suite)
    overrides = dict(tol_overrides or {})
    known = {c.name for c in checks}
    unknown = sorted(set(overrides) - known)
    if unknown:
        raise ValueError(f"tolerance override for unknown check(s): {', '.join(unknown)}")
    results = []
    for check in checks:
        tol = overrides.get(check.name, check.tol)
        try:
            observed = check.fn(cutoff)
        except CHECK_ERRORS:
            # a check that cannot run at this cutoff fails on its own line
            observed = math.inf
        results.append(CheckResult(check.name, observed, tol, observed < tol))
    return results
