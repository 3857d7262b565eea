"""Temperature bookkeeping for a damped thermal mode.

Temperatures are dimensionless throughout: tau = kT / (hbar omega), so the
Boltzmann weight per quantum is q = exp(-1/tau) and the mean occupation is
nbar = 1 / (exp(1/tau) - 1).  The squeeze angle theta of the two-mode
purification satisfies tanh(theta) = exp(-1/(2 tau)), i.e. sinh^2(theta) =
nbar.  tau = 0 (vacuum, q = 0, theta = 0) is admitted as the cold limit.

The closed-form cooling law says a thermal state damped for a time t at
rate kappa is again thermal, at

    tau' = -1 / ln( e^(-2 kappa t) q / (1 - (1 - e^(-2 kappa t)) q) ),

which is the temperature whose mean occupation is e^(-2 kappa t) * nbar.
The conversions and the law are evaluated in forms that stay finite and
accurate from the cold limit (q -> 0) to the hot one (q -> 1) and for
arbitrarily long times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .fock import LayoutError

THETA_PRIME_SELF_CHECK_TOL = 1e-12
OFF_DIAG_TOL = 1e-10
POPULATION_FLOOR = 1e-10


class NotChaoticError(ValueError):
    """The state is not diagonal with geometric populations."""


class CoolingCurveError(RuntimeError):
    """A cooling-curve evaluation failed at a specific time point."""

    def __init__(self, time: float, kappa_t: float, cause: Exception):
        self.time = time
        self.kappa_t = kappa_t
        super().__init__(f"cooling curve failed at t={time:.6g} (kappa*t={kappa_t:.6g}): {cause}")


# ---------------------------------------------------------------------------
# scalar conversions
# ---------------------------------------------------------------------------


def theta_from_tau(tau: float) -> float:
    """Squeeze angle of the thermal purification: tanh(theta) = e^(-1/(2 tau)).

    Evaluated as -log(tanh(1/(4 tau))) / 2, which equals
    atanh(e^(-1/(2 tau))) but stays finite for every finite tau: the atanh
    form reaches atanh(1) once e^(-1/(2 tau)) rounds to 1.  1/(4 tau) is
    taken as 0.25 / tau, which cannot overflow to 1/inf = 0 at huge tau.
    """
    if not 0 <= tau < math.inf:
        raise ValueError(f"tau must be finite and >= 0, got {tau}")
    if tau == 0:
        return 0.0
    # max() turns the -0.0 of a cold tau into 0.0
    return max(0.0, -0.5 * math.log(math.tanh(0.25 / tau)))


def tau_from_theta(theta: float) -> float:
    if not 0 <= theta < math.inf:
        raise ValueError(f"theta must be finite and >= 0, got {theta}")
    if theta == 0:
        return 0.0
    return -1.0 / (2.0 * math.log(math.tanh(theta)))


def nbar_from_tau(tau: float) -> float:
    """Bose occupation 1 / (e^(1/tau) - 1), as q / (1 - q) with q = e^(-1/tau),
    which cannot overflow at small tau."""
    if not 0 <= tau < math.inf:
        raise ValueError(f"tau must be finite and >= 0, got {tau}")
    if tau == 0:
        return 0.0
    return math.exp(-1.0 / tau) / -math.expm1(-1.0 / tau)


def tau_from_nbar(nbar: float) -> float:
    """Temperature 1 / log(1 + 1/nbar); where 1/nbar overflows (nbar below
    about 5.6e-309) as 1 / (log1p(nbar) - log(nbar)), the same quantity."""
    if not 0 <= nbar < math.inf:
        raise ValueError(f"nbar must be finite and >= 0, got {nbar}")
    if nbar == 0:
        return 0.0
    # a Python float division overflows to inf without a numpy warning
    inverse = 1.0 / float(nbar)
    if inverse == math.inf:
        return 1.0 / (math.log1p(nbar) - math.log(nbar))
    return 1.0 / math.log1p(inverse)


# ---------------------------------------------------------------------------
# cooling law
# ---------------------------------------------------------------------------


def theta_prime(theta: float, kappa_t: float) -> float:
    """Squeeze angle of the purification after damping for kappa*t.

    tanh(theta') = e^(-kappa t) tanh(theta) / sqrt(1 - (1 - e^(-2 kappa t)) tanh^2(theta)).

    The result is cross-checked against the equivalent cosh form
    cosh^2(theta') = 1 + e^(-2 kappa t) sinh^2(theta); disagreement beyond
    round-off means the evaluation lost precision and raises.
    """
    if not theta >= 0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    if not kappa_t >= 0:
        raise ValueError(f"kappa_t must be >= 0, got {kappa_t}")
    decay = math.exp(-kappa_t)
    th = math.tanh(theta)
    denom = 1.0 - (1.0 - decay * decay) * th * th
    tp = math.atanh(decay * th / math.sqrt(denom))
    sech2 = 1.0 / math.cosh(tp) ** 2
    expected = 1.0 / (1.0 + (decay * math.sinh(theta)) ** 2)
    if abs(sech2 - expected) > THETA_PRIME_SELF_CHECK_TOL:
        raise ArithmeticError(
            f"theta_prime self-check failed: sech^2 = {sech2:.17g}, expected {expected:.17g}"
        )
    return tp


def tau_after(tau0: float, kappa_t: float) -> float:
    """Temperature after damping a thermal state of temperature tau0 for kappa*t.

    In log space the law reads 1/tau' = 1/tau0 + g with
    g = log1p((1 - q) expm1(2 kappa t)) >= 0, so tau' = tau0 / (1 + tau0 g):
    no cancellation, never above tau0, and non-increasing in kappa*t.  Past
    2 kappa t = 700, where expm1 would overflow, g is taken as
    2 kappa t + log((1 - q) + q e^(-2 kappa t)), the same quantity.
    """
    if not 0 < tau0 < math.inf:
        raise ValueError(f"tau0 must be finite and > 0, got {tau0}")
    if not kappa_t >= 0:
        raise ValueError(f"kappa_t must be >= 0, got {kappa_t}")
    x = 2.0 * kappa_t
    q = math.exp(-1.0 / tau0)
    one_minus_q = -math.expm1(-1.0 / tau0)
    if x <= 700.0:
        g = math.log1p(one_minus_q * math.expm1(x))
    else:
        g = x + math.log(one_minus_q + q * math.exp(-x))
    return tau0 / (1.0 + tau0 * g)


# ---------------------------------------------------------------------------
# reading a temperature off a state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeometricFit:
    """Result of fitting geometric populations p_n = (1 - q) q^n."""

    q: float
    nbar: float
    max_offdiag: float
    max_ratio_residual: float


def fit_geometric(rho, off_diag_tol: float = OFF_DIAG_TOL) -> GeometricFit:
    """Extract the geometric ratio q from a single-mode density matrix.

    max_offdiag is the state's largest off-diagonal magnitude.  The estimate is the
    population-weighted mean of the successive-ratio samples p_{n+1}/p_n,
    which reduces to sum(p_{n+1}) / sum(p_n) over the rows whose population
    exceeds POPULATION_FLOOR.  Rows below the floor carry no usable ratio
    information and are excluded.  Off-diagonal mass above `off_diag_tol`
    or a non-geometric diagonal raises NotChaoticError.
    """
    if rho.layout.modes != 1:
        raise LayoutError("fit_geometric needs a single-mode state")
    pops = fock.diagonal_populations(rho.diagonals)
    max_offdiag = rho.max_coherence
    if max_offdiag > off_diag_tol:
        raise NotChaoticError(
            f"off-diagonal weight {max_offdiag:.3e} exceeds {off_diag_tol:.3e}"
        )
    anchors = np.nonzero(pops[:-1] > POPULATION_FLOOR)[0]
    if anchors.size == 0:
        return GeometricFit(q=0.0, nbar=0.0, max_offdiag=max_offdiag, max_ratio_residual=0.0)
    num = pops[anchors + 1].sum()
    den = pops[anchors].sum()
    q = num / den
    if q < 0:
        if q < -1e-12:
            raise NotChaoticError(f"population ratio {q:.3e} is negative")
        q = 0.0
    if q >= 1:
        raise NotChaoticError(f"population ratio {q:.6g} is not < 1")
    ratios = pops[anchors + 1] / pops[anchors]
    max_ratio_residual = float(np.abs(ratios - q).max())
    return GeometricFit(
        q=q,
        nbar=q / (1.0 - q),
        max_offdiag=max_offdiag,
        max_ratio_residual=max_ratio_residual,
    )


def effective_temperature(rho) -> float:
    """Temperature of a chaotic state, via the geometric-ratio fit."""
    return tau_from_nbar(fit_geometric(rho).nbar)


# ---------------------------------------------------------------------------
# cooling curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoolingPoint:
    """One time point of a cooling curve."""

    kappa_t: float
    tau_closed: float
    tau_numeric: float
    nbar: float
    trace_error: float


def cooling_curve(
    tau0: float,
    kappa: float,
    times,
    cutoff: int | None = None,
    method: str = "kraus",
    deficit_tol: float = fock.DEFICIT_TOL,
) -> list[CoolingPoint]:
    """Evaluate the cooling law along a time grid and check it numerically.

    For each t the closed-form tau_after is paired with the temperature
    read off the numerically damped state: the Kraus operator sum at each
    t, or one RK4 Lindblad integration stepped from grid time to grid time;
    nbar is the damped state's mean occupation.

    The cutoff (fock.default_cutoff when None) passes
    states.truncation_cutoff before any state is built: a thermal tail
    q^cutoff above deficit_tol, which would bias the fitted temperature,
    raises states.TruncationError.
    """
    # imported here because states imports this module
    from . import channel, states

    if not 0 < tau0 < math.inf:
        raise ValueError(f"tau0 must be finite and > 0, got {tau0}")
    if not kappa > 0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    if method not in ("kraus", "lindblad"):
        raise ValueError(f"method must be kraus or lindblad, got {method!r}")
    times = [float(t) for t in times]
    if any(not t >= 0 for t in times):
        raise ValueError("times must be >= 0")

    params = states.ThermoParams(tau0)
    layout = fock.ModeLayout(states.truncation_cutoff(params, cutoff, deficit_tol))
    rho0 = states.chaotic_state(params, layout)
    if method == "lindblad":
        # one integration steps through the whole grid
        try:
            integrated = channel.lindblad_integrate(rho0, kappa, times)
        except channel.IntegrationError as exc:
            raise CoolingCurveError(exc.time, kappa * exc.time, exc) from exc
    points: list[CoolingPoint] = []
    for i, t in enumerate(times):
        kt = kappa * t
        try:
            if method == "kraus":
                evolved = channel.apply_kraus(rho0, kt)
            else:
                evolved = integrated[i]
            tau_n = effective_temperature(evolved)
        except (NotChaoticError, channel.IntegrationError, fock.StateError) as exc:
            raise CoolingCurveError(t, kt, exc) from exc
        points.append(
            CoolingPoint(
                kappa_t=kt,
                tau_closed=tau_after(tau0, kt),
                tau_numeric=tau_n,
                nbar=fock.mean_occupation(evolved),
                trace_error=abs(fock.trace(evolved) - 1.0),
            )
        )
    return points
