import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermofock import channel, fock, kernels, states, thermo

# high-precision references, evaluated independently at 30 digits
THETA_TAU1 = 0.703414556873647626
NBAR_TAU1 = 0.581976706869326424
TAU_AFTER_1_HALF = 0.576260710432279098
TAU_AFTER_1_TWO = 0.219687143877996401
TAU_AFTER_3_ONE = 0.731577992101223500
TAU_AFTER_03_07 = 0.212490684819907322
THETA_PRIME_TAU1_HALF = 0.447609285403532634


@pytest.mark.parametrize("tau", [0.1, 0.3, 1.0, 2.5, 10.0])
def test_conversion_roundtrips(tau):
    assert thermo.tau_from_theta(thermo.theta_from_tau(tau)) == pytest.approx(tau, rel=1e-12)
    assert thermo.tau_from_nbar(thermo.nbar_from_tau(tau)) == pytest.approx(tau, rel=1e-12)


def test_conversion_reference_values():
    assert thermo.theta_from_tau(1.0) == pytest.approx(THETA_TAU1, abs=1e-15)
    assert thermo.nbar_from_tau(1.0) == pytest.approx(NBAR_TAU1, abs=1e-15)
    # tanh(theta) = exp(-1/(2 tau)) by construction
    assert math.tanh(THETA_TAU1) == pytest.approx(math.exp(-0.5), abs=1e-15)


def test_conversions_at_zero_and_errors():
    assert thermo.theta_from_tau(0.0) == 0.0
    assert thermo.tau_from_theta(0.0) == 0.0
    assert thermo.nbar_from_tau(0.0) == 0.0
    assert thermo.tau_from_nbar(0.0) == 0.0
    for fn in (thermo.theta_from_tau, thermo.tau_from_theta, thermo.nbar_from_tau, thermo.tau_from_nbar):
        with pytest.raises(ValueError):
            fn(-0.5)


@pytest.mark.parametrize(
    "tau0, kappa_t, expected",
    [
        (1.0, 0.5, TAU_AFTER_1_HALF),
        (1.0, 2.0, TAU_AFTER_1_TWO),
        (3.0, 1.0, TAU_AFTER_3_ONE),
        (0.3, 0.7, TAU_AFTER_03_07),
    ],
)
def test_tau_after_reference_values(tau0, kappa_t, expected):
    assert thermo.tau_after(tau0, kappa_t) == pytest.approx(expected, abs=1e-14)


def test_tau_after_limits_and_errors():
    assert thermo.tau_after(1.7, 0.0) == pytest.approx(1.7, rel=1e-14)
    # late-time asymptote: tau' ~ 1/(2 kappa t) -> 0
    assert thermo.tau_after(1.0, 40.0) == pytest.approx(1.0 / 80.0, rel=0.05)
    assert thermo.tau_after(1.0, 200.0) < 3e-3
    with pytest.raises(ValueError):
        thermo.tau_after(0.0, 0.5)
    with pytest.raises(ValueError):
        thermo.tau_after(-1.0, 0.5)
    with pytest.raises(ValueError):
        thermo.tau_after(1.0, -0.5)


def test_tau_after_equals_nbar_route():
    for tau0 in np.geomspace(0.05, 20.0, 10):
        for kappa_t in np.linspace(0.0, 5.0, 10):
            via_law = thermo.tau_after(tau0, kappa_t)
            via_nbar = thermo.tau_from_nbar(
                math.exp(-2.0 * kappa_t) * thermo.nbar_from_tau(tau0)
            )
            assert via_law == pytest.approx(via_nbar, abs=1e-12)


def test_theta_prime_reference_and_consistency():
    assert thermo.theta_prime(THETA_TAU1, 0.5) == pytest.approx(
        THETA_PRIME_TAU1_HALF, abs=1e-14
    )
    for tau0 in (0.3, 1.0, 3.0):
        theta = thermo.theta_from_tau(tau0)
        for kappa_t in (0.1, 0.5, 2.0):
            cooled = thermo.tau_from_theta(thermo.theta_prime(theta, kappa_t))
            assert cooled == pytest.approx(thermo.tau_after(tau0, kappa_t), abs=1e-12)


def test_theta_prime_edges():
    assert thermo.theta_prime(0.0, 1.0) == 0.0
    assert thermo.theta_prime(0.9, 0.0) == pytest.approx(0.9, abs=1e-14)
    with pytest.raises(ValueError):
        thermo.theta_prime(-0.2, 1.0)
    with pytest.raises(ValueError):
        thermo.theta_prime(0.2, -1.0)


def test_cooling_is_monotone_in_time_and_temperature():
    kts = np.linspace(0.0, 4.0, 30)
    for tau0 in (0.4, 1.0, 5.0):
        curve = [thermo.tau_after(tau0, kt) for kt in kts]
        assert all(a > b for a, b in zip(curve, curve[1:]))
        assert all(v > 0 for v in curve)
        assert all(v < tau0 for v in curve[1:])


def test_fit_geometric_recovers_exact_thermal_state():
    layout = fock.ModeLayout(40)
    params = states.ThermoParams.from_tau(1.7)
    fit = thermo.fit_geometric(states.chaotic_state(params, layout))
    assert fit.q == pytest.approx(params.q, abs=1e-14)
    assert fit.nbar == pytest.approx(params.nbar, rel=1e-12)
    assert fit.max_offdiag == 0.0
    assert fit.max_ratio_residual < 1e-13


def test_fit_geometric_weights_noisy_populations_by_mass():
    layout = fock.ModeLayout(30)
    q = 0.45
    pops = (1 - q) * q ** np.arange(30)
    rng = np.random.default_rng(41)
    noisy = pops * (1 + 1e-6 * rng.normal(size=30))
    noisy /= noisy.sum()
    rho = fock.DensityMatrix(layout, np.diag(noisy).astype(complex))
    fit = thermo.fit_geometric(rho)
    assert fit.q == pytest.approx(q, abs=1e-5)
    assert fit.max_ratio_residual < 1e-3


def test_fit_geometric_vacuum_is_cold():
    layout = fock.ModeLayout(10)
    rho = fock.outer(fock.fock_state(layout, 0))
    fit = thermo.fit_geometric(rho)
    assert fit.q == 0.0
    assert fit.nbar == 0.0
    assert thermo.effective_temperature(rho) == 0.0


def test_fit_geometric_rejects_coherences():
    layout = fock.ModeLayout(8)
    vec = np.zeros(8, dtype=complex)
    vec[0] = vec[1] = 1 / math.sqrt(2)
    rho = fock.outer(fock.PureState(layout, vec))
    with pytest.raises(thermo.NotChaoticError, match="off-diagonal"):
        thermo.fit_geometric(rho)
    # a generous tolerance admits the same state and reads its diagonal
    fit = thermo.fit_geometric(rho, off_diag_tol=1.0)
    assert fit.q == pytest.approx(0.5, abs=1e-12)


def test_fit_geometric_rejects_growing_populations():
    layout = fock.ModeLayout(6)
    pops = np.array([0.05, 0.1, 0.15, 0.2, 0.24, 0.26])
    rho = fock.DensityMatrix(layout, np.diag(pops).astype(complex))
    # mass-weighted ratio above 1 cannot come from any temperature
    with pytest.raises(thermo.NotChaoticError, match="not < 1"):
        thermo.fit_geometric(rho)


def test_fit_geometric_requires_single_mode():
    layout = fock.ModeLayout(6).doubled()
    params = states.ThermoParams.from_tau(1.0)
    rho = fock.outer(states.thermal_vacuum(params, layout), trace_tol=1e-2)
    with pytest.raises(fock.LayoutError):
        thermo.fit_geometric(rho)


def test_effective_temperature_of_damped_thermal_state():
    layout = fock.ModeLayout(33)
    params = states.ThermoParams.from_tau(1.0)
    rho = states.chaotic_state(params, layout)
    out = channel.apply_kraus(rho, 0.5)
    assert thermo.effective_temperature(out) == pytest.approx(TAU_AFTER_1_HALF, abs=1e-12)


def test_cooling_curve_kraus_and_closed():
    times = [0.0, 0.25, 0.5, 1.0]
    points = thermo.cooling_curve(1.0, 2.0, times, method="kraus")
    assert len(points) == 4
    np.testing.assert_allclose([p.kappa_t for p in points], [0.0, 0.5, 1.0, 2.0])
    for p in points:
        assert p.tau_numeric == pytest.approx(p.tau_closed, abs=1e-9)
        assert p.trace_error < 1e-12
    assert points[0].tau_closed == pytest.approx(1.0, rel=1e-14)
    assert points[1].tau_closed == pytest.approx(TAU_AFTER_1_HALF, abs=1e-14)

    for p in points:
        assert p.tau_closed == thermo.tau_after(1.0, p.kappa_t)


def test_cooling_curve_lindblad_route():
    points = thermo.cooling_curve(1.0, 1.0, [0.3], method="lindblad", cutoff=24)
    assert points[0].tau_numeric == pytest.approx(points[0].tau_closed, abs=1e-8)


def test_cooling_curve_lindblad_steps_once_through_the_grid(monkeypatch):
    steps = []
    evolve = kernels.rk4_evolve

    def counting(vec, table, dt, n_steps):
        steps.append(n_steps)
        return evolve(vec, table, dt, n_steps)

    monkeypatch.setattr(kernels, "rk4_evolve", counting)
    # uneven intervals need remainder steps; a repeated time needs none
    times = [0.0, 0.05, 0.3, 0.3, 0.7, 1.0]
    points = thermo.cooling_curve(1.0, 1.3, times, method="lindblad", cutoff=24)
    assert sum(steps) == channel.rk4_step_count(times, 1.3)
    # restarting from t = 0 at every time would cost the sum of these
    assert sum(steps) < sum(channel.rk4_step_count([t], 1.3) for t in times)
    for p in points:
        assert p.tau_numeric == pytest.approx(p.tau_closed, abs=1e-8)


def test_cooling_curve_validation():
    with pytest.raises(ValueError):
        thermo.cooling_curve(0.0, 1.0, [0.1])
    with pytest.raises(ValueError):
        thermo.cooling_curve(1.0, -1.0, [0.1])
    with pytest.raises(ValueError):
        thermo.cooling_curve(1.0, 1.0, [-0.1])
    with pytest.raises(ValueError):
        thermo.cooling_curve(1.0, 1.0, [0.1], method="magic")
    with pytest.raises(ValueError):
        thermo.cooling_curve(1.0, 1.0, [0.1], method="closed_only")


def test_cooling_curve_error_names_failing_time():
    # an oversized integrator step blows the trace-drift bound; the error
    # must surface the offending time point
    with pytest.raises(thermo.CoolingCurveError, match="t=2"):
        thermo.cooling_curve(1.0, 1.0, [2.0], method="lindblad", cutoff=16, dt=1.9)


@settings(max_examples=300, deadline=None)
@given(
    tau0=st.floats(1e-3, 1e3),
    kappa_ts=st.lists(st.floats(0.0, 1e3), min_size=2, max_size=2),
)
def test_tau_after_is_finite_bounded_and_monotone(tau0, kappa_ts):
    early, late = sorted(kappa_ts)
    tau_early = thermo.tau_after(tau0, early)
    tau_late = thermo.tau_after(tau0, late)
    for tau in (tau_early, tau_late):
        assert math.isfinite(tau)
        assert 0.0 <= tau <= tau0
    assert tau_late <= tau_early
