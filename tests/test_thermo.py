import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermofock import channel, fock, kernels, states, thermo, verify

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


def test_conversions_are_total_at_the_float_extremes():
    # 4 tau overflows above about 4.5e307, where 1 / (4 tau) would read 0 and log(0) raise
    theta = thermo.theta_from_tau(1e308)
    assert math.isfinite(theta) and theta > 355.0
    assert thermo.theta_from_tau(1e307) == -0.5 * math.log(math.tanh(1.0 / (4.0 * 1e307)))
    # 1 / nbar overflows on a subnormal occupation; tau is still 1 / log(1 / nbar)
    with np.errstate(all="raise"):
        tau = thermo.tau_from_nbar(np.float64(2.03223080662e-313))
    assert tau == pytest.approx(1.0 / (313 * math.log(10.0) - math.log(2.03223080662)), rel=1e-12)
    assert thermo.tau_from_nbar(5e-324) == pytest.approx(1.0 / 744.44007192138127, rel=1e-12)


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


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "call, name",
    [
        pytest.param(lambda: channel.damping_weights(8, NAN), "kappa_t", id="damping_weights-kappa_t-nan"),
        pytest.param(lambda: verify.kraus_operators(NAN, fock.ModeLayout(8)), "kappa_t", id="kraus_operators-nan"),
        pytest.param(
            lambda: states.evolved_two_mode_state(states.ThermoParams(1.0), NAN, fock.ModeLayout(8).doubled()),
            "kappa_t",
            id="evolved_two_mode_state-kappa_t-nan",
        ),
        pytest.param(lambda: thermo.tau_after(1.0, NAN), "kappa_t", id="tau_after-kappa_t-nan"),
        pytest.param(lambda: thermo.theta_prime(0.5, NAN), "kappa_t", id="theta_prime-kappa_t-nan"),
        pytest.param(lambda: thermo.cooling_curve(1.0, NAN, [0.0, 1.0]), "kappa", id="cooling_curve-kappa-nan"),
        pytest.param(lambda: thermo.cooling_curve(1.0, 1.0, [0.0, NAN]), "times", id="cooling_curve-times-nan"),
        pytest.param(
            lambda: channel.lindblad_integrate(fock.DensityMatrix(fock.ModeLayout(2), np.eye(2) / 2), NAN, [0.1]),
            "kappa",
            id="lindblad_integrate-kappa-nan",
        ),
        *(
            pytest.param(lambda fn=fn, x=x: fn(x), name, id=f"{label}-{x}")
            for label, fn, name in (
                ("theta_from_tau", thermo.theta_from_tau, "tau"),
                ("tau_from_theta", thermo.tau_from_theta, "theta"),
                ("nbar_from_tau", thermo.nbar_from_tau, "tau"),
                ("tau_from_nbar", thermo.tau_from_nbar, "nbar"),
                ("tau_after-tau0", lambda tau0: thermo.tau_after(tau0, 0.5), "tau0"),
                ("ThermoParams", states.ThermoParams, "tau"),
                (
                    "thermo_squeeze_operator",
                    lambda theta: verify.thermo_squeeze_operator(theta, fock.ModeLayout(8).doubled()),
                    "theta",
                ),
            )
            for x in (NAN, INF)
        ),
    ],
)
def test_boundaries_reject_nan_and_inf(call, name):
    with pytest.raises(ValueError, match=name):
        call()


def test_infinite_kappa_t_is_the_long_time_limit():
    assert thermo.tau_after(1.0, INF) == 0.0
    assert thermo.theta_prime(0.5, INF) == 0.0
    # the system mode is emptied; the tilde mode keeps its thermal state
    layout = fock.ModeLayout(16).doubled()
    params = states.ThermoParams(0.5)
    rho = states.evolved_two_mode_state(params, INF, layout)
    assert fock.partial_trace(rho, over=fock.TILDE).diagonals[0, 0] == pytest.approx(1.0, abs=1e-12)
    reference = states.chaotic_state(params, layout.single())
    np.testing.assert_allclose(fock.partial_trace(rho, over=fock.SYSTEM).mat, reference.mat, rtol=0, atol=1e-15)


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
    params = states.ThermoParams(1.7)
    fit = thermo.fit_geometric(states.chaotic_state(params, layout))
    assert fit.q == pytest.approx(params.q, abs=1e-14)
    assert fit.nbar == pytest.approx(thermo.nbar_from_tau(params.tau), rel=1e-12)
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
    rho = fock.DensityMatrix(layout, np.diag(np.eye(10)[0]))
    fit = thermo.fit_geometric(rho)
    assert fit.q == 0.0
    assert fit.nbar == 0.0
    assert thermo.effective_temperature(rho) == 0.0


def test_fit_geometric_rejects_coherences():
    layout = fock.ModeLayout(8)
    vec = np.zeros(8, dtype=complex)
    vec[0] = vec[1] = 1 / math.sqrt(2)
    rho = fock.DensityMatrix(layout, np.outer(vec, vec.conj()))
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
    params = states.ThermoParams(1.0)
    rho = states.thermal_vacuum(params, layout)
    with pytest.raises(fock.LayoutError):
        thermo.fit_geometric(rho)


def test_effective_temperature_of_damped_thermal_state():
    layout = fock.ModeLayout(33)
    params = states.ThermoParams(1.0)
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

    def counting(vec, table, dt, n_steps, **kwargs):
        steps.append(n_steps)
        return evolve(vec, table, dt, n_steps, **kwargs)

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
    # the default step 1e-3 / kappa = 1e-303 cannot cover t = 1e10 in a
    # finite number of steps; the integrator's error must surface that time
    with pytest.raises(thermo.CoolingCurveError, match="t=1e\\+10") as info:
        thermo.cooling_curve(1.0, 1e300, [1e10], method="lindblad", cutoff=16)
    assert info.value.time == 1e10
    assert isinstance(info.value.__cause__, channel.IntegrationError)


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
