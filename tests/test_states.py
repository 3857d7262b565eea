import math

import numpy as np
import pytest
import scipy.linalg

from thermofock import channel, fock, states, thermo

# atanh(exp(-1/2)), high-precision reference
THETA_TAU1 = 0.703414556873647626
# 1/(e - 1)
NBAR_TAU1 = 0.581976706869326424


def test_thermo_params_constructors_agree():
    via_tau = states.ThermoParams.from_tau(1.0)
    via_theta = states.ThermoParams.from_tau(thermo.tau_from_theta(THETA_TAU1))
    for params in (via_tau, via_theta):
        assert params.theta == pytest.approx(THETA_TAU1, abs=1e-12)
        assert params.tau == pytest.approx(1.0, abs=1e-12)
        assert params.nbar == pytest.approx(NBAR_TAU1, abs=1e-12)
    assert via_tau.q == pytest.approx(math.exp(-1.0), abs=1e-15)


def test_thermo_params_rejects_inconsistent_triple():
    with pytest.raises(ValueError, match="inconsistent"):
        states.ThermoParams(theta=0.7, tau=1.0, nbar=0.5819767068693264)
    with pytest.raises(ValueError, match="inconsistent"):
        states.ThermoParams(theta=THETA_TAU1, tau=2.0, nbar=NBAR_TAU1)
    with pytest.raises(ValueError):
        states.ThermoParams(theta=-0.1, tau=1.0, nbar=NBAR_TAU1)


def test_thermo_params_cold_limit():
    params = states.ThermoParams.from_tau(0.0)
    assert params.theta == 0.0
    assert params.nbar == 0.0
    assert params.q == 0.0


def test_chaotic_state_populations():
    layout = fock.ModeLayout(20)
    params = states.ThermoParams.from_tau(1.0)
    rho = states.chaotic_state(params, layout)
    q = math.exp(-1.0)
    expected = (1 - q) * q ** np.arange(20)
    np.testing.assert_allclose(np.diag(rho.mat).real, expected, rtol=1e-14)
    assert np.abs(rho.mat - np.diag(np.diag(rho.mat))).max() == 0.0
    # trace falls short of 1 by exactly the truncated tail
    assert fock.trace(rho).real == pytest.approx(1 - q**20, abs=1e-15)


def test_chaotic_state_vacuum():
    layout = fock.ModeLayout(8)
    rho = states.chaotic_state(states.ThermoParams.from_tau(0.0), layout)
    expected = np.zeros((8, 8))
    expected[0, 0] = 1.0
    np.testing.assert_array_equal(rho.mat.real, expected)


def test_thermal_vacuum_amplitudes():
    layout = fock.ModeLayout(16).doubled()
    params = states.ThermoParams.from_tau(1.0)
    psi = states.thermal_vacuum(params, layout)
    grid = psi.vec.reshape(16, 16)
    sech = 1.0 / math.cosh(params.theta)
    th = math.tanh(params.theta)
    np.testing.assert_allclose(np.diag(grid).real, sech * th ** np.arange(16), rtol=1e-14)
    off = grid - np.diag(np.diag(grid))
    assert np.abs(off).max() == 0.0
    # norm matches the truncated geometric sum
    norm2 = np.vdot(psi.vec, psi.vec).real
    assert norm2 == pytest.approx(1 - params.q**16, abs=1e-14)


def test_thermal_vacuum_reduces_to_chaotic():
    layout = fock.ModeLayout(24)
    params = states.ThermoParams.from_tau(0.7)
    rho2 = fock.outer(states.thermal_vacuum(params, layout.doubled()))
    for side in (fock.TILDE, fock.SYSTEM):
        red = fock.partial_trace(rho2, over=side)
        np.testing.assert_allclose(
            red.mat, states.chaotic_state(params, layout).mat, atol=1e-14
        )


def sector_operator(layout, sector_blocks):
    # the dense matrix of an operator given as {d: its block on sector d}
    out = np.zeros((layout.dim, layout.dim), dtype=complex)
    for d, block in sector_blocks.items():
        idx = fock.sector_indices(layout, d)
        out[np.ix_(idx, idx)] = block
    return out


def test_squeeze_operator_is_unitary():
    layout = fock.ModeLayout(20).doubled()
    u = states.thermo_squeeze_operator(0.6, layout)
    assert sorted(u) == list(range(-19, 20))
    assert all(u[d] is u[-d] for d in range(20))
    dense = sector_operator(layout, u)
    np.testing.assert_allclose(dense.conj().T @ dense, np.eye(400), atol=1e-12)


def test_squeeze_generates_thermal_vacuum_at_ample_cutoff():
    # tanh(theta)^cutoff sets the truncation floor; 48 leaves it near 2e-11
    layout = fock.ModeLayout(48).doubled()
    params = states.ThermoParams.from_tau(1.0)
    u = states.thermo_squeeze_operator(params.theta, layout)
    # |0, 0~> is index 0 of sector 0, so its image is column 0 of that block
    squeezed = np.zeros(layout.dim, dtype=complex)
    squeezed[fock.sector_indices(layout, 0)] = u[0][:, 0]
    target = states.thermal_vacuum(params, layout).vec
    assert np.linalg.norm(squeezed - target) < 1e-9


def test_tfd_expectation_identity_matches_thermal_average():
    layout = fock.ModeLayout(33)
    params = states.ThermoParams.from_tau(1.0)
    a = fock.annihilation(layout)
    observables = [
        fock.number(layout),
        fock.add(a, fock.dagger(a)),
        fock.multiply(fock.number(layout), fock.number(layout)),
    ]
    for obs in observables:
        pure, mixed = states.tfd_expectation_identity(obs, params)
        assert pure == pytest.approx(mixed, abs=1e-10)
    num_pure, _ = states.tfd_expectation_identity(fock.number(layout), params)
    assert num_pure.real == pytest.approx(NBAR_TAU1, abs=1e-10)


def test_tfd_identity_rejects_two_mode_observable():
    params = states.ThermoParams.from_tau(1.0)
    two = fock.ModeLayout(8).doubled()
    with pytest.raises(fock.LayoutError):
        states.tfd_expectation_identity(fock.number(two), params)


def test_evolved_spec_consistency_checks():
    spec = states.EvolvedTwoModeSpec(THETA_TAU1, 0.5)
    th = math.tanh(THETA_TAU1)
    assert spec.lam == pytest.approx(math.exp(-0.5) * th, abs=1e-15)
    assert spec.mu == pytest.approx((1 - math.exp(-1.0)) * th * th, abs=1e-15)
    # the surviving correlation and the leaked mixture exhaust tanh^2(theta)
    assert spec.mu + spec.lam**2 == pytest.approx(th * th, abs=1e-15)
    # lam and mu are derived from theta and kappa t, so they cannot disagree
    with pytest.raises(ValueError):
        states.EvolvedTwoModeSpec(theta=-0.1, kappa_t=0.5)
    with pytest.raises(ValueError):
        states.EvolvedTwoModeSpec(theta=THETA_TAU1, kappa_t=-0.5)


def dense_pair_creation(layout):
    # a+ b+ as the product of the two embedded raising operators
    a_sys = fock.annihilation(layout, fock.SYSTEM)
    a_til = fock.annihilation(layout, fock.TILDE)
    return fock.multiply(fock.dagger(a_sys), fock.dagger(a_til)).mat


def dense_evolved_state(spec, layout):
    # sech^2 E (|0><0| (x) sum_m mu^m |m~><m~|) E+ with a dense expm for E;
    # |0, m~> is basis index m
    n = layout.cutoff
    expand = scipy.linalg.expm(spec.lam * dense_pair_creation(layout))
    core = np.zeros(n * n)
    core[:n] = (1.0 - math.tanh(spec.theta) ** 2) * spec.mu ** np.arange(n)
    return (expand * core) @ expand.conj().T


def test_evolved_state_series_equals_expm():
    layout = fock.ModeLayout(24).doubled()
    spec = states.EvolvedTwoModeSpec(THETA_TAU1, 0.8)
    via_series = states.evolved_two_mode_state(spec, layout)
    via_expm = fock.DensityMatrix(layout, dense_evolved_state(spec, layout), trace_tol=via_series.trace_tol)
    assert fock.trace_distance(via_series, via_expm) < 1e-12
    np.testing.assert_allclose(via_series.mat, via_expm.mat, atol=1e-13)


def test_block_exponentials_match_dense_oracle():
    # dense expm of the generator at a cutoff small enough to afford it
    n = 12
    layout = fock.ModeLayout(n).doubled()
    pair_up = dense_pair_creation(layout)
    blocks = {d: states.pair_creation_block(layout, d) for d in range(1 - n, n)}
    # sqrt((n+1)(m+1)) against sqrt(n+1) sqrt(m+1): equal up to one rounding
    np.testing.assert_allclose(sector_operator(layout, blocks), pair_up, rtol=1e-15, atol=0)

    theta = states.ThermoParams.from_tau(0.5).theta
    want = scipy.linalg.expm(theta * (pair_up - pair_up.conj().T))
    got = sector_operator(layout, states.thermo_squeeze_operator(theta, layout))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    spec = states.EvolvedTwoModeSpec(theta, 0.5)
    # a small cutoff holds less of the thermal tail than the default bound
    got = states.evolved_two_mode_state(spec, layout, deficit_tol=1.0).mat
    np.testing.assert_allclose(got, dense_evolved_state(spec, layout), rtol=0, atol=1e-13)


def test_evolved_state_at_zero_time_is_thermal_vacuum_projector():
    layout = fock.ModeLayout(28).doubled()
    params = states.ThermoParams.from_tau(1.0)
    spec = states.EvolvedTwoModeSpec(params.theta, 0.0)
    evolved = states.evolved_two_mode_state(spec, layout)
    rho0 = fock.outer(states.thermal_vacuum(params, layout))
    np.testing.assert_allclose(evolved.mat, rho0.mat, atol=1e-14)


def test_evolved_state_matches_kraus_evolution():
    layout = fock.ModeLayout(24).doubled()
    params = states.ThermoParams.from_tau(1.0)
    rho0 = fock.outer(states.thermal_vacuum(params, layout))
    for kappa_t in (0.2, 1.0, 3.0):
        spec = states.EvolvedTwoModeSpec(params.theta, kappa_t)
        analytic = states.evolved_two_mode_state(spec, layout)
        evolved = channel.apply_kraus(rho0, kappa_t)
        assert fock.trace_distance(analytic, evolved) < 1e-12


def test_evolved_state_reductions():
    layout = fock.ModeLayout(33).doubled()
    params = states.ThermoParams.from_tau(1.0)
    kappa_t = 0.9
    spec = states.EvolvedTwoModeSpec(params.theta, kappa_t)
    evolved = states.evolved_two_mode_state(spec, layout)
    # tilde side never feels the damping
    tilde_side = fock.partial_trace(evolved, over=fock.SYSTEM)
    np.testing.assert_allclose(
        tilde_side.mat, states.chaotic_state(params, layout.single()).mat, atol=1e-13
    )
    # system side is thermal at the cooled temperature
    sys_side = fock.partial_trace(evolved, over=fock.TILDE)
    cooled = states.ThermoParams.from_tau(thermo.tau_after(1.0, kappa_t))
    np.testing.assert_allclose(
        sys_side.mat, states.chaotic_state(cooled, layout.single()).mat, atol=1e-12
    )


def test_evolved_state_trace_deficit_guard():
    # tanh^2(theta)^8 ~ 3e-4 at tau0 = 1: an 8-level space leaks visibly
    layout = fock.ModeLayout(8).doubled()
    spec = states.EvolvedTwoModeSpec(THETA_TAU1, 0.3)
    with pytest.raises(states.TruncationError, match="deficit"):
        states.evolved_two_mode_state(spec, layout)
    # widening the bound admits the same construction
    states.evolved_two_mode_state(spec, layout, deficit_tol=1e-3)


def test_layout_mode_count_is_enforced():
    single = fock.ModeLayout(8)
    params = states.ThermoParams.from_tau(1.0)
    with pytest.raises(fock.LayoutError):
        states.thermal_vacuum(params, single)
    with pytest.raises(fock.LayoutError):
        states.thermo_squeeze_operator(0.5, single)
    with pytest.raises(fock.LayoutError):
        states.evolved_two_mode_state(
            states.EvolvedTwoModeSpec(0.5, 0.1), single
        )
    with pytest.raises(fock.LayoutError):
        states.chaotic_state(params, single.doubled())
