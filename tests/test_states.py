import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermofock import channel, fock, states, thermo

# atanh(exp(-1/2)), high-precision reference
THETA_TAU1 = 0.703414556873647626
# 1/(e - 1)
NBAR_TAU1 = 0.581976706869326424


def test_thermo_params_constructors_agree():
    via_tau = states.ThermoParams(1.0)
    via_theta = states.ThermoParams(thermo.tau_from_theta(THETA_TAU1))
    for params in (via_tau, via_theta):
        assert params.theta == pytest.approx(THETA_TAU1, abs=1e-12)
        assert params.tau == pytest.approx(1.0, abs=1e-12)
        assert thermo.nbar_from_tau(params.tau) == pytest.approx(NBAR_TAU1, abs=1e-12)
        # the purification's squeeze angle carries the same occupation
        assert math.sinh(params.theta) ** 2 == pytest.approx(NBAR_TAU1, abs=1e-12)
    assert via_tau.q == pytest.approx(math.exp(-1.0), abs=1e-15)


def test_thermo_params_rejects_negative_tau():
    # tau is the only field, so theta and q cannot disagree with it
    assert [f.name for f in dataclasses.fields(states.ThermoParams)] == ["tau"]
    for tau in (-0.1, -math.inf, math.nan, math.inf):
        with pytest.raises(ValueError, match="tau"):
            states.ThermoParams(tau)


def test_thermo_params_cold_limit():
    params = states.ThermoParams(0.0)
    assert params.theta == 0.0
    assert thermo.nbar_from_tau(params.tau) == 0.0
    assert params.q == 0.0


def test_chaotic_state_populations():
    layout = fock.ModeLayout(20)
    params = states.ThermoParams(1.0)
    rho = states.chaotic_state(params, layout)
    q = math.exp(-1.0)
    expected = (1 - q) * q ** np.arange(20)
    np.testing.assert_allclose(np.diag(rho.mat).real, expected, rtol=1e-14)
    assert np.abs(rho.mat - np.diag(np.diag(rho.mat))).max() == 0.0
    # trace falls short of 1 by exactly the truncated tail
    assert fock.trace(rho).real == pytest.approx(1 - q**20, abs=1e-15)


def test_chaotic_state_vacuum():
    layout = fock.ModeLayout(8)
    rho = states.chaotic_state(states.ThermoParams(0.0), layout)
    expected = np.zeros((8, 8))
    expected[0, 0] = 1.0
    np.testing.assert_array_equal(rho.mat.real, expected)


@settings(max_examples=60, deadline=None)
@given(tau0=st.floats(0.05, 4.0), cutoff=st.integers(2, 64))
def test_thermal_vacuum_amplitudes(tau0, cutoff):
    # the state is sector 0's one column sech(theta) tanh(theta)^n
    params = states.ThermoParams(tau0)
    layout = fock.ModeLayout(cutoff)
    rho = states.thermal_vacuum(params, layout.doubled())
    assert rho.sectors == range(0, 1) and rho.factors.shape == (1, cutoff, 1)
    amps = rho.factor(0)[:, 0]
    th = math.tanh(params.theta)
    np.testing.assert_allclose(amps, th ** np.arange(cutoff) / math.cosh(params.theta), rtol=1e-14, atol=0)
    # the trace falls short of 1 by the truncated tail q^cutoff, to a few
    # roundings of the sum of squares (at most 9.7e-16 on a 400 x 63 grid)
    assert abs(1.0 - fock.trace(rho).real - params.tail_weight(cutoff)) < 2e-15
    reference = np.diagonal(states.chaotic_state(params, layout).mat)
    for over in (fock.SYSTEM, fock.TILDE):
        reduced = fock.partial_trace(rho, over=over).mat
        assert np.abs(reduced - np.diag(reference)).max() < 1e-15
    # the damped closed form at kappa t = 0 is the same column; trace_distance
    # adds the round-off of a QR and an eigvalsh at unit scale (at most
    # 1.19e-15 on the same grid)
    at_zero = states.evolved_two_mode_state(params, 0.0, layout.doubled())
    assert at_zero.sectors == range(cutoff) and not at_zero.factors[1:].any()
    assert np.abs(rho.factor(0) - at_zero.factor(0)).max() < 1e-15
    assert fock.trace_distance(rho, at_zero) < 2e-15


def test_thermal_vacuum_reduces_to_chaotic():
    layout = fock.ModeLayout(24)
    params = states.ThermoParams(0.7)
    rho2 = states.thermal_vacuum(params, layout.doubled())
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
    params = states.ThermoParams(1.0)
    u = states.thermo_squeeze_operator(params.theta, layout)
    # |0, 0~> is index 0 of sector 0, so its image is column 0 of that
    # block; the thermal vacuum is the one column of sector 0's factor
    squeezed = u[0][:, 0]
    target = states.thermal_vacuum(params, layout).factor(0)[:, 0]
    assert np.linalg.norm(squeezed - target) < 1e-9


def test_tfd_expectation_identity_matches_thermal_average():
    layout = fock.ModeLayout(33)
    params = states.ThermoParams(1.0)
    a = fock.annihilation(layout)
    observables = [fock.number(layout), a + a.conj().T, fock.number(layout) @ fock.number(layout)]
    for obs in observables:
        pure, mixed = states.tfd_expectation_identity(obs, params)
        assert pure == pytest.approx(mixed, abs=1e-10)
    num_pure, _ = states.tfd_expectation_identity(fock.number(layout), params)
    assert num_pure.real == pytest.approx(NBAR_TAU1, abs=1e-10)


def test_tfd_identity_rejects_non_square_observable():
    # the observable's shape fixes the cutoff, so it must be square
    params = states.ThermoParams(1.0)
    for obs in (np.eye(8)[:, :7], np.zeros(8), np.zeros((8, 8, 8))):
        with pytest.raises(fock.LayoutError, match="shape"):
            states.tfd_expectation_identity(obs, params)


def test_evolved_state_weights_are_lambda_and_mu():
    layout = fock.ModeLayout(33).doubled()
    params = states.ThermoParams(1.0)
    rho = states.evolved_two_mode_state(params, 0.5, layout)
    th = math.tanh(THETA_TAU1)
    lam = math.exp(-0.5) * th
    mu = (1 - math.exp(-1.0)) * th * th
    # block m starts with sech^2 mu^m |0, m~><0, m~|, and its next
    # diagonal entry carries lam^2 (m + 1) for the pair |1, (m+1)~>; the
    # factor of block m is one column
    sech2 = 1 - th * th
    assert rho.sectors == range(33) and rho.factors.shape == (33, 33, 1)
    for m in (0, 1, 2):
        factor = rho.factor(m)[:, 0]
        assert factor[0] ** 2 == pytest.approx(sech2 * mu**m, rel=1e-14)
        assert factor[1] ** 2 == pytest.approx(sech2 * mu**m * lam**2 * (m + 1), rel=1e-14)
    # the surviving correlation and the leaked mixture exhaust tanh^2(theta)
    assert mu + lam**2 == pytest.approx(th * th, abs=1e-15)
    with pytest.raises(ValueError, match="kappa_t"):
        states.evolved_two_mode_state(params, -0.5, layout)


def dense_pair_creation(layout):
    # a+ b+ as the tensor product of the two raising operators, system-major
    raise_one = fock.creation(layout.single())
    return np.kron(raise_one, raise_one)


def dense_evolved_parts(params, kappa_t, layout):
    # E with a dense expm, and the weights sech^2 mu^m of the terms
    # E|0, m~><0, m~|E+; |0, m~> is basis index m
    n = layout.cutoff
    th = math.tanh(params.theta)
    lam = math.exp(-kappa_t) * th
    mu = (1.0 - math.exp(-2.0 * kappa_t)) * th * th
    expand = scipy.linalg.expm(lam * dense_pair_creation(layout))
    return expand, (1.0 - th * th) * mu ** np.arange(n)


def dense_evolved_state(params, kappa_t, layout):
    # sech^2 E (|0><0| (x) sum_m mu^m |m~><m~|) E+
    expand, weights = dense_evolved_parts(params, kappa_t, layout)
    core = np.zeros(layout.dim)
    core[:layout.cutoff] = weights
    return (expand * core) @ expand.conj().T


def test_evolved_state_series_equals_expm():
    layout = fock.ModeLayout(24).doubled()
    params = states.ThermoParams(1.0)
    via_series = states.evolved_two_mode_state(params, 0.8, layout)
    # the factor of sector m is sech mu^(m/2) E|0, m~>, read off the dense E
    expand, weights = dense_evolved_parts(params, 0.8, layout)
    factors = {m: np.sqrt(w) * expand[fock.sector_indices(layout, m), m][:, None] for m, w in enumerate(weights)}
    deficit = abs(fock.trace(via_series) - 1)
    via_expm = fock.DensityMatrix.from_factors(layout, factors, trace_tol=deficit + 1e-12)
    np.testing.assert_allclose(via_expm.mat, dense_evolved_state(params, 0.8, layout), rtol=0, atol=1e-15)
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

    params = states.ThermoParams(0.5)
    theta = params.theta
    want = scipy.linalg.expm(theta * (pair_up - pair_up.conj().T))
    got = sector_operator(layout, states.thermo_squeeze_operator(theta, layout))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    got = states.evolved_two_mode_state(params, 0.5, layout).mat
    np.testing.assert_allclose(got, dense_evolved_state(params, 0.5, layout), rtol=0, atol=1e-13)


def test_evolved_state_at_zero_time_is_thermal_vacuum_projector():
    layout = fock.ModeLayout(28).doubled()
    params = states.ThermoParams(1.0)
    evolved = states.evolved_two_mode_state(params, 0.0, layout)
    rho0 = states.thermal_vacuum(params, layout)
    np.testing.assert_allclose(evolved.mat, rho0.mat, atol=1e-14)


def test_evolved_state_matches_kraus_evolution():
    layout = fock.ModeLayout(24).doubled()
    params = states.ThermoParams(1.0)
    rho0 = states.thermal_vacuum(params, layout)
    for kappa_t in (0.2, 1.0, 3.0):
        analytic = states.evolved_two_mode_state(params, kappa_t, layout)
        evolved = channel.apply_kraus(rho0, kappa_t)
        assert fock.trace_distance(analytic, evolved) < 1e-12


@pytest.mark.parametrize("cutoff, tau0", [(33, 1.0), (48, 1.4), (128, 3.0)])
def test_closed_form_matches_operator_sum(cutoff, tau0):
    # the two routes to the damped thermal vacuum agree to round-off at the
    # cutoffs the benchmark and the CLI's largest grids run
    layout = fock.ModeLayout(cutoff).doubled()
    params = states.ThermoParams(tau0)
    rho0 = states.thermal_vacuum(params, layout)
    for kappa_t in (0.0, 0.3, 2.0):
        analytic = states.evolved_two_mode_state(params, kappa_t, layout)
        assert fock.trace_distance(analytic, channel.apply_kraus(rho0, kappa_t)) < 1e-14


def test_evolved_state_reductions():
    layout = fock.ModeLayout(33).doubled()
    params = states.ThermoParams(1.0)
    kappa_t = 0.9
    evolved = states.evolved_two_mode_state(params, kappa_t, layout)
    # tilde side never feels the damping
    tilde_side = fock.partial_trace(evolved, over=fock.SYSTEM)
    np.testing.assert_allclose(
        tilde_side.mat, states.chaotic_state(params, layout.single()).mat, atol=1e-13
    )
    # system side is thermal at the cooled temperature
    sys_side = fock.partial_trace(evolved, over=fock.TILDE)
    cooled = states.ThermoParams(thermo.tau_after(1.0, kappa_t))
    np.testing.assert_allclose(
        sys_side.mat, states.chaotic_state(cooled, layout.single()).mat, atol=1e-12
    )


def test_evolved_state_trace_deficit_guard():
    # tanh^2(theta)^8 ~ 3e-4 at tau0 = 1: an 8-level space leaks visibly, and
    # the one truncation rule refuses it before any state is built
    params = states.ThermoParams(1.0)
    with pytest.raises(states.TruncationError, match=r"^thermal tail weight 3\.355e-04 at cutoff 8 exceeds 1\.000e-06; "):
        states.truncation_cutoff(params, 8)
    # widening the bound admits the same cutoff
    assert states.truncation_cutoff(params, 8, deficit_tol=1e-3) == 8
    # no cutoff means the automatic one, whose tail is far below the default bound
    assert states.truncation_cutoff(params, None) == fock.default_cutoff(params.theta)
    # a NaN bound refuses rather than switching the rule off
    with pytest.raises(states.TruncationError):
        states.truncation_cutoff(params, 64, deficit_tol=math.nan)


@settings(max_examples=60, deadline=None)
@given(
    tau0=st.floats(0.05, 4.0),
    cutoff=st.integers(2, 128),
    kappa_t=st.one_of(st.just(0.0), st.just(math.inf), st.floats(0.0, 1e3)),
)
@example(tau0=1.0, cutoff=8, kappa_t=0.3)
def test_evolved_state_deficit_is_the_thermal_tail(tau0, cutoff, kappa_t):
    # damping leaves the tilde reduction thermal at tau0 and every stored
    # state has n_tilde >= n_sys, so the cut drops exactly the tilde tail
    # q^cutoff at every kappa t; the trace is a sum of about cutoff^2 / 2
    # squares, whose round-off reached 1.18e-15 on a 40 x 43 x 8 grid of
    # tau0 <= 4, cutoff <= 128 and kappa t
    params = states.ThermoParams(tau0)
    evolved = states.evolved_two_mode_state(params, kappa_t, fock.ModeLayout(cutoff).doubled())
    assert abs(1.0 - fock.trace(evolved).real - params.tail_weight(cutoff)) < 2e-15


def test_layout_mode_count_is_enforced():
    single = fock.ModeLayout(8)
    params = states.ThermoParams(1.0)
    with pytest.raises(fock.LayoutError):
        states.thermal_vacuum(params, single)
    with pytest.raises(fock.LayoutError):
        states.thermo_squeeze_operator(0.5, single)
    with pytest.raises(fock.LayoutError):
        states.evolved_two_mode_state(params, 0.1, single)
    with pytest.raises(fock.LayoutError):
        states.chaotic_state(params, single.doubled())
