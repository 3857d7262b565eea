import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermofock import channel, fock, states, verify
from test_kernels import projector, random_density, random_sector_state


def explicit_kraus_sum(rho_mat, ops):
    out = np.zeros_like(rho_mat)
    for op in ops:
        out += op @ rho_mat @ op.conj().T
    return out


def two_mode_kraus(kappa_t, layout):
    # the single-mode family embedded on the system mode, system-major
    eye = np.eye(layout.cutoff)
    ops = verify.kraus_operators(kappa_t, layout.single())
    return [np.kron(op, eye) for op in ops]


def unit_trace_chaotic(tau, layout):
    # the thermal populations rescaled so the truncated state has trace 1
    rho = states.chaotic_state(states.ThermoParams(tau), layout)
    return fock.DensityMatrix(layout, rho.mat / fock.trace(rho).real)


def test_channel_spec_validation():
    # the channel is fixed by kappa_t alone; W[1, 0]^2 is the jump weight V
    assert channel.damping_weights(4, 0.5)[1, 0] ** 2 == pytest.approx(1 - math.exp(-1.0), abs=1e-15)
    # at kappa t = 0 only K_0 = 1 survives
    identity_only = np.zeros((4, 4))
    identity_only[0] = 1.0
    np.testing.assert_array_equal(channel.damping_weights(4, 0.0), identity_only)
    layout = fock.ModeLayout(4)
    rho = states.chaotic_state(states.ThermoParams(1.0), layout)
    with pytest.raises(ValueError, match="kappa_t"):
        channel.apply_kraus(rho, -0.1)
    with pytest.raises(ValueError, match="kappa_t"):
        verify.kraus_operators(-0.1, layout)


@pytest.mark.parametrize("kappa_t", [750.0, 1e307, math.inf])
def test_damping_weights_saturate_at_large_kappa_t(kappa_t):
    # from kappa t = 750 on every jump lands in the vacuum, and an
    # overflowing kappa t must not produce nan or warnings (entries that
    # underflow to 0 are expected)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        table = channel.damping_weights(16, kappa_t)
    expected = np.zeros((16, 16))
    expected[:, 0] = 1.0
    np.testing.assert_array_equal(table, expected)


def test_kraus_family_saturates_at_infinite_kappa_t():
    # kappa t = inf is the long-time limit: the family equals the one at an
    # overflowing finite kappa t, K_0 the vacuum projector, with no nan from
    # -inf * 0 and no numpy warning
    layout = fock.ModeLayout(12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        at_inf = verify.kraus_operators(math.inf, layout)
        at_huge = verify.kraus_operators(1e307, layout)
    for got, want in zip(at_inf, at_huge, strict=True):
        np.testing.assert_array_equal(got, want)
    vacuum = np.zeros((12, 12))
    vacuum[0, 0] = 1.0
    np.testing.assert_array_equal(at_inf[0], vacuum)


def test_weight_table_matches_literal_kraus_entries():
    n = 14
    kappa_t = 0.45
    weights = channel.damping_weights(n, kappa_t)
    ops = verify.kraus_operators(kappa_t, fock.ModeLayout(n))
    for order, op in enumerate(ops):
        # K_order maps |j + order> down to |j>; that entry is W[order, j]
        for j in range(n - order):
            assert op[j, j + order].real == pytest.approx(weights[order, j], abs=1e-13)
        assert np.count_nonzero(op) == n - order


@pytest.mark.parametrize("kappa_t", [0.0, 0.45, 3.0, 1e307])
def test_weight_table_is_the_row_recurrence(kappa_t):
    # the running product down the columns does the recurrence's arithmetic
    # in the recurrence's order, so the tables are equal bit for bit
    n = 40
    kappa_t_sat = min(kappa_t, channel.KAPPA_T_SATURATION)
    v = -math.expm1(-2.0 * kappa_t_sat)
    cols = np.arange(n, dtype=np.float64)
    rows = [np.exp(-kappa_t_sat * np.arange(n))]
    for order in range(1, n):
        rows.append(rows[-1] * np.sqrt(v * (cols + order) / order))
    np.testing.assert_array_equal(channel.damping_weights(n, kappa_t), np.array(rows))


@pytest.mark.parametrize("kappa_t", [0.1, 0.5, 2.0])
def test_kraus_completeness(kappa_t):
    layout = fock.ModeLayout(32)
    ops = verify.kraus_operators(kappa_t, layout)
    acc = np.zeros((32, 32), dtype=complex)
    for op in ops:
        acc += op.conj().T @ op
    np.testing.assert_allclose(acc, np.eye(32), atol=1e-12)


def test_kraus_family_stays_complete_above_cutoff_190():
    # V^n / n! underflows from cutoff 190 on; the running product keeps every
    # entry in [0, 1], and each K_n removes exactly n quanta
    layout = fock.ModeLayout(200)
    ops = verify.kraus_operators(0.5, layout)
    acc = sum(op.conj().T @ op for op in ops)
    np.testing.assert_allclose(acc, np.eye(200), rtol=0, atol=1e-12)
    weights = channel.damping_weights(200, 0.5)
    for n in (0, 1, 150, 199):
        np.testing.assert_allclose(np.diagonal(ops[n], n), weights[n, :200 - n], rtol=1e-12, atol=0)


@pytest.mark.parametrize("cutoff", [2, 8, 32, 128])
def test_stacked_kraus_family_is_the_per_operator_running_product(cutoff):
    layout = fock.ModeLayout(cutoff)
    kappa_t = 0.5
    v = -math.expm1(-2.0 * kappa_t)
    a = verify.annihilation(layout).real
    ops = [np.diag(np.exp(-kappa_t * np.arange(cutoff)))]
    for n in range(1, cutoff):
        ops.append(ops[-1] @ (math.sqrt(v / n) * a))
    stack = verify.kraus_operators(kappa_t, layout)
    assert stack.shape == (cutoff, cutoff, cutoff) and stack.dtype == np.float64
    np.testing.assert_array_equal(stack, np.array(ops))
    # the completeness sum as one product of the stack viewed as
    # (cutoff^2, cutoff), against the sum over operators
    column = stack.reshape(-1, cutoff)
    assert np.shares_memory(column, stack)
    per_operator = np.zeros((cutoff, cutoff))
    for op in ops:
        per_operator += op.T @ op
    np.testing.assert_allclose(column.T @ column, per_operator, rtol=0, atol=1e-15)


def test_kraus_family_is_real_and_complete_at_cutoff_256():
    ops = verify.kraus_operators(0.5, fock.ModeLayout(256))
    assert all(op.dtype == np.float64 for op in ops)
    check = next(c for c in verify.CHECKS if c.name == "kraus_completeness")
    assert check.tol == 1e-12
    assert check.fn(256) < check.tol


def test_apply_kraus_matches_explicit_operator_sum():
    layout = fock.ModeLayout(18)
    rng = np.random.default_rng(21)
    m = rng.normal(size=(18, 18)) + 1j * rng.normal(size=(18, 18))
    m = m @ m.conj().T
    rho = fock.DensityMatrix(layout, m / m.trace())
    fast = channel.apply_kraus(rho, 0.6)
    slow = explicit_kraus_sum(rho.mat, verify.kraus_operators(0.6, layout))
    np.testing.assert_allclose(fast.mat, slow, atol=1e-14)


def test_apply_kraus_two_mode_matches_explicit_operator_sum():
    layout = fock.ModeLayout(10).doubled()
    params = states.ThermoParams(0.8)
    rho = states.thermal_vacuum(params, layout)
    fast = channel.apply_kraus(rho, 0.7)
    slow = explicit_kraus_sum(rho.mat, two_mode_kraus(0.7, layout))
    np.testing.assert_allclose(fast.mat, slow, atol=1e-14)


def test_kraus_operators_refuse_two_mode_layouts():
    # two-mode states are damped by sector; the dense family is a test oracle
    with pytest.raises(fock.LayoutError, match="single-mode"):
        verify.kraus_operators(0.5, fock.ModeLayout(4).doubled())


def test_damping_by_symmetry_of_tfd():
    # the thermal vacuum is symmetric under swapping the two modes: it lies
    # in sector 0, which the swap maps onto itself index by index, so both
    # reductions agree.  Damping the system mode leaves the tilde mode alone:
    # the tilde reduction of the damped state is the system reduction of the
    # undamped one
    layout = fock.ModeLayout(16).doubled()
    params = states.ThermoParams(1.0)
    rho = states.thermal_vacuum(params, layout)
    assert rho.sectors == range(0, 1)
    np.testing.assert_array_equal(
        fock.partial_trace(rho, over=fock.SYSTEM).mat, fock.partial_trace(rho, over=fock.TILDE).mat
    )
    damped = channel.apply_kraus(rho, 0.5)
    np.testing.assert_allclose(
        fock.partial_trace(damped, over=fock.SYSTEM).mat,
        fock.partial_trace(rho, over=fock.TILDE).mat,
        atol=1e-15,
    )


def test_apply_kraus_identity_at_zero_time():
    layout = fock.ModeLayout(12)
    params = states.ThermoParams(1.0)
    rho = states.chaotic_state(params, layout)
    out = channel.apply_kraus(rho, 0.0)
    np.testing.assert_allclose(out.mat, rho.mat, atol=1e-15)


def test_apply_kraus_asymptote_is_vacuum():
    layout = fock.ModeLayout(12)
    rho = unit_trace_chaotic(1.0, layout)
    out = channel.apply_kraus(rho, 40.0)
    vacuum = np.zeros((12, 12), dtype=complex)
    vacuum[0, 0] = 1.0
    np.testing.assert_allclose(out.mat, vacuum, atol=1e-12)


@pytest.mark.parametrize(
    "build",
    [
        lambda layout: states.chaotic_state(states.ThermoParams(1.0), layout),
        lambda layout: projector(np.eye(layout.cutoff)[2]),
        lambda layout: projector((np.eye(layout.cutoff)[0] + np.eye(layout.cutoff)[3]) / math.sqrt(2)),
    ],
    ids=["chaotic", "fock2", "superposition"],
)
@pytest.mark.parametrize("kappa_t", [0.2, 1.0])
def test_mean_photon_number_decays_exactly(build, kappa_t):
    layout = fock.ModeLayout(24)
    rho = build(layout)
    num = verify.number(layout)
    before = verify.expectation(rho, num).real
    out = channel.apply_kraus(rho, kappa_t)
    after = verify.expectation(out, num).real
    assert after == pytest.approx(math.exp(-2 * kappa_t) * before, abs=1e-13)


def test_damped_state_stays_positive():
    layout = fock.ModeLayout(20)
    rho = unit_trace_chaotic(1.5, layout)
    out = channel.apply_kraus(rho, 0.35)
    assert out.min_eigenvalue() > -1e-12
    assert fock.trace(out).real == pytest.approx(1.0, abs=1e-13)


def test_lindblad_integration_converges_to_kraus():
    layout = fock.ModeLayout(32)
    rho = states.chaotic_state(states.ThermoParams(1.0), layout)
    via_ode = channel.lindblad_integrate(rho, kappa=1.0, times=[0.5], dt=1e-3)[0]
    via_kraus = channel.apply_kraus(rho, 0.5)
    assert fock.trace_distance(via_ode, via_kraus) < 1e-10


def test_lindblad_remainder_step_covers_uneven_grid():
    layout = fock.ModeLayout(16)
    rho = states.chaotic_state(states.ThermoParams(1.0), layout)
    # a grid that does not divide t_final evenly must still land on t_final
    out = channel.lindblad_integrate(rho, kappa=1.0, times=[0.333], dt=2e-3)[0]
    ref = channel.apply_kraus(rho, 0.333)
    assert fock.trace_distance(out, ref) < 1e-10


def test_lindblad_grid_returns_each_time_in_order():
    layout = fock.ModeLayout(16)
    rho = states.chaotic_state(states.ThermoParams(1.0), layout)
    # unsorted, repeated and zero times: one pass through 0, 0.25, 0.5
    times = [0.5, 0.0, 0.25, 0.5]
    out = channel.lindblad_integrate(rho, kappa=1.0, times=times)
    assert len(out) == len(times)
    np.testing.assert_array_equal(out[1].mat, rho.mat)
    for t, state in zip(times, out):
        assert fock.trace_distance(state, channel.apply_kraus(rho, t)) < 1e-10


def test_lindblad_packs_the_partner_of_a_one_sided_entry():
    # hermitian within tolerance, although the mirror of entry (5, 2) is 0:
    # the state stores offset 3 as the hermitian part, so the mirror is damped too
    layout = fock.ModeLayout(8)
    mat = states.chaotic_state(states.ThermoParams(1.0), layout).mat
    mat[5, 2] = 5e-13
    rho = fock.DensityMatrix(layout, mat, trace_tol=1e-3)
    fixed = fock.DensityMatrix(layout, 0.5 * (mat + mat.conj().T), trace_tol=1e-3)
    got = channel.lindblad_integrate(rho, kappa=1.0, times=[0.1])[0].mat
    want = channel.lindblad_integrate(fixed, kappa=1.0, times=[0.1])[0].mat
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-16)
    assert got[2, 5] != 0


def test_lindblad_zero_time_is_identity():
    layout = fock.ModeLayout(8)
    rho = states.chaotic_state(states.ThermoParams(1.0), layout)
    out = channel.lindblad_integrate(rho, kappa=1.0, times=[0.0])[0]
    np.testing.assert_array_equal(out.mat, rho.mat)


def test_lindblad_refuses_two_mode_states():
    # the operator sum damps a two-mode state exactly, sector by sector
    layout = fock.ModeLayout(12).doubled()
    rho = states.thermal_vacuum(states.ThermoParams(0.6), layout)
    with pytest.raises(fock.LayoutError, match="single-mode"):
        channel.lindblad_integrate(rho, kappa=2.0, times=[0.25])


def test_a_state_entered_with_a_loose_tolerance_passes_every_producer():
    # the trace is checked once, where a state enters; the states derived
    # from it carry no tolerance and are not checked against one again
    single = fock.ModeLayout(8)
    rho = fock.DensityMatrix(single, np.diag(np.full(8, 0.9 / 8)), trace_tol=0.2)
    damped = channel.apply_kraus(rho, 0.3)
    integrated = channel.lindblad_integrate(rho, kappa=1.0, times=[0.1, 0.3])
    derived = [damped, *integrated, channel.apply_kraus(integrated[-1], 0.2)]
    derived += channel.lindblad_integrate(damped, kappa=1.0, times=[0.2])
    # sector 0 has one column and sector 1 two, trace 0.5 + 0.4
    two = single.doubled()
    pair = fock.DensityMatrix.from_factors(
        two, {0: np.full((8, 1), math.sqrt(0.5 / 8)), 1: np.full((7, 2), math.sqrt(0.2 / 7))}, trace_tol=0.2
    )
    damped_pair = channel.apply_kraus(pair, 0.3)
    for state in (pair, damped_pair):
        for over in (fock.SYSTEM, fock.TILDE):
            reduced = fock.partial_trace(state, over=over)
            derived += [reduced, channel.apply_kraus(reduced, 0.2)]
            derived += channel.lindblad_integrate(reduced, kappa=1.0, times=[0.2])
    derived += [damped_pair, channel.apply_kraus(damped_pair, 0.2)]
    for state in derived:
        assert fock.trace(state).real == pytest.approx(0.9, abs=1e-6)


def test_operator_sum_rejects_a_non_finite_state():
    # no checked entry admits one; the trace-preservation check still refuses it
    nan_state = fock.DensityMatrix._stored(fock.ModeLayout(4), np.full((1, 4), np.nan))
    with pytest.raises(channel.IntegrationError, match="changed the trace"):
        channel.apply_kraus(nan_state, 0.3)


@settings(max_examples=30, deadline=None)
@given(
    cutoff=st.integers(2, 6),
    kappa=st.floats(0.5, 2.0),
    kappa_t=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_lindblad_matches_kraus_on_random_states(cutoff, kappa, kappa_t, seed):
    # a random state fills every entry of the matrix
    layout = fock.ModeLayout(cutoff)
    rho = fock.DensityMatrix(layout, random_density(cutoff, np.random.default_rng(seed)))
    via_ode = channel.lindblad_integrate(rho, kappa=kappa, times=[kappa_t / kappa])[0]
    via_kraus = channel.apply_kraus(rho, kappa_t)
    assert fock.trace_distance(via_ode, via_kraus) < 1e-10


def test_lindblad_input_validation():
    layout = fock.ModeLayout(8)
    rho = states.chaotic_state(states.ThermoParams(1.0), layout)
    with pytest.raises(ValueError):
        channel.lindblad_integrate(rho, kappa=0.0, times=[0.1])
    with pytest.raises(ValueError):
        channel.lindblad_integrate(rho, kappa=1.0, times=[-0.1])
    with pytest.raises(ValueError):
        channel.lindblad_integrate(rho, kappa=1.0, times=[0.1], dt=-1e-3)


def test_lindblad_trace_drift_names_the_failing_time():
    # one oversized step amplifies the populations of a hot state by up to
    # 1e9, and the round-off of those moves the trace by about 2e-4, far past
    # the drift bound; the error carries the time
    rho = states.chaotic_state(states.ThermoParams(30.0), fock.ModeLayout(128))
    with pytest.raises(channel.IntegrationError, match="trace drifted") as info:
        channel.lindblad_integrate(rho, kappa=1.0, times=[2.0], dt=1.9)
    assert info.value.time == 2.0


def test_lindblad_unstable_step_names_the_failing_time():
    # RK4 keeps the trace of the trace-free generator exactly, so an unstable
    # step drifts by round-off only; its populations leave [0, 1] (they reach
    # 1.42 and -1.09), and the error carries the time
    rho = states.chaotic_state(states.ThermoParams(1.0), fock.ModeLayout(64))
    with pytest.raises(channel.IntegrationError, match="population") as info:
        channel.lindblad_integrate(rho, kappa=1.0, times=[2.0], dt=1.9)
    assert info.value.time == 2.0


def dense_partial_trace(mat, n, over):
    four = mat.reshape(n, n, n, n)
    red = np.einsum("nmpm->np", four) if over == fock.TILDE else np.einsum("nmnp->mp", four)
    return 0.5 * (red + red.conj().T)


def dense_trace_distance(a, b):
    return 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum()


def assert_relative(got, want):
    assert abs(got - want) <= 1e-12 * abs(want) + 1e-15


@settings(max_examples=40, deadline=None)
@given(
    cutoff=st.integers(2, 16),
    tau0=st.floats(0.05, 5.0),
    kappa_t=st.floats(0.0, 4.0),
    thermal=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_sector_storage_matches_dense_oracle(cutoff, tau0, kappa_t, thermal, seed):
    # the thermal vacuum is one factor of one column; random factors fill
    # every sector, with from 0 to cutoff - |d| columns
    layout = fock.ModeLayout(cutoff).doubled()
    if thermal:
        rho = states.thermal_vacuum(states.ThermoParams(tau0), layout)
    else:
        rho = fock.DensityMatrix.from_factors(layout, random_sector_state(layout, np.random.default_rng(seed)))
    damped = channel.apply_kraus(rho, kappa_t)
    oracle = explicit_kraus_sum(rho.mat, two_mode_kraus(kappa_t, layout))
    np.testing.assert_allclose(damped.mat, oracle, rtol=0, atol=1e-14)
    factors = {d: damped.factor(d) for d in damped.sectors}
    again = fock.DensityMatrix.from_factors(layout, factors, trace_tol=abs(fock.trace(damped) - 1) + 1e-12)
    np.testing.assert_array_equal(again.mat, damped.mat)

    assert_relative(fock.trace_distance(rho, damped), dense_trace_distance(rho.mat, oracle))
    assert_relative(fock.purity(damped), np.einsum("ij,ji->", oracle, oracle).real)
    for over in (fock.SYSTEM, fock.TILDE):
        got = fock.partial_trace(damped, over=over).mat
        want = dense_partial_trace(oracle, cutoff, over)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max() + 1e-15
