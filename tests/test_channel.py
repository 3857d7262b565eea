import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermofock import channel, fock, states


def explicit_kraus_sum(rho_mat, ops):
    out = np.zeros_like(rho_mat)
    for op in ops:
        out += op.mat @ rho_mat @ op.mat.conj().T
    return out


def two_mode_kraus(kappa_t, layout):
    # the single-mode family embedded on the system mode, system-major
    eye = np.eye(layout.cutoff)
    ops = channel.kraus_operators(kappa_t, layout.single())
    return [fock.Operator(layout, np.kron(op.mat, eye)) for op in ops]


def unit_trace_chaotic(tau, layout):
    # the thermal populations rescaled so the truncated state has trace 1
    rho = states.chaotic_state(states.ThermoParams.from_tau(tau), layout)
    return fock.DensityMatrix(layout, rho.mat / fock.trace(rho).real)


def test_channel_spec_validation():
    # the channel is fixed by kappa_t alone; W[1, 0]^2 is the jump weight V
    assert channel.damping_weights(4, 0.5)[1, 0] ** 2 == pytest.approx(1 - math.exp(-1.0), abs=1e-15)
    # at kappa t = 0 only K_0 = 1 survives
    identity_only = np.zeros((4, 4))
    identity_only[0] = 1.0
    np.testing.assert_array_equal(channel.damping_weights(4, 0.0), identity_only)
    layout = fock.ModeLayout(4)
    rho = states.chaotic_state(states.ThermoParams.from_tau(1.0), layout)
    with pytest.raises(ValueError, match="kappa_t"):
        channel.apply_kraus(rho, -0.1)
    with pytest.raises(ValueError, match="kappa_t"):
        channel.kraus_operators(-0.1, layout)


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


def test_weight_table_matches_literal_kraus_entries():
    n = 14
    kappa_t = 0.45
    weights = channel.damping_weights(n, kappa_t)
    ops = channel.kraus_operators(kappa_t, fock.ModeLayout(n))
    for order, op in enumerate(ops):
        # K_order maps |j + order> down to |j>; that entry is W[order, j]
        for j in range(n - order):
            assert op.mat[j, j + order].real == pytest.approx(weights[order, j], abs=1e-13)
        assert np.count_nonzero(op.mat) == n - order


@pytest.mark.parametrize("kappa_t", [0.1, 0.5, 2.0])
def test_kraus_completeness(kappa_t):
    layout = fock.ModeLayout(32)
    ops = channel.kraus_operators(kappa_t, layout)
    acc = np.zeros((32, 32), dtype=complex)
    for op in ops:
        acc += op.mat.conj().T @ op.mat
    np.testing.assert_allclose(acc, np.eye(32), atol=1e-12)


def test_apply_kraus_matches_explicit_operator_sum():
    layout = fock.ModeLayout(18)
    rng = np.random.default_rng(21)
    m = rng.normal(size=(18, 18)) + 1j * rng.normal(size=(18, 18))
    m = m @ m.conj().T
    rho = fock.DensityMatrix(layout, m / m.trace())
    fast = channel.apply_kraus(rho, 0.6)
    slow = explicit_kraus_sum(rho.mat, channel.kraus_operators(0.6, layout))
    np.testing.assert_allclose(fast.mat, slow, atol=1e-14)


def test_apply_kraus_two_mode_matches_explicit_operator_sum():
    layout = fock.ModeLayout(10).doubled()
    params = states.ThermoParams.from_tau(0.8)
    rho = fock.outer(states.thermal_vacuum(params, layout), trace_tol=1e-3)
    fast = channel.apply_kraus(rho, 0.7)
    slow = explicit_kraus_sum(rho.mat, two_mode_kraus(0.7, layout))
    np.testing.assert_allclose(fast.mat, slow, atol=1e-14)


def test_kraus_operators_refuse_two_mode_layouts():
    # two-mode states are damped by sector; the dense family is a test oracle
    with pytest.raises(fock.LayoutError, match="single-mode"):
        channel.kraus_operators(0.5, fock.ModeLayout(4).doubled())


def test_damping_by_symmetry_of_tfd():
    # the thermal vacuum is symmetric under swapping the two modes, and
    # damping the system mode leaves the tilde mode alone: the tilde
    # reduction of the damped state is the system reduction of the undamped one
    layout = fock.ModeLayout(16).doubled()
    params = states.ThermoParams.from_tau(1.0)
    rho = fock.outer(states.thermal_vacuum(params, layout), trace_tol=1e-4)
    swapped = fock.swap_modes(rho.blocks)
    assert swapped.keys() == rho.blocks.keys()
    for key, block in rho.blocks.items():
        np.testing.assert_array_equal(swapped[key], block)
    damped = channel.apply_kraus(rho, 0.5)
    np.testing.assert_allclose(
        fock.partial_trace(damped, over=fock.SYSTEM).mat,
        fock.partial_trace(rho, over=fock.TILDE).mat,
        atol=1e-15,
    )


def test_apply_kraus_identity_at_zero_time():
    layout = fock.ModeLayout(12)
    params = states.ThermoParams.from_tau(1.0)
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
        lambda layout: states.chaotic_state(states.ThermoParams.from_tau(1.0), layout),
        lambda layout: fock.outer(fock.fock_state(layout, 2)),
        lambda layout: fock.outer(
            fock.PureState(
                layout,
                np.concatenate(
                    [np.array([1, 0, 0, 1.0]) / math.sqrt(2), np.zeros(layout.cutoff - 4)]
                ).astype(complex),
            )
        ),
    ],
    ids=["chaotic", "fock2", "superposition"],
)
@pytest.mark.parametrize("kappa_t", [0.2, 1.0])
def test_mean_photon_number_decays_exactly(build, kappa_t):
    layout = fock.ModeLayout(24)
    rho = build(layout)
    num = fock.number(layout)
    before = fock.expectation(rho, num).real
    out = channel.apply_kraus(rho, kappa_t)
    after = fock.expectation(out, num).real
    assert after == pytest.approx(math.exp(-2 * kappa_t) * before, abs=1e-13)


def test_damped_state_stays_positive():
    layout = fock.ModeLayout(20)
    rho = unit_trace_chaotic(1.5, layout)
    out = channel.apply_kraus(rho, 0.35)
    assert out.check_positive() > -1e-12
    assert fock.trace(out).real == pytest.approx(1.0, abs=1e-13)


def test_lindblad_integration_converges_to_kraus():
    layout = fock.ModeLayout(32)
    rho = states.chaotic_state(states.ThermoParams.from_tau(1.0), layout)
    via_ode = channel.lindblad_integrate(rho, kappa=1.0, times=[0.5], dt=1e-3)[0]
    via_kraus = channel.apply_kraus(rho, 0.5)
    assert fock.trace_distance(via_ode, via_kraus) < 1e-10


def test_lindblad_remainder_step_covers_uneven_grid():
    layout = fock.ModeLayout(16)
    rho = states.chaotic_state(states.ThermoParams.from_tau(1.0), layout)
    # a grid that does not divide t_final evenly must still land on t_final
    out = channel.lindblad_integrate(rho, kappa=1.0, times=[0.333], dt=2e-3)[0]
    ref = channel.apply_kraus(rho, 0.333)
    assert fock.trace_distance(out, ref) < 1e-10


def test_lindblad_grid_returns_each_time_in_order():
    layout = fock.ModeLayout(16)
    rho = states.chaotic_state(states.ThermoParams.from_tau(1.0), layout)
    # unsorted, repeated and zero times: one pass through 0, 0.25, 0.5
    times = [0.5, 0.0, 0.25, 0.5]
    out = channel.lindblad_integrate(rho, kappa=1.0, times=times)
    assert len(out) == len(times)
    np.testing.assert_array_equal(out[1].mat, rho.mat)
    for t, state in zip(times, out):
        assert fock.trace_distance(state, channel.apply_kraus(rho, t)) < 1e-10


def test_lindblad_packs_the_partner_of_a_one_sided_entry():
    # hermitian within tolerance, although the mirror of entry (5, 2) is 0:
    # the table must still pack that mirror, which re-hermitization pairs it with
    layout = fock.ModeLayout(8)
    mat = states.chaotic_state(states.ThermoParams.from_tau(1.0), layout).mat
    mat[5, 2] = 5e-13
    rho = fock.DensityMatrix(layout, mat, trace_tol=1e-3)
    fixed = fock.DensityMatrix(layout, 0.5 * (mat + mat.conj().T), trace_tol=1e-3)
    got = channel.lindblad_integrate(rho, kappa=1.0, times=[0.1])[0].mat
    want = channel.lindblad_integrate(fixed, kappa=1.0, times=[0.1])[0].mat
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-16)
    assert got[2, 5] != 0


def test_lindblad_zero_time_is_identity():
    layout = fock.ModeLayout(8)
    rho = states.chaotic_state(states.ThermoParams.from_tau(1.0), layout)
    out = channel.lindblad_integrate(rho, kappa=1.0, times=[0.0])[0]
    np.testing.assert_array_equal(out.mat, rho.mat)


def test_lindblad_two_mode_matches_kraus():
    layout = fock.ModeLayout(12).doubled()
    params = states.ThermoParams.from_tau(0.6)
    rho = fock.outer(states.thermal_vacuum(params, layout), trace_tol=1e-4)
    via_ode = channel.lindblad_integrate(rho, kappa=2.0, times=[0.25])[0]
    via_kraus = channel.apply_kraus(rho, 0.5)
    assert fock.trace_distance(via_ode, via_kraus) < 1e-10


@settings(max_examples=30, deadline=None)
@given(
    cutoff=st.integers(2, 6),
    two_mode=st.booleans(),
    kappa=st.floats(0.5, 2.0),
    kappa_t=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_lindblad_matches_kraus_on_random_states(cutoff, two_mode, kappa, kappa_t, seed):
    # a random mixed state of rank 2 fills every sector pair of its layout
    layout = fock.ModeLayout(cutoff, 2 if two_mode else 1)
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(layout.dim, 2)) + 1j * rng.normal(size=(layout.dim, 2))
    m = m @ m.conj().T
    rho = fock.DensityMatrix(layout, m / m.trace())
    via_ode = channel.lindblad_integrate(rho, kappa=kappa, times=[kappa_t / kappa])[0]
    via_kraus = channel.apply_kraus(rho, kappa_t)
    assert fock.trace_distance(via_ode, via_kraus) < 1e-10


def test_lindblad_input_validation():
    layout = fock.ModeLayout(8)
    rho = states.chaotic_state(states.ThermoParams.from_tau(1.0), layout)
    with pytest.raises(ValueError):
        channel.lindblad_integrate(rho, kappa=0.0, times=[0.1])
    with pytest.raises(ValueError):
        channel.lindblad_integrate(rho, kappa=1.0, times=[-0.1])
    with pytest.raises(ValueError):
        channel.lindblad_integrate(rho, kappa=1.0, times=[0.1], dt=-1e-3)


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
    # the thermal vacuum fills one sector block; a random pure state fills
    # every block, including the ones between sectors
    layout = fock.ModeLayout(cutoff).doubled()
    if thermal:
        psi = states.thermal_vacuum(states.ThermoParams.from_tau(tau0), layout)
    else:
        vec = np.array([1.0, 1j]) @ np.random.default_rng(seed).normal(size=(2, layout.dim))
        psi = fock.PureState(layout, vec / np.linalg.norm(vec))
    rho = fock.outer(psi)
    damped = channel.apply_kraus(rho, kappa_t)
    oracle = explicit_kraus_sum(rho.mat, two_mode_kraus(kappa_t, layout))
    np.testing.assert_allclose(damped.mat, oracle, rtol=0, atol=1e-14)
    again = fock.DensityMatrix(layout, damped.mat, trace_tol=damped.trace_tol)
    assert again.blocks.keys() == damped.blocks.keys()
    np.testing.assert_array_equal(again.mat, damped.mat)

    assert_relative(fock.trace_distance(rho, damped), dense_trace_distance(rho.mat, oracle))
    assert_relative(fock.purity(damped), np.einsum("ij,ji->", oracle, oracle).real)
    for over in (fock.SYSTEM, fock.TILDE):
        got = fock.partial_trace(damped, over=over).mat
        want = dense_partial_trace(oracle, cutoff, over)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max() + 1e-15


def off_sector_states(n):
    """A dense random state, and the thermal vacuum plus a coupling that lives
    only in the sector pair (1, -2) and its transpose."""
    layout = fock.ModeLayout(n).doubled()
    rng = np.random.default_rng(5)
    m = rng.normal(size=(layout.dim, layout.dim)) + 1j * rng.normal(size=(layout.dim, layout.dim))
    m = m @ m.conj().T
    dense = m / m.trace()
    sparse = fock.outer(states.thermal_vacuum(states.ThermoParams.from_tau(1.0), layout), trace_tol=1e-2).mat
    rows, cols = fock.sector_indices(layout, 1), fock.sector_indices(layout, -2)
    coupling = 0.01 * (rng.normal(size=(rows.size, cols.size)) + 1j * rng.normal(size=(rows.size, cols.size)))
    sparse[np.ix_(rows, cols)] = coupling
    sparse[np.ix_(cols, rows)] = coupling.conj().T
    return {"dense": dense, "sparse": sparse}


@pytest.mark.parametrize("kind", ["dense", "sparse"])
@pytest.mark.parametrize("over", [fock.SYSTEM, fock.TILDE])
def test_off_sector_input_round_trips(kind, over):
    n = 6
    layout = fock.ModeLayout(n).doubled()
    m = off_sector_states(n)[kind]
    rho = fock.DensityMatrix(layout, m, trace_tol=1e-2)
    assert any(d != d2 for d, d2 in rho.blocks)
    if kind == "sparse":
        assert set(rho.blocks) == {(0, 0), (1, -2), (-2, 1)}
    np.testing.assert_array_equal(rho.mat, m)
    again = fock.DensityMatrix.from_blocks(layout, rho.blocks, trace_tol=1e-2)
    np.testing.assert_array_equal(again.mat, m)

    damped = channel.apply_kraus(rho, 0.4)
    oracle = explicit_kraus_sum(m, two_mode_kraus(0.4, layout))
    np.testing.assert_allclose(damped.mat, oracle, rtol=0, atol=1e-14)
    assert_relative(fock.trace_distance(rho, damped), dense_trace_distance(m, oracle))
    assert_relative(damped.min_eigenvalue(), np.linalg.eigvalsh(oracle)[0])
    assert_relative(fock.purity(damped), np.einsum("ij,ji->", oracle, oracle).real)
    got = fock.partial_trace(damped, over=over).mat
    np.testing.assert_allclose(got, dense_partial_trace(oracle, n, over), rtol=0, atol=1e-14)
