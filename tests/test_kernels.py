import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermofock import channel, fock, kernels, states


def random_hermitian4(n, ride, seed):
    rng = np.random.default_rng(seed)
    dim = n * ride
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = 0.5 * (m + m.conj().T)
    m /= np.abs(m).max()
    return np.ascontiguousarray(m.reshape(n, ride, n, ride))


def reference_damping(rho4, weights, n_kraus):
    # direct translation of the operator sum, no shared code with the kernels
    n, ride = rho4.shape[0], rho4.shape[1]
    out = np.zeros_like(rho4)
    for j in range(n):
        for k in range(n):
            for nn in range(min(n_kraus, n - j, n - k)):
                out[j, :, k, :] += weights[nn, j] * weights[nn, k] * rho4[j + nn, :, k + nn, :]
    return out


def random_state4(n, seed):
    # dense two-mode density matrix, so every offset and column is populated
    m = random_hermitian4(n, n, seed).reshape(n * n, n * n)
    m = m @ m.conj().T
    return (m / m.trace()).reshape(n, n, n, n)


def thermal_vacuum4(n):
    layout = fock.ModeLayout(n).doubled()
    rho = fock.outer(states.thermal_vacuum(states.ThermoParams.from_tau(1.0), layout))
    return rho.mat.reshape(n, n, n, n)


@pytest.mark.parametrize(
    "rho4, n_kraus, by_sector",
    [
        pytest.param(random_hermitian4(9, 1, seed=3), 9, False, id="9-1"),
        pytest.param(random_hermitian4(6, 6, seed=3), 6, False, id="6-6"),
        pytest.param(thermal_vacuum4(8), 8, False, id="thermal-vacuum-8"),
        pytest.param(random_hermitian4(7, 4, seed=3), 3, False, id="capped-7-4"),
        pytest.param(random_state4(5, seed=3), 5, True, id="sectors-5"),
    ],
)
def test_damping_backends_match_reference(rho4, n_kraus, by_sector):
    n = rho4.shape[0]
    if not by_sector:
        # the full table even when capped: rows beyond n_kraus must be ignored
        weights = np.exp(-0.3 * np.arange(n))[None, :] * np.linspace(1.0, 0.2, n)[:, None]
        got = kernels.apply_damping(rho4, weights, n_kraus)
    else:
        # a dense two-mode state fills every sector pair, so apply_kraus runs
        # damp_sectors on blocks of every shape and offset
        rho = fock.DensityMatrix(fock.ModeLayout(n).doubled(), rho4.reshape(n * n, n * n))
        got = channel.apply_kraus(rho, 0.6).mat.reshape(n, n, n, n)
        weights = channel.damping_weights(n, 0.6)
    expected = reference_damping(rho4, weights, n_kraus)
    np.testing.assert_allclose(got, expected, atol=1e-14)


def packed_generator(blocks, layout, kappa):
    """The shared generator's table for a state's sector blocks, and the packed blocks."""
    top = layout.cutoff - 1 if layout.modes == 2 else 0
    sectors = {d: fock.sector_indices(layout, d) for d in range(-top, top + 1)}
    table = kernels.lindblad_table(sectors, blocks, kappa)
    return table, table.pack(blocks)


def dense_of(blocks, layout):
    out = np.zeros((layout.dim, layout.dim), dtype=complex)
    for (d, d2), block in blocks.items():
        out[np.ix_(fock.sector_indices(layout, d), fock.sector_indices(layout, d2))] = block
    return out


def bracket(rho, a, kappa):
    num = a.conj().T @ a
    return kappa * (2 * a @ rho @ a.conj().T - num @ rho - rho @ num)


@pytest.mark.parametrize("n, ride", [(9, 1), (6, 6)])
def test_lindblad_rhs_backends_match_bracket_form(n, ride):
    # ride 1 is a single mode, ride n the two-mode layout, where the dense
    # random matrix fills every sector pair
    layout = fock.ModeLayout(n, 1 if ride == 1 else 2)
    rho = random_hermitian4(n, ride, seed=5).reshape(layout.dim, layout.dim)
    kappa = 0.7
    table, vec = packed_generator(fock._split_sectors(layout, rho), layout, kappa)
    assert len(table.keys) == (1 if ride == 1 else (2 * n - 1) ** 2)
    got = dense_of(table.unpack(table.rhs(vec)), layout)
    expected = bracket(rho, fock.annihilation(layout).mat, kappa)
    np.testing.assert_allclose(got, expected, atol=1e-13)
    # the generator is trace-free
    assert abs(got.trace()) < 1e-14


def reference_rk4(rho, a, kappa, dt, n_steps):
    # textbook RK4 on the dense bracket form, no shared code with the kernels
    out = rho.copy()
    for _ in range(n_steps):
        k1 = bracket(out, a, kappa)
        k2 = bracket(out + 0.5 * dt * k1, a, kappa)
        k3 = bracket(out + 0.5 * dt * k2, a, kappa)
        k4 = bracket(out + dt * k3, a, kappa)
        out = out + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return out


def test_rk4_backends_agree():
    for layout in (fock.ModeLayout(8), fock.ModeLayout(4, 2)):
        m = random_hermitian4(layout.dim, 1, seed=7).reshape(layout.dim, layout.dim)
        # a valid density matrix, so the trajectory stays bounded
        rho = m @ m.conj().T
        rho /= rho.trace()
        table, vec = packed_generator(fock._split_sectors(layout, rho), layout, kappa=1.0)
        got = dense_of(table.unpack(kernels.rk4_evolve(vec, table, 1e-3, 200)), layout)
        expected = reference_rk4(rho, fock.annihilation(layout).mat, 1.0, 1e-3, 200)
        np.testing.assert_allclose(got, expected, atol=1e-13)
        # the generator is trace-free, so integration must keep the trace
        assert abs(got.trace() - 1.0) < 1e-10


def test_pruned_table_packs_the_reachable_entries():
    params = states.ThermoParams.from_tau(1.0)
    for n in (2, 9, 32):
        # a chaotic state and its damped images are diagonal: n entries
        chaotic = states.chaotic_state(params, fock.ModeLayout(n))
        table, vec = packed_generator(chaotic.blocks, chaotic.layout, 1.0)
        assert table.offsets[-1] == n
        np.testing.assert_array_equal(dense_of(table.unpack(np.ones(n)), chaotic.layout), np.eye(n))
        # the thermal-vacuum projector is block (0, 0); lowering n_sys maps
        # it to blocks (d, d), d > 0, and every entry of those is reachable
        layout = fock.ModeLayout(n).doubled()
        projector = fock.outer(states.thermal_vacuum(params, layout))
        table, vec = packed_generator(projector.blocks, layout, 1.0)
        assert table.keys == tuple((d, d) for d in range(n))
        assert table.offsets[-1] == sum(rows * cols for rows, cols in table.shapes)
        np.testing.assert_array_equal(dense_of(table.unpack(vec), layout), projector.mat)


@settings(max_examples=40, deadline=None)
@given(
    cutoff=st.integers(2, 6),
    two_mode=st.booleans(),
    density=st.floats(0.02, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_pruned_rk4_matches_bracket_form_on_sparse_states(cutoff, two_mode, density, seed):
    # a random hermitian matrix on a random hermitian mask, so that entries
    # are unreachable and the table prunes them
    layout = fock.ModeLayout(cutoff, 2 if two_mode else 1)
    rng = np.random.default_rng(seed)
    mask = rng.random((layout.dim, layout.dim)) < density
    rho = np.where(mask | mask.T, random_hermitian4(layout.dim, 1, seed).reshape(layout.dim, layout.dim), 0)
    table, vec = packed_generator(fock._split_sectors(layout, rho), layout, kappa=1.0)
    got = dense_of(table.unpack(kernels.rk4_evolve(vec, table, 1e-3, 50)), layout)
    expected = reference_rk4(rho, fock.annihilation(layout).mat, 1.0, 1e-3, 50)
    np.testing.assert_allclose(got, expected, atol=1e-13)
    # the textbook integration leaves every entry outside the packed set at exactly 0
    packed = dense_of(table.unpack(np.ones(table.offsets[-1])), layout) != 0
    assert not expected[~packed].any()


def test_rk4_zero_steps_copies():
    layout = fock.ModeLayout(5)
    table, vec = packed_generator({(0, 0): random_hermitian4(5, 1, seed=9).reshape(5, 5)}, layout, 1.0)
    out = kernels.rk4_evolve(vec, table, 1e-3, 0)
    np.testing.assert_array_equal(out, vec)
    assert out is not vec


def test_hermiticity_defect_backends():
    rng = np.random.default_rng(13)
    m = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    m = 0.5 * (m + m.conj().T)
    m[3, 17] += 2.5e-7j
    expected = float(np.abs(m - m.conj().T).max())
    assert kernels.hermiticity_defect(m) == pytest.approx(expected, rel=1e-12)
    # against a partner block: block (d, d') is compared with block (d', d)
    upper, lower = m[:15, 15:], m[15:, :15]
    assert kernels.hermiticity_defect(upper, lower) == pytest.approx(expected, rel=1e-12)


def test_hermitize_numpy_symmetrizes():
    layout = fock.ModeLayout(4, 2)
    rho = random_hermitian4(4, 4, seed=15).reshape(16, 16)
    rho[2, 9] += 1e-3j
    table, vec = packed_generator(fock._split_sectors(layout, rho), layout, 1.0)
    # every entry's partner is its transpose
    np.testing.assert_array_equal(dense_of(table.unpack(vec[table.partner]), layout), rho.T)
    # a step of length zero only re-hermitizes
    fixed = dense_of(table.unpack(kernels.rk4_evolve(vec, table, 0.0, 1)), layout)
    assert kernels.hermiticity_defect(fixed) < 1e-16
    np.testing.assert_allclose(fixed, 0.5 * (rho + rho.conj().T), rtol=0, atol=1e-16)


def test_sector_generator_matches_bracket_form():
    # exchanging the modes around the system-mode generator gives the
    # tilde-mode bracket, which checks fock.swap_modes on every sector pair
    n = 5
    layout = fock.ModeLayout(n).doubled()
    rho = random_state4(n, seed=17).reshape(n * n, n * n)
    kappa = 0.7
    table, vec = packed_generator(fock.swap_modes(fock._split_sectors(layout, rho)), layout, kappa)
    got = dense_of(fock.swap_modes(table.unpack(table.rhs(vec))), layout)
    expected = bracket(rho, fock.annihilation(layout, fock.TILDE).mat, kappa)
    np.testing.assert_allclose(got, expected, atol=1e-13)
