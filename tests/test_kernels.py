import os
import subprocess
import sys

import numpy as np
import pytest

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
    "rho4, n_kraus, target",
    [
        pytest.param(random_hermitian4(9, 1, seed=3), 9, fock.SYSTEM, id="9-1"),
        pytest.param(random_hermitian4(6, 6, seed=3), 6, fock.SYSTEM, id="6-6"),
        pytest.param(thermal_vacuum4(8), 8, fock.SYSTEM, id="thermal-vacuum-8"),
        pytest.param(random_hermitian4(7, 4, seed=3), 3, fock.SYSTEM, id="capped-7-4"),
        pytest.param(random_state4(5, seed=3), 5, fock.TILDE, id="tilde-5"),
    ],
)
def test_damping_backends_match_reference(rho4, n_kraus, target):
    n = rho4.shape[0]
    if target == fock.SYSTEM:
        # the full table even when capped: rows beyond n_kraus must be ignored
        weights = np.exp(-0.3 * np.arange(n))[None, :] * np.linspace(1.0, 0.2, n)[:, None]
        got = kernels.apply_damping(rho4, weights, n_kraus)
        expected = reference_damping(rho4, weights, n_kraus)
    else:
        spec = channel.ChannelSpec(kappa_t=0.6, target_mode=target)
        rho = fock.DensityMatrix(fock.ModeLayout(n).doubled(), rho4.reshape(n * n, n * n))
        got = channel.apply_kraus(rho, spec).mat.reshape(n, n, n, n)
        swap = (1, 0, 3, 2)
        weights = channel.damping_weights(n, spec.kappa_t, n_kraus)
        expected = reference_damping(rho4.transpose(swap), weights, n_kraus).transpose(swap)
    np.testing.assert_allclose(got, expected, atol=1e-14)


@pytest.mark.parametrize("n, ride", [(9, 1), (6, 6)])
def test_lindblad_rhs_backends_match_bracket_form(n, ride):
    rho4 = random_hermitian4(n, ride, seed=5)
    kappa = 0.7
    dim = n * ride
    a = np.zeros((n, n))
    a[np.arange(n - 1), np.arange(1, n)] = np.sqrt(np.arange(1, n))
    a_full = np.kron(a, np.eye(ride))
    rho = rho4.reshape(dim, dim)
    num = a_full.T @ a_full
    expected = kappa * (2 * a_full @ rho @ a_full.T - num @ rho - rho @ num)
    expected4 = expected.reshape(n, ride, n, ride)
    np.testing.assert_allclose(kernels._lindblad_rhs_np(rho4, kappa), expected4, atol=1e-13)
    if kernels.HAS_NUMBA:
        np.testing.assert_allclose(kernels._lindblad_rhs_nb(rho4, kappa), expected4, atol=1e-13)


def test_rk4_backends_agree():
    rho4 = random_hermitian4(8, 1, seed=7)
    # make it a valid density matrix so the trajectory stays bounded
    flat = rho4.reshape(8, 8)
    flat[:] = flat @ flat.conj().T
    flat /= flat.trace()
    via_np = kernels._rk4_np(rho4, kappa=1.0, dt=1e-3, n_steps=200)
    if kernels.HAS_NUMBA:
        via_nb = kernels._rk4_nb(rho4, kappa=1.0, dt=1e-3, n_steps=200)
        np.testing.assert_allclose(via_nb, via_np, atol=1e-13)
    # the generator is trace-free, so integration must keep the trace
    assert abs(via_np.reshape(8, 8).trace() - 1.0) < 1e-10


def test_rk4_zero_steps_copies():
    rho4 = random_hermitian4(5, 1, seed=9)
    out = kernels.rk4_evolve(rho4, kappa=1.0, dt=1e-3, n_steps=0)
    np.testing.assert_array_equal(out, rho4)
    assert out is not rho4


def test_hermiticity_defect_backends():
    rng = np.random.default_rng(13)
    m = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    m = 0.5 * (m + m.conj().T)
    m[3, 17] += 2.5e-7j
    expected = float(np.abs(m - m.conj().T).max())
    assert kernels._herm_defect_np(m) == pytest.approx(expected, rel=1e-12)
    if kernels.HAS_NUMBA:
        assert kernels._herm_defect_nb(m) == pytest.approx(expected, rel=1e-12)


def test_hermitize_numpy_symmetrizes():
    rho4 = random_hermitian4(6, 1, seed=15)
    rho4[2, 0, 4, 0] += 1e-3j
    fixed = kernels._hermitize_np(rho4)
    assert kernels._herm_defect_np(fixed.reshape(6, 6)) < 1e-16


def test_env_flag_selects_numpy_backend():
    env = dict(os.environ)
    env[kernels.DISABLE_ENV] = "1"
    code = "from thermofock import kernels; print(kernels.backend_name())"
    got = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert got.stdout.strip() == "numpy"


def test_default_backend_reports_numba_when_available():
    if not kernels.HAS_NUMBA:
        pytest.skip("numba not importable in this environment")
    env = {k: v for k, v in os.environ.items() if k != kernels.DISABLE_ENV}
    code = "from thermofock import kernels; print(kernels.backend_name())"
    got = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert got.stdout.strip() == "numba"


def test_sector_generator_matches_bracket_form():
    # every sector pair is populated, so each block shift is exercised
    n = 5
    layout = fock.ModeLayout(n).doubled()
    rho = fock.DensityMatrix(layout, random_state4(n, seed=17).reshape(n * n, n * n))
    kappa = 0.7
    got = np.zeros((n * n, n * n), dtype=complex)
    for (d, d2), block in kernels.lindblad_rhs_sectors(rho.blocks, kappa, n).items():
        got[np.ix_(fock.sector_indices(layout, d), fock.sector_indices(layout, d2))] = block
    a = fock.annihilation(layout).mat
    num = a.conj().T @ a
    expected = kappa * (2 * a @ rho.mat @ a.conj().T - num @ rho.mat - rho.mat @ num)
    np.testing.assert_allclose(got, expected, atol=1e-13)
