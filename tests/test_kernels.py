import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermofock import channel, fock, kernels, states


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = 0.5 * (m + m.conj().T)
    return m / np.abs(m).max()


def banded_hermitian(n, offsets, seed):
    """random_hermitian(n) kept on the offsets c - r = +-offsets only."""
    m = random_hermitian(n, seed)
    delta = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return np.where(np.isin(delta, offsets), m, 0)


def diagonals_of(mat):
    """diagonals[k, p] = mat[p, p + k] of a hermitian matrix, over the offsets
    up to its highest nonzero one, zero-padded."""
    n = mat.shape[0]
    r, c = np.nonzero(mat)
    count = int(np.abs(c - r).max(initial=0)) + 1
    out = np.zeros((count, n), dtype=np.complex128)
    for k in range(count):
        out[k, :n - k] = np.diagonal(mat, k)
    return out


def dense_of(diagonals):
    """The hermitian matrix whose offsets k >= 0 are `diagonals`."""
    n = diagonals.shape[1]
    out = np.zeros((n, n), dtype=np.complex128)
    for k, line in enumerate(diagonals):
        out += np.diag(line[:n - k], k)
        if k:
            out += np.diag(line[:n - k].conj(), -k)
    return out


def reference_damping(rho4, weights, n_kraus):
    # direct translation of the operator sum on the first mode of rho4 (a
    # single mode has a second mode of size 1), no shared code with the kernels
    n = rho4.shape[0]
    out = np.zeros_like(rho4)
    for j in range(n):
        for k in range(n):
            for nn in range(min(n - j, n - k, n_kraus)):
                out[j, :, k, :] += weights[nn, j] * weights[nn, k] * rho4[j + nn, :, k + nn, :]
    return out


def random_sector_state(layout, rng):
    """Random factors {d: F_d} of a two-mode state, one per pair-number
    sector, with column counts from 0 to the sector's size: the storage of
    every two-mode state built here."""
    top = layout.cutoff - 1
    counts = {d: int(rng.integers(0, layout.cutoff - abs(d) + 1)) for d in range(-top, top + 1)}
    # at least one empty sector and one that is not
    empty, full = rng.choice(list(counts), size=2, replace=False)
    counts[empty], counts[full] = 0, max(counts[full], 1)
    factors = {
        d: rng.normal(size=(layout.cutoff - abs(d), r)) + 1j * rng.normal(size=(layout.cutoff - abs(d), r))
        for d, r in counts.items()
    }
    norm = np.sqrt(sum(np.vdot(f, f).real for f in factors.values()))
    return {d: f / norm for d, f in factors.items()}


def random_density(cutoff, rng):
    """Dense random single-mode density matrix of full rank."""
    m = rng.normal(size=(cutoff, cutoff)) + 1j * rng.normal(size=(cutoff, cutoff))
    m = m @ m.conj().T
    return m / m.trace()


def random_sector_density(n, seed):
    layout = fock.ModeLayout(n).doubled()
    return fock.DensityMatrix.from_factors(layout, random_sector_state(layout, np.random.default_rng(seed)))


def thermal_vacuum(n):
    return states.thermal_vacuum(states.ThermoParams(1.0), fock.ModeLayout(n).doubled())


@pytest.mark.parametrize(
    "rho, n_kraus",
    [
        pytest.param(random_hermitian(9, seed=3), 9, id="9-1"),
        # every offset of a cutoff-6 matrix stored
        pytest.param(random_hermitian(6, seed=3), 6, id="6-6"),
        pytest.param(banded_hermitian(9, (0, 2, 5), seed=3), 9, id="banded-9"),
        # cutoff 7, offsets 0 to 3 stored, the family capped at 3 operators
        pytest.param(banded_hermitian(7, (0, 1, 2, 3), seed=3), 3, id="capped-7-4"),
        pytest.param(thermal_vacuum(8), 8, id="thermal-vacuum-8"),
        pytest.param(random_sector_density(5, seed=3), 5, id="sectors-5"),
    ],
)
def test_damping_backends_match_reference(rho, n_kraus):
    if isinstance(rho, np.ndarray):
        n = rho.shape[0]
        # the full table even when capped: rows beyond n_kraus must be ignored
        weights = np.exp(-0.3 * np.arange(n))[None, :] * np.linspace(1.0, 0.2, n)[:, None]
        columns = diagonals_of(rho).T
        got = kernels.apply_damping(columns, weights, n_kraus)
        assert got.shape == columns.shape
        got = dense_of(got.T)
        expected = reference_damping(rho.reshape(n, 1, n, 1), weights, n_kraus).reshape(n, n)
    else:
        # random factors of every size and column count, so apply_kraus
        # shifts the factors of every sector
        n = rho.layout.cutoff
        got = channel.apply_kraus(rho, 0.6).mat
        expected = reference_damping(rho.mat.reshape(n, n, n, n), channel.damping_weights(n, 0.6), n_kraus)
        expected = expected.reshape(n * n, n * n)
    np.testing.assert_allclose(got, expected, atol=1e-14)


def test_damping_skips_a_zero_offset_and_keeps_the_padding():
    weights = channel.damping_weights(7, 0.4)
    columns = diagonals_of(banded_hermitian(7, (0, 3), seed=5)).T
    out = kernels.apply_damping(columns, weights, 7)
    assert not out[:, 1:3].any()
    for k in range(out.shape[1]):
        assert not out[7 - k:, k].any()


def bracket(rho, a, kappa):
    num = a.conj().T @ a
    return kappa * (2 * a @ rho @ a.conj().T - num @ rho - rho @ num)


def apply_generator(table, diagonals):
    """The tabulated generator applied once, diagonal by diagonal."""
    return (table @ diagonals[..., None])[..., 0]


@pytest.mark.parametrize("n", [9, 36])
def test_lindblad_rhs_backends_match_bracket_form(n):
    # a random state fills every entry of the matrix
    rho = random_density(n, np.random.default_rng(5))
    kappa = 0.7
    diagonals = diagonals_of(rho)
    table = kernels.lindblad_table(diagonals, kappa)
    assert table.shape == (n, n, n)
    got = dense_of(apply_generator(table, diagonals))
    expected = bracket(rho, fock.annihilation(fock.ModeLayout(n)), kappa)
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


def evolve(rho, kappa, dt, n_steps):
    """rho after n_steps RK4 steps through the kernels, as a dense matrix."""
    diagonals = diagonals_of(rho)
    table = kernels.lindblad_table(diagonals, kappa)
    return dense_of(kernels.rk4_evolve(diagonals, table, dt, n_steps))


def test_rk4_backends_agree():
    for n in (8, 16):
        # a valid density matrix, so the trajectory stays bounded
        rho = random_density(n, np.random.default_rng(7))
        got = evolve(rho, 1.0, 1e-3, 200)
        expected = reference_rk4(rho, fock.annihilation(fock.ModeLayout(n)), 1.0, 1e-3, 200)
        np.testing.assert_allclose(got, expected, atol=1e-13)
        # the generator is trace-free, so integration must keep the trace
        assert abs(got.trace() - 1.0) < 1e-10


def test_table_steps_the_stored_diagonals():
    params = states.ThermoParams(1.0)
    for n in (2, 9, 32):
        # a chaotic state and its damped images are diagonal: one real diagonal
        chaotic = states.chaotic_state(params, fock.ModeLayout(n))
        assert chaotic.diagonals.shape == (1, n) and chaotic.diagonals.dtype == np.float64
        table = kernels.lindblad_table(chaotic.diagonals, 1.0)
        assert table.shape == (1, n, n)
        stepped = kernels.rk4_evolve(chaotic.diagonals, table, 1e-3, 50)
        assert stepped.shape == (1, n) and stepped.dtype == np.float64
    # (|0> + |3>) / sqrt(2) stores offsets 0 to 3; the coherences (0, 3) and
    # (3, 0) sit at the base of their diagonal, and (3, 3) feeds (2, 2), (1, 1)
    # and (0, 0): every other entry stays exactly 0
    layout = fock.ModeLayout(6)
    vec = np.zeros(6, dtype=complex)
    vec[[0, 3]] = 1 / np.sqrt(2)
    projector = fock.outer(fock.PureState(layout, vec))
    assert projector.diagonals.shape == (4, 6)
    table = kernels.lindblad_table(projector.diagonals, 1.0)
    reachable = np.zeros((6, 6), dtype=bool)
    reachable[[0, 1, 2, 3, 0, 3], [0, 1, 2, 3, 3, 0]] = True
    out = dense_of(kernels.rk4_evolve(projector.diagonals, table, 1e-3, 50))
    np.testing.assert_array_equal(out != 0, reachable)


@settings(max_examples=40, deadline=None)
@given(
    cutoff=st.integers(2, 6),
    density=st.floats(0.02, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_pruned_rk4_matches_bracket_form_on_sparse_states(cutoff, density, seed):
    # a random state on a random hermitian mask, so that offsets and entries
    # are empty
    rng = np.random.default_rng(seed)
    rho = random_density(cutoff, rng)
    mask = rng.random((cutoff, cutoff)) < density
    rho = np.where(mask | mask.T, rho, 0)
    got = evolve(rho, 1.0, 1e-3, 50)
    expected = reference_rk4(rho, fock.annihilation(fock.ModeLayout(cutoff)), 1.0, 1e-3, 50)
    np.testing.assert_allclose(got, expected, atol=1e-13)
    # the textbook integration leaves every offset beyond the stored ones at exactly 0
    stored = np.abs(np.subtract.outer(np.arange(cutoff), np.arange(cutoff))) < diagonals_of(rho).shape[0]
    assert not expected[~stored].any()


@settings(max_examples=40, deadline=None)
@given(
    cutoff=st.integers(2, 6),
    n_steps=st.integers(0, 400),
    dt=st.floats(1e-4, 2e-2),
    sparse=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_powered_rk4_matches_textbook_steps(cutoff, n_steps, dt, sparse, seed):
    # n steps taken as one power of each diagonal's step matrix are n textbook steps
    rng = np.random.default_rng(seed)
    rho = random_density(cutoff, rng)
    if sparse:
        mask = rng.random((cutoff, cutoff)) < 0.3
        rho = np.where(mask | mask.T, rho, 0)
    got = evolve(rho, 1.0, dt, n_steps)
    expected = reference_rk4(rho, fock.annihilation(fock.ModeLayout(cutoff)), 1.0, dt, n_steps)
    np.testing.assert_allclose(got, expected, atol=1e-13)


def test_rk4_keeps_a_hermitian_state_exactly_hermitian():
    # only offsets k >= 0 are stepped, by a real matrix, so offset 0 stays
    # real and the assembled matrix exactly hermitian
    rho = random_density(12, np.random.default_rng(17))
    rho = 0.5 * (rho + rho.conj().T)
    diagonals = diagonals_of(rho)
    table = kernels.lindblad_table(diagonals, 1.0)
    for n_steps in (0, 1, 7, 500):
        out = kernels.rk4_evolve(diagonals, table, 1e-3, n_steps)
        assert not out[0].imag.any()
        assert kernels.hermiticity_defect(dense_of(out)) == 0


def test_rk4_keeps_the_trace_over_many_steps():
    rho = random_density(32, np.random.default_rng(19))
    out = evolve(rho, 1.0, 1e-3, 50000)
    assert abs(out.trace() - 1.0) < 1e-13


def test_rk4_memory_is_chain_sized():
    # a dense cutoff-48 state has 48 offsets of at most 48 entries: 48 real
    # 48 x 48 step matrices take 0.9 MB, where one matrix over all 2304
    # entries would take 42 MB
    diagonals = diagonals_of(random_density(48, np.random.default_rng(21)))
    table = kernels.lindblad_table(diagonals, 1.0)
    tracemalloc.start()
    try:
        kernels.rk4_evolve(diagonals, table, 1e-3, 500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured 4.4 MB
    assert peak < 8e6


def test_rk4_zero_steps_copies():
    diagonals = diagonals_of(random_hermitian(5, seed=9))
    table = kernels.lindblad_table(diagonals, 1.0)
    out = kernels.rk4_evolve(diagonals, table, 1e-3, 0)
    np.testing.assert_array_equal(out, diagonals)
    assert out is not diagonals


def test_rk4_powers_each_plan_once(monkeypatch):
    powered = []
    power = kernels._rk4_power

    def counting(hl, n_steps):
        powered.append(n_steps)
        return power(hl, n_steps)

    monkeypatch.setattr(kernels, "_rk4_power", counting)
    chaotic = states.chaotic_state(states.ThermoParams(1.0), fock.ModeLayout(16)).diagonals
    table = kernels.lindblad_table(chaotic, 1.0)
    powers = {}
    first = kernels.rk4_evolve(chaotic, table, 1e-3, 100, powers=powers)
    again = kernels.rk4_evolve(chaotic, table, 1e-3, 100, powers=powers)
    # a single step is not kept, and nothing is kept without a dict
    kernels.rk4_evolve(chaotic, table, 2e-4, 1, powers=powers)
    kernels.rk4_evolve(chaotic, table, 2e-4, 1, powers=powers)
    kernels.rk4_evolve(chaotic, table, 1e-3, 100)
    assert powered == [100, 1, 1, 100]
    assert list(powers) == [(1e-3, 100)]
    np.testing.assert_array_equal(again, first)


def test_uniform_lindblad_grid_powers_each_plan_once(monkeypatch):
    powered = []
    power = kernels._rk4_power

    def counting(hl, n_steps):
        powered.append(n_steps)
        return power(hl, n_steps)

    monkeypatch.setattr(kernels, "_rk4_power", counting)
    rho = states.chaotic_state(states.ThermoParams(1.0), fock.ModeLayout(12))
    # twenty intervals of 0.5 at the default step 1e-3: one power of 500 steps
    channel.lindblad_integrate(rho, 1.0, np.linspace(0.0, 10.0, 21))
    assert powered == [500]


def test_hermiticity_defect_backends():
    rng = np.random.default_rng(13)
    m = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    m = 0.5 * (m + m.conj().T)
    m[3, 17] += 2.5e-7j
    expected = float(np.abs(m - m.conj().T).max())
    assert kernels.hermiticity_defect(m) == pytest.approx(expected, rel=1e-12)


def test_hermitize_numpy_symmetrizes():
    # a matrix hermitian within tolerance is stored as its hermitian part
    layout = fock.ModeLayout(6)
    rho = random_density(6, np.random.default_rng(15))
    rho[1, 4] += 1e-13j
    rho[2, 2] += 1e-13j
    stored = fock.DensityMatrix(layout, rho).mat
    assert kernels.hermiticity_defect(stored) == 0
    np.testing.assert_allclose(stored, 0.5 * (rho + rho.conj().T), rtol=0, atol=1e-16)
