import tracemalloc

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


def banded_hermitian4(n, offsets, seed):
    """random_hermitian4(n, 1) kept on the offsets j - k = +-offsets only."""
    m = random_hermitian4(n, 1, seed).reshape(n, n)
    delta = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return np.where(np.isin(delta, offsets), m, 0).reshape(n, 1, n, 1)


def reference_damping(rho4, weights, n_kraus):
    # direct translation of the operator sum, no shared code with the kernels
    n, ride = rho4.shape[0], rho4.shape[1]
    out = np.zeros_like(rho4)
    for j in range(n):
        for k in range(n):
            for nn in range(min(n_kraus, n - j, n - k)):
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


def thermal_vacuum4(n):
    layout = fock.ModeLayout(n).doubled()
    rho = states.thermal_vacuum(states.ThermoParams(1.0), layout)
    return rho.mat.reshape(n, n, n, n)


@pytest.mark.parametrize(
    "rho4, n_kraus, by_sector",
    [
        pytest.param(random_hermitian4(9, 1, seed=3), 9, False, id="9-1"),
        pytest.param(random_hermitian4(6, 6, seed=3), 6, False, id="6-6"),
        pytest.param(thermal_vacuum4(8), 8, False, id="thermal-vacuum-8"),
        pytest.param(random_hermitian4(7, 4, seed=3), 3, False, id="capped-7-4"),
        pytest.param(banded_hermitian4(9, (0, 2, 5), seed=3), 9, False, id="banded-9"),
        pytest.param(random_sector_density(5, seed=3), 5, True, id="sectors-5"),
    ],
)
def test_damping_backends_match_reference(rho4, n_kraus, by_sector):
    if not by_sector:
        n = rho4.shape[0]
        # the full table even when capped: rows beyond n_kraus must be ignored
        weights = np.exp(-0.3 * np.arange(n))[None, :] * np.linspace(1.0, 0.2, n)[:, None]
        got = kernels.apply_damping(rho4, weights, n_kraus)
    else:
        # random factors of every size and column count, so apply_kraus
        # shifts the factors of every sector
        rho, n = rho4, rho4.layout.cutoff
        rho4 = rho.mat.reshape(n, n, n, n)
        got = channel.apply_kraus(rho, 0.6).mat.reshape(n, n, n, n)
        weights = channel.damping_weights(n, 0.6)
    expected = reference_damping(rho4, weights, n_kraus)
    np.testing.assert_allclose(got, expected, atol=1e-14)


def packed_generator(mat, kappa):
    """The generator's table for a single-mode matrix, and the packed matrix."""
    table = kernels.lindblad_table(mat, kappa)
    return table, table.pack(mat)


def bracket(rho, a, kappa):
    num = a.conj().T @ a
    return kappa * (2 * a @ rho @ a.conj().T - num @ rho - rho @ num)


def apply_generator(table, vec):
    """The packed generator applied once, chain by chain."""
    cols = np.zeros(table.generator.shape[:2] + (2,), dtype=np.complex128)
    cols[table.chain, table.slot, table.side] = vec
    return (table.generator @ cols)[table.chain, table.slot, table.side]


@pytest.mark.parametrize("n", [9, 36])
def test_lindblad_rhs_backends_match_bracket_form(n):
    # a random state fills every entry of the matrix
    rho = random_density(n, np.random.default_rng(5))
    kappa = 0.7
    table, vec = packed_generator(rho, kappa)
    assert table.local.size == n * n
    got = table.unpack(apply_generator(table, vec))
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


def test_rk4_backends_agree():
    for n in (8, 16):
        # a valid density matrix, so the trajectory stays bounded
        rho = random_density(n, np.random.default_rng(7))
        table, vec = packed_generator(rho, kappa=1.0)
        got = table.unpack(kernels.rk4_evolve(vec, table, 1e-3, 200))
        expected = reference_rk4(rho, fock.annihilation(fock.ModeLayout(n)), 1.0, 1e-3, 200)
        np.testing.assert_allclose(got, expected, atol=1e-13)
        # the generator is trace-free, so integration must keep the trace
        assert abs(got.trace() - 1.0) < 1e-10


def test_pruned_table_packs_the_reachable_entries():
    params = states.ThermoParams(1.0)
    for n in (2, 9, 32):
        # a chaotic state and its damped images are diagonal: n entries
        chaotic = states.chaotic_state(params, fock.ModeLayout(n))
        table, vec = packed_generator(chaotic.mat, 1.0)
        assert table.local.size == n
        np.testing.assert_array_equal(table.unpack(np.ones(n)), np.eye(n))
    # (|0> + |3>) / sqrt(2): the coherences (0, 3) and (3, 0) sit at the base of
    # their chains, and (3, 3) feeds (2, 2), (1, 1) and (0, 0)
    layout = fock.ModeLayout(6)
    vec = np.zeros(6, dtype=complex)
    vec[[0, 3]] = 1 / np.sqrt(2)
    projector = fock.outer(fock.PureState(layout, vec))
    table, packed = packed_generator(projector.mat, 1.0)
    reachable = np.zeros((6, 6), dtype=bool)
    reachable[[0, 1, 2, 3, 0, 3], [0, 1, 2, 3, 3, 0]] = True
    np.testing.assert_array_equal(table.unpack(np.ones(table.local.size)) != 0, reachable)
    np.testing.assert_array_equal(table.unpack(packed), projector.mat)


@settings(max_examples=40, deadline=None)
@given(
    cutoff=st.integers(2, 6),
    density=st.floats(0.02, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_pruned_rk4_matches_bracket_form_on_sparse_states(cutoff, density, seed):
    # a random state on a random hermitian mask, so that entries are
    # unreachable and the table prunes them
    rng = np.random.default_rng(seed)
    rho = random_density(cutoff, rng)
    mask = rng.random((cutoff, cutoff)) < density
    rho = np.where(mask | mask.T, rho, 0)
    table, vec = packed_generator(rho, kappa=1.0)
    got = table.unpack(kernels.rk4_evolve(vec, table, 1e-3, 50))
    expected = reference_rk4(rho, fock.annihilation(fock.ModeLayout(cutoff)), 1.0, 1e-3, 50)
    np.testing.assert_allclose(got, expected, atol=1e-13)
    # the textbook integration leaves every entry outside the packed set at exactly 0
    packed = table.unpack(np.ones(table.local.size)) != 0
    assert not expected[~packed].any()


@settings(max_examples=40, deadline=None)
@given(
    cutoff=st.integers(2, 6),
    n_steps=st.integers(0, 400),
    dt=st.floats(1e-4, 2e-2),
    sparse=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_powered_rk4_matches_textbook_steps(cutoff, n_steps, dt, sparse, seed):
    # n steps taken as one power of each chain's step matrix are n textbook steps
    rng = np.random.default_rng(seed)
    rho = random_density(cutoff, rng)
    if sparse:
        mask = rng.random((cutoff, cutoff)) < 0.3
        rho = np.where(mask | mask.T, rho, 0)
    table, vec = packed_generator(rho, kappa=1.0)
    got = table.unpack(kernels.rk4_evolve(vec, table, dt, n_steps))
    expected = reference_rk4(rho, fock.annihilation(fock.ModeLayout(cutoff)), 1.0, dt, n_steps)
    np.testing.assert_allclose(got, expected, atol=1e-13)


def test_rk4_keeps_a_hermitian_state_exactly_hermitian():
    rho = random_density(12, np.random.default_rng(17))
    rho = 0.5 * (rho + rho.conj().T)
    assert kernels.hermiticity_defect(rho) == 0
    table, vec = packed_generator(rho, 1.0)
    for n_steps in (0, 1, 7, 500):
        out = table.unpack(kernels.rk4_evolve(vec, table, 1e-3, n_steps))
        assert kernels.hermiticity_defect(out) == 0


def test_rk4_keeps_the_trace_over_many_steps():
    rho = random_density(32, np.random.default_rng(19))
    table, vec = packed_generator(rho, 1.0)
    out = table.unpack(kernels.rk4_evolve(vec, table, 1e-3, 50000))
    assert abs(out.trace() - 1.0) < 1e-13


def test_rk4_memory_is_chain_sized():
    # a dense cutoff-48 state packs P = 2304 entries; one P x P real matrix
    # would take 42 MB, while its 48 chains of at most 48 slots take 0.9 MB
    rho = random_density(48, np.random.default_rng(21))
    table, vec = packed_generator(rho, 1.0)
    tracemalloc.start()
    try:
        kernels.rk4_evolve(vec, table, 1e-3, 500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured 4.4 MB
    assert peak < 8e6


def test_rk4_zero_steps_copies():
    table, vec = packed_generator(random_hermitian4(5, 1, seed=9).reshape(5, 5), 1.0)
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


def test_hermitize_numpy_symmetrizes():
    rho = random_density(6, np.random.default_rng(15))
    rho[1, 4] += 1e-3j
    table, vec = packed_generator(rho, 1.0)
    # every entry's partner is its transpose
    np.testing.assert_array_equal(table.unpack(vec[table.partner]), rho.T)
    # a step of length zero only re-hermitizes
    fixed = table.unpack(kernels.rk4_evolve(vec, table, 0.0, 1))
    assert kernels.hermiticity_defect(fixed) < 1e-16
    np.testing.assert_allclose(fixed, 0.5 * (rho + rho.conj().T), rtol=0, atol=1e-16)
