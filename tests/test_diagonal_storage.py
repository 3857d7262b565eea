"""A single-mode state stored by offset diagonal, against dense oracles built
from `.mat`, on random positive states with a few nonzero offsets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermofock import channel, fock, kernels, states, thermo


def random_banded_state(cutoff, n_offsets, seed):
    """A random density matrix whose coherences sit on n_offsets offsets.

    A mixture of random populations and of superpositions of |j> and |j + k>
    over the drawn offsets k: positive, unit trace, and nonzero on each
    drawn offset.
    """
    rng = np.random.default_rng(seed)
    offsets = rng.choice(np.arange(1, cutoff), size=min(n_offsets, cutoff - 1), replace=False)
    weights = rng.uniform(0.05, 1.0, size=offsets.size + 1)
    weights /= weights.sum()
    pops = rng.random(cutoff)
    mat = weights[0] * np.diag(pops / pops.sum()).astype(np.complex128)
    for w, k in zip(weights[1:], offsets):
        j = rng.integers(0, cutoff - k)
        vec = np.zeros(cutoff, dtype=np.complex128)
        vec[j], vec[j + k] = 1.0, np.exp(2j * np.pi * rng.random())
        mat += w * 0.5 * np.outer(vec, vec.conj())
    return fock.DensityMatrix(fock.ModeLayout(cutoff), mat), sorted(offsets.tolist())


banded_states = st.builds(
    random_banded_state,
    cutoff=st.integers(2, 24),
    n_offsets=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None)
@given(drawn=banded_states)
def test_dense_round_trip(drawn):
    rho, offsets = drawn
    n = rho.layout.cutoff
    dense = rho.mat
    # the highest drawn offset bounds the stored ones, whose padding is zero
    assert rho.diagonals.shape == (max(offsets, default=0) + 1, n)
    for k, line in enumerate(rho.diagonals):
        np.testing.assert_array_equal(line[:n - k], np.diagonal(dense, k))
        assert not line[n - k:].any()
    assert kernels.hermiticity_defect(dense) == 0
    again = fock.DensityMatrix(rho.layout, dense)
    np.testing.assert_array_equal(again.diagonals, rho.diagonals)
    np.testing.assert_array_equal(again.mat, dense)


@settings(max_examples=40, deadline=None)
@given(drawn=banded_states, kappa_t=st.floats(0.0, 3.0))
def test_apply_kraus_matches_the_explicit_operator_sum(drawn, kappa_t):
    rho, _ = drawn
    damped = channel.apply_kraus(rho, kappa_t)
    oracle = sum(op @ rho.mat @ op.conj().T for op in channel.kraus_operators(kappa_t, rho.layout))
    np.testing.assert_allclose(damped.mat, oracle, rtol=0, atol=1e-14)
    # the channel keeps every offset and its dtype: nothing new is stored
    assert damped.diagonals.shape == rho.diagonals.shape
    assert damped.diagonals.dtype == rho.diagonals.dtype
    # from_diagonals would demote a zero imaginary part, so check the kernel itself
    n = rho.layout.cutoff
    raw = kernels.apply_damping(rho.diagonals.T, channel.damping_weights(n, kappa_t), n)
    assert raw.dtype == rho.diagonals.dtype


@pytest.mark.parametrize("cutoff,tau0", [(128, 3.0), (512, 10.0), (1024, 20.0)])
@pytest.mark.parametrize("kappa_t", [0.05, 0.5, 3.0])
def test_apply_kraus_cools_a_chaotic_state_at_large_cutoffs(cutoff, tau0, kappa_t):
    rho = states.chaotic_state(states.ThermoParams(tau0), fock.ModeLayout(cutoff))
    damped = channel.apply_kraus(rho, kappa_t)
    assert damped.diagonals.dtype == np.float64
    assert damped.diagonals.shape == (1, cutoff)
    q = np.exp(-1.0 / thermo.tau_after(tau0, kappa_t))
    cooled = (1.0 - q) * q ** np.arange(cutoff)
    np.testing.assert_allclose(damped.diagonals[0], cooled, rtol=0, atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(drawn=banded_states, kappa=st.floats(0.5, 2.0), kappa_t=st.floats(0.0, 1.0))
def test_lindblad_integrate_matches_apply_kraus(drawn, kappa, kappa_t):
    rho, _ = drawn
    t = kappa_t / kappa
    via_ode, later = channel.lindblad_integrate(rho, kappa=kappa, times=[t, 2 * t])
    assert fock.trace_distance(via_ode, channel.apply_kraus(rho, kappa_t)) < 1e-6
    assert fock.trace_distance(later, channel.apply_kraus(rho, 2 * kappa_t)) < 1e-6
    assert via_ode.diagonals.shape == rho.diagonals.shape


@settings(max_examples=60, deadline=None)
@given(drawn=banded_states, seed=st.integers(0, 2**32 - 1))
def test_expectation_and_purity_match_einsum(drawn, seed):
    rho, _ = drawn
    n = rho.layout.cutoff
    rng = np.random.default_rng(seed)
    # any observable, not only a hermitian one
    obs = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    dense = rho.mat
    assert fock.expectation(rho, obs) == pytest.approx(complex(np.einsum("ij,ji->", dense, obs)), abs=1e-13)
    assert fock.purity(rho) == pytest.approx(float(np.einsum("ij,ji->", dense, dense).real), abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(drawn=banded_states)
def test_fit_geometric_refuses_mass_on_any_stored_offset(drawn):
    rho, offsets = drawn
    if offsets:
        with pytest.raises(thermo.NotChaoticError, match="off-diagonal"):
            thermo.fit_geometric(rho)
    # a chaotic state with one coherence, on any offset, is refused as well
    n = rho.layout.cutoff
    chaotic = states.chaotic_state(states.ThermoParams(1.0), rho.layout).mat
    for k in offsets:
        mat = chaotic.copy()
        mat[0, k] = mat[k, 0] = 2e-10
        with pytest.raises(thermo.NotChaoticError):
            thermo.fit_geometric(fock.DensityMatrix(rho.layout, mat, trace_tol=1.0))
        mat[0, k] = mat[k, 0] = 5e-11
        fit = thermo.fit_geometric(fock.DensityMatrix(rho.layout, mat, trace_tol=1.0))
        assert fit.max_offdiag == 5e-11
    assert thermo.fit_geometric(states.chaotic_state(states.ThermoParams(1.0), fock.ModeLayout(n))).max_offdiag == 0
