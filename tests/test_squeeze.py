"""The squeeze unitary and the pair-creation series, against per-sector
oracles written out here.  No scipy: this module also runs where only
numpy is installed."""

import math

import numpy as np
import pytest

from thermofock import fock, states, thermo, verify

THETAS = [0.0, 0.3, thermo.theta_from_tau(1.0), 2.0]

# cutoffs at the edges of the SVD batches (split at SQUEEZE_BATCH_SPLITS):
# batches of one sector each (4), batches that start on odd sector sizes
# (9, 17, 65) or on both parities (5, 10), and a last batch that pads the
# sector of size 1 (5, 9); at cutoffs 2 and 3 split points coincide
BATCH_EDGE_CUTOFFS = [4, 5, 9, 10, 17, 65]


def eigh_squeeze(theta, layout):
    # U_d = V exp(-i w) V^+ from one complex eigh of the hermitian
    # i theta (S_d - S_d^T) per sector
    blocks = {}
    for d in range(layout.cutoff):
        pair_up = states.pair_creation_block(layout, d)
        w, v = np.linalg.eigh(1j * theta * (pair_up - pair_up.T))
        blocks[d] = (v * np.exp(-1j * w)) @ v.conj().T
    return blocks


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("cutoff", [2, 3, 8, 33, 48, 128, *BATCH_EDGE_CUTOFFS])
def test_svd_route_matches_per_sector_eigh(cutoff, theta):
    layout = fock.ModeLayout(cutoff).doubled()
    got = states.thermo_squeeze_operator(theta, layout)
    want = eigh_squeeze(theta, layout)
    assert sorted(got) == list(range(1 - cutoff, cutoff))
    for d in range(cutoff):
        assert got[d] is got[-d]
        np.testing.assert_allclose(got[d], want[d], rtol=0, atol=2e-13)


@pytest.mark.parametrize("cutoff", [2, 3, 8, 33])
def test_zero_angle_is_the_exact_identity(cutoff):
    u = states.thermo_squeeze_operator(0.0, fock.ModeLayout(cutoff).doubled())
    for d in range(cutoff):
        np.testing.assert_array_equal(u[d], np.eye(cutoff - d))


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("cutoff", [2, 3, 7, 33, *BATCH_EDGE_CUTOFFS])
def test_blocks_are_real_orthogonal_and_own_their_memory(cutoff, theta):
    u = states.thermo_squeeze_operator(theta, fock.ModeLayout(cutoff).doubled())
    for d in range(cutoff):
        block = u[d]
        assert block.dtype == np.float64
        assert block.shape == (cutoff - d, cutoff - d)
        # each block is its own array, not a view into a padded stack
        assert block.base is None
        np.testing.assert_allclose(block.T @ block, np.eye(cutoff - d), rtol=0, atol=1e-13)


@pytest.mark.parametrize("cutoff", [2, 5, 33])
def test_batched_pair_series_matches_per_sector_loop(cutoff):
    layout = fock.ModeLayout(cutoff).doubled()
    lam = math.exp(-0.7) * math.tanh(thermo.theta_from_tau(1.0))
    got = verify._pair_series_columns(layout, lam)
    assert got.shape == (cutoff, cutoff)
    for m in range(cutoff):
        step = lam * states.pair_creation_block(layout, m)
        term = np.zeros(cutoff - m)
        term[0] = 1.0
        column = term.copy()
        for k in range(1, cutoff - m):
            term = step @ term / k
            column += term
        # each row of S_m has one nonzero entry, so both orders of summation
        # add the same single product to exact zeros
        np.testing.assert_array_equal(got[m, : cutoff - m], column)
        np.testing.assert_array_equal(got[m, cutoff - m:], 0.0)


def test_verify_builds_the_squeeze_once_per_run_and_keeps_none(monkeypatch):
    calls = []
    build = states.thermo_squeeze_operator

    def counted(theta, layout):
        calls.append((theta, layout))
        return build(theta, layout)

    monkeypatch.setattr(states, "thermo_squeeze_operator", counted)
    # both squeeze checks of one run share one build
    assert all(res.passed for res in verify.run_checks("states"))
    assert len(calls) == 1
    # the next run builds its own
    verify.run_checks("states")
    assert len(calls) == 2
    # and so does a check called on its own
    verify._squeeze_generates_thermal_vacuum(None)
    assert len(calls) == 3
