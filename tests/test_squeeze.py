"""The squeeze unitary and the pair-creation series, against per-sector
oracles written out here, and the inputs verify shares within one run.
No scipy: this module also runs where only numpy is installed."""

import collections
import math
import sys

import numpy as np
import pytest

from thermofock import channel, fock, states, thermo, verify

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


# the builders whose results one verify run shares between its checks
SHARED_BUILDERS = [
    (states, "chaotic_state"),
    (channel, "apply_kraus"),
    (fock, "annihilation"),
    (fock, "creation"),
    (fock, "number"),
    (states, "thermo_squeeze_operator"),
]


def count_verify_builds(monkeypatch):
    """Patch each shared builder to count the calls verify makes itself,
    by (name, arguments); a builder's calls from other modules (the chaotic
    state of states.tfd_expectation_identity, the ladder of
    channel.kraus_operators) are not counted."""
    calls = collections.Counter()
    for module, name in SHARED_BUILDERS:

        def counted(*args, build=getattr(module, name), name=name):
            if sys._getframe(1).f_globals["__name__"] == verify.__name__:
                calls[name, args] += 1
            return build(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_verify_builds_the_squeeze_once_per_run_and_keeps_none(monkeypatch):
    calls = count_verify_builds(monkeypatch)
    for _ in range(2):
        # each shared input is built once per distinct arguments in a run
        calls.clear()
        assert all(res.passed for res in verify.run_checks("all"))
        assert max(calls.values()) == 1
        built = collections.Counter(name for name, _ in calls)
        assert built == {
            "chaotic_state": 5,
            "apply_kraus": 3,
            "annihilation": 2,
            "creation": 1,
            "number": 2,
            "thermo_squeeze_operator": 1,
        }
        # and no store outlives the run
        assert verify._RUN_INPUTS.get() is None
    # a check called on its own builds its own inputs, each time
    calls.clear()
    verify._squeeze_generates_thermal_vacuum(None)
    verify._squeeze_generates_thermal_vacuum(None)
    verify._mean_photon_decay(None)
    verify._mean_photon_decay(None)
    assert collections.Counter(name for name, _ in calls.elements()) == {
        "thermo_squeeze_operator": 2,
        "chaotic_state": 2,
        "apply_kraus": 2,
        "number": 2,
    }


def observed_alone(check, cutoff):
    try:
        return check.fn(cutoff)
    except verify.CHECK_ERRORS:
        return math.inf


@pytest.mark.parametrize("cutoff", [None, 8])
def test_sharing_inputs_changes_no_observed_value(cutoff):
    shared = {res.name: res.observed for res in verify.run_checks("all", cutoff=cutoff)}
    alone = {check.name: observed_alone(check, cutoff) for check in verify.CHECKS}
    assert shared == alone
