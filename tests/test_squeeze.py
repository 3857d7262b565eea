"""The squeeze unitary, its gram and the pair-creation series, against
per-sector oracles written out here; the inputs verify shares within one
run, and the memory each check takes.  No scipy: this module also runs
where only numpy is installed."""

import collections
import math
import tracemalloc

import numpy as np
import pytest

from thermofock import channel, fock, states, thermo, verify

THETAS = [0.0, 0.3, thermo.theta_from_tau(1.0), 2.0]

# cutoffs at the edges of the SVD batches (split at verify.SQUEEZE_BATCH_SPLITS):
# batches of one sector each (4), batches that start on odd sector sizes
# (9, 17, 65) or on both parities (5, 10), and a last batch that pads the
# sector of size 1 (5, 9); at cutoffs 2 and 3 split points coincide
BATCH_EDGE_CUTOFFS = [4, 5, 9, 10, 17, 65]


def pair_creation_block(layout, d):
    """a+ b+ restricted to sector d, in sector order: the real matrix with
    S[p+1, p] = sqrt((n_p + 1)(m_p + 1)) for the state p = (n_p, m_p~),
    read from verify.pair_creation_weights.

    a+ b+ raises both occupations, so it keeps d = n_tilde - n_sys and moves
    sector index p to p + 1; the block has cutoff - |d| states and is the
    same for d and -d.
    """
    if layout.modes != 2:
        raise fock.LayoutError("a+ b+ lives on a two-mode layout")
    size = layout.cutoff - abs(d)
    return np.diag(verify.pair_creation_weights(layout.cutoff)[abs(d), : size - 1], -1)


def eigh_squeeze(theta, layout):
    # U_d = V exp(-i w) V^+ from one complex eigh of the hermitian
    # i theta (S_d - S_d^T) per sector
    blocks = {}
    for d in range(layout.cutoff):
        pair_up = pair_creation_block(layout, d)
        w, v = np.linalg.eigh(1j * theta * (pair_up - pair_up.T))
        blocks[d] = (v * np.exp(-1j * w)) @ v.conj().T
    return blocks


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("cutoff", [2, 3, 8, 33, 48, 128, *BATCH_EDGE_CUTOFFS])
def test_svd_route_matches_per_sector_eigh(cutoff, theta):
    layout = fock.ModeLayout(cutoff).doubled()
    got = verify.thermo_squeeze_operator(theta, layout)
    want = eigh_squeeze(theta, layout)
    assert sorted(got) == list(range(1 - cutoff, cutoff))
    for d in range(cutoff):
        assert got[d] is got[-d]
        np.testing.assert_allclose(got[d], want[d], rtol=0, atol=2e-13)


@pytest.mark.parametrize("cutoff", [2, 3, 8, 33])
def test_zero_angle_is_the_exact_identity(cutoff):
    u = verify.thermo_squeeze_operator(0.0, fock.ModeLayout(cutoff).doubled())
    for d in range(cutoff):
        np.testing.assert_array_equal(u[d], np.eye(cutoff - d))


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("cutoff", [2, 3, 7, 33, *BATCH_EDGE_CUTOFFS])
def test_blocks_are_real_orthogonal_and_own_their_memory(cutoff, theta):
    u = verify.thermo_squeeze_operator(theta, fock.ModeLayout(cutoff).doubled())
    for d in range(cutoff):
        block = u[d]
        assert block.dtype == np.float64
        assert block.shape == (cutoff - d, cutoff - d)
        # each block is its own array, not a view into a padded stack
        assert block.base is None
        np.testing.assert_allclose(block.T @ block, np.eye(cutoff - d), rtol=0, atol=1e-13)


@pytest.mark.parametrize("cutoff", [2, 5, 33, 128])
def test_batched_squeeze_gram_matches_per_block_loop(cutoff):
    layout = fock.ModeLayout(cutoff).doubled()
    unitaries = verify.thermo_squeeze_operator(thermo.theta_from_tau(1.0), layout)
    blocks = (unitaries[d] for d in range(cutoff))
    per_block = max(float(np.abs(u.T @ u - np.eye(len(u))).max()) for u in blocks)
    assert abs(verify._squeeze_unitarity(cutoff) - per_block) <= 1e-15


@pytest.mark.parametrize("cutoff", [2, 5, 33])
def test_batched_pair_series_matches_per_sector_loop(cutoff):
    layout = fock.ModeLayout(cutoff).doubled()
    lam = math.exp(-0.7) * math.tanh(thermo.theta_from_tau(1.0))
    got = verify._pair_series_columns(layout, lam)
    assert got.shape == (cutoff, cutoff)
    for m in range(cutoff):
        step = lam * pair_creation_block(layout, m)
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
    (verify, "annihilation"),
    (verify, "creation"),
    (verify, "number"),
    (verify, "thermo_squeeze_operator"),
]


def count_verify_builds(monkeypatch):
    """Patch each shared builder to count its calls, by (name, arguments)."""
    calls = collections.Counter()
    for module, name in SHARED_BUILDERS:

        def counted(*args, build=getattr(module, name), name=name):
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
            "annihilation": 3,
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


def test_no_check_outgrows_the_product_state():
    # the product state of partial_trace_tensor, (2N - 1) N^2 float64
    # entries, is the largest oracle at cutoff N.  A check that forms a
    # family-sized temporary beside its inputs, such as a batched
    # structured_vs_explicit or a squeeze gram padded into one (N, N, N)
    # stack, outgrows it
    cutoff = 128
    peaks = {}
    for check in verify.CHECKS:
        tracemalloc.start()
        try:
            check.fn(cutoff)
            peaks[check.name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # measured 34.5 MB against a 33.4 MB stack
    assert peaks["partial_trace_tensor"] <= 1.1 * (2 * cutoff - 1) * cutoff**2 * 8
    assert max(peaks, key=peaks.get) == "partial_trace_tensor"
