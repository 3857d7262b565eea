"""Named invariant checks, grouped by module, for the `verify` subcommand,
and the dense oracles they check the package against.

Each check computes a single observed number and passes when it is below
(or, for signed-margin checks, at most) its tolerance.  Check functions
take an optional cutoff override, which no check caps: two-mode states,
the squeeze unitary and E = exp(lambda a+ b+) are all built by pair-number
sector, never as dense cutoff^2 x cutoff^2 matrices.  A check that raises
one of the package's numerical errors at some cutoff is reported as
failed, with observed value inf, and the rest of the suite still runs.

This module owns the oracles: the ladder and number operators and the
dense expectation value, the Kraus family and the squeeze unitary, each
beside the checks that use it.  `cool` and `two-mode` never call them,
so each side of a comparison has one implementation: the structured path
in fock, states and channel, the dense one here.

The checks of one run_checks call share the inputs that several of them
build from the same arguments: the chaotic states, the Kraus image
apply_kraus(rho, 0.5), the ladder and number operators and the squeeze
unitary, each built once through _shared and released when the call
returns.  An input that only one check builds (a Kraus family, the
E-series factors) is built by that check and dropped with it.

The oracles are whole-array operations.  The Kraus oracles take the
family as one (cutoff, cutoff, cutoff) stack, whose completeness sum is
one product of the stack with itself.  The product state of two chaotic
states is one scatter into its stored (2 cutoff - 1, cutoff, cutoff)
stack.  The E-series sums one column per order for every sector at once
and is scaled into its stored stack as one (cutoff, cutoff) array.  The
squeeze gram is one batched product per SVD batch, each block padded with
the identity to its batch's largest.
"""

from __future__ import annotations

import contextvars
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import channel, fock, states, thermo

SUITES = ("fock", "states", "channel", "thermo")

# numerical failures a check may raise; run_checks reports them as FAIL
CHECK_ERRORS = (
    fock.StateError,
    fock.LayoutError,
    channel.IntegrationError,
    thermo.NotChaoticError,
    ArithmeticError,
)

_GRID_TAU0 = (0.3, 1.0, 3.0)
_GRID_KAPPA_T = (0.1, 0.5, 1.0, 2.0, 5.0)


# the shared inputs built during the current run_checks call, by (builder,
# arguments); None outside a call, so a check run on its own builds its own
_RUN_INPUTS: contextvars.ContextVar[dict | None] = contextvars.ContextVar("run_inputs", default=None)


def _cutoff(cutoff: int | None, default: int = 32) -> int:
    return default if cutoff is None else cutoff


def _shared(build: Callable, *args):
    """build(*args), built once per run_checks call for the checks that
    share it.  The checks only read what it returns."""
    store = _RUN_INPUTS.get()
    if store is None:
        return build(*args)
    key = (build, args)
    if key not in store:
        store[key] = build(*args)
    return store[key]


def _chaotic(tau: float, layout: fock.ModeLayout) -> fock.DensityMatrix:
    return _shared(states.chaotic_state, states.ThermoParams(tau), layout)


# ---------------------------------------------------------------------------
# fock
# ---------------------------------------------------------------------------


def annihilation(layout: fock.ModeLayout) -> np.ndarray:
    """Lowering operator a of a single mode: a|n> = sqrt(n)|n-1>."""
    fock._single_mode(layout, "annihilation")
    n = layout.cutoff
    core = np.zeros((n, n), dtype=np.complex128)
    core[np.arange(n - 1), np.arange(1, n)] = np.sqrt(np.arange(1, n))
    return core


def creation(layout: fock.ModeLayout) -> np.ndarray:
    """Raising operator a+ of a single mode."""
    fock._single_mode(layout, "creation")
    n = layout.cutoff
    core = np.zeros((n, n), dtype=np.complex128)
    core[np.arange(1, n), np.arange(n - 1)] = np.sqrt(np.arange(1, n))
    return core


def number(layout: fock.ModeLayout) -> np.ndarray:
    """Occupation-number operator a+a of a single mode."""
    fock._single_mode(layout, "number")
    return np.diag(np.arange(layout.cutoff, dtype=np.complex128))


def expectation(rho: fock.DensityMatrix, obs: np.ndarray) -> complex:
    """Tr(rho A) against a dense (dim, dim) observable.

    Offset k of rho meets offset -k of A: each stored diagonal is summed
    against the matching diagonals of A, in O(stored entries).  A two-mode
    density matrix is refused: its dense form would hold cutoff^4 entries
    (4.3 GB at cutoff 128).
    """
    dim = rho.layout.dim
    if obs.shape != (dim, dim):
        raise fock.LayoutError(f"observable shape {obs.shape} does not match layout dim {dim}")
    if rho.layout.modes == 2:
        raise fock.LayoutError("expectation takes a single-mode density matrix")
    total = np.dot(rho.diagonals[0], np.diagonal(obs))
    for k, line in enumerate(rho.diagonals[1:], start=1):
        line = line[:dim - k]
        total += np.dot(line, np.diagonal(obs, -k)) + np.dot(line.conj(), np.diagonal(obs, k))
    return complex(total)


def _ladder_adjoint(cutoff: int | None) -> float:
    layout = fock.ModeLayout(_cutoff(cutoff))
    a = _shared(annihilation, layout)
    return float(np.abs(_shared(creation, layout) - a.conj().T).max())


def _commutator_interior(cutoff: int | None) -> float:
    n = _cutoff(cutoff)
    layout = fock.ModeLayout(n)
    a = _shared(annihilation, layout)
    ad = _shared(creation, layout)
    comm = a @ ad - ad @ a
    return float(np.abs(comm[: n - 1, : n - 1] - np.eye(n - 1)).max())


def _number_from_ladders(cutoff: int | None) -> float:
    layout = fock.ModeLayout(_cutoff(cutoff))
    a = _shared(annihilation, layout)
    return float(np.abs(a.conj().T @ a - _shared(number, layout)).max())


def _product_state(rho_a: fock.DensityMatrix, rho_b: fock.DensityMatrix) -> fock.DensityMatrix:
    """rho_a (x) rho_b of two diagonal single-mode states, as a two-mode
    state stored by sector, with the trace check of from_factors.

    The product is diagonal too: its entry (n, m~) is rho_a[n, n]
    rho_b[m, m], and the factor of each sector is the diagonal of square
    roots, one column per state.  Sector d = m - n holds (n, m~) at index
    p = min(n, m), so every entry of the outer product of the populations
    lands at [d + cutoff - 1, n, p] of the stored stack (rows by system
    occupation) in one scatter, and no second copy of the joint state is
    made.
    """
    layout = rho_a.layout
    n = layout.cutoff
    pops_a = fock.diagonal_populations(rho_a.diagonals)
    pops_b = fock.diagonal_populations(rho_b.diagonals)
    sys_occ, til_occ = np.indices((n, n))
    factors = np.zeros((2 * n - 1, n, n))
    factors[til_occ - sys_occ + n - 1, sys_occ, np.minimum(sys_occ, til_occ)] = np.sqrt(np.outer(pops_a, pops_b))
    joint = fock.DensityMatrix._stored(layout.doubled(), factors, range(1 - n, n))
    joint._check_trace(fock.DEFAULT_TRACE_TOL)
    return joint


def _partial_trace_tensor(cutoff: int | None) -> float:
    layout = fock.ModeLayout(_cutoff(cutoff))
    rho_a = _chaotic(1.0, layout)
    rho_b = _chaotic(0.5, layout)
    joint = _product_state(rho_a, rho_b)
    kept_sys = fock.partial_trace(joint, over=fock.TILDE)
    kept_til = fock.partial_trace(joint, over=fock.SYSTEM)
    tr_a = fock.trace(rho_a).real
    tr_b = fock.trace(rho_b).real
    err_sys = np.abs(kept_sys.mat - tr_b * rho_a.mat).max()
    err_til = np.abs(kept_til.mat - tr_a * rho_b.mat).max()
    return float(max(err_sys, err_til))


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


def pair_creation_weights(cutoff: int) -> np.ndarray:
    """The nonzero entries of a+ b+ in every sector m = |d| at once: row m
    holds sqrt(p (p + m)) for p = 1..cutoff - m - 1, then zeros, in an
    array of shape (cutoff, cutoff - 1).

    Entry p - 1 of row m is S[p, p - 1] of the block S of a+ b+ on sector
    m: the weight with which a+ b+ raises sector index p - 1 to p.
    """
    m = np.arange(cutoff)[:, None]
    p = np.arange(1.0, cutoff)
    return np.where(p + m < cutoff, np.sqrt(p * (p + m)), 0.0)


# sectors d < n/4, n/4 <= d < n/2, ... of a cutoff n share one SVD each: a
# batch is padded only to its own largest sector
SQUEEZE_BATCH_SPLITS = (0.25, 0.5, 0.75)


def thermo_squeeze_operator(theta: float, layout: fock.ModeLayout) -> dict[int, np.ndarray]:
    """Unitary exp[theta (a+ b+ - a b)] mixing the system and tilde modes.

    The generator keeps the pair-number difference d, so the unitary is
    block diagonal; it is returned as {d: U_d}, U_d a real orthogonal
    float64 array acting on sector d in sector order (see
    fock.sector_indices).  Sectors d and -d share one array.

    In sector d the generator theta (S - S^T), S the block of a+ b+, is
    real antisymmetric and couples state p only to p +- 1, with weight
    t_p = theta sqrt((p + 1)(p + 1 + |d|)), theta times row |d| of
    pair_creation_weights.  With the even states first and
    the odd ones after, it is [[0, M], [-M^T, 0]] for the lower-bidiagonal
    M[i, i] = -t_(2i), M[i, i - 1] = t_(2i - 1), and from the full SVD
    M = X diag(s) Y^T its exponential is

        [[ X cos(s) X^T,  X sin(s) Y^T],
         [-Y sin(s) X^T,  Y cos(s) Y^T]],

    where a zero singular value (an odd sector's extra even state) gives
    cos 1 and sin 0.  The sectors are split into batches at the fractions
    SQUEEZE_BATCH_SPLITS of the cutoff, and each batch takes one batched
    SVD, each M zero-padded to the shape of the batch's largest: the
    padding only adds zero singular values whose vectors span the padded
    rows, so each sector's own rows of the three products are those of its
    unpadded M.  A theta that is negative, NaN or infinite raises
    ValueError.
    """
    if layout.modes != 2:
        raise fock.LayoutError("the squeeze operator lives on a two-mode layout")
    if not 0 <= theta < math.inf:
        raise ValueError(f"theta must be finite and >= 0, got {theta}")
    n = layout.cutoff
    coupling = theta * pair_creation_weights(n)
    unitaries = {}
    for lo, hi in _squeeze_batches(n):
        for d, block in zip(range(lo, hi), _squeeze_batch(coupling, lo, hi)):
            unitaries[d] = unitaries[-d] = block
    return unitaries


def _squeeze_batches(cutoff: int) -> list[tuple[int, int]]:
    """The sectors lo <= d < hi of each SVD batch, split at the fractions
    SQUEEZE_BATCH_SPLITS of the cutoff; sector lo is the batch's largest."""
    edges = sorted({0, cutoff, *(int(f * cutoff) for f in SQUEEZE_BATCH_SPLITS)})
    return list(zip(edges, edges[1:]))


def _squeeze_batch(coupling: np.ndarray, lo: int, hi: int) -> list[np.ndarray]:
    """The blocks U_d of sectors lo <= d < hi, from one batched SVD of
    their M zero-padded to sector lo's shape (see thermo_squeeze_operator);
    coupling[d, p] = t_p of sector d, zero past the sector."""
    n = len(coupling)
    size = n - lo
    n_even, n_odd = (size + 1) // 2, size // 2
    # t[k, p] couples p and p + 1 in sector d = lo + k, whose n - d states end at p = n - d - 1
    t = coupling[lo:hi, : size - 1]
    m = np.zeros((hi - lo, n_even, n_odd))
    i = np.arange(n_odd)
    m[:, i, i] = -t[:, 2 * i]
    i = np.arange(1, n_even)
    m[:, i, i - 1] = t[:, 2 * i - 1]
    x, s, yt = np.linalg.svd(m)
    cos_x = np.ones((hi - lo, n_even))
    cos_x[:, :n_odd] = np.cos(s)
    # each padded stack is dropped once read
    del m
    blocks = np.empty((hi - lo, size, size))
    blocks[:, 0::2, 0::2] = (x * cos_x[:, None, :]) @ x.transpose(0, 2, 1)
    cross = (x[:, :, :n_odd] * np.sin(s)[:, None, :]) @ yt
    del x
    blocks[:, 0::2, 1::2] = cross
    blocks[:, 1::2, 0::2] = -cross.transpose(0, 2, 1)
    del cross
    blocks[:, 1::2, 1::2] = (yt.transpose(0, 2, 1) * np.cos(s)[:, None, :]) @ yt
    # padded even state i sits at row 2i and odd state j at row 2j + 1, so
    # each sector's block is the leading corner of its padded one, copied
    # out so that it owns its memory
    return [blocks[d - lo, : n - d, : n - d].copy() for d in range(lo, hi)]


def tfd_expectation_identity(obs: np.ndarray, params: states.ThermoParams) -> tuple[complex, complex]:
    """Evaluate <0(beta)| A (x) 1 |0(beta)> and Tr(A rho_thermal) side by side.

    A is a (cutoff, cutoff) system observable.  On the untruncated space the
    two are equal for every system observable; on the truncated space they
    agree up to the thermal tail weight.  |0(beta)> pairs each |n> with its
    own |n~>, so the pure side is sum_n f_n^2 A_nn over the amplitudes f_n
    of the thermal vacuum.  The chaotic state is the run's shared one (see
    _chaotic).
    """
    layout = fock.ModeLayout(obs.shape[0])
    # expectation checks the shape of A before its diagonal is read
    mixed_side = expectation(_chaotic(params.tau, layout), obs)
    amps = states.thermal_vacuum(params, layout.doubled()).factor(0)[:, 0]
    pure_side = complex(np.dot(amps * amps, np.diagonal(obs)))
    return pure_side, mixed_side


def _squeeze_unitarity(cutoff: int | None) -> float:
    layout = fock.ModeLayout(_cutoff(cutoff, default=33)).doubled()
    unitaries = _shared(thermo_squeeze_operator, thermo.theta_from_tau(1.0), layout)
    # the blocks are real, and U^T U and the identity are zero between
    # sectors, so the largest deviation lies in the gram of one sector's
    # block; d and -d share theirs.  The blocks of one SVD batch are padded
    # with the identity to the batch's largest, whose gram is that of the
    # block beside an exact identity, with exact zeros between them, so
    # each batch takes one product
    n = layout.cutoff
    worst = 0.0
    for lo, hi in _squeeze_batches(n):
        size = n - lo
        padded = np.zeros((hi - lo, size, size))
        padded[:, range(size), range(size)] = 1.0
        for d in range(lo, hi):
            padded[d - lo, : n - d, : n - d] = unitaries[d]
        gram = padded.transpose(0, 2, 1) @ padded
        del padded
        gram -= np.eye(size)
        worst = max(worst, float(np.abs(gram, out=gram).max()))
    return worst


def _squeeze_generates_thermal_vacuum(cutoff: int | None) -> float:
    layout = fock.ModeLayout(_cutoff(cutoff, default=33)).doubled()
    params = states.ThermoParams(1.0)
    unitaries = _shared(thermo_squeeze_operator, params.theta, layout)
    # |0, 0~> is index 0 of sector 0; its image and the thermal vacuum both
    # lie in sector 0
    squeezed = unitaries[0][:, 0]
    target = states.thermal_vacuum(params, layout).factor(0)[:, 0]
    return float(np.linalg.norm(squeezed - target))


def _tfd_identity(cutoff: int | None) -> float:
    layout = fock.ModeLayout(_cutoff(cutoff, default=33))
    params = states.ThermoParams(1.0)
    worst = 0.0
    a = _shared(annihilation, layout)
    quad = a + a.conj().T
    for obs in (_shared(number, layout), quad):
        pure, mixed = tfd_expectation_identity(obs, params)
        worst = max(worst, abs(pure - mixed))
    return worst


def _pair_series_columns(layout: fock.ModeLayout, lam: float) -> np.ndarray:
    """Row m holds E|0, m~> = exp(lam a+ b+)|0, m~> in sector m's order,
    zero-padded to the cutoff, summed term by term from the operator.

    |0, m~> is index 0 of sector m, where lam a+ b+ is the nilpotent block
    lam S_m, so the Taylor series of exp(lam S_m) applied to it ends after
    cutoff - m terms.  S_m moves index p to p + 1 only, so the term of
    order k lies at index k alone, where no other term adds to it: column k
    is column k - 1 times column k - 1 of the subdiagonals of all lam S_m
    (pair_creation_weights), divided by k, one column per order for every
    sector at once.
    """
    n = layout.cutoff
    raise_pair = lam * pair_creation_weights(n)
    columns = np.zeros((n, n))
    columns[:, 0] = 1.0
    for k in range(1, n):
        columns[:, k] = raise_pair[:, k - 1] * columns[:, k - 1] / k
    return columns


def _evolved_series_vs_expm(cutoff: int | None) -> float:
    params, kappa_t = states.ThermoParams(1.0), 0.7
    n = states.truncation_cutoff(params, _cutoff(cutoff, default=33))
    layout = fock.ModeLayout(n).doubled()
    via_series = states.evolved_two_mode_state(params, kappa_t, layout)
    th = math.tanh(params.theta)
    lam = math.exp(-kappa_t) * th
    mu = (1.0 - math.exp(-2.0 * kappa_t)) * th * th
    # sector m >= 0 stores its rows from system occupation 0, so the scaled
    # columns, zero past each sector, are the stored stack as they stand.
    # mu^m is the float power of libm, which numpy's vectorized power does
    # not reproduce to the last bit
    scale = np.sqrt((1.0 - th * th) * np.array([mu**m for m in range(n)]))
    factors = (scale[:, None] * _pair_series_columns(layout, lam))[:, :, None]
    via_expm = fock.DensityMatrix._stored(layout, factors, range(n))
    via_expm._check_trace(abs(fock.trace(via_series) - 1) + 1e-12)
    return fock.trace_distance(via_series, via_expm)


def _evolved_tilde_reduction_thermal(cutoff: int | None) -> float:
    params = states.ThermoParams(1.0)
    layout = fock.ModeLayout(states.truncation_cutoff(params, _cutoff(cutoff, default=33))).doubled()
    evolved = states.evolved_two_mode_state(params, 0.9, layout)
    tilde_side = fock.partial_trace(evolved, over=fock.SYSTEM)
    reference = _chaotic(params.tau, layout.single())
    return float(np.abs(tilde_side.mat - reference.mat).max())


# ---------------------------------------------------------------------------
# channel
# ---------------------------------------------------------------------------


def kraus_operators(kappa_t: float, layout: fock.ModeLayout) -> np.ndarray:
    """Materialize the single-mode Kraus family as one float64 array of
    shape (cutoff, cutoff, cutoff), K_n = ops[n].

    Built from the (real) ladder operator as the running product K_0 =
    e^(-kappa t a+a), K_n = K_(n-1) sqrt(V / n) a, which is sqrt(V^n / n!)
    e^(-kappa t a+a) a^n with every entry in [0, 1]: V^n / n! alone
    underflows from cutoff 190 on.  Each product is written into its own
    slice of the stack.  Viewed as (cutoff^2, cutoff), the stack is the
    column of all K_n, so sum_n K_n^T K_n is one product of that view with
    itself.  The ladder is the run's shared one (see _shared).  kappa t is
    clamped at channel.KAPPA_T_SATURATION, as in channel.damping_weights.
    channel.apply_kraus does not call this (it uses the weight table), so
    the two can check each other.  A two-mode layout raises LayoutError:
    its family would be cutoff dense matrices of cutoff^4 entries, and
    apply_kraus damps two-mode states by sector.
    """
    if layout.modes != 1:
        raise fock.LayoutError("kraus_operators builds the single-mode family")
    kappa_t = min(kappa_t, channel.KAPPA_T_SATURATION)
    v = channel._jump_weight(kappa_t)
    a = _shared(annihilation, layout).real
    n_ops = layout.cutoff
    ops = np.empty((n_ops, n_ops, n_ops))
    ops[0] = np.diag(np.exp(-kappa_t * np.arange(n_ops)))
    for n in range(1, n_ops):
        np.matmul(ops[n - 1], math.sqrt(v / n) * a, out=ops[n])
    return ops


def _kraus_completeness(cutoff: int | None) -> float:
    layout = fock.ModeLayout(_cutoff(cutoff))
    # row n * cutoff + i of the stacked family is row i of K_n, so
    # sum_n K_n^T K_n is the gram of the stack viewed as (cutoff^2, cutoff)
    stacked = kraus_operators(0.5, layout).reshape(-1, layout.dim)
    return float(np.abs(stacked.T @ stacked - np.eye(layout.dim)).max())


def _trace_preservation(cutoff: int | None) -> float:
    layout = fock.ModeLayout(_cutoff(cutoff))
    rho = _chaotic(1.0, layout)
    out = channel.apply_kraus(rho, 0.37)
    return abs(fock.trace(out) - fock.trace(rho))


def _mean_photon_decay(cutoff: int | None) -> float:
    layout = fock.ModeLayout(_cutoff(cutoff))
    kappa_t = 0.5
    rho = _chaotic(1.0, layout)
    out = _shared(channel.apply_kraus, rho, kappa_t)
    num = _shared(number, layout)
    before = expectation(rho, num).real
    after = expectation(out, num).real
    return abs(after - math.exp(-2.0 * kappa_t) * before)


def _kraus_vs_lindblad(cutoff: int | None) -> float:
    layout = fock.ModeLayout(_cutoff(cutoff))
    rho = _chaotic(1.0, layout)
    via_kraus = _shared(channel.apply_kraus, rho, 0.5)
    via_ode = channel.lindblad_integrate(rho, kappa=1.0, times=[0.5])[0]
    return fock.trace_distance(via_kraus, via_ode)


def _damped_state_positive(cutoff: int | None) -> float:
    layout = fock.ModeLayout(_cutoff(cutoff))
    rho = _chaotic(1.0, layout)
    out = _shared(channel.apply_kraus, rho, 0.5)
    return max(0.0, -out.min_eigenvalue())


def _structured_vs_explicit(cutoff: int | None) -> float:
    layout = fock.ModeLayout(_cutoff(cutoff, default=24))
    kappa_t = 0.8
    rho = _chaotic(1.0, layout)
    fast = channel.apply_kraus(rho, kappa_t).mat
    # the chaotic state and the Kraus family are real
    mat = rho.mat.real
    slow = np.zeros_like(mat)
    for op in kraus_operators(kappa_t, layout):
        slow += op @ mat @ op.T
    return float(np.abs(fast - slow).max())


# ---------------------------------------------------------------------------
# thermo
# ---------------------------------------------------------------------------


def _cooling_law_vs_nbar_oracle(cutoff: int | None) -> float:
    worst = 0.0
    for tau0 in _GRID_TAU0:
        for kappa_t in _GRID_KAPPA_T:
            direct = thermo.tau_after(tau0, kappa_t)
            via_nbar = thermo.tau_from_nbar(
                math.exp(-2.0 * kappa_t) * thermo.nbar_from_tau(tau0)
            )
            worst = max(worst, abs(direct - via_nbar))
    return worst


def _theta_prime_vs_cooling_law(cutoff: int | None) -> float:
    worst = 0.0
    for tau0 in _GRID_TAU0:
        theta = thermo.theta_from_tau(tau0)
        for kappa_t in _GRID_KAPPA_T:
            via_theta = thermo.tau_from_theta(thermo.theta_prime(theta, kappa_t))
            worst = max(worst, abs(via_theta - thermo.tau_after(tau0, kappa_t)))
    return worst


def _cooling_denominator_margin(cutoff: int | None) -> float:
    # signed: e^(-2 kappa t) - [1 - (1 - e^(-2 kappa t)) tanh^2(theta)] must
    # stay negative for theta > 0, kappa t > 0
    worst = -math.inf
    for tau0 in _GRID_TAU0:
        th2 = math.tanh(thermo.theta_from_tau(tau0)) ** 2
        for kappa_t in _GRID_KAPPA_T:
            decay2 = math.exp(-2.0 * kappa_t)
            denom = 1.0 - (1.0 - decay2) * th2
            worst = max(worst, decay2 - denom)
    return worst


def _fit_geometric_roundtrip(cutoff: int | None) -> float:
    layout = fock.ModeLayout(_cutoff(cutoff, default=40))
    params = states.ThermoParams(1.7)
    fit = thermo.fit_geometric(_chaotic(params.tau, layout))
    return abs(fit.q - params.q)


def _effective_temperature_roundtrip(cutoff: int | None) -> float:
    layout = fock.ModeLayout(_cutoff(cutoff, default=33))
    rho = _chaotic(1.0, layout)
    return abs(thermo.effective_temperature(rho) - 1.0)


def _fit_rejects_offdiagonal(cutoff: int | None) -> float:
    layout = fock.ModeLayout(_cutoff(cutoff, default=8))
    vec = np.zeros(layout.dim, dtype=np.complex128)
    vec[0] = vec[1] = 1.0 / math.sqrt(2.0)
    rho = fock.DensityMatrix(layout, np.outer(vec, vec.conj()))
    try:
        thermo.fit_geometric(rho)
    except thermo.NotChaoticError:
        return 0.0
    return 1.0


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    name: str
    suite: str
    tol: float
    fn: Callable[[int | None], float]


@dataclass(frozen=True)
class CheckResult:
    name: str
    observed: float
    tol: float
    passed: bool


CHECKS: tuple[Check, ...] = (
    Check("ladder_adjoint", "fock", 1e-14, _ladder_adjoint),
    Check("commutator_interior", "fock", 1e-13, _commutator_interior),
    Check("number_from_ladders", "fock", 1e-12, _number_from_ladders),
    Check("partial_trace_tensor", "fock", 1e-12, _partial_trace_tensor),
    Check("squeeze_unitarity", "states", 1e-10, _squeeze_unitarity),
    Check("squeeze_generates_thermal_vacuum", "states", 1e-6, _squeeze_generates_thermal_vacuum),
    Check("tfd_identity", "states", 1e-10, _tfd_identity),
    Check("evolved_series_vs_expm", "states", 1e-10, _evolved_series_vs_expm),
    Check("evolved_tilde_reduction_thermal", "states", 1e-12, _evolved_tilde_reduction_thermal),
    Check("kraus_completeness", "channel", 1e-12, _kraus_completeness),
    Check("trace_preservation", "channel", 1e-12, _trace_preservation),
    Check("mean_photon_decay", "channel", 1e-10, _mean_photon_decay),
    Check("kraus_vs_lindblad", "channel", 1e-6, _kraus_vs_lindblad),
    Check("damped_state_positive", "channel", 1e-10, _damped_state_positive),
    Check("structured_vs_explicit", "channel", 1e-12, _structured_vs_explicit),
    Check("cooling_law_vs_nbar_oracle", "thermo", 1e-12, _cooling_law_vs_nbar_oracle),
    Check("theta_prime_vs_cooling_law", "thermo", 1e-12, _theta_prime_vs_cooling_law),
    Check("cooling_denominator_margin", "thermo", 0.0, _cooling_denominator_margin),
    Check("fit_geometric_roundtrip", "thermo", 1e-12, _fit_geometric_roundtrip),
    Check("effective_temperature_roundtrip", "thermo", 1e-10, _effective_temperature_roundtrip),
    Check("fit_rejects_offdiagonal", "thermo", 0.5, _fit_rejects_offdiagonal),
)


def select_checks(suite: str) -> list[Check]:
    if suite == "all":
        return list(CHECKS)
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from all, {', '.join(SUITES)}")
    return [c for c in CHECKS if c.suite == suite]


def run_checks(
    suite: str = "all",
    cutoff: int | None = None,
    tol_overrides: dict[str, float] | None = None,
) -> list[CheckResult]:
    """Run the named suite; tol_overrides must name checks in that suite.

    A check that raises one of CHECK_ERRORS is reported as failed with
    observed value inf.  The checks of one call share each input that
    several of them build from the same arguments (see the module
    docstring): one build per builder and arguments, released when the
    call returns.
    """
    checks = select_checks(suite)
    overrides = dict(tol_overrides or {})
    known = {c.name for c in checks}
    unknown = sorted(set(overrides) - known)
    if unknown:
        raise ValueError(f"tolerance override for unknown check(s): {', '.join(unknown)}")
    results = []
    token = _RUN_INPUTS.set({})
    try:
        for check in checks:
            tol = overrides.get(check.name, check.tol)
            try:
                observed = check.fn(cutoff)
            except CHECK_ERRORS:
                # a check that cannot run at this cutoff fails on its own line
                observed = math.inf
            results.append(CheckResult(check.name, observed, tol, observed < tol))
    finally:
        # no shared input outlives the call
        _RUN_INPUTS.reset(token)
    return results
