"""Hot numerical kernels.

Two storage forms are handled.  The dense kernels (apply_damping,
lindblad_rhs4, rk4_evolve) take a contiguous complex128 array of shape
(N, R, N, R): N is the Fock cutoff of the mode being damped, R is the
dimension of whatever rides along, row index = (n, m), column index =
(n', m').  The package passes single-mode states, R = 1.

The sector kernels (damp_sectors, lindblad_rhs_sectors, rk4_sectors) take a
two-mode state as a dict of pair-number sector blocks, keyed by (d, d'),
d = n_tilde - n_sys, in the form fock.DensityMatrix stores: row p of a
block in sector d is (n_sys, n_tilde) = (p + max(-d, 0), p + max(d, 0)).
They damp the system mode; callers that damp the tilde mode exchange the
modes before and after (fock.swap_modes).  Lowering n_sys by n moves block
(d, d') to (d + n, d' + n) and keeps n_tilde, so each term is a shifted
slice of one block times a weight per row and per column.

The damping operator sums have one numpy implementation each.  The dense
generator, RK4 and hermiticity kernels also have numba twins, used when
numba is importable; set THERMOFOCK_DISABLE_NUMBA=1 to force their
pure-numpy path.
"""

from __future__ import annotations

import os

import numpy as np

DISABLE_ENV = "THERMOFOCK_DISABLE_NUMBA"

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:
    HAS_NUMBA = False

NUMBA_ENABLED = HAS_NUMBA and not os.environ.get(DISABLE_ENV)


def backend_name() -> str:
    return "numba" if NUMBA_ENABLED else "numpy"


# ---------------------------------------------------------------------------
# pure-numpy implementations
# ---------------------------------------------------------------------------


def _lindblad_rhs_np(rho4: np.ndarray, kappa: float) -> np.ndarray:
    """Damping generator: kappa * (2 a rho a+ - {a+a, rho}) on the first mode."""
    n_modes = rho4.shape[0]
    idx = np.arange(n_modes, dtype=np.float64)
    out = -(idx[:, None, None, None] + idx[None, None, :, None]) * rho4
    if n_modes > 1:
        gain = np.outer(np.sqrt(idx[1:]), np.sqrt(idx[1:]))
        out[:-1, :, :-1, :] += 2.0 * gain[:, None, :, None] * rho4[1:, :, 1:, :]
    return kappa * out


def _hermitize_np(rho4: np.ndarray) -> np.ndarray:
    return 0.5 * (rho4 + rho4.transpose(2, 3, 0, 1).conj())


def _rk4_np(rho4: np.ndarray, kappa: float, dt: float, n_steps: int) -> np.ndarray:
    out = rho4.copy()
    for _ in range(n_steps):
        k1 = _lindblad_rhs_np(out, kappa)
        k2 = _lindblad_rhs_np(out + (0.5 * dt) * k1, kappa)
        k3 = _lindblad_rhs_np(out + (0.5 * dt) * k2, kappa)
        k4 = _lindblad_rhs_np(out + dt * k3, kappa)
        out += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out = _hermitize_np(out)
    return out


def _herm_defect_np(mat: np.ndarray, partner: np.ndarray | None = None) -> float:
    partner = mat if partner is None else partner
    return float(np.abs(mat - partner.conj().T).max())


# ---------------------------------------------------------------------------
# numba implementations
# ---------------------------------------------------------------------------

if HAS_NUMBA:

    @njit(cache=True)
    def _rhs_into_nb(rho4, kappa, out):
        n_modes, ride = rho4.shape[0], rho4.shape[1]
        root = np.sqrt(np.arange(1.0, n_modes + 1.0))
        if ride == 1:
            src = rho4.reshape(n_modes, n_modes)
            dst = out.reshape(n_modes, n_modes)
            last = n_modes - 1
            for j in range(last):
                decay_j = kappa * j
                gain_j = 2.0 * kappa * root[j]
                for k in range(last):
                    dst[j, k] = (
                        gain_j * root[k] * src[j + 1, k + 1]
                        - (decay_j + kappa * k) * src[j, k]
                    )
                dst[j, last] = -(decay_j + kappa * last) * src[j, last]
            decay_j = kappa * last
            for k in range(n_modes):
                dst[last, k] = -(decay_j + kappa * k) * src[last, k]
            return
        for j in range(n_modes):
            for k in range(n_modes):
                decay = kappa * (j + k)
                gain = 0.0
                if j + 1 < n_modes and k + 1 < n_modes:
                    gain = 2.0 * kappa * root[j] * root[k]
                for m in range(ride):
                    for mp in range(ride):
                        val = -decay * rho4[j, m, k, mp]
                        if gain != 0.0:
                            val += gain * rho4[j + 1, m, k + 1, mp]
                        out[j, m, k, mp] = val

    @njit(cache=True)
    def _lindblad_rhs_nb(rho4, kappa):
        out = np.empty_like(rho4)
        _rhs_into_nb(rho4, kappa, out)
        return out

    @njit(cache=True)
    def _hermitize_inplace_nb(rho4):
        dim = rho4.shape[0] * rho4.shape[1]
        flat = rho4.reshape(dim, dim)
        for i in range(dim):
            for j in range(i, dim):
                h = 0.5 * (flat[i, j] + flat[j, i].conjugate())
                flat[i, j] = h
                flat[j, i] = h.conjugate()

    @njit(cache=True)
    def _rk4_nb(rho4, kappa, dt, n_steps):
        out = rho4.copy()
        k1 = np.empty_like(out)
        k2 = np.empty_like(out)
        k3 = np.empty_like(out)
        k4 = np.empty_like(out)
        stage = np.empty_like(out)
        flat_out = out.reshape(-1)
        flat_k1 = k1.reshape(-1)
        flat_k2 = k2.reshape(-1)
        flat_k3 = k3.reshape(-1)
        flat_k4 = k4.reshape(-1)
        flat_stage = stage.reshape(-1)
        size = flat_out.size
        for _ in range(n_steps):
            _rhs_into_nb(out, kappa, k1)
            for i in range(size):
                flat_stage[i] = flat_out[i] + (0.5 * dt) * flat_k1[i]
            _rhs_into_nb(stage, kappa, k2)
            for i in range(size):
                flat_stage[i] = flat_out[i] + (0.5 * dt) * flat_k2[i]
            _rhs_into_nb(stage, kappa, k3)
            for i in range(size):
                flat_stage[i] = flat_out[i] + dt * flat_k3[i]
            _rhs_into_nb(stage, kappa, k4)
            for i in range(size):
                flat_out[i] += (dt / 6.0) * (
                    flat_k1[i] + 2.0 * flat_k2[i] + 2.0 * flat_k3[i] + flat_k4[i]
                )
            _hermitize_inplace_nb(out)
        return out

    @njit(cache=True)
    def _herm_defect_nb(mat):
        dim = mat.shape[0]
        worst = 0.0
        for i in range(dim):
            for j in range(i, dim):
                d = abs(mat[i, j] - mat[j, i].conjugate())
                if d > worst:
                    worst = d
        return worst


# ---------------------------------------------------------------------------
# public kernels
# ---------------------------------------------------------------------------


def apply_damping(rho4: np.ndarray, weights: np.ndarray, n_kraus: int) -> np.ndarray:
    """Apply the amplitude-damping operator sum to the first mode of rho4.

    out[j,m,k,m'] = sum_n W[n,j] W[n,k] rho[j+n,m,k+n,m'], where weights[n, j]
    is the matrix element of the n-th damping operator that maps occupation
    j+n down to j; rows beyond n_kraus are ignored.

    Every term keeps the offset delta = j - k, so the sum acts on each
    diagonal rho4[p+max(delta,0), :, p+max(-delta,0), :] (p = 0..L-1,
    L = N - |delta|) on its own, as the upper-triangular L x L matrix
    T[p, p+n] = W[n, j_p] W[n, k_p].  Only the (m, m') columns with a
    nonzero on that diagonal are gathered, so a diagonal single-mode state
    touches one offset.
    """
    n_modes = rho4.shape[0]
    n_kraus = min(n_kraus, n_modes)
    out = np.zeros_like(rho4)
    for delta in range(1 - n_modes, n_modes):
        diag = np.diagonal(rho4, -delta, axis1=0, axis2=2)  # (R, R, L) view
        m_sel, mp_sel = np.nonzero(diag.any(axis=2))
        if m_sel.size == 0:
            continue
        span = diag.shape[2]
        j0, k0 = max(delta, 0), max(-delta, 0)
        row, col = np.triu_indices(span)
        order = col - row
        keep = order < n_kraus
        row, col, order = row[keep], col[keep], order[keep]
        tmat = np.zeros((span, span))
        tmat[row, col] = weights[order, j0 + row] * weights[order, k0 + row]
        # complex columns as interleaved real pairs, so T acts through one real GEMM
        cols = np.ascontiguousarray(diag[m_sel, mp_sel, :].T)
        damped = (tmat @ cols.view(np.float64)).view(np.complex128)
        p = np.arange(span)[:, None]
        out[j0 + p, m_sel, k0 + p, mp_sel] = damped
    return out


def lindblad_rhs4(rho4: np.ndarray, kappa: float) -> np.ndarray:
    """Evaluate the damping generator on the first mode of rho4."""
    if NUMBA_ENABLED:
        return _lindblad_rhs_nb(rho4, kappa)
    return _lindblad_rhs_np(rho4, kappa)


def rk4_evolve(rho4: np.ndarray, kappa: float, dt: float, n_steps: int) -> np.ndarray:
    """Integrate the damping generator with fixed-step RK4.

    The state is re-hermitized after every step so round-off cannot
    accumulate an anti-hermitian component over long integrations.
    """
    if n_steps <= 0:
        return rho4.copy()
    if NUMBA_ENABLED:
        return _rk4_nb(rho4, kappa, dt, n_steps)
    return _rk4_np(rho4, kappa, dt, n_steps)


def hermiticity_defect(mat: np.ndarray, partner: np.ndarray | None = None) -> float:
    """max |mat - partner^dagger| entrywise; partner defaults to mat itself.

    Density matrices call this per sector block (at most cutoff x cutoff),
    comparing block (d, d') with block (d', d).
    """
    if partner is None and NUMBA_ENABLED:
        return float(_herm_defect_nb(mat))
    return _herm_defect_np(mat, partner)


# ---------------------------------------------------------------------------
# sector kernels
# ---------------------------------------------------------------------------


def _add_to(out: dict, key: tuple[int, int], term: np.ndarray, cutoff: int) -> None:
    """out[key][:rows, :cols] += term, starting from a zero block."""
    dst = out.get(key)
    if dst is None:
        dst = out[key] = np.zeros((cutoff - abs(key[0]), cutoff - abs(key[1])), dtype=np.complex128)
    dst[: term.shape[0], : term.shape[1]] += term


def _add_lowered(out: dict, key: tuple[int, int], block: np.ndarray, n: int, table: np.ndarray, cutoff: int) -> bool:
    """Add the image of one block with n_sys lowered by n on both sides.

    The entry with system occupations (j + n, k + n) lands at the entry
    with (j, k) in block (d + n, d' + n), times table[j] table[k]; the tilde
    occupations stay.  The surviving rows start at row r0 of the block,
    whose n_tilde is the lowest the output sector holds, so the image fills
    the top-left corner of the output block (likewise for columns).
    Returns False when no row or column survives, which then holds for
    every larger n as well.
    """
    d, d2 = key
    f, f2 = d + n, d2 + n
    r0, c0 = max(f, 0) - max(d, 0), max(f2, 0) - max(d2, 0)
    rows, cols = block.shape[0] - r0, block.shape[1] - c0
    if rows <= 0 or cols <= 0:
        return False
    j0, k0 = max(-f, 0), max(-f2, 0)
    weight = table[j0:j0 + rows, None] * table[k0:k0 + cols]
    _add_to(out, (f, f2), weight * block[r0:, c0:], cutoff)
    return True


def damp_sectors(blocks: dict, weights: np.ndarray, n_kraus: int, cutoff: int) -> dict:
    """Apply the amplitude-damping operator sum to the system mode.

    out[(j, .), (k, .)] = sum_n W[n, j] W[n, k] rho[(j + n, .), (k + n, .)]
    with the tilde occupations unchanged: input block (d, d') feeds output
    blocks (d + n, d' + n), n < n_kraus, with weight row W[n] on each side.
    The thermal-vacuum projector has the single block (0, 0), so it costs
    cutoff such terms.
    """
    out: dict = {}
    for key, block in blocks.items():
        for n in range(min(n_kraus, cutoff)):
            if not _add_lowered(out, key, block, n, weights[n], cutoff):
                break
    return out


def lindblad_rhs_sectors(blocks: dict, kappa: float, cutoff: int) -> dict:
    """kappa (2 a rho a+ - a+a rho - rho a+a) on the system mode, per block.

    The anticommutator scales each block by -kappa (n_sys + n_sys'); the
    jump term is the n = 1 lowering with weights sqrt(2 kappa (j + 1)).
    """
    gain = np.sqrt(2.0 * kappa * np.arange(1.0, cutoff + 1.0))
    out: dict = {}
    for (d, d2), block in blocks.items():
        n_row = np.arange(block.shape[0]) + max(-d, 0)
        n_col = np.arange(block.shape[1]) + max(-d2, 0)
        _add_to(out, (d, d2), -kappa * (n_row[:, None] + n_col) * block, cutoff)
        _add_lowered(out, (d, d2), block, 1, gain, cutoff)
    return out


def rk4_sectors(blocks: dict, kappa: float, dt: float, n_steps: int, cutoff: int) -> dict:
    """Integrate the system-mode damping generator with fixed-step RK4.

    The state is first padded with zero blocks to the set of keys the
    generator can reach, (d + n, d' + n), closed under transposition, and
    re-hermitized after every step, block (d, d') against block (d', d),
    as in rk4_evolve.
    """
    keys = set(blocks) | {(d2, d) for d, d2 in blocks}
    todo = list(keys)
    while todo:
        d, d2 = todo.pop()
        nxt = (d + 1, d2 + 1)
        if max(nxt) < cutoff and nxt not in keys:
            keys.add(nxt)
            todo.append(nxt)
    out = {
        key: blocks[key].copy() if key in blocks
        else np.zeros((cutoff - abs(key[0]), cutoff - abs(key[1])), dtype=np.complex128)
        for key in keys
    }
    for _ in range(n_steps):
        k1 = lindblad_rhs_sectors(out, kappa, cutoff)
        k2 = lindblad_rhs_sectors({k: out[k] + (0.5 * dt) * k1[k] for k in keys}, kappa, cutoff)
        k3 = lindblad_rhs_sectors({k: out[k] + (0.5 * dt) * k2[k] for k in keys}, kappa, cutoff)
        k4 = lindblad_rhs_sectors({k: out[k] + dt * k3[k] for k in keys}, kappa, cutoff)
        out = {k: out[k] + (dt / 6.0) * (k1[k] + 2.0 * k2[k] + 2.0 * k3[k] + k4[k]) for k in keys}
        out = {(d, d2): 0.5 * (block + out[(d2, d)].conj().T) for (d, d2), block in out.items()}
    return out
