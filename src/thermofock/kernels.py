"""Hot numerical kernels, in numpy, on single-mode states.

apply_damping applies the amplitude-damping operator sum to a dense matrix,
per offset j - k.  lindblad_table and rk4_evolve integrate the damping
generator kappa (2 a rho a+ - {a+a, rho}).  Only the entries the generator
can make nonzero are packed into the complex vector: the state's nonzero
entries, their transposes, and the entries the jump term feeds from them.
A chaotic state of cutoff N packs N entries, not N^2; every other entry
stays exactly 0.  Two-mode states are damped by channel.apply_kraus on
their sector factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def backend_name() -> str:
    return "numpy"


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


def hermiticity_defect(mat: np.ndarray) -> float:
    """max |mat - mat^dagger| entrywise; a single-mode density matrix is
    checked with it on construction."""
    return float(np.abs(mat - mat.conj().T).max())


# ---------------------------------------------------------------------------
# Lindblad generator on packed entries
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LindbladTable:
    """The damping generator on the entries a damped state can reach, packed.

    Entry k sits at flat position local[k] of the cutoff x cutoff matrix, in
    row-major order.  rhs(vec) is decay * vec + gain * vec[feed]: entry
    feed[k] is the one whose jump lands on entry k, or k itself with gain
    0; partner[k] is the position of the transpose of entry k.
    """

    cutoff: int
    local: np.ndarray
    decay: np.ndarray
    feed: np.ndarray
    gain: np.ndarray
    partner: np.ndarray

    def pack(self, mat: np.ndarray) -> np.ndarray:
        """One vector holding the table's entries of the matrix."""
        return mat.ravel()[self.local]

    def unpack(self, vec: np.ndarray) -> np.ndarray:
        """The matrix of a packed vector, zero outside the table's entries."""
        out = np.zeros((self.cutoff, self.cutoff), dtype=np.complex128)
        np.put(out, self.local, vec)
        return out

    def rhs(self, vec: np.ndarray) -> np.ndarray:
        """kappa (2 a rho a+ - a+a rho - rho a+a)."""
        return self.decay * vec + self.gain * vec[self.feed]


def lindblad_table(mat: np.ndarray, kappa: float) -> LindbladTable:
    """Pack the entries a damped state can reach and tabulate the generator.

    Entry (r, c) decays at kappa (r + c), and for r, c >= 1 feeds the entry
    (r - 1, c - 1) with weight 2 kappa sqrt(r) sqrt(c).  An entry therefore
    stays exactly zero unless it or an entry above it on its chain is
    nonzero: the packed entries are the state's nonzero entries, closed
    under that feed and under transposition.  A chaotic state of cutoff N
    packs its N populations.
    """
    n = mat.shape[0]
    # entries as flat positions r * n + c: the nonzero ones and their transposes
    r, c = np.nonzero(mat)
    seeds = np.concatenate([r * n + c, c * n + r])
    # Feeding moves an entry down its line by `lower`, to the line's base where
    # r or c is 0; the closure is every line entry up to the highest seed.
    lower = n + 1
    height = np.minimum(seeds // n, seeds % n)
    base, height = np.divmod(np.sort((seeds - height * lower) * n + height), n)
    top_of_line = np.diff(base, append=-1) != 0
    counts = height[top_of_line] + 1
    step = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    packed = np.sort(np.repeat(base[top_of_line], counts) + step * lower)
    rows, cols = np.divmod(packed, n)

    src = np.flatnonzero((rows > 0) & (cols > 0))
    dst = np.searchsorted(packed, packed[src] - lower)
    feed = np.arange(packed.size)
    feed[dst] = src
    gain = np.zeros(packed.size)
    gain[dst] = 2.0 * kappa * (np.sqrt(rows[src]) * np.sqrt(cols[src]))
    return LindbladTable(
        cutoff=n,
        local=packed,
        decay=-kappa * (rows + cols).astype(np.float64),
        feed=feed,
        gain=gain,
        partner=np.searchsorted(packed, cols * n + rows),
    )


def rk4_evolve(vec: np.ndarray, table: LindbladTable, dt: float, n_steps: int) -> np.ndarray:
    """Integrate the packed generator with fixed-step RK4.

    The state is re-hermitized after every step, each entry against its
    partner, so round-off cannot accumulate an anti-hermitian component
    over long integrations.
    """
    out = vec.copy()
    for _ in range(n_steps):
        k1 = table.rhs(out)
        k2 = table.rhs(out + (0.5 * dt) * k1)
        k3 = table.rhs(out + (0.5 * dt) * k2)
        k4 = table.rhs(out + dt * k3)
        out += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out = 0.5 * (out + out[table.partner].conj())
    return out
