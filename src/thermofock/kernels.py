"""Hot numerical kernels, in numpy, on single-mode states.

apply_damping applies the amplitude-damping operator sum to a dense matrix,
per occupied offset j - k.  lindblad_table and rk4_evolve integrate the
damping generator kappa (2 a rho a+ - {a+a, rho}).  Only the entries the
generator can make nonzero are packed into the complex vector: the state's
nonzero entries, their transposes, and the entries the jump term feeds
from them.  A chaotic state of cutoff N packs N entries, not N^2; every
other entry stays exactly 0.

The generator keeps the offset c - r of an entry (r, c), and feeds each
entry only from the next one down its chain, (r + 1, c + 1).  On one chain
it is a real bidiagonal matrix at most cutoff x cutoff, the same for the
chain and its transpose, so rk4_evolve takes n RK4 steps as the n-th power
of each chain's RK4 step matrix, by binary powering in increment form, and
re-hermitizes once per call.  No packed-size matrix is ever formed.
Two-mode states are damped by channel.apply_kraus on their sector factors.
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
    T[p, p+n] = W[n, j_p] W[n, k_p].  The offsets are read off the nonzero
    entries in one pass, and on each only the (m, m') columns with a
    nonzero on that diagonal are gathered, so a diagonal single-mode state
    touches one offset.
    """
    n_modes = rho4.shape[0]
    n_kraus = min(n_kraus, n_modes)
    out = np.zeros_like(rho4)
    j, k = np.nonzero(rho4.any(axis=(1, 3)))
    for delta in np.unique(j - k).tolist():
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
    row-major order, and partner[k] is the position of its transpose.  The
    generator keeps the offset c - r of an entry (r, c) and acts on each
    offset's chain of entries on its own; entry k is slot[k] = min(r, c) of
    chain[k], which is the offset's magnitude |c - r|, on side[k] (0 on or
    above the diagonal, 1 below).  A chain and its transpose have the same
    real generator, generator[chain], bidiagonal and padded with zeros to
    the longest chain.
    """

    cutoff: int
    local: np.ndarray
    partner: np.ndarray
    chain: np.ndarray
    slot: np.ndarray
    side: np.ndarray
    generator: np.ndarray

    def pack(self, mat: np.ndarray) -> np.ndarray:
        """One vector holding the table's entries of the matrix."""
        return mat.ravel()[self.local]

    def unpack(self, vec: np.ndarray) -> np.ndarray:
        """The matrix of a packed vector, zero outside the table's entries."""
        out = np.zeros((self.cutoff, self.cutoff), dtype=np.complex128)
        np.put(out, self.local, vec)
        return out


def lindblad_table(mat: np.ndarray, kappa: float) -> LindbladTable:
    """Pack the entries a damped state can reach and tabulate the generator.

    Entry (r, c) decays at kappa (r + c), and for r, c >= 1 feeds the entry
    (r - 1, c - 1) with weight 2 kappa sqrt(r) sqrt(c).  An entry therefore
    stays exactly zero unless it or an entry above it on its chain is
    nonzero: the packed entries are the state's nonzero entries, closed
    under that feed and under transposition.  A chaotic state of cutoff N
    packs its N populations, on one chain.
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

    # the closure is symmetric, so a chain and its transpose have the same slots
    offsets, chain = np.unique(np.abs(cols - rows), return_inverse=True)
    slot = np.minimum(rows, cols)
    length = int(slot.max(initial=-1)) + 1
    generator = np.zeros((offsets.size, length, length))
    generator[chain, slot, slot] = -kappa * (rows + cols).astype(np.float64)
    fed = slot > 0
    generator[chain[fed], slot[fed] - 1, slot[fed]] = 2.0 * kappa * (np.sqrt(rows[fed]) * np.sqrt(cols[fed]))
    return LindbladTable(
        cutoff=n,
        local=packed,
        partner=np.searchsorted(packed, cols * n + rows),
        chain=chain,
        slot=slot,
        side=(rows > cols).astype(np.intp),
        generator=generator,
    )


def rk4_evolve(vec: np.ndarray, table: LindbladTable, dt: float, n_steps: int) -> np.ndarray:
    """Take n_steps fixed RK4 steps of length dt on the packed generator.

    The generator L is linear and keeps each chain, so one RK4 step is the
    chain-sized matrix P = I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24 and
    n_steps steps are its power, taken for all chains at once by binary
    powering: about log2(n_steps) batched products.  Both are kept in
    increment form, D = P - I by Horner and (I + A)(I + B) = I + (A + B + AB),
    because I + D would round the small entries of D against the ones on
    the diagonal at every product.  The state is then vec + D_n vec.

    The state is re-hermitized once per call, each entry against its
    partner.  The step matrix is real and shared by a chain and its
    transpose, so it commutes with taking the hermitian part, and one
    re-hermitization after n steps is the same map as one after every step.
    n_steps = 0 returns a copy unchanged; dt = 0 only re-hermitizes.
    """
    if n_steps <= 0:
        return vec.copy()
    hl = dt * table.generator
    eye = np.eye(hl.shape[-1])
    inc = hl
    for order in (4, 3, 2):
        inc = hl @ (eye + inc / order)
    total = None
    while True:
        if n_steps & 1:
            total = inc if total is None else total + inc + total @ inc
        n_steps >>= 1
        if not n_steps:
            break
        inc = 2.0 * inc + inc @ inc
    # each chain's two sides as complex columns, interleaved as real pairs so
    # the real step matrix acts through one real product
    cols = np.zeros(hl.shape[:2] + (2,), dtype=np.complex128)
    cols[table.chain, table.slot, table.side] = vec
    cols += (total @ cols.view(np.float64)).view(np.complex128)
    out = cols[table.chain, table.slot, table.side]
    return 0.5 * (out + out[table.partner].conj())
