"""Hot numerical kernels, in numpy.

States reach these kernels as dicts of pair-number sector blocks keyed by
(d, d'), d = n_tilde - n_sys, as fock.DensityMatrix stores them; a
single-mode state is the one block (0, 0).  Every kernel damps the system
mode.

apply_damping and damp_sectors apply the amplitude-damping operator sum, to
a dense single mode per offset j - k and to two-mode blocks per sector
shift.  lindblad_table and rk4_evolve integrate the damping generator
kappa (2 a rho a+ - {a+a, rho}) on either layout with one code path: the
blocks are packed into one complex vector, and the system occupation of
basis index i is i // (dim // cutoff) in both layouts.
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


def hermiticity_defect(mat: np.ndarray, partner: np.ndarray | None = None) -> float:
    """max |mat - partner^dagger| entrywise; partner defaults to mat itself.

    Density matrices call this per sector block (at most cutoff x cutoff),
    comparing block (d, d') with block (d', d).
    """
    partner = mat if partner is None else partner
    return float(np.abs(mat - partner.conj().T).max())


# ---------------------------------------------------------------------------
# operator sum on sector blocks
# ---------------------------------------------------------------------------


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
    dst = out.get((f, f2))
    if dst is None:
        dst = out[(f, f2)] = np.zeros((cutoff - abs(f), cutoff - abs(f2)), dtype=np.complex128)
    dst[:rows, :cols] += weight * block[r0:, c0:]
    return True


def damp_sectors(blocks: dict, weights: np.ndarray) -> dict:
    """Apply the amplitude-damping operator sum to the system mode.

    out[(j, .), (k, .)] = sum_n W[n, j] W[n, k] rho[(j + n, .), (k + n, .)]
    with the tilde occupations unchanged: input block (d, d') feeds output
    blocks (d + n, d' + n), n < cutoff, with weight row W[n] on each side;
    weights is the full cutoff x cutoff table.  The thermal-vacuum projector
    has the single block (0, 0), so it costs cutoff such terms.
    """
    cutoff = weights.shape[1]
    out: dict = {}
    for key, block in blocks.items():
        for n, row in enumerate(weights):
            if not _add_lowered(out, key, block, n, row, cutoff):
                break
    return out


# ---------------------------------------------------------------------------
# Lindblad generator on packed blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LindbladTable:
    """The damping generator on one closed set of sector blocks, packed.

    Block keys[i] has shape shapes[i] and occupies vec[offsets[i]:offsets[i+1]]
    in row-major order.  rhs(vec) is decay * vec + gain * vec[feed]: entry
    feed[i] is the one whose jump lands on entry i, or i itself with gain 0;
    partner[i] is the position of the transpose of entry i.
    """

    keys: tuple
    shapes: tuple
    offsets: tuple
    decay: np.ndarray
    feed: np.ndarray
    gain: np.ndarray
    partner: np.ndarray

    def pack(self, blocks: dict) -> np.ndarray:
        """One vector holding the blocks; keys the state lacks are zero."""
        vec = np.zeros(self.offsets[-1], dtype=np.complex128)
        for key, lo, hi in zip(self.keys, self.offsets, self.offsets[1:]):
            if key in blocks:
                vec[lo:hi] = blocks[key].ravel()
        return vec

    def unpack(self, vec: np.ndarray) -> dict:
        """The blocks of a packed vector, as views into it."""
        return {
            key: vec[lo:hi].reshape(shape)
            for key, shape, lo, hi in zip(self.keys, self.shapes, self.offsets, self.offsets[1:])
        }

    def rhs(self, vec: np.ndarray) -> np.ndarray:
        """kappa (2 a rho a+ - a+a rho - rho a+a) on the system mode."""
        return self.decay * vec + self.gain * vec[self.feed]


def lindblad_table(sectors: dict, blocks: dict, kappa: float) -> LindbladTable:
    """Pack the blocks a damped state can reach and tabulate the generator.

    sectors maps every pair-number difference d of the layout to the dense
    basis indices of sector d (fock.sector_indices); blocks holds the keys
    of the state.  The jump term lowers n_sys on both sides, so it maps
    block (d, d') into the block of the lowered sectors; the packed keys are
    the state's keys closed under that map and under transposition.  Entry
    (r, c) decays at kappa (n_r + n_c), and for n_r, n_c >= 1 feeds the entry
    (r, c) lowered by one quantum on each side with weight
    2 kappa sqrt(n_r) sqrt(n_c).
    """
    top = max(sectors)  # the sectors are d = -top..top
    dim = sum(idx.size for idx in sectors.values())
    ride = dim // sectors[0].size  # basis states per system occupation
    label = np.empty(dim, dtype=np.intp)  # d + top of each basis state
    pos = np.empty(dim, dtype=np.intp)  # its index within sector d
    for d, idx in sectors.items():
        label[idx] = d + top
        pos[idx] = np.arange(idx.size)

    def lowered(d: int) -> int | None:
        """The sector that lowering n_sys maps sector d to; None if n_sys = 0 throughout."""
        idx = sectors[d][sectors[d] >= ride]
        return int(label[idx[0] - ride]) - top if idx.size else None

    keys = set(blocks) | {(d2, d) for d, d2 in blocks}
    todo = list(keys)
    while todo:
        d, d2 = todo.pop()
        nxt = (lowered(d), lowered(d2))
        if None not in nxt and nxt not in keys:
            keys.add(nxt)
            todo.append(nxt)
    keys = sorted(keys)

    shapes = tuple((sectors[d].size, sectors[d2].size) for d, d2 in keys)
    offsets = tuple(np.cumsum([0] + [a * b for a, b in shapes]).tolist())
    width = np.array([sectors[d].size for d in range(-top, top + 1)])
    start = np.full((2 * top + 1, 2 * top + 1), -1, dtype=np.intp)
    for (d, d2), lo in zip(keys, offsets):
        start[d + top, d2 + top] = lo

    def at(r: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Packed positions of the basis index pairs (r, c)."""
        return start[label[r], label[c]] + pos[r] * width[label[c]] + pos[c]

    rows = np.concatenate([np.repeat(sectors[d], sectors[d2].size) for d, d2 in keys])
    cols = np.concatenate([np.tile(sectors[d2], sectors[d].size) for d, d2 in keys])
    n_row, n_col = rows // ride, cols // ride
    src = np.flatnonzero((n_row > 0) & (n_col > 0))
    dst = at(rows[src] - ride, cols[src] - ride)
    feed = np.arange(rows.size)
    feed[dst] = src
    gain = np.zeros(rows.size)
    gain[dst] = 2.0 * kappa * (np.sqrt(n_row[src]) * np.sqrt(n_col[src]))
    return LindbladTable(
        keys=tuple(keys),
        shapes=shapes,
        offsets=offsets,
        decay=-kappa * (n_row + n_col).astype(np.float64),
        feed=feed,
        gain=gain,
        partner=at(cols, rows),
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
