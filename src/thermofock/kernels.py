"""Hot numerical kernels, in numpy.

States reach these kernels as dicts of pair-number sector blocks keyed by
(d, d'), d = n_tilde - n_sys, as fock.DensityMatrix stores them; a
single-mode state is the one block (0, 0).  Every kernel damps the system
mode.

apply_damping and damp_sectors apply the amplitude-damping operator sum, to
a dense single mode per offset j - k and to two-mode blocks per sector
shift.  lindblad_table and rk4_evolve integrate the damping generator
kappa (2 a rho a+ - {a+a, rho}) on either layout with one code path: the
system occupation of basis index i is i // (dim // cutoff) in both layouts.
Only the entries the generator can make nonzero are packed into the complex
vector: the state's nonzero entries, their transposes, and the entries the
jump term feeds from them.  A chaotic state of cutoff N packs N entries,
not N^2; every other entry stays exactly 0.
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
    """The damping generator on the entries a damped state can reach, packed.

    The entries of block keys[i] (shape shapes[i]) occupy
    vec[offsets[i]:offsets[i+1]]; entry k sits at flat position local[k] of
    its block, in row-major order.  rhs(vec) is decay * vec + gain * vec[feed]:
    entry feed[k] is the one whose jump lands on entry k, or k itself with
    gain 0; partner[k] is the position of the transpose of entry k.
    """

    keys: tuple
    shapes: tuple
    offsets: tuple
    local: np.ndarray
    decay: np.ndarray
    feed: np.ndarray
    gain: np.ndarray
    partner: np.ndarray

    def pack(self, blocks: dict) -> np.ndarray:
        """One vector holding the table's entries of the blocks; keys the state lacks are zero."""
        vec = np.zeros(self.offsets[-1], dtype=np.complex128)
        for key, lo, hi in zip(self.keys, self.offsets, self.offsets[1:]):
            if key in blocks:
                vec[lo:hi] = blocks[key].ravel()[self.local[lo:hi]]
        return vec

    def unpack(self, vec: np.ndarray) -> dict:
        """The blocks of a packed vector, zero outside the table's entries."""
        out = {}
        for key, shape, lo, hi in zip(self.keys, self.shapes, self.offsets, self.offsets[1:]):
            block = out[key] = np.zeros(shape, dtype=np.complex128)
            np.put(block, self.local[lo:hi], vec[lo:hi])
        return out

    def rhs(self, vec: np.ndarray) -> np.ndarray:
        """kappa (2 a rho a+ - a+a rho - rho a+a) on the system mode."""
        return self.decay * vec + self.gain * vec[self.feed]


def lindblad_table(sectors: dict, blocks: dict, kappa: float) -> LindbladTable:
    """Pack the entries a damped state can reach and tabulate the generator.

    sectors maps every pair-number difference d of the layout to the dense
    basis indices of sector d (fock.sector_indices); blocks holds the state.
    Entry (r, c) decays at kappa (n_r + n_c), and for n_r, n_c >= 1 feeds the
    entry (r, c) lowered by one quantum on each side with weight
    2 kappa sqrt(n_r) sqrt(n_c).  An entry therefore stays exactly zero
    unless it or an entry above it on its chain is nonzero: the packed
    entries are the state's nonzero entries, closed under that feed and
    under transposition.  A chaotic state of cutoff N packs its N
    populations.
    """
    top = max(sectors)  # the sectors are d = -top..top
    dim = sum(idx.size for idx in sectors.values())
    ride = dim // sectors[0].size  # basis states per system occupation
    label = np.empty(dim, dtype=np.intp)  # d + top of each basis state
    pos = np.empty(dim, dtype=np.intp)  # its index within sector d
    for d, idx in sectors.items():
        label[idx] = d + top
        pos[idx] = np.arange(idx.size)
    width = np.array([sectors[d].size for d in range(-top, top + 1)])

    # entries as basis index pairs r * dim + c: the nonzero ones and their transposes
    found = [np.empty(0, dtype=np.intp)]
    for (d, d2), block in blocks.items():
        p, q = np.nonzero(block)
        r, c = sectors[d][p], sectors[d2][q]
        found += [r * dim + c, c * dim + r]
    seeds = np.concatenate(found)
    # Feeding moves an entry down its line by `lower`, to the line's base where
    # n_r or n_c is 0; the closure is every line entry up to the highest seed.
    lower = ride * dim + ride  # one quantum off n_sys on both sides
    levels = dim // ride  # heights on a line are 0..levels-1
    height = np.minimum(seeds // dim, seeds % dim) // ride
    base, height = np.divmod(np.sort((seeds - height * lower) * levels + height), levels)
    top_of_line = np.diff(base, append=-1) != 0
    counts = height[top_of_line] + 1
    step = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    reach = np.repeat(base[top_of_line], counts) + step * lower

    # Packed order is by sorted key (block, r, c): block by block, and row-major
    # within a block, since basis indices increase along every sector.
    n_labels = width.size
    square = dim * dim

    def key(pair: np.ndarray) -> np.ndarray:
        r, c = np.divmod(pair, dim)
        return (label[r] * n_labels + label[c]) * square + pair

    packed = np.sort(key(reach))
    block_id, pair = np.divmod(packed, square)
    rows, cols = np.divmod(pair, dim)
    starts = np.flatnonzero(np.diff(block_id, prepend=-1))
    keys = tuple((int(i) // n_labels - top, int(i) % n_labels - top) for i in block_id[starts])
    shapes = tuple((sectors[d].size, sectors[d2].size) for d, d2 in keys)
    offsets = tuple(starts.tolist()) + (rows.size,)

    def at(targets: np.ndarray) -> np.ndarray:
        """Packed positions of the basis index pairs r * dim + c."""
        return np.searchsorted(packed, key(targets))

    n_row, n_col = rows // ride, cols // ride
    src = np.flatnonzero((n_row > 0) & (n_col > 0))
    dst = at(pair[src] - lower)
    feed = np.arange(rows.size)
    feed[dst] = src
    gain = np.zeros(rows.size)
    gain[dst] = 2.0 * kappa * (np.sqrt(n_row[src]) * np.sqrt(n_col[src]))
    return LindbladTable(
        keys=keys,
        shapes=shapes,
        offsets=offsets,
        local=pos[rows] * width[label[cols]] + pos[cols],
        decay=-kappa * (n_row + n_col).astype(np.float64),
        feed=feed,
        gain=gain,
        partner=at(cols * dim + rows),
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
