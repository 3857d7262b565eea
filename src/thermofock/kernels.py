"""Hot numerical kernels, in numpy, on single-mode states stored by offset diagonal.

A single-mode state is the array diagonals[k, p] = rho[p, p + k] over its
stored offsets k >= 0 (see fock); both damping routes keep the offset of
every entry, so each acts on each stored diagonal on its own, and only
k >= 0 is computed: offset -k is the conjugate of offset k, and the maps
are real.

apply_damping applies the amplitude-damping operator sum to each diagonal
as a weighted sum of its rows lowered by n quanta, through _lowered, the
gather by which channel.apply_kraus also damps two-mode sector factors.
lindblad_table and rk4_evolve integrate the damping generator
kappa (2 a rho a+ - {a+a, rho}), which feeds each entry only from the next
one down its diagonal, (r + 1, c + 1): on one diagonal it is a real
bidiagonal matrix at most cutoff x cutoff, so rk4_evolve takes n RK4 steps
as the n-th power of each diagonal's RK4 step matrix, by binary powering
in increment form.  A chaotic state and its images step one real vector.
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    return "numpy"


def apply_damping(columns: np.ndarray, weights: np.ndarray, n_kraus: int) -> np.ndarray:
    """Apply the amplitude-damping operator sum to a single-mode state.

    columns[p, k] = rho[p, p + k] holds one stored offset k per column (the
    transpose of the state's diagonals), rows by the occupation p that the
    damping lowers.  out[p, k] = sum_n W[n, p] W[n, p + k] columns[p + n, k],
    where weights[n, j] is the matrix element of the n-th damping operator
    that maps occupation j + n down to j; rows beyond n_kraus are ignored.
    Offset k, of length L = N - k, is summed over its rows lowered by
    n < min(n_kraus, L), read through _lowered.
    An offset whose column is zero stays zero and is skipped.
    """
    n, count = columns.shape
    out = np.zeros_like(columns)
    for k in range(count):
        span = n - k
        line = columns[:span, k]
        if not line.any():
            continue
        orders = min(n_kraus, span)
        pair = weights[:orders, :span] * weights[:orders, k:n]
        out[:span, k] = np.einsum("nj,nj->j", pair, _lowered(line, orders))
    return out


def _lowered(x: np.ndarray, orders: int) -> np.ndarray:
    """rows[n, j] = x[j + n] for n < orders, and 0 where j + n runs past x."""
    padded = np.concatenate([x, np.zeros_like(x[:orders])])
    return padded[np.add.outer(np.arange(orders), np.arange(len(x)))]


def hermiticity_defect(mat: np.ndarray) -> float:
    """max |mat - mat^dagger| entrywise; a dense single-mode matrix is
    checked with it on construction."""
    return float(np.abs(mat - mat.conj().T).max())


# ---------------------------------------------------------------------------
# Lindblad generator on the stored diagonals
# ---------------------------------------------------------------------------


def lindblad_table(diagonals: np.ndarray, kappa: float) -> np.ndarray:
    """Tabulate the damping generator on the stored offsets of a single-mode state.

    table[k] is the real bidiagonal generator of offset k, acting on the
    entries rho[p, p + k], and zero past the offset's length cutoff - k.
    Entry (p, p + k) decays at kappa (2p + k), and for p >= 1 feeds the entry
    (p - 1, p - 1 + k) with weight 2 kappa sqrt(p) sqrt(p + k).  A chaotic
    state stores one offset, so its table is one cutoff x cutoff matrix.
    """
    count, n = diagonals.shape
    table = np.zeros((count, n, n))
    for k in range(count):
        p = np.arange(n - k)
        table[k, p, p] = -kappa * (2 * p + k).astype(np.float64)
        table[k, p[:-1], p[1:]] = 2.0 * kappa * (np.sqrt(p[1:]) * np.sqrt(p[1:] + k))
    return table


def rk4_evolve(
    vec: np.ndarray, table: np.ndarray, dt: float, n_steps: int, powers: dict | None = None
) -> np.ndarray:
    """Take n_steps fixed RK4 steps of length dt on the stored diagonals.

    vec is the state's diagonals array, one row per offset of the table.  The
    generator L is linear and keeps each diagonal, so one RK4 step is the
    diagonal-sized matrix P = I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24 and
    n_steps steps are its power, taken for all diagonals at once by binary
    powering: about log2(n_steps) batched products.  Both are kept in
    increment form, D = P - I by Horner and (I + A)(I + B) = I + (A + B + AB),
    because I + D would round the small entries of D against the ones on
    the diagonal at every product.  The state is then vec + D_n vec.

    powers, when given, is a dict the caller keeps for one table: D_n for
    n_steps > 1 is looked up there by (dt, n_steps) and stored once formed,
    so the equal intervals of a uniform time grid power it once.  A single
    step is only the Horner form and is not stored.  n_steps = 0 returns a
    copy unchanged.
    """
    if n_steps <= 0:
        return vec.copy()
    total = None if powers is None else powers.get((dt, n_steps))
    if total is None:
        total = _rk4_power(dt * table, n_steps)
        if powers is not None and n_steps > 1:
            powers[dt, n_steps] = total
    # a complex diagonal as interleaved real pairs, so the real step matrix
    # acts through one real product
    cols = vec.view(np.float64).reshape(*vec.shape, -1)
    return vec + (total @ cols).view(vec.dtype).reshape(vec.shape)


def _rk4_power(hl: np.ndarray, n_steps: int) -> np.ndarray:
    """D_n = P^n - I for the RK4 step matrix P of hL, by binary powering."""
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
            return total
        inc = 2.0 * inc + inc @ inc
