"""Truncated Fock spaces: ladder operators as arrays, states stored by sector.

A single bosonic mode is truncated to occupations 0..cutoff-1.  Two-mode
objects live on the tensor product of a "system" mode and a "tilde" partner
of the same cutoff, ordered system-major: basis index = n_sys * cutoff +
n_tilde.  Operators are plain complex128 arrays of shape (dim, dim), and
pure states dense complex128 vectors; the two-mode operators the package
needs (the squeeze unitary, E = exp(lambda a+ b+)) are built sector by
sector in `states` instead.

Density matrices are stored as pair-number sectors.  Sector d of a two-mode
layout holds the basis states with n_tilde - n_sys = d; its index p is the
state (n_sys, n_tilde) = (p + max(-d, 0), p + max(d, 0)), so it has
cutoff - |d| states.  A single-mode layout is one sector, d = 0.  Block
(d, d') holds the entries whose row lies in sector d and whose column lies
in sector d'; blocks that are exactly zero are not stored.  The squeeze
generator a+ b+ and every damping operator conserve d, so the states built
here fill only blocks with d = d': at most 2 cutoff^3 / 3 entries, 22 MB at
cutoff 128, where the dense matrix would hold cutoff^4 (4.3 GB).
Validation, partial trace, purity and trace distance work block by block;
the dense matrix (DensityMatrix.mat) is assembled only on request, as a
test oracle.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import kernels

SYSTEM = "system"
TILDE = "tilde"

CUTOFF_MIN = 8
CUTOFF_MAX = 128
TAIL_TARGET = 1e-14

HERMITICITY_TOL = 1e-12
DEFAULT_TRACE_TOL = 1e-9
PSD_FLOOR = -1e-10


class LayoutError(ValueError):
    """Operands live on incompatible mode layouts."""


class StateError(ValueError):
    """An array does not satisfy the invariants of the state it claims to be."""


@dataclass(frozen=True)
class ModeLayout:
    """Shape of the truncated space: cutoff per mode and number of modes."""

    cutoff: int
    modes: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.cutoff, int) or self.cutoff < 2:
            raise LayoutError(f"cutoff must be an int >= 2, got {self.cutoff!r}")
        if self.modes not in (1, 2):
            raise LayoutError(f"modes must be 1 or 2, got {self.modes!r}")

    @property
    def dim(self) -> int:
        return self.cutoff**self.modes

    def doubled(self) -> "ModeLayout":
        return ModeLayout(self.cutoff, 2)

    def single(self) -> "ModeLayout":
        return ModeLayout(self.cutoff, 1)


def _check_mode(mode: str) -> None:
    if mode not in (SYSTEM, TILDE):
        raise LayoutError(f"mode must be {SYSTEM!r} or {TILDE!r}, got {mode!r}")


def _sector_range(layout: ModeLayout) -> range:
    """Pair-number differences d = n_tilde - n_sys of the layout's sectors."""
    top = layout.cutoff - 1 if layout.modes == 2 else 0
    return range(-top, top + 1)


def sector_indices(layout: ModeLayout, d: int) -> np.ndarray:
    """Dense basis indices of sector d, in sector order."""
    n = layout.cutoff
    p = np.arange(n - abs(d))
    if layout.modes == 1:
        return p
    return (p + max(-d, 0)) * n + (p + max(d, 0))


def swap_modes(blocks: dict) -> dict:
    """Sector blocks of the same state with system and tilde exchanged.

    Exchanging the modes maps sector d to sector -d and keeps the index p,
    so every block keeps its entries and only its key changes.
    """
    return {(-d, -d2): block for (d, d2), block in blocks.items()}


def sector_trace(blocks: dict) -> complex:
    """Trace of a matrix given by its sector blocks: the d = d' blocks."""
    return sum((np.trace(block) for (d, d2), block in blocks.items() if d == d2), np.complex128(0))


def _split_sectors(layout: ModeLayout, mat: np.ndarray) -> dict:
    """The nonzero sector blocks of a dense matrix."""
    if layout.modes == 1:
        return {(0, 0): mat} if mat.any() else {}
    index = {d: sector_indices(layout, d) for d in _sector_range(layout)}
    label = np.empty(layout.dim, dtype=np.intp)
    for d, idx in index.items():
        label[idx] = d
    rows, cols = np.nonzero(mat)
    pairs = sorted(set(zip(label[rows].tolist(), label[cols].tolist())))
    return {(d, d2): mat[np.ix_(index[d], index[d2])] for d, d2 in pairs}


def _hermiticity_defect(blocks: dict) -> float:
    """max |rho - rho^dagger| entrywise, block (d, d') against block (d', d)."""
    worst = 0.0
    for (d, d2), block in blocks.items():
        partner = blocks.get((d2, d))
        if d == d2:
            defect = kernels.hermiticity_defect(block)
        elif partner is None:
            defect = float(np.abs(block).max())
        elif d < d2:
            defect = kernels.hermiticity_defect(block, partner)
        else:
            continue
        worst = max(worst, defect)
    return worst


class DensityMatrix:
    """Hermitian, unit-trace (within trace_tol) state, stored as sector blocks.

    `DensityMatrix(layout, mat)` splits a dense matrix into its nonzero
    blocks, so any input is stored exactly; `from_blocks` takes the blocks
    themselves, keyed by (d, d').  Both check finiteness, hermiticity and the
    trace.  `blocks` must not be modified afterwards.

    trace_tol is carried with the instance because deliberately truncated
    states (thermal tails cut at the top of the space) have a known trace
    deficit that downstream operations must tolerate rather than reject.
    """

    def __init__(self, layout: ModeLayout, mat, trace_tol: float = DEFAULT_TRACE_TOL) -> None:
        mat = np.ascontiguousarray(mat, dtype=np.complex128)
        if mat.shape != (layout.dim, layout.dim):
            raise LayoutError(f"matrix shape {mat.shape} does not match layout dim {layout.dim}")
        self._store(layout, _split_sectors(layout, mat), trace_tol)

    @classmethod
    def from_blocks(
        cls, layout: ModeLayout, blocks: dict, trace_tol: float = DEFAULT_TRACE_TOL
    ) -> "DensityMatrix":
        rho = cls.__new__(cls)
        rho._store(layout, blocks, trace_tol)
        return rho

    def _store(self, layout: ModeLayout, blocks: dict, trace_tol: float) -> None:
        sectors = _sector_range(layout)
        self.layout = layout
        self.trace_tol = trace_tol
        self.blocks = {}
        for (d, d2), block in blocks.items():
            block = np.ascontiguousarray(block, dtype=np.complex128)
            if d not in sectors or d2 not in sectors:
                raise LayoutError(f"sector pair {(d, d2)} outside the layout {layout}")
            if block.shape != (layout.cutoff - abs(d), layout.cutoff - abs(d2)):
                raise LayoutError(f"block {(d, d2)} has shape {block.shape}")
            if not np.all(np.isfinite(block.view(np.float64))):
                raise StateError("matrix contains non-finite entries")
            if block.any():
                self.blocks[(d, d2)] = block
        defect = _hermiticity_defect(self.blocks)
        if defect > HERMITICITY_TOL:
            raise StateError(f"not hermitian: max |rho - rho^dagger| = {defect:.3e}")
        tr = sector_trace(self.blocks)
        err = abs(tr - 1.0)
        if err > self.trace_tol:
            raise StateError(f"trace {tr:.12g} deviates from 1 by {err:.3e} (tol {self.trace_tol:.3e})")

    @property
    def mat(self) -> np.ndarray:
        """The dense matrix; a single-mode state returns its one block."""
        if self.layout.modes == 1 and (0, 0) in self.blocks:
            return self.blocks[(0, 0)]
        out = np.zeros((self.layout.dim, self.layout.dim), dtype=np.complex128)
        for (d, d2), block in self.blocks.items():
            out[np.ix_(sector_indices(self.layout, d), sector_indices(self.layout, d2))] = block
        return out

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue, sector by sector; called on demand rather
        than in the constructor."""
        return min(float(part.min()) for part in _spectrum(self.layout, self.blocks))

    def check_positive(self, floor: float = PSD_FLOOR) -> float:
        lo = self.min_eigenvalue()
        if lo < floor:
            raise StateError(f"not positive semidefinite: min eigenvalue {lo:.3e}")
        return lo


@dataclass(eq=False)
class PureState:
    """A normalized state vector tied to a ModeLayout."""

    layout: ModeLayout
    vec: np.ndarray
    norm_tol: float = field(default=DEFAULT_TRACE_TOL, compare=False)

    def __post_init__(self) -> None:
        vec = np.ascontiguousarray(self.vec, dtype=np.complex128)
        if vec.shape != (self.layout.dim,):
            raise LayoutError(f"vector shape {vec.shape} does not match layout dim {self.layout.dim}")
        if not np.all(np.isfinite(vec.view(np.float64))):
            raise StateError("vector contains non-finite entries")
        err = abs(np.vdot(vec, vec).real - 1.0)
        if err > self.norm_tol:
            raise StateError(f"squared norm deviates from 1 by {err:.3e} (tol {self.norm_tol:.3e})")
        self.vec = vec


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _embed(core: np.ndarray, layout: ModeLayout, mode: str) -> np.ndarray:
    if layout.modes == 1:
        return core
    eye = np.eye(layout.cutoff, dtype=np.complex128)
    if mode == SYSTEM:
        return np.kron(core, eye)
    return np.kron(eye, core)


def annihilation(layout: ModeLayout, mode: str = SYSTEM) -> np.ndarray:
    """Lowering operator a on the requested mode: a|n> = sqrt(n)|n-1>."""
    _check_mode(mode)
    n = layout.cutoff
    core = np.zeros((n, n), dtype=np.complex128)
    core[np.arange(n - 1), np.arange(1, n)] = np.sqrt(np.arange(1, n))
    return _embed(core, layout, mode)


def creation(layout: ModeLayout, mode: str = SYSTEM) -> np.ndarray:
    """Raising operator a+ on the requested mode."""
    _check_mode(mode)
    n = layout.cutoff
    core = np.zeros((n, n), dtype=np.complex128)
    core[np.arange(1, n), np.arange(n - 1)] = np.sqrt(np.arange(1, n))
    return _embed(core, layout, mode)


def number(layout: ModeLayout, mode: str = SYSTEM) -> np.ndarray:
    """Occupation-number operator a+a on the requested mode."""
    _check_mode(mode)
    core = np.diag(np.arange(layout.cutoff, dtype=np.complex128))
    return _embed(core, layout, mode)


def fock_state(layout: ModeLayout, occupation: int | tuple[int, int]) -> PureState:
    """Basis vector |n> (single mode) or |n, m~> (two modes)."""
    if layout.modes == 1:
        if isinstance(occupation, tuple):
            raise LayoutError("single-mode layout takes a single occupation")
        occs = (occupation,)
    else:
        if not isinstance(occupation, tuple) or len(occupation) != 2:
            raise LayoutError("two-mode layout takes an (n_system, n_tilde) pair")
        occs = occupation
    for occ in occs:
        if not 0 <= occ < layout.cutoff:
            raise LayoutError(f"occupation {occ} outside 0..{layout.cutoff - 1}")
    idx = occs[0] if layout.modes == 1 else occs[0] * layout.cutoff + occs[1]
    vec = np.zeros(layout.dim, dtype=np.complex128)
    vec[idx] = 1.0
    return PureState(layout, vec)


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------


def trace(rho: DensityMatrix) -> complex:
    return complex(sector_trace(rho.blocks))


def expectation(rho: DensityMatrix, obs: np.ndarray) -> complex:
    """Tr(rho A) against a dense (dim, dim) observable.

    A two-mode density matrix is refused: its dense form would hold
    cutoff^4 entries (4.3 GB at cutoff 128).
    """
    dim = rho.layout.dim
    if obs.shape != (dim, dim):
        raise LayoutError(f"observable shape {obs.shape} does not match layout dim {dim}")
    if rho.layout.modes == 2:
        raise LayoutError("expectation takes a single-mode density matrix")
    return complex(np.einsum("ij,ji->", rho.mat, obs))


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), the squared Frobenius norm of the hermitian rho summed over
    its blocks; 1 for pure states, 1/rank-ish for mixed ones."""
    return float(sum(np.vdot(block, block).real for block in rho.blocks.values()))


def outer(psi: PureState, trace_tol: float | None = None) -> DensityMatrix:
    """Projector |psi><psi| as a density matrix: block (d, d') is v_d v_d'^+
    for the parts v_d of psi in each sector."""
    tol = DEFAULT_TRACE_TOL if trace_tol is None else trace_tol
    parts = {}
    for d in _sector_range(psi.layout):
        part = psi.vec[sector_indices(psi.layout, d)]
        if part.any():
            parts[d] = part
    blocks = {(d, d2): np.outer(v, v2.conj()) for d, v in parts.items() for d2, v2 in parts.items()}
    return DensityMatrix.from_blocks(psi.layout, blocks, trace_tol=max(tol, 2 * psi.norm_tol))


def partial_trace(rho: DensityMatrix, over: str) -> DensityMatrix:
    """Trace out one mode of a two-mode density matrix.

    over=TILDE keeps the system mode; over=SYSTEM keeps the tilde mode.
    """
    _check_mode(over)
    if rho.layout.modes != 2:
        raise LayoutError("partial_trace needs a two-mode state")
    n = rho.layout.cutoff
    blocks = rho.blocks if over == TILDE else swap_modes(rho.blocks)
    red = np.zeros((n, n), dtype=np.complex128)
    # in increasing d, so each entry sums in increasing traced occupation
    for (d, d2), block in sorted(blocks.items()):
        # the traced occupations agree on diagonal max(d, 0) - max(d2, 0) of
        # the block, where the kept occupations differ by d - d2
        k = max(d, 0) - max(d2, 0)
        diag = np.diagonal(block, k)
        start = max(-k, 0) + max(-d, 0)
        rows = np.arange(start, start + diag.size)
        red[rows, rows + d - d2] += diag
    red = 0.5 * (red + red.conj().T)
    return DensityMatrix(rho.layout.single(), red, trace_tol=rho.trace_tol)


def _spectrum(layout: ModeLayout, blocks: dict) -> Iterator[np.ndarray]:
    """Eigenvalues of a hermitian matrix given by its sector blocks.

    Without blocks between sectors, as for every state built here, each
    sector is eigensolved on its own: one eigvalsh per block, zeros for a
    sector with nothing stored.  Stored blocks with d != d' couple sectors;
    then all sectors are eigensolved together as one dense matrix.
    """
    sectors = list(_sector_range(layout))
    if all(d == d2 for d, d2 in blocks):
        groups = [[d] for d in sectors]
    else:
        groups = [sectors]
    for group in groups:
        sizes = [layout.cutoff - abs(d) for d in group]
        starts = dict(zip(group, np.cumsum([0] + sizes[:-1]).tolist()))
        present = [(d, d2) for d in group for d2 in group if (d, d2) in blocks]
        if not present:
            yield np.zeros(sum(sizes))
            continue
        mat = np.zeros((sum(sizes), sum(sizes)), dtype=np.complex128)
        for d, d2 in present:
            block = blocks[(d, d2)]
            mat[starts[d]:starts[d] + block.shape[0], starts[d2]:starts[d2] + block.shape[1]] = block
        # the states built here are real; the real symmetric solver has the
        # same eigenvalues and is about three times faster
        yield np.linalg.eigvalsh(mat if mat.imag.any() else mat.real)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(1/2) sum of singular values of rho - sigma (hermitian, so |eigenvalues|).

    rho - sigma is formed block by block and eigensolved sector by sector
    (see _spectrum), so a difference of states built here costs one
    eigvalsh of at most `cutoff` states per sector.  A difference with
    blocks between sectors is exact too; it is solved as one dense matrix.
    """
    if rho.layout != sigma.layout:
        raise LayoutError(f"layout mismatch: {rho.layout} vs {sigma.layout}")
    diff = {}
    for key in sorted(rho.blocks.keys() | sigma.blocks.keys()):
        block = rho.blocks.get(key, 0) - sigma.blocks.get(key, 0)
        if block.any():
            diff[key] = block
    return float(0.5 * sum(np.abs(part).sum() for part in _spectrum(rho.layout, diff)))


def default_cutoff(theta: float, tail: float = TAIL_TARGET) -> int:
    """Smallest cutoff whose thermal-tail weight tanh(theta)^(2N) drops
    below `tail`, clamped to [CUTOFF_MIN, CUTOFF_MAX]."""
    if theta < 0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    t2 = np.tanh(theta) ** 2
    if t2 == 0.0:
        return CUTOFF_MIN
    if t2 == 1.0:
        raise ArithmeticError(
            f"tanh(theta)^2 rounds to 1 at theta = {theta:.6g}: no cutoff holds the thermal tail"
        )
    need = int(np.ceil(np.log(tail) / np.log(t2)))
    return max(CUTOFF_MIN, min(CUTOFF_MAX, need))
