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
cutoff - |d| states.  A single-mode layout is one sector, d = 0.  A state
is block diagonal in d: `blocks[d]` holds the entries whose row and column
both lie in sector d, and blocks that are exactly zero are not stored.  The
squeeze generator a+ b+ keeps d, and each damping operator lowers n_sys by
the same n on the row and on the column, shifting d by n on both sides, so
every state built here is block diagonal; an input with entries between
sectors is refused.  The blocks hold at most 2 cutoff^3 / 3 entries, 22 MB
at cutoff 128, where the dense matrix would hold cutoff^4 (4.3 GB).
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


def _coupled(d: int, d2: int) -> StateError:
    return StateError(f"entries couple pair-number sectors {d} and {d2}; a state must be block diagonal in d")


def sector_trace(blocks: dict) -> complex:
    """Trace of a matrix given by its sector blocks."""
    return sum((np.trace(block) for block in blocks.values()), np.complex128(0))


def _split_sectors(layout: ModeLayout, mat: np.ndarray) -> dict:
    """The nonzero sector blocks of a dense matrix; an entry between sectors raises StateError."""
    if layout.modes == 1:
        return {0: mat} if mat.any() else {}
    n_sys, n_tilde = np.divmod(np.arange(layout.dim), layout.cutoff)
    label = n_tilde - n_sys
    rows, cols = np.nonzero(mat)
    across = np.flatnonzero(label[rows] != label[cols])
    if across.size:
        raise _coupled(int(label[rows[across[0]]]), int(label[cols[across[0]]]))
    index = {d: sector_indices(layout, d) for d in sorted(set(label[rows].tolist()))}
    return {d: mat[np.ix_(idx, idx)] for d, idx in index.items()}


class DensityMatrix:
    """Hermitian, unit-trace (within trace_tol) state, stored as sector blocks.

    `DensityMatrix(layout, mat)` splits a dense matrix into its nonzero
    sector blocks; `from_blocks` takes the blocks themselves, keyed by the
    sector d.  Both refuse entries between sectors and check finiteness,
    hermiticity and the trace.  `blocks` must not be modified afterwards.

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
        for d, block in blocks.items():
            if isinstance(d, tuple):  # a (row sector, column sector) key
                raise _coupled(*d)
            block = np.ascontiguousarray(block, dtype=np.complex128)
            if d not in sectors:
                raise LayoutError(f"sector {d} outside the layout {layout}")
            if block.shape != (layout.cutoff - abs(d),) * 2:
                raise LayoutError(f"block {d} has shape {block.shape}")
            if not np.all(np.isfinite(block.view(np.float64))):
                raise StateError("matrix contains non-finite entries")
            if block.any():
                self.blocks[d] = block
        defect = max(map(kernels.hermiticity_defect, self.blocks.values()), default=0.0)
        if defect > HERMITICITY_TOL:
            raise StateError(f"not hermitian: max |rho - rho^dagger| = {defect:.3e}")
        tr = sector_trace(self.blocks)
        err = abs(tr - 1.0)
        if err > self.trace_tol:
            raise StateError(f"trace {tr:.12g} deviates from 1 by {err:.3e} (tol {self.trace_tol:.3e})")

    @property
    def mat(self) -> np.ndarray:
        """The dense matrix; a single-mode state returns its one block."""
        if self.layout.modes == 1 and 0 in self.blocks:
            return self.blocks[0]
        out = np.zeros((self.layout.dim, self.layout.dim), dtype=np.complex128)
        for d, block in self.blocks.items():
            idx = sector_indices(self.layout, d)
            out[np.ix_(idx, idx)] = block
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
    """Projector |psi><psi| as a density matrix, block v v^+ for the part v
    of psi in its one sector; a psi with parts in two sectors raises
    StateError, since its projector couples them."""
    tol = DEFAULT_TRACE_TOL if trace_tol is None else trace_tol
    parts = {}
    for d in _sector_range(psi.layout):
        part = psi.vec[sector_indices(psi.layout, d)]
        if part.any():
            parts[d] = part
    if len(parts) > 1:
        raise _coupled(*list(parts)[:2])
    blocks = {d: np.outer(v, v.conj()) for d, v in parts.items()}
    return DensityMatrix.from_blocks(psi.layout, blocks, trace_tol=max(tol, 2 * psi.norm_tol))


def partial_trace(rho: DensityMatrix, over: str) -> DensityMatrix:
    """Trace out one mode of a two-mode density matrix.

    over=TILDE keeps the system mode; over=SYSTEM keeps the tilde mode.  A
    block-diagonal state has a diagonal reduction: index p of sector d adds
    its population to the kept occupation p + max(-d, 0) of the system mode,
    or p + max(d, 0) of the tilde mode.
    """
    _check_mode(over)
    if rho.layout.modes != 2:
        raise LayoutError("partial_trace needs a two-mode state")
    pops = np.zeros(rho.layout.cutoff)
    # the traced occupation is the kept one plus d (tilde) or minus d (system),
    # so each population sums in increasing traced occupation
    for d in sorted(rho.blocks, reverse=over == SYSTEM):
        diag = np.diagonal(rho.blocks[d]).real
        start = max(-d if over == TILDE else d, 0)
        pops[start:start + diag.size] += diag
    return DensityMatrix(rho.layout.single(), np.diag(pops), trace_tol=rho.trace_tol)


def _spectrum(layout: ModeLayout, blocks: dict) -> Iterator[np.ndarray]:
    """Eigenvalues of a hermitian matrix given by its sector blocks: one
    eigvalsh per block, zeros for a sector with nothing stored."""
    for d in _sector_range(layout):
        block = blocks.get(d)
        if block is None:
            yield np.zeros(layout.cutoff - abs(d))
        else:
            # the states built here are real; the real symmetric solver has
            # the same eigenvalues and is about three times faster
            yield np.linalg.eigvalsh(block if block.imag.any() else block.real)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(1/2) sum of singular values of rho - sigma (hermitian, so |eigenvalues|).

    rho - sigma is formed block by block and eigensolved sector by sector
    (see _spectrum): one eigvalsh of at most `cutoff` states per sector.
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
