"""Dense operator algebra on truncated Fock spaces.

A single bosonic mode is truncated to occupations 0..cutoff-1.  Two-mode
objects live on the tensor product of a "system" mode and a "tilde" partner
of the same cutoff, ordered system-major: basis index = n_sys * cutoff +
n_tilde.  Everything is stored dense complex128; cutoffs of interest are
<= 128 (two-mode dimension <= 16384).  The two-mode states built here
conserve the pair-number difference n_tilde - n_sys, so they are
block-diagonal up to a permutation; trace_distance and matrix_exponential
use that exact zero structure and work on each connected block on its own.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm as _scipy_expm

from . import kernels

SYSTEM = "system"
TILDE = "tilde"

CUTOFF_MIN = 8
CUTOFF_MAX = 128
# two-mode states are stored dense: at cutoff 48 one doubled matrix is
# 2304^2 complex128 values, 85 MB
TWO_MODE_CUTOFF_CAP = 48
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


@dataclass(eq=False)
class Operator:
    """A dense linear operator tied to a ModeLayout."""

    layout: ModeLayout
    mat: np.ndarray

    def __post_init__(self) -> None:
        mat = np.ascontiguousarray(self.mat, dtype=np.complex128)
        if mat.shape != (self.layout.dim, self.layout.dim):
            raise LayoutError(
                f"matrix shape {mat.shape} does not match layout dim {self.layout.dim}"
            )
        if not np.all(np.isfinite(mat.view(np.float64))):
            raise StateError("matrix contains non-finite entries")
        self.mat = mat


@dataclass(eq=False)
class DensityMatrix(Operator):
    """Hermitian, unit-trace (within trace_tol) operator.

    trace_tol is carried with the instance because deliberately truncated
    states (thermal tails cut at the top of the space) have a known trace
    deficit that downstream operations must tolerate rather than reject.
    """

    trace_tol: float = field(default=DEFAULT_TRACE_TOL, compare=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        defect = kernels.hermiticity_defect(self.mat)
        if defect > HERMITICITY_TOL:
            raise StateError(f"not hermitian: max |rho - rho^dagger| = {defect:.3e}")
        tr = self.mat.trace()
        err = abs(tr - 1.0)
        if err > self.trace_tol:
            raise StateError(f"trace {tr:.12g} deviates from 1 by {err:.3e} (tol {self.trace_tol:.3e})")

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue; O(dim^3), so called on demand rather than
        in the constructor."""
        return float(np.linalg.eigvalsh(self.mat)[0])

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


def annihilation(layout: ModeLayout, mode: str = SYSTEM) -> Operator:
    """Lowering operator a on the requested mode: a|n> = sqrt(n)|n-1>."""
    _check_mode(mode)
    n = layout.cutoff
    core = np.zeros((n, n), dtype=np.complex128)
    core[np.arange(n - 1), np.arange(1, n)] = np.sqrt(np.arange(1, n))
    return Operator(layout, _embed(core, layout, mode))


def creation(layout: ModeLayout, mode: str = SYSTEM) -> Operator:
    """Raising operator a+ on the requested mode."""
    _check_mode(mode)
    n = layout.cutoff
    core = np.zeros((n, n), dtype=np.complex128)
    core[np.arange(1, n), np.arange(n - 1)] = np.sqrt(np.arange(1, n))
    return Operator(layout, _embed(core, layout, mode))


def number(layout: ModeLayout, mode: str = SYSTEM) -> Operator:
    """Occupation-number operator a+a on the requested mode."""
    _check_mode(mode)
    core = np.diag(np.arange(layout.cutoff, dtype=np.complex128))
    return Operator(layout, _embed(core, layout, mode))


def identity(layout: ModeLayout) -> Operator:
    return Operator(layout, np.eye(layout.dim, dtype=np.complex128))


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


def _same_layout(a: Operator, b: Operator) -> ModeLayout:
    if a.layout != b.layout:
        raise LayoutError(f"layout mismatch: {a.layout} vs {b.layout}")
    return a.layout


def dagger(a: Operator) -> Operator:
    return Operator(a.layout, a.mat.conj().T)


def multiply(a: Operator, b: Operator) -> Operator:
    return Operator(_same_layout(a, b), a.mat @ b.mat)


def add(a: Operator, b: Operator) -> Operator:
    return Operator(_same_layout(a, b), a.mat + b.mat)


def scale(c: complex, a: Operator) -> Operator:
    return Operator(a.layout, c * a.mat)


def trace(a: Operator) -> complex:
    return complex(a.mat.trace())


def expectation(rho: Operator, obs: Operator) -> complex:
    """Tr(rho A)."""
    _same_layout(rho, obs)
    return complex(np.einsum("ij,ji->", rho.mat, obs.mat))


def purity(rho: Operator) -> float:
    """Tr(rho^2); 1 for pure states, 1/rank-ish for mixed ones."""
    return float(np.einsum("ij,ji->", rho.mat, rho.mat).real)


def outer(psi: PureState, trace_tol: float | None = None) -> DensityMatrix:
    """Projector |psi><psi| as a density matrix."""
    tol = DEFAULT_TRACE_TOL if trace_tol is None else trace_tol
    return DensityMatrix(psi.layout, np.outer(psi.vec, psi.vec.conj()), trace_tol=max(tol, 2 * psi.norm_tol))


def tensor(a: Operator, b: Operator) -> Operator:
    """system (x) tilde product of two single-mode operators."""
    if a.layout.modes != 1 or b.layout.modes != 1:
        raise LayoutError("tensor takes two single-mode operators")
    if a.layout.cutoff != b.layout.cutoff:
        raise LayoutError("tensor factors must share a cutoff")
    return Operator(a.layout.doubled(), np.kron(a.mat, b.mat))


def partial_trace(rho: DensityMatrix, over: str) -> DensityMatrix:
    """Trace out one mode of a two-mode density matrix.

    over=TILDE keeps the system mode; over=SYSTEM keeps the tilde mode.
    """
    _check_mode(over)
    if rho.layout.modes != 2:
        raise LayoutError("partial_trace needs a two-mode state")
    n = rho.layout.cutoff
    four = rho.mat.reshape(n, n, n, n)
    if over == TILDE:
        red = np.einsum("nmpm->np", four)
    else:
        red = np.einsum("nmnp->mp", four)
    red = 0.5 * (red + red.conj().T)
    return DensityMatrix(rho.layout.single(), red, trace_tol=rho.trace_tol)


def _components_by_size(pattern: np.ndarray) -> Iterator[np.ndarray]:
    """Connected components of the square nonzero pattern, grouped by size.

    Yields one integer array of shape (count, size) per distinct component
    size; each row lists the basis indices of one component in increasing
    order.  A matrix is block-diagonal up to a permutation on exactly these
    blocks, so its eigenvalues are the union of theirs and its exponential
    is the exponential of each block.  A dense pattern is one component.
    """
    # scipy.sparse is imported here, not at module level: only the two-mode
    # and verify commands reach this, and the import costs every CLI start
    # about 40 ms and 5 MB
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    _, labels = connected_components(csr_matrix(pattern), directed=False)
    members = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels)
    starts = np.cumsum(sizes) - sizes
    for size in np.unique(sizes):
        yield members[starts[sizes == size][:, None] + np.arange(size)]


def matrix_exponential(a: Operator) -> Operator:
    """exp(A) via scipy's scaling-and-squaring Pade implementation.

    Each connected component of A's nonzero pattern is exponentiated on its
    own, one batched expm per component size, and scattered into the dense
    result; the entries between components are exactly zero.  The squeeze
    generator and a+ b+ conserve the pair-number difference, so on a
    two-mode layout their largest block has `cutoff` states and the cost is
    O(cutoff^4) rather than O(cutoff^6); a dense A is one block, as before.
    """
    out = np.zeros_like(a.mat)
    for idx in _components_by_size(a.mat != 0):
        rows, cols = idx[:, :, None], idx[:, None, :]
        out[rows, cols] = _scipy_expm(a.mat[rows, cols])
    return Operator(a.layout, out)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(1/2) sum of singular values of rho - sigma (hermitian, so |eigenvalues|).

    rho - sigma is split into the connected components of its nonzero
    pattern and each component is eigensolved on its own; components of
    equal size share one batched eigvalsh, which takes all singletons
    (|diagonal entry|) in one step.  The states built here conserve the
    pair-number difference, so the largest component has at most `cutoff`
    states; a dense difference is a single component and costs one full
    eigensolve, as before.
    """
    _same_layout(rho, sigma)
    total = 0.0
    for idx in _components_by_size(rho.mat != sigma.mat):
        rows, cols = idx[:, :, None], idx[:, None, :]
        blocks = rho.mat[rows, cols] - sigma.mat[rows, cols]
        total += np.abs(np.linalg.eigvalsh(blocks)).sum()
    return float(0.5 * total)


def default_cutoff(theta: float, tail: float = TAIL_TARGET) -> int:
    """Smallest cutoff whose thermal-tail weight tanh(theta)^(2N) drops
    below `tail`, clamped to [CUTOFF_MIN, CUTOFF_MAX]."""
    if theta < 0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    t2 = np.tanh(theta) ** 2
    if t2 == 0.0:
        return CUTOFF_MIN
    need = int(np.ceil(np.log(tail) / np.log(t2)))
    return max(CUTOFF_MIN, min(CUTOFF_MAX, need))
