"""Truncated Fock spaces: ladder operators as arrays, states stored by structure.

A single bosonic mode is truncated to occupations 0..cutoff-1.  Two-mode
objects live on the tensor product of a "system" mode and a "tilde" partner
of the same cutoff, ordered system-major: basis index = n_sys * cutoff +
n_tilde.  Single-mode operators are plain complex128 arrays of shape
(cutoff, cutoff); a pure state enters as its dense projector.  There are
no dense two-mode operators or vectors: the two-mode operators
the package needs (the squeeze unitary, E = exp(lambda a+ b+)) are built
sector by sector in `states`, and a two-mode state is a density matrix
stored by sector.

A single-mode density matrix is stored by offset diagonal.  The damping
channel keeps the offset k = c - r of every entry (r, c), and the thermal
states it damps are diagonal, so the state keeps one zero-padded array
`diagonals[k, p] = rho[p, p + k]` over the offsets k = 0..K-1 it stores;
offset -k is the conjugate of offset k, and offset 0 is real.  A chaotic
state and its damped images store one real vector of populations.

A two-mode density matrix is stored by pair-number sector.  Sector d holds
the basis states with n_tilde - n_sys = d; its index p is the state
(n_sys, n_tilde) = (p + max(-d, 0), p + max(d, 0)), so it has cutoff - |d|
states.  The squeeze generator a+ b+ keeps d, and each damping operator
lowers n_sys by the same n on the row and on the column, so every state
built here is block diagonal in d with a positive block per sector.  That
block is stored as one factor F_d, of shape (cutoff - |d|, r_d), whose
block is F_d F_d^+.  The thermal vacuum, its damped closed form and its
operator-sum image have r_d = 1: about cutoff^2 / 2 entries in all, where
the blocks would hold cutoff^3 / 3 and the dense matrix cutoff^4 (4.3 GB at
cutoff 128).

The factors sit in one array, `factors[i, s, r]`: column r of the factor of
sector `sectors[i]` at system occupation s, zero where the sector has no
state with that n_sys, and zero in the columns beyond a sector's r_d; it
is real when the state is.

Hermiticity holds by construction in both storages (and positivity for two
modes).  A state is checked once, where it enters the package: the dense
constructor checks finiteness, hermiticity and the trace, from_factors
finiteness and the trace, each against the trace_tol it is given.  The
states derived from a checked one (damped images, reductions) are stored
unchecked: each producer checks the trace it changes.  Partial
traces return the populations as offset 0, the purity is a sum of squared
entries, and a two-mode trace_distance is one batched QR and one batched
eigvalsh over all sectors.  The dense matrix (DensityMatrix.mat) is
assembled only on request: as a test oracle, and for the eigenvalues of a
single-mode state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels

SYSTEM = "system"
TILDE = "tilde"

CUTOFF_MIN = 8
CUTOFF_MAX = 128
TAIL_TARGET = 1e-14
# largest thermal tail q^cutoff a curve command admits (states.truncation_cutoff)
DEFICIT_TOL = 1e-6

HERMITICITY_TOL = 1e-12
DEFAULT_TRACE_TOL = 1e-9


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


def _single_mode(layout: ModeLayout, what: str) -> None:
    if layout.modes != 1:
        raise LayoutError(f"{what} takes a single-mode layout; two-mode objects are built by sector")


def _sector_range(layout: ModeLayout) -> range:
    """Pair-number differences d = n_tilde - n_sys of a two-mode layout's sectors."""
    return range(1 - layout.cutoff, layout.cutoff)


def sector_indices(layout: ModeLayout, d: int) -> np.ndarray:
    """Dense basis indices of sector d of a two-mode layout, in sector order."""
    if layout.modes != 2:
        raise LayoutError("sector_indices takes a two-mode layout")
    n = layout.cutoff
    p = np.arange(n - abs(d))
    return (p + max(-d, 0)) * n + (p + max(d, 0))


def _real(a: np.ndarray) -> np.ndarray:
    """a, or its real part when that is all of it: the states built here are
    real, and real arithmetic and LAPACK routines are several times faster."""
    return a.real if np.iscomplexobj(a) and not a.imag.any() else a


def diagonal_populations(diagonals: np.ndarray) -> np.ndarray:
    """The populations rho[p, p] held in a single-mode `diagonals` array:
    its offset 0, real."""
    return diagonals[0].real


class DensityMatrix:
    """A state stored by offset diagonal for one mode, one factor per
    pair-number sector for two (see the module docstring).

    `DensityMatrix(layout, mat, trace_tol)` takes a dense single-mode
    matrix, checks finiteness, hermiticity and that the trace is within
    trace_tol of 1, and stores the diagonals of its hermitian part; a real
    matrix is checked as float64, a complex one as complex128.
    `from_factors(layout, {d: F_d}, trace_tol)` takes a two-mode state as
    factors of shape (cutoff - |d|, r_d), rows in sector order (see
    sector_indices) and any r_d >= 0, and checks finiteness and the trace.
    A deliberately truncated state (a thermal tail cut at the top of the
    space) enters with a trace_tol that admits its deficit; the tolerance
    is not kept.  The arrays must not be modified afterwards.
    """

    diagonals: np.ndarray | None = None
    sectors: range | None = None
    factors: np.ndarray | None = None

    def __init__(self, layout: ModeLayout, mat, trace_tol: float = DEFAULT_TRACE_TOL) -> None:
        if layout.modes != 1:
            raise LayoutError("a two-mode state is built from its sector factors: DensityMatrix.from_factors")
        # a real matrix is checked and scanned in real arithmetic
        mat = np.asarray(mat)
        mat = np.ascontiguousarray(mat, dtype=np.complex128 if np.iscomplexobj(mat) else np.float64)
        if mat.shape != (layout.dim, layout.dim):
            raise LayoutError(f"matrix shape {mat.shape} does not match layout dim {layout.dim}")
        if not np.all(np.isfinite(mat.view(np.float64))):
            raise StateError("matrix contains non-finite entries")
        defect = kernels.hermiticity_defect(mat)
        if defect > HERMITICITY_TOL:
            raise StateError(f"not hermitian: max |rho - rho^dagger| = {defect:.3e}")
        n = layout.cutoff
        rows, cols = np.nonzero(mat)
        diagonals = np.zeros((int(np.abs(cols - rows).max(initial=0)) + 1, n), dtype=mat.dtype)
        for k, line in enumerate(diagonals):
            # the hermitian part: exact on a hermitian matrix, real on offset 0
            line[:n - k] = 0.5 * (np.diagonal(mat, k) + np.diagonal(mat, -k).conj())
        self.layout, self.diagonals = layout, np.ascontiguousarray(_real(diagonals))
        self._check_trace(trace_tol)

    @classmethod
    def from_factors(
        cls, layout: ModeLayout, factors: dict, trace_tol: float = DEFAULT_TRACE_TOL
    ) -> "DensityMatrix":
        if layout.modes != 2:
            raise LayoutError("sector factors describe a two-mode state")
        n = layout.cutoff
        factors = {d: np.asarray(f) for d, f in factors.items()}
        for d, f in factors.items():
            if d not in _sector_range(layout):
                raise LayoutError(f"sector {d!r} outside the layout {layout}")
            if f.ndim != 2 or f.shape[0] != n - abs(d):
                raise LayoutError(f"factor {d} has shape {f.shape}")
        lo, hi = (min(factors), max(factors) + 1) if factors else (0, 0)
        rank = max((f.shape[1] for f in factors.values()), default=0)
        stack = np.zeros((hi - lo, n, rank), dtype=np.result_type(np.float64, *factors.values()))
        for d, f in factors.items():
            stack[d - lo, max(-d, 0):n - max(d, 0), :f.shape[1]] = f
        rho = cls._stored(layout, stack, range(lo, hi))
        rho._check_trace(trace_tol)
        return rho

    @classmethod
    def _stored(cls, layout: ModeLayout, array: np.ndarray, sectors: range | None = None) -> "DensityMatrix":
        """An unchecked state from its stored array: the `diagonals` of a
        single mode as the kernels return them (offset 0 real, each offset k
        zero past cutoff - k), or the `factors` of two modes over `sectors`
        (rows by system occupation).  The package's producers build their
        states here, each checking the trace it changes itself."""
        rho = cls.__new__(cls)
        rho.layout = layout
        if sectors is None:
            rho.diagonals = np.ascontiguousarray(_real(array))
        else:
            rho.sectors, rho.factors = sectors, np.ascontiguousarray(_real(array))
        return rho

    def _trace(self) -> complex:
        if self.factors is None:
            return complex(self.diagonals[0].sum())
        return complex(np.vdot(self.factors, self.factors).real)

    def _check_trace(self, trace_tol: float) -> None:
        tr = self._trace()
        # a two-mode trace is a sum of squares, finite when every factor entry
        # is; the dense constructor has checked its matrix already
        if not np.isfinite(tr):
            raise StateError("factors contain non-finite entries")
        err = abs(tr - 1.0)
        if err > trace_tol:
            raise StateError(f"trace {tr:.12g} deviates from 1 by {err:.3e} (tol {trace_tol:.3e})")

    def factor(self, d: int) -> np.ndarray:
        """F_d of a two-mode state, rows in sector order; zero in the layout's
        sectors outside `sectors`."""
        if self.factors is None:
            raise LayoutError("a single-mode state has no sector factors")
        if d not in _sector_range(self.layout):
            raise LayoutError(f"sector {d!r} outside the layout {self.layout}")
        n = self.layout.cutoff
        if d not in self.sectors:
            return np.zeros((n - abs(d), self.factors.shape[2]), dtype=self.factors.dtype)
        return self.factors[d - self.sectors.start, max(-d, 0):n - max(d, 0)]

    @property
    def max_coherence(self) -> float:
        """The largest |rho[r, c]|, r != c, of a single-mode state: 0 when it
        is diagonal in the Fock basis."""
        return float(np.abs(self.diagonals[1:]).max(initial=0.0))

    @property
    def mat(self) -> np.ndarray:
        """The dense matrix, assembled from the diagonals of a single mode or
        from the factors of two."""
        out = np.zeros((self.layout.dim, self.layout.dim), dtype=np.complex128)
        if self.factors is None:
            n = self.layout.cutoff
            p = np.arange(n)
            for k, line in enumerate(self.diagonals):
                out[p[:n - k], p[k:]] = line[:n - k]
                out[p[k:], p[:n - k]] = line[:n - k].conj()
            return out
        for d in self.sectors:
            idx = sector_indices(self.layout, d)
            f = self.factor(d)
            out[np.ix_(idx, idx)] = f @ f.conj().T
        return out

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of a single-mode state, called on demand rather
        than in the constructor; a two-mode state is positive by construction."""
        if self.factors is not None:
            raise LayoutError("a two-mode state is positive by construction")
        return float(np.linalg.eigvalsh(_real(self.mat)).min())


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def annihilation(layout: ModeLayout) -> np.ndarray:
    """Lowering operator a of a single mode: a|n> = sqrt(n)|n-1>."""
    _single_mode(layout, "annihilation")
    n = layout.cutoff
    core = np.zeros((n, n), dtype=np.complex128)
    core[np.arange(n - 1), np.arange(1, n)] = np.sqrt(np.arange(1, n))
    return core


def creation(layout: ModeLayout) -> np.ndarray:
    """Raising operator a+ of a single mode."""
    _single_mode(layout, "creation")
    n = layout.cutoff
    core = np.zeros((n, n), dtype=np.complex128)
    core[np.arange(1, n), np.arange(n - 1)] = np.sqrt(np.arange(1, n))
    return core


def number(layout: ModeLayout) -> np.ndarray:
    """Occupation-number operator a+a of a single mode."""
    _single_mode(layout, "number")
    return np.diag(np.arange(layout.cutoff, dtype=np.complex128))


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------


def trace(rho: DensityMatrix) -> complex:
    return rho._trace()


def expectation(rho: DensityMatrix, obs: np.ndarray) -> complex:
    """Tr(rho A) against a dense (dim, dim) observable.

    Offset k of rho meets offset -k of A: each stored diagonal is summed
    against the matching diagonals of A, in O(stored entries).  A two-mode
    density matrix is refused: its dense form would hold cutoff^4 entries
    (4.3 GB at cutoff 128).
    """
    dim = rho.layout.dim
    if obs.shape != (dim, dim):
        raise LayoutError(f"observable shape {obs.shape} does not match layout dim {dim}")
    if rho.layout.modes == 2:
        raise LayoutError("expectation takes a single-mode density matrix")
    total = np.dot(rho.diagonals[0], np.diagonal(obs))
    for k, line in enumerate(rho.diagonals[1:], start=1):
        line = line[:dim - k]
        total += np.dot(line, np.diagonal(obs, -k)) + np.dot(line.conj(), np.diagonal(obs, k))
    return complex(total)


def mean_occupation(rho: DensityMatrix) -> float:
    """Tr(rho a+a) of a single-mode state, sum_p p rho[p, p], read off its
    populations."""
    _single_mode(rho.layout, "mean_occupation")
    pops = diagonal_populations(rho.diagonals)
    return float(np.dot(np.arange(len(pops)), pops))


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2): the squared Frobenius norm of a single-mode matrix, each
    offset k > 0 counted with its conjugate -k, or the sum over sectors of
    |F_d^+ F_d|^2, which equals Tr((F_d F_d^+)^2)."""
    if rho.factors is None:
        d = rho.diagonals
        return float(2.0 * np.vdot(d, d).real - np.vdot(d[0], d[0]).real)
    gram = rho.factors.conj().swapaxes(1, 2) @ rho.factors
    return float(np.vdot(gram, gram).real)


def partial_trace(rho: DensityMatrix, over: str) -> DensityMatrix:
    """Trace out one mode of a two-mode density matrix.

    over=TILDE keeps the system mode; over=SYSTEM keeps the tilde mode.  A
    block-diagonal state has a diagonal reduction, stored as offset 0
    alone: the population |F_d[s]|^2 of system occupation s in sector d
    adds to occupation s of the system mode, or s + d of the tilde mode.
    """
    if over not in (SYSTEM, TILDE):
        raise LayoutError(f"over must be {SYSTEM!r} or {TILDE!r}, got {over!r}")
    if rho.layout.modes != 2:
        raise LayoutError("partial_trace needs a two-mode state")
    n = rho.layout.cutoff
    f = rho.factors
    pops = np.einsum("dsr,dsr->ds", f.real, f.real)
    if np.iscomplexobj(f):
        pops += np.einsum("dsr,dsr->ds", f.imag, f.imag)
    # each population sums in increasing traced occupation
    if over == TILDE:
        # system occupation s, over increasing d
        reduced = pops.sum(axis=0)
    else:
        # tilde occupation s + d, over decreasing d; the rows a sector does not
        # hold carry 0 and fall outside [0, n), so the bins start at -(n - 1)
        tilde = np.add.outer(np.arange(rho.sectors.start, rho.sectors.stop), np.arange(n - 1, 2 * n - 1))
        reduced = np.bincount(tilde[::-1].ravel(), weights=pops[::-1].ravel(), minlength=3 * n)[n - 1:2 * n - 1]
    return DensityMatrix._stored(rho.layout.single(), reduced[None, :])


def _aligned(rho: DensityMatrix, sectors: range) -> np.ndarray:
    """rho's factors over `sectors`, zero in the sectors rho does not store."""
    if rho.sectors == sectors:
        return rho.factors
    out = np.zeros((len(sectors),) + rho.factors.shape[1:], dtype=rho.factors.dtype)
    at = rho.sectors.start - sectors.start
    out[at:at + len(rho.sectors)] = rho.factors
    return out


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(1/2) sum of singular values of rho - sigma (hermitian, so |eigenvalues|).

    A single mode takes one eigvalsh of the difference.  In sector d of two
    modes, F F^+ - G G^+ = A J A^+ with A = [F | G] and J = diag(1, .., -1,
    ..); with A = Q R, Q with orthonormal columns, its nonzero eigenvalues
    are those of the small hermitian R J R^+.  One batched QR and one
    batched eigvalsh cover every sector.  No Gram matrix A^+ A is formed,
    whose round-off would leave sqrt(eps) of two equal states apart; a
    sector whose two factors are equal is skipped, so rho - rho gives 0.
    """
    if rho.layout != sigma.layout:
        raise LayoutError(f"layout mismatch: {rho.layout} vs {sigma.layout}")
    if rho.factors is None:
        return float(0.5 * np.abs(np.linalg.eigvalsh(_real(rho.mat - sigma.mat))).sum())
    sectors = range(min(rho.sectors.start, sigma.sectors.start), max(rho.sectors.stop, sigma.sectors.stop))
    f, g = _aligned(rho, sectors), _aligned(sigma, sectors)
    if f.shape == g.shape:
        differ = ~(f == g).all(axis=(1, 2))
        f, g = f[differ], g[differ]
    r = np.linalg.qr(np.concatenate([f, g], axis=2), mode="r")
    r_f, r_g = r[..., :f.shape[2]], r[..., f.shape[2]:]
    core = r_f @ r_f.conj().swapaxes(1, 2) - r_g @ r_g.conj().swapaxes(1, 2)
    return float(0.5 * np.abs(np.linalg.eigvalsh(core)).sum())


def default_cutoff(theta: float) -> int:
    """Smallest cutoff whose thermal-tail weight tanh(theta)^(2N) drops
    below TAIL_TARGET, clamped to [CUTOFF_MIN, CUTOFF_MAX]."""
    if theta < 0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    t2 = np.tanh(theta) ** 2
    if t2 == 0.0:
        return CUTOFF_MIN
    if t2 == 1.0:
        raise ArithmeticError(
            f"tanh(theta)^2 rounds to 1 at theta = {theta:.6g}: no cutoff holds the thermal tail"
        )
    need = int(np.ceil(np.log(TAIL_TARGET) / np.log(t2)))
    return max(CUTOFF_MIN, min(CUTOFF_MAX, need))
