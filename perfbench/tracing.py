"""Spans around the package's public functions, recorded from outside.

`Tracer.patched(modules)` replaces every public function defined in each
module with a wrapper that records a span (id, parent, name, start, end).
Module attributes are patched, so bare-name calls inside a module are caught
as well.  Spans stay in memory; `layer_stats` turns them into per-function
calls, total time and self time, where self time is a span's duration minus
the part of it that child spans cover.

Some functions also get work counts computed from their argument shapes
(`COUNT_HOOKS`).  Hooks run inside a `perfbench.hook` child span, so their
cost is excluded from every package span's self time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass, field
from types import ModuleType
from typing import Callable

HOOK_SPAN = "perfbench.hook"
# counts that describe a size rather than work; layer_stats keeps their maximum
MAX_COUNTS = frozenset({"dim"})


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _array_bytes(obj) -> int:
    for attr in ("mat", "vec"):
        inner = getattr(obj, attr, None)
        if inner is not None:
            obj = inner
            break
    return getattr(obj, "nbytes", 0) if hasattr(obj, "shape") else 0


def _apply_damping_counts(rho4, weights, n_kraus, *_, **__) -> dict:
    # out[j,m,k,m'] += W[n,j] W[n,k] rho[j+n,m,k+n,m'] over (N-n)^2 R^2 entries per order n
    n, ride = rho4.shape[0], rho4.shape[1]
    return {"macs": sum((n - k) ** 2 * ride * ride for k in range(min(n_kraus, n)))}


def _rk4_counts(rho4, kappa, dt, n_steps, *_, **__) -> dict:
    return {"steps": max(int(n_steps), 0)}


def _herm_counts(mat, *_, **__) -> dict:
    return {"bytes": 16 * mat.shape[0] * mat.shape[1]}


def _trace_distance_counts(rho, sigma, *_, **__) -> dict:
    return {"dim": rho.layout.dim}


def _apply_kraus_counts(rho, spec, *_, **__) -> dict:
    # imported here so that the package under test is what first imports numpy
    import numpy as np

    return {"nonzero": int(np.count_nonzero(rho.mat)), "entries": int(rho.mat.size)}


COUNT_HOOKS: dict[str, Callable[..., dict]] = {
    "kernels.apply_damping": _apply_damping_counts,
    "kernels.rk4_evolve": _rk4_counts,
    "kernels.hermiticity_defect": _herm_counts,
    "fock.trace_distance": _trace_distance_counts,
    "channel.apply_kraus": _apply_kraus_counts,
}


def public_functions(module: ModuleType) -> dict[str, Callable]:
    """Functions a module defines itself under names without a leading `_`."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__
    }


class Tracer:
    """Records spans of patched calls; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.max_array_bytes = 0

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn: Callable) -> Callable:
        hook = COUNT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            with self.span(HOOK_SPAN):
                if hook is not None:
                    span.attrs.update(hook(*args, **kwargs))
                sizes = [_array_bytes(a) for a in args] + [_array_bytes(result)]
                self.max_array_bytes = max(self.max_array_bytes, *sizes)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, modules: list[ModuleType]):
        """Wrap every public function of `modules`; restore them on exit."""
        saved: list[tuple[ModuleType, str, Callable]] = []
        try:
            for module in modules:
                short = module.__name__.rsplit(".", 1)[-1]
                for name, fn in public_functions(module).items():
                    saved.append((module, name, fn))
                    setattr(module, name, self.wrap(f"{short}.{name}", fn))
            yield self
        finally:
            for module, name, fn in saved:
                setattr(module, name, fn)


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered_length(children[s.id], s.start, s.end) for s in spans}


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=lambda: defaultdict(int))


def layer_stats(spans: list[Span]) -> dict[str, LayerStats]:
    """Per span name: number of calls, summed duration, summed self time and counts."""
    own = self_times(spans)
    stats: dict[str, LayerStats] = defaultdict(LayerStats)
    for s in spans:
        st = stats[s.name]
        st.calls += 1
        st.total_s += s.end - s.start
        st.self_s += own[s.id]
        for key, value in s.attrs.items():
            if key in MAX_COUNTS:
                st.counts[key] = max(st.counts[key], value)
            else:
                st.counts[key] += value
    return dict(stats)


def useful_step_frac(spans: list[Span]) -> float | None:
    """Grid-to-grid RK4 steps over executed RK4 steps, per `cli.main` job.

    Each `channel.lindblad_integrate` call restarts from t = 0.  Integrating
    from one grid point to the next with the same step would execute only
    the steps of the call that reaches the last grid point.
    """
    by_id = {s.id: s for s in spans}

    def nearest(span: Span, name: str) -> Span | None:
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == name:
                return span
        return None

    executed: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.name == "kernels.rk4_evolve":
            owner = nearest(s, "channel.lindblad_integrate")
            if owner is not None:
                executed[owner.id] += s.attrs.get("steps", 0)
    per_job: dict[int, list[int]] = defaultdict(list)
    for integrate_id, steps in executed.items():
        job = nearest(by_id[integrate_id], "cli.main")
        per_job[job.id if job else -1].append(steps)
    total = sum(sum(v) for v in per_job.values())
    if total == 0:
        return None
    return sum(max(v) for v in per_job.values()) / total
