"""Time the hot kernels and the trace distance on a two-mode payload.

Run: python3 benchmarks/bench_kernels.py [--cutoff N] [--repeats R]

Timings use the best of R calls after warmup.  apply_damping,
trace_distance and matrix_exponential (on the squeeze generator at
tau0 = 1) have a single implementation and are timed through their public
functions; the other kernels are timed on their numpy path, next to their
numba twin when numba is importable (the numba column excludes JIT
compilation time).
"""
from __future__ import annotations

import argparse
import time

import numpy as np

from thermofock import channel, fock, states
from thermofock import kernels


def best_of(fn, args, repeats: int, warmup: int = 2) -> float:
    for _ in range(warmup):
        fn(*args)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def two_mode_payload(cutoff: int, kappa_t: float):
    """Thermal-vacuum projector as rho4, its damping weights, and the CLI's
    trace-distance pair (closed-form damped state, operator-sum image)."""
    params = states.ThermoParams.from_tau(1.0)
    layout = fock.ModeLayout(cutoff).doubled()
    rho = fock.outer(states.thermal_vacuum(params, layout))
    rho4 = np.ascontiguousarray(rho.mat.reshape(cutoff, cutoff, cutoff, cutoff))
    weights = channel.damping_weights(cutoff, kappa_t, cutoff)
    analytic = states.evolved_two_mode_state(
        states.EvolvedTwoModeSpec.from_theta(params.theta, kappa_t), layout
    )
    damped = channel.apply_kraus(rho, channel.ChannelSpec(kappa_t=kappa_t))
    return rho4, weights, (analytic, damped)


def squeeze_generator(cutoff: int) -> fock.Operator:
    """theta (a+ b+ - a b) at tau0 = 1, the argument of the squeeze operator."""
    layout = fock.ModeLayout(cutoff).doubled()
    pair_up = states._pair_creation(layout).mat
    theta = states.ThermoParams.from_tau(1.0).theta
    return fock.Operator(layout, theta * (pair_up - pair_up.conj().T))


def single_mode_payload(cutoff: int):
    params = states.ThermoParams.from_tau(1.0)
    rho = states.chaotic_state(params, fock.ModeLayout(cutoff))
    return np.ascontiguousarray(rho.mat.reshape(cutoff, 1, cutoff, 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cutoff", type=int, default=32)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    n = args.cutoff
    rho4, weights, pair = two_mode_payload(n, kappa_t=0.5)
    rho4_small = single_mode_payload(4 * n)
    flat = rho4.reshape(n * n, n * n)

    cases = [
        ("apply_damping", kernels.apply_damping, (rho4, weights, n)),
        ("trace_distance", fock.trace_distance, pair),
        ("matrix_exponential", fock.matrix_exponential, (squeeze_generator(n),)),
        ("lindblad_rhs", kernels._lindblad_rhs_np, (rho4, 1.0)),
        ("rk4_evolve", kernels._rk4_np, (rho4_small, 1.0, 1e-3, 200)),
        ("herm_defect", kernels._herm_defect_np, (flat,)),
    ]
    jitted = {}
    if kernels.HAS_NUMBA:
        jitted = {
            "lindblad_rhs": kernels._lindblad_rhs_nb,
            "rk4_evolve": kernels._rk4_nb,
            "herm_defect": kernels._herm_defect_nb,
        }
    else:
        print("numba not importable, timing the numpy paths only")

    print(
        f"cutoff {n} (two-mode dim {n * n}), rk4 on single mode dim {4 * n}, "
        f"best of {args.repeats}"
    )
    print(f"{'kernel':<20}{'numpy':>12}{'numba':>12}{'speedup':>10}")
    for name, np_fn, payload in cases:
        t_np = best_of(np_fn, payload, args.repeats)
        if name in jitted:
            t_nb = best_of(jitted[name], payload, args.repeats)
            print(
                f"{name:<20}{t_np * 1e3:>9.2f} ms{t_nb * 1e3:>9.2f} ms"
                f"{t_np / t_nb:>9.1f}x"
            )
        else:
            print(f"{name:<20}{t_np * 1e3:>9.2f} ms{'-':>12}{'-':>10}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
