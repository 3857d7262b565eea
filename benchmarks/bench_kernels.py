"""Time the hot kernels and the two-mode sector operations.

Run: python3 benchmarks/bench_kernels.py [--cutoff N] [--repeats R]

Timings use the best of R calls after warmup.  The two-mode rows run on the
CLI's payload at tau0 = 1 and kappa*t = 0.5, stored as pair-number sector
blocks: the thermal-vacuum projector, its damped image and the closed-form
damped state.  They time the damping operator sum on the blocks
(damp_sectors), apply_kraus with its validation of the result, the trace
distance, the partial trace, the purity and the construction of a
DensityMatrix from blocks.  matrix_exponential runs on the squeeze
generator, a dense two-mode operator.  The single-mode kernels run at
cutoff 4N, on their numpy path next to their numba twin when numba is
importable (the numba column excludes JIT compilation time).
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
    """Thermal-vacuum projector, its damping weights and spec, the damped
    state and the closed-form damped state, all stored by sector."""
    params = states.ThermoParams.from_tau(1.0)
    layout = fock.ModeLayout(cutoff).doubled()
    rho = fock.outer(states.thermal_vacuum(params, layout))
    spec = channel.ChannelSpec(kappa_t=kappa_t)
    weights = channel.damping_weights(cutoff, kappa_t, cutoff)
    analytic = states.evolved_two_mode_state(
        states.EvolvedTwoModeSpec.from_theta(params.theta, kappa_t), layout
    )
    damped = channel.apply_kraus(rho, spec)
    return rho, spec, weights, damped, analytic


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
    rho, spec, weights, damped, analytic = two_mode_payload(n, kappa_t=0.5)
    rho4_small = single_mode_payload(4 * n)
    flat_small = rho4_small.reshape(4 * n, 4 * n)
    weights_small = channel.damping_weights(4 * n, 0.5, 4 * n)
    stored = sum(block.size for block in damped.blocks.values())

    cases = [
        ("damp_sectors", kernels.damp_sectors, (rho.blocks, weights, n, n)),
        ("apply_kraus", channel.apply_kraus, (rho, spec)),
        ("trace_distance", fock.trace_distance, (analytic, damped)),
        ("partial_trace", fock.partial_trace, (damped, fock.TILDE)),
        ("purity", fock.purity, (damped,)),
        ("from_blocks", fock.DensityMatrix.from_blocks, (damped.layout, damped.blocks, damped.trace_tol)),
        ("matrix_exponential", fock.matrix_exponential, (squeeze_generator(n),)),
        ("apply_damping", kernels.apply_damping, (rho4_small, weights_small, 4 * n)),
        ("lindblad_rhs", kernels._lindblad_rhs_np, (rho4_small, 1.0)),
        ("rk4_evolve", kernels._rk4_np, (rho4_small, 1.0, 1e-3, 200)),
        ("herm_defect", kernels._herm_defect_np, (flat_small,)),
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
        f"two-mode cutoff {n}: damped state stores {stored} entries in "
        f"{len(damped.blocks)} blocks ({16 * stored / 1e6:.2f} MB; dense would be "
        f"{16 * n**4 / 1e6:.1f} MB); single mode dim {4 * n}; best of {args.repeats}"
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
