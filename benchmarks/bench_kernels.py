"""Time the hot kernels and the two-mode sector operations.

Run: python3 benchmarks/bench_kernels.py [--cutoff N] [--repeats R]

Timings use the best of R calls after warmup.  The two-mode rows run on the
CLI's payload at tau0 = 1 and kappa*t = 0.5, stored as pair-number sector
blocks: the thermal-vacuum projector, its damped image and the closed-form
damped state.  They time the damping operator sum of the system mode on
the blocks (damp_sectors, from the full cutoff x cutoff weight table),
apply_kraus(rho, kappa_t) with its validation of the result, the trace
distance, the partial trace, the purity and the construction of a
DensityMatrix from blocks.  thermo_squeeze_operator builds the squeeze
unitary at tau0 = 1 with one eigh per sector.  The Lindblad rows build the
packed generator table and run 200 RK4 steps with rk4_evolve, on the
two-mode thermal vacuum and on a chaotic single mode at cutoff 4N, whose
table packs only its 4N populations; lindblad_integrate steps that single
mode through a 16-interval grid to kappa t = 2.  The single-mode operator
sum (apply_damping, all 4N orders) and hermiticity check run at cutoff 4N
as well.
"""
from __future__ import annotations

import argparse
import time

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
    """Thermal-vacuum projector, its damping weights, the damped state and
    the closed-form damped state, all stored by sector."""
    params = states.ThermoParams.from_tau(1.0)
    layout = fock.ModeLayout(cutoff).doubled()
    rho = fock.outer(states.thermal_vacuum(params, layout))
    weights = channel.damping_weights(cutoff, kappa_t)
    # small cutoffs hold less of the thermal tail than the CLI demands; the
    # timings do not depend on it
    analytic = states.evolved_two_mode_state(
        states.EvolvedTwoModeSpec(params.theta, kappa_t), layout, deficit_tol=1.0
    )
    damped = channel.apply_kraus(rho, kappa_t)
    return rho, weights, damped, analytic


def single_mode_payload(cutoff: int):
    params = states.ThermoParams.from_tau(1.0)
    return states.chaotic_state(params, fock.ModeLayout(cutoff))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cutoff", type=int, default=32)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    n = args.cutoff
    params = states.ThermoParams.from_tau(1.0)
    kappa_t = 0.5
    rho, weights, damped, analytic = two_mode_payload(n, kappa_t)
    small = single_mode_payload(4 * n)
    rho4_small = small.mat.reshape(4 * n, 1, 4 * n, 1)
    weights_small = channel.damping_weights(4 * n, kappa_t)
    table = channel._generator(rho.layout, rho.blocks, 1.0)
    table_small = channel._generator(small.layout, small.blocks, 1.0)
    stored = sum(block.size for block in damped.blocks.values())
    grid = [2.0 * i / 16 for i in range(17)]

    cases = [
        ("damp_sectors", kernels.damp_sectors, (rho.blocks, weights)),
        ("apply_kraus", channel.apply_kraus, (rho, kappa_t)),
        ("trace_distance", fock.trace_distance, (analytic, damped)),
        ("partial_trace", fock.partial_trace, (damped, fock.TILDE)),
        ("purity", fock.purity, (damped,)),
        ("from_blocks", fock.DensityMatrix.from_blocks, (damped.layout, damped.blocks, damped.trace_tol)),
        ("thermo_squeeze_operator", states.thermo_squeeze_operator, (params.theta, rho.layout)),
        ("lindblad_table", channel._generator, (rho.layout, rho.blocks, 1.0)),
        ("rk4_evolve", kernels.rk4_evolve, (table.pack(rho.blocks), table, 1e-3, 200)),
        ("rk4_evolve (1 mode)", kernels.rk4_evolve, (table_small.pack(small.blocks), table_small, 1e-3, 200)),
        ("lindblad_integrate (grid)", channel.lindblad_integrate, (small, 1.0, grid)),
        ("apply_damping", kernels.apply_damping, (rho4_small, weights_small, 4 * n)),
        ("hermiticity_defect", kernels.hermiticity_defect, (small.mat,)),
    ]

    print(
        f"two-mode cutoff {n}: damped state stores {stored} entries in "
        f"{len(damped.blocks)} blocks ({16 * stored / 1e6:.2f} MB; dense would be "
        f"{16 * n**4 / 1e6:.1f} MB); packed RK4 state {table.offsets[-1]} entries; "
        f"single mode dim {4 * n}, packed RK4 state {table_small.offsets[-1]} of "
        f"{(4 * n) ** 2} entries; best of {args.repeats}"
    )
    for name, fn, payload in cases:
        print(f"{name:<24}{best_of(fn, payload, args.repeats) * 1e3:>9.2f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
