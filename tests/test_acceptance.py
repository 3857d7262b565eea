"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a PASS/FAIL line with the observed number next to the
bound it must clear, so a bare `pytest -s` run doubles as a report.
"""

import math

import numpy as np
import pytest

from thermofock import channel, cli, fock, states, thermo

# -1 / ln(e^-1 q / (1 - (1 - e^-1) q)), q = e^-1, evaluated at 30 digits
COOLED_TAU_1_HALF = 0.576260710432279098

TAU0_GRID = np.geomspace(0.05, 20.0, 10)
KT_GRID = np.linspace(0.0, 5.0, 10)


def report(name: str, observed: float, bound: float, ok: bool | None = None) -> None:
    ok = observed < bound if ok is None else ok
    print(f"{'PASS' if ok else 'FAIL'} {name}: observed {observed:.6e}, bound {bound:.6e}")


def test_thermal_vacuum_reduction_matches_chaotic_state():
    worst = 0.0
    for tau0 in (0.3, 1.0, 3.0):
        params = states.ThermoParams(tau0)
        layout = fock.ModeLayout(fock.default_cutoff(params.theta))
        rho2 = states.thermal_vacuum(params, layout.doubled())
        reduced = fock.partial_trace(rho2, over=fock.TILDE)
        reference = states.chaotic_state(params, layout)
        worst = max(worst, float(np.abs(reduced.mat - reference.mat).max()))
    report("thermal-vacuum reduction equals chaotic state", worst, 1e-10)
    assert worst < 1e-10


@pytest.mark.xfail(
    strict=True,
    reason="truncation floor: at cutoff 32 the squeezed ground state differs "
    "from the closed amplitudes by ~7e-8 (boundary weight ~ tanh(theta)^N); "
    "clearing 1e-8 needs cutoff >= 37",
)
def test_squeeze_route_matches_closed_amplitudes_at_cutoff_32():
    layout = fock.ModeLayout(32).doubled()
    params = states.ThermoParams(1.0)
    u = states.thermo_squeeze_operator(params.theta, layout)
    # |0, 0~> is index 0 of sector 0, so its image is column 0 of that
    # block; the thermal vacuum is the one column of sector 0's factor
    squeezed = u[0][:, 0]
    closed = states.thermal_vacuum(params, layout).factor(0)[:, 0]
    observed = float(np.linalg.norm(squeezed - closed))
    report("squeeze route reproduces closed amplitudes", observed, 1e-8)
    assert observed < 1e-8


def test_lindblad_integration_agrees_with_operator_sum():
    layout = fock.ModeLayout(32)
    rho = states.chaotic_state(states.ThermoParams(1.0), layout)
    via_ode = channel.lindblad_integrate(rho, kappa=1.0, times=[0.5], dt=1e-3)[0]
    via_kraus = channel.apply_kraus(rho, 0.5)
    observed = fock.trace_distance(via_ode, via_kraus)
    report("fixed-step integration matches operator sum", observed, 1e-6)
    assert observed < 1e-6


def test_damping_operator_family_is_complete():
    layout = fock.ModeLayout(32)
    worst = 0.0
    for kappa_t in (0.1, 0.5, 2.0):
        acc = np.zeros((32, 32), dtype=complex)
        for op in channel.kraus_operators(kappa_t, layout):
            acc += op.conj().T @ op
        worst = max(worst, float(np.abs(acc - np.eye(32)).max()))
    report("damping operator family resolves the identity", worst, 1e-10)
    assert worst < 1e-10


def test_cooling_law_value_and_occupation_oracle():
    point = abs(thermo.tau_after(1.0, 0.5) - COOLED_TAU_1_HALF)
    report("cooled temperature at unit start, half decay", point, 1e-5)
    assert point < 1e-5

    worst = 0.0
    for tau0 in TAU0_GRID:
        for kt in KT_GRID:
            via_law = thermo.tau_after(tau0, kt)
            via_nbar = thermo.tau_from_nbar(math.exp(-2.0 * kt) * thermo.nbar_from_tau(tau0))
            worst = max(worst, abs(via_law - via_nbar))
    report("cooling law agrees with occupation-number route", worst, 1e-12)
    assert worst <= 1e-12


def test_closed_form_temperature_matches_simulation():
    layout = fock.ModeLayout(48)
    worst = 0.0
    for tau0 in (0.5, 1.0, 2.0):
        rho = states.chaotic_state(states.ThermoParams(tau0), layout)
        for kappa_t in (0.1, 0.5, 1.0, 2.0):
            evolved = channel.apply_kraus(rho, kappa_t)
            fitted = thermo.effective_temperature(evolved)
            worst = max(worst, abs(fitted - thermo.tau_after(tau0, kappa_t)))
    report("fitted temperature tracks the closed form", worst, 1e-7)
    assert worst < 1e-7


def test_compact_evolved_state_matches_channel():
    layout = fock.ModeLayout(24).doubled()
    params = states.ThermoParams(1.0)
    rho0 = states.thermal_vacuum(params, layout)
    worst = 0.0
    for kappa_t in (0.2, 1.0):
        analytic = states.evolved_two_mode_state(params, kappa_t, layout)
        evolved = channel.apply_kraus(rho0, kappa_t)
        worst = max(worst, fock.trace_distance(analytic, evolved))
    report("compact two-mode form matches channel evolution", worst, 1e-8)
    assert worst < 1e-8


def test_cooling_is_positive_and_monotone():
    violations = 0
    for tau0 in TAU0_GRID:
        taus = [thermo.tau_after(tau0, kt) for kt in KT_GRID]
        violations += sum(1 for t in taus if not t > 0)
        violations += sum(1 for t in taus[1:] if not t < tau0)
        violations += sum(1 for a, b in zip(taus, taus[1:]) if not a > b)
    report("cooling stays positive, below start, monotone", float(violations), 1.0)
    assert violations == 0


def test_undamped_partner_state_is_time_invariant():
    layout = fock.ModeLayout(24).doubled()
    params = states.ThermoParams(1.0)
    rho0 = states.thermal_vacuum(params, layout)
    baseline = fock.partial_trace(rho0, over=fock.SYSTEM).mat
    worst = 0.0
    for kappa_t in (0.4, 1.0, 2.5):
        evolved = channel.apply_kraus(rho0, kappa_t)
        tilde_side = fock.partial_trace(evolved, over=fock.SYSTEM).mat
        worst = max(worst, float(np.abs(tilde_side - baseline).max()))
    report("partner mode ignores damping of the other", worst, 1e-8)
    assert worst < 1e-8


def test_mean_occupation_decays_exponentially():
    layout = fock.ModeLayout(32)
    num = fock.number(layout)
    initial_states = [
        states.chaotic_state(states.ThermoParams(1.0), layout),
        fock.outer(fock.fock_state(layout, 2)),
    ]
    worst = 0.0
    for rho in initial_states:
        before = fock.expectation(rho, num).real
        for kappa_t in (0.3, 1.0):
            evolved = channel.apply_kraus(rho, kappa_t)
            after = fock.expectation(evolved, num).real
            worst = max(worst, abs(after - math.exp(-2.0 * kappa_t) * before))
    report("mean occupation decays at twice the rate", worst, 1e-8)
    assert worst < 1e-8


def test_cool_csv_output_is_deterministic(tmp_path):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    argv = ["cool", "--tau0", "1", "--kappa", "1", "--t-max", "2", "--steps", "8"]
    assert cli.main(argv + ["--out", str(first)]) == 0
    assert cli.main(argv + ["--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    report("repeated runs emit identical bytes", 0.0 if identical else 1.0, 1.0)
    assert identical
