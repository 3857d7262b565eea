"""Tests of the benchmark's own logic: spans, gates, workloads, patching.

Run: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import gate, run, tracing, workloads  # noqa: E402


def span(id_, parent, name, start, end, **attrs):
    return tracing.Span(id_, parent, name, start, end, dict(attrs))


def test_self_time_of_nested_span_tree():
    spans = [
        span(0, None, "root", 0.0, 10.0),
        span(1, 0, "a", 1.0, 4.0),
        span(2, 1, "b", 1.5, 2.0),
        span(3, 1, "b", 3.0, 3.5),
        span(4, 0, "c", 5.0, 9.0),
        span(5, 4, "d", 6.0, 8.0),
        span(6, 5, "e", 6.5, 7.0),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 0.5, 3: 0.5, 4: 2.0, 5: 1.5, 6: 0.5})
    stats = tracing.layer_stats(spans)
    assert stats["b"].calls == 2
    assert stats["b"].total_s == pytest.approx(1.0)
    assert stats["root"].total_s == pytest.approx(10.0)
    # self times partition the root's wall time
    assert sum(own.values()) == pytest.approx(10.0)


def test_covered_length_merges_overlaps_and_clips():
    assert tracing.covered_length([(1, 3), (2, 4), (6, 7)], 0, 10) == pytest.approx(4.0)
    assert tracing.covered_length([(-1, 2), (9, 12)], 0, 10) == pytest.approx(3.0)
    assert tracing.covered_length([], 0, 10) == 0.0


def test_useful_step_frac_counts_restarts_per_job():
    # one job integrating to three grid points, each call restarting from t = 0
    spans = [span(0, None, "cli.main", 0, 100)]
    for k, steps in enumerate((10, 20, 30)):
        integrate = span(len(spans), 0, "channel.lindblad_integrate", 10 * k, 10 * k + 9)
        spans += [integrate, span(len(spans) + 1, integrate.id, "kernels.rk4_evolve", 10 * k, 10 * k + 8, steps=steps)]
    assert tracing.useful_step_frac(spans) == pytest.approx(30 / 60)
    assert tracing.useful_step_frac(spans[:1]) is None


def test_apply_damping_macs_from_shapes():
    np = pytest.importorskip("numpy")
    rho4 = np.zeros((3, 2, 3, 2))
    assert tracing.COUNT_HOOKS["kernels.apply_damping"](rho4, None, 3) == {"macs": (9 + 4 + 1) * 4}
    assert tracing.COUNT_HOOKS["kernels.apply_damping"](rho4, None, 1) == {"macs": 9 * 4}


def run_cli(argv):
    from thermofock import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def perturb(text: str, row: int, column: int, delta: float) -> str:
    lines = text.splitlines()
    fields = lines[row + 1].split(",")
    fields[column] = repr(float(fields[column]) + delta)
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_gate_passes_real_cool_output_and_flags_perturbed_row():
    job = workloads.curve_job("cool", 0.8, 1.3, 0.9, 4)
    code, text = run_cli(job.argv)
    verdict = gate.check(job, code, text)
    assert verdict.ok, verdict.reason
    assert verdict.tau_err < gate.TAU_TOL
    bad = gate.check(job, code, perturb(text, 2, 2, 1e-6))
    assert not bad.ok
    assert "tau_numeric" in bad.reason
    assert bad.tau_err == pytest.approx(1e-6, rel=1e-3)
    assert not gate.check(job, 3, text).ok
    assert not gate.check(job, code, perturb(text, 1, 1, 1e-6)).ok  # tau_closed off the law


def test_gate_flags_perturbed_two_mode_row():
    job = workloads.curve_job("two-mode", 0.4, 1.0, 0.7, 1, "--cutoff", "16")
    code, text = run_cli(job.argv)
    assert gate.check(job, code, text).ok
    for column in (1, 2, 4):  # trace distance, system tau, tilde nbar
        assert not gate.check(job, code, perturb(text, 1, column, 1e-6)).ok


def test_gate_requires_every_verify_line_to_pass():
    job = workloads.make_jobs("verify", 0)[0]
    good = "PASS ladder_adjoint 0.000000e+00 1.000000e-14\nPASS effective_temperature_roundtrip 2.0e-15 1.0e-10\n"
    verdict = gate.check(job, 0, good)
    assert verdict.ok and verdict.tau_err == pytest.approx(2e-15)
    assert not gate.check(job, 0, good.replace("PASS ladder", "FAIL ladder")).ok
    assert not gate.check(job, 0, "").ok
    assert not gate.check(job, 3, good).ok


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_jobs_other_seed_other_jobs(workload):
    assert workloads.make_jobs(workload, 7) == workloads.make_jobs(workload, 7)
    if workload != "verify":  # verify takes fixed inputs
        assert workloads.make_jobs(workload, 7) != workloads.make_jobs(workload, 8)


def test_job_inputs_stay_in_their_ranges():
    for seed in range(5):
        kraus = workloads.make_jobs("cool-kraus", seed)
        assert len(kraus) == workloads.COOL_KRAUS_GRID**2
        for job in kraus:
            assert workloads.COOL_KRAUS_TAU0[0] <= job.tau0 <= workloads.COOL_KRAUS_TAU0[1]
            assert workloads.COOL_STEPS[0] <= job.steps <= workloads.COOL_STEPS[1]
            assert 0.5 <= job.kappa * job.t_max <= 4.0 + 1e-12
        lindblad = workloads.make_jobs("cool-lindblad", seed)
        assert [workloads.job_cutoff(j) for j in lindblad] == list(workloads.LINDBLAD_CUTOFFS)


def test_job_cutoff_matches_the_package_rule():
    from thermofock import fock, thermo

    for job in workloads.make_jobs("cool-kraus", 3) + workloads.make_jobs("cool-lindblad", 3):
        assert workloads.job_cutoff(job) == fock.default_cutoff(thermo.theta_from_tau(job.tau0))


def test_traced_pass_restores_every_patched_attribute():
    from thermofock import channel, cli, fock, kernels, states, thermo, verify

    modules = [cli, states, fock, channel, kernels, thermo, verify]
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer()
    with tracer.patched(modules):
        assert fock.trace_distance is not before[2]["trace_distance"]
        assert fock.DensityMatrix is before[2]["DensityMatrix"]  # classes are left alone
        code, _ = run_cli(workloads.curve_job("cool", 0.5, 1.0, 0.5, 2).argv)
    assert code == 0
    for module, saved in zip(modules, before):
        for name, value in saved.items():
            assert vars(module)[name] is value, f"{module.__name__}.{name} not restored"
    names = {s.name for s in tracer.spans}
    assert {"kernels.apply_damping", "kernels.hermiticity_defect", "thermo.fit_geometric"} <= names


def test_traced_pass_restores_attributes_after_an_error():
    from thermofock import fock

    original = fock.trace_distance
    with pytest.raises(RuntimeError), tracing.Tracer().patched([fock]):
        raise RuntimeError("boom")
    assert fock.trace_distance is original


def test_percentile_matches_statistics_quantiles():
    values = [0.3, 1.2, 0.7, 2.5, 0.1, 0.9, 1.7]
    assert run.percentile(values, 0.9) == pytest.approx(statistics.quantiles(values, n=10, method="inclusive")[8])
    assert run.percentile([4.0], 0.9) == 4.0


def test_import_seconds_parses_importtime_output():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |      50000 | numpy",
            "import time:       300 |     200000 |   scipy.linalg",
            "import time:       400 |     300000 | thermofock",
            "import time:      5000 |       5000 |   thermofock.verify",
            "import time:      6000 |      11000 | thermofock.cli",
        ]
    )
    got = run.import_seconds(stderr)
    assert got["import.thermofock.cum_s"] == pytest.approx(0.311)
    assert got["import.thermofock.self_s"] == pytest.approx(0.0114)
    assert got["import.numpy.cum_s"] == pytest.approx(0.05)
    assert got["import.scipy.linalg.cum_s"] == pytest.approx(0.2)


def test_benchmark_json_matches_the_metrics_the_harness_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == run.per_layer_spec()
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
