import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from thermofock import cli, verify

TAU_AFTER_1_HALF = 0.576260710432279098
NBAR_TAU1 = 0.581976706869326424


def run_cli(argv):
    return cli.main(argv)


def run_python(*args):
    """Run a fresh interpreter that imports this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


def test_cool_writes_expected_csv(tmp_path):
    out = tmp_path / "curve.csv"
    code = run_cli(["cool", "--tau0", "1", "--kappa", "1", "--t-max", "2", "--steps", "8", "--out", str(out)])
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["kappa_t", "tau_closed", "tau_numeric", "nbar", "trace_error"]
    assert len(rows) == 9
    kts = [r[0] for r in rows]
    assert kts == sorted(kts)
    assert all(b > a for a, b in zip(kts, kts[1:]))
    assert rows[0][1] == pytest.approx(1.0, rel=1e-11)
    # the kappa_t = 0.5 row carries the cooled temperature
    assert rows[2][0] == pytest.approx(0.5)
    assert rows[2][1] == pytest.approx(TAU_AFTER_1_HALF, abs=1e-11)
    assert rows[2][2] == pytest.approx(TAU_AFTER_1_HALF, abs=1e-9)
    # cooling is monotone
    taus = [r[1] for r in rows]
    assert all(a > b for a, b in zip(taus, taus[1:]))
    assert rows[-1][1] < rows[0][1]
    for r in rows:
        assert r[4] < 1e-12


def test_cool_stdout_default(capsys):
    code = run_cli(["cool", "--steps", "2", "--t-max", "1", "--cutoff", "16"])
    assert code == 0
    got = capsys.readouterr().out
    lines = got.strip().split("\n")
    assert lines[0].startswith("kappa_t,")
    assert len(lines) == 4


def test_cool_csv_runs_are_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["cool", "--tau0", "1.3", "--kappa", "0.7", "--t-max", "3", "--steps", "6"]
    assert run_cli(argv + ["--out", str(a)]) == 0
    assert run_cli(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cool_both_methods_cross_check(tmp_path):
    out = tmp_path / "both.csv"
    code = run_cli(
        ["cool", "--method", "both", "--steps", "2", "--t-max", "0.4", "--cutoff", "24", "--out", str(out)]
    )
    assert code == 0
    _, rows = read_rows(out)
    assert len(rows) == 3


def test_cool_svg_output(tmp_path):
    out = tmp_path / "c.csv"
    svg = tmp_path / "c.svg"
    code = run_cli(["cool", "--steps", "4", "--t-max", "2", "--out", str(out), "--svg", str(svg)])
    assert code == 0
    text = svg.read_text()
    assert text.startswith("<svg ")
    assert "<polyline" in text
    assert text.count("<circle") == 5
    assert text.rstrip().endswith("</svg>")
    # svg output is deterministic too
    svg2 = tmp_path / "c2.svg"
    run_cli(["cool", "--steps", "4", "--t-max", "2", "--out", str(out), "--svg", str(svg2)])
    assert svg.read_bytes() == svg2.read_bytes()


def test_two_mode_csv_contract(tmp_path):
    out = tmp_path / "tm.csv"
    code = run_cli(
        ["two-mode", "--tau0", "1", "--kappa", "1", "--t-max", "2", "--steps", "4",
         "--cutoff", "24", "--out", str(out)]
    )
    assert code == 0
    header, rows = read_rows(out)
    assert header == [
        "kappa_t",
        "trace_dist_analytic_vs_kraus",
        "sys_tau_numeric",
        "sys_tau_closed",
        "tilde_nbar",
        "purity_total",
    ]
    assert len(rows) == 5
    first = rows[0]
    assert first[1] < 1e-10
    assert first[5] == pytest.approx(1.0, abs=1e-10)
    for row in rows:
        assert row[1] < 1e-10
        assert row[2] == pytest.approx(row[3], abs=1e-7)
        # the undamped partner keeps its occupation for every kappa_t
        assert row[4] == pytest.approx(NBAR_TAU1, abs=1e-8)
    purities = [r[5] for r in rows]
    assert all(a > b for a, b in zip(purities, purities[1:]))


def test_two_mode_rejects_lindblad_and_oversized_cutoff(capsys):
    assert run_cli(["two-mode", "--method", "lindblad"]) == 2
    capsys.readouterr()
    assert run_cli(["two-mode", "--cutoff", "129"]) == 2
    err = capsys.readouterr().err
    assert "[2, 128]" in err


def test_verify_all_passes(capsys):
    code = run_cli(["verify", "--suite", "all"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [ln for ln in out.strip().split("\n") if ln]
    assert len(lines) >= 15
    assert all(ln.startswith("PASS ") for ln in lines)
    # one named check ties the cooling law to its occupation-number oracle
    assert any("cooling_law_vs_nbar_oracle" in ln for ln in lines)
    for ln in lines:
        fields = ln.split()
        assert len(fields) == 4
        float(fields[2])
        float(fields[3])


def test_verify_single_suite_subset(capsys):
    code = run_cli(["verify", "--suite", "thermo"])
    out = capsys.readouterr().out
    assert code == 0
    assert all(" kraus" not in ln for ln in out.split("\n"))


def test_verify_zero_tolerance_fails(capsys):
    code = run_cli(["verify", "--suite", "thermo", "--tol", "cooling_law_vs_nbar_oracle=0"])
    out = capsys.readouterr().out
    assert code == 3
    assert any(ln.startswith("FAIL cooling_law_vs_nbar_oracle") for ln in out.split("\n"))


def test_verify_reports_a_failing_check_and_runs_the_rest():
    # at cutoff 2 the two-mode states of some checks lose most of their
    # trace; those checks fail on their own lines instead of ending the run
    done = run_python("-m", "thermofock", "verify", "--cutoff", "2")
    lines = done.stdout.strip().split("\n")
    assert done.returncode == 3
    assert done.stderr == ""
    assert len(lines) == len(verify.CHECKS) == 21
    assert all(ln.split()[0] in ("PASS", "FAIL") for ln in lines)
    assert lines[3].split()[:3] == ["FAIL", "partial_trace_tensor", "inf"]


def test_verify_runs_uncapped_at_the_largest_cutoff():
    # a cap at 48 would leave the truncation error 2.3e-11 in this check
    results = {res.name: res for res in verify.run_checks("states", cutoff=128)}
    assert all(res.passed for res in results.values())
    assert results["squeeze_generates_thermal_vacuum"].observed < 1e-13


def test_cli_runs_without_scipy():
    # scipy is a test dependency only; no command may import it
    code = (
        "import sys\n"
        "from thermofock import cli\n"
        "assert cli.main(['verify', '--suite', 'all']) == 0\n"
        "assert cli.main(['two-mode', '--steps', '2']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().split("\n")[-1] == "[]"


def test_verify_unknown_tolerance_is_config_error(capsys):
    assert run_cli(["verify", "--suite", "thermo", "--tol", "bogus_check=1"]) == 2
    assert "bogus_check" in capsys.readouterr().err


def test_verify_bad_suite_is_config_error(capsys):
    assert run_cli(["verify", "--suite", "everything"]) == 2


def test_config_file_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tau0 = 2\nsteps = 3\nt-max = 1.5  # trailing comment\n\n# full comment\n")
    out = tmp_path / "o.csv"
    code = run_cli(["cool", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    _, rows = read_rows(out)
    assert len(rows) == 4
    assert rows[0][1] == pytest.approx(2.0, rel=1e-11)


def test_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tau0 = 2\n")
    out = tmp_path / "o.csv"
    assert run_cli(["cool", "--config", str(cfg), "--tau0", "1", "--steps", "1", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert rows[0][1] == pytest.approx(1.0, rel=1e-11)


def test_unknown_config_key_is_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\n")
    assert run_cli(["cool", "--config", str(cfg)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_malformed_config_line_is_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tau0 2\n")
    assert run_cli(["cool", "--config", str(cfg)]) == 2


def test_missing_config_file_is_error(tmp_path):
    assert run_cli(["cool", "--config", str(tmp_path / "absent.cfg")]) == 2


def test_invalid_numbers_are_config_errors(capsys):
    assert run_cli(["cool", "--tau0", "0"]) == 2
    assert run_cli(["cool", "--kappa", "-1"]) == 2
    assert run_cli(["cool", "--t-max", "0"]) == 2
    assert run_cli(["cool", "--steps", "0"]) == 2
    assert run_cli(["cool", "--cutoff", "1"]) == 2
    assert run_cli(["cool", "--cutoff", "300"]) == 2
    assert run_cli(["cool", "--cutoff", "wide"]) == 2
    assert run_cli(["cool", "--tol", "nonsense=1"]) == 2
    assert run_cli(["cool", "--tol", "cross_method"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["cool", "--tau0", "nan"],
        ["cool", "--kappa", "inf"],
        ["cool", "--t-max", "inf"],
        ["two-mode", "--tau0", "nan"],
        # finite flags whose time grid or kappa * t-max overflows
        ["cool", "--t-max", "1e308", "--kappa", "10"],
        ["two-mode", "--t-max", "1e308"],
    ],
)
def test_non_finite_flags_are_config_errors(argv, capsys):
    # main returns instead of raising, so no traceback reaches the user
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value", [("tau0", "nan"), ("kappa", "inf"), ("t-max", "-inf")])
def test_non_finite_config_values_are_config_errors(tmp_path, capsys, key, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert run_cli(["cool", "--config", str(cfg)]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_empty_config_file_uses_defaults(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    out = tmp_path / "o.csv"
    assert run_cli(["cool", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert len(rows) == 9


def test_values_use_12_significant_digits(tmp_path):
    out = tmp_path / "o.csv"
    run_cli(["cool", "--tau0", "1", "--steps", "1", "--t-max", "1", "--out", str(out)])
    text = out.read_text()
    assert f"{TAU_AFTER_1_HALF:.12g}" == "0.576260710432"  # formatting contract
    line = text.strip().split("\n")[1]
    assert line.split(",")[1] == "1"


def test_cutoff_auto_equals_default_rule(tmp_path):
    out_auto = tmp_path / "a.csv"
    out_explicit = tmp_path / "b.csv"
    run_cli(["cool", "--tau0", "1", "--steps", "2", "--t-max", "1", "--cutoff", "auto", "--out", str(out_auto)])
    run_cli(["cool", "--tau0", "1", "--steps", "2", "--t-max", "1", "--cutoff", "33", "--out", str(out_explicit)])
    assert out_auto.read_bytes() == out_explicit.read_bytes()


def test_two_mode_runs_uncapped_at_automatic_cutoff(tmp_path):
    from thermofock import fock, states

    assert fock.default_cutoff(states.ThermoParams.from_tau(3.0).theta) == 97
    out = tmp_path / "hot.csv"
    assert run_cli(["two-mode", "--tau0", "3", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert len(rows) == 9
    for row in rows:
        assert row[1] < 1e-10
        assert abs(row[2] - row[3]) < 1e-7


def test_cool_long_time_stays_finite(tmp_path):
    out = tmp_path / "long.csv"
    assert run_cli(["cool", "--t-max", "400", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    taus = [r[1] for r in rows]
    assert all(math.isfinite(t) and t > 0 for t in taus)
    assert all(a > b for a, b in zip(taus, taus[1:]))
    # 1/tau' = 2 kappa t + 1/tau0 + log1p(q expm1(-2 kappa t)) at kappa t = 400
    assert taus[-1] == pytest.approx(1.0 / (801.0 + math.log1p(-math.exp(-1.0))), rel=1e-12)


@pytest.mark.parametrize("tau0, code", [("1e300", 3), ("0.001", 0)])
def test_cool_extreme_temperatures_exit_cleanly(tau0, code, capsys):
    assert run_cli(["cool", "--tau0", tau0]) == code
    captured = capsys.readouterr()
    if code == 3:
        assert captured.err.startswith("numerical failure: ")
        assert captured.err.count("\n") == 1
    else:
        assert captured.err == ""
        rows = [[float(x) for x in line.split(",")] for line in captured.out.strip().split("\n")[1:]]
        assert all(math.isfinite(x) for row in rows for x in row)


@pytest.mark.parametrize(
    "argv",
    [
        ["--tau0", "1e300", "--cutoff", "16"],
        ["--tau0", "20"],
        ["--tau0", "20", "--cutoff", "16"],
        ["--tau0", "20", "--cutoff", "16", "--method", "lindblad", "--steps", "1", "--t-max", "0.01"],
    ],
    ids=["hot-cutoff-16", "clamped-128", "cutoff-16", "lindblad-cutoff-16"],
)
def test_cool_refuses_a_truncated_thermal_tail(argv, capsys):
    # q^N above the deficit tolerance would bias the fitted temperature
    assert run_cli(["cool", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: thermal tail weight ")
    assert captured.err.count("\n") == 1


def test_cool_deficit_tolerance_admits_a_truncated_tail(capsys):
    assert run_cli(["cool", "--tau0", "20", "--cutoff", "16", "--tol", "deficit=1"]) == 0
    rows = [[float(x) for x in line.split(",")] for line in capsys.readouterr().out.strip().split("\n")[1:]]
    assert len(rows) == 9
    assert all(math.isfinite(x) for row in rows for x in row)


def test_cool_at_an_overflowing_kappa_t_writes_no_warnings():
    # kappa t = 1e307 would overflow e^(-kappa t j) in the weight table; a
    # fresh interpreter shows numpy's RuntimeWarnings, which pytest hides
    done = run_python("-m", "thermofock", "cool", "--t-max", "1e307", "--steps", "1")
    assert done.returncode == 0
    assert done.stderr == ""
    assert done.stdout.strip().split("\n")[-1].startswith("1e+307,")


def test_cool_lindblad_at_subnormal_times_exits_cleanly(capsys):
    # the default RK4 step t / 100 underflows to 0 at the first grid time
    assert run_cli(["cool", "--method", "lindblad", "--t-max", "1e-321"]) == 0
    assert capsys.readouterr().err == ""
