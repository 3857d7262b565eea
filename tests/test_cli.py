import io
import math
import os
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermofock import cli, states, thermo, verify

TAU_AFTER_1_HALF = 0.576260710432279098
NBAR_TAU1 = 0.581976706869326424


def run_cli(argv):
    return cli.main(argv)


def run_python(*args, timeout=120):
    """Run a fresh interpreter that imports this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout)


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


@pytest.mark.parametrize("command, flag", [("cool", "--out"), ("two-mode", "--svg")])
def test_unwritable_output_path_is_one_config_error_line(tmp_path, command, flag):
    path = tmp_path / "absent" / "x.out"
    proc = run_python("-m", "thermofock", command, "--steps", "1", flag, str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    # the path is echoed, cut in the middle when long
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: cannot write ")
    assert line.endswith(": No such file or directory")


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

    assert fock.default_cutoff(states.ThermoParams(3.0).theta) == 97
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


def test_two_mode_refuses_a_truncated_thermal_tail_before_building_a_state(monkeypatch, capsys):
    # the same rule and line as `cool`, decided once from q^N before the
    # thermal vacuum or any damped state exists
    def never(*args):
        raise AssertionError("a state was built")

    monkeypatch.setattr(states, "thermal_vacuum", never)
    monkeypatch.setattr(states, "evolved_two_mode_state", never)
    assert run_cli(["two-mode", "--cutoff", "8", "--tau0", "3", "--steps", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "numerical failure: thermal tail weight 6.948e-02 at cutoff 8 exceeds 1.000e-06; raise the cutoff\n"
    )


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


@pytest.mark.parametrize(
    "grid",
    [
        ["--kappa", "1e6", "--t-max", "1", "--steps", "1"],
        ["--kappa", "1e300", "--t-max", "1", "--steps", "1"],
        ["--kappa", "1e300", "--t-max", "1e6"],
    ],
    ids=["1e6", "1e300", "1e300-overflowing-total"],
)
def test_cool_lindblad_refuses_a_grid_above_the_step_budget(grid):
    # the default step 1e-3 / kappa would ask for 1e9 and 1e303 RK4 steps, and
    # 1.25e308 in each of 8 intervals, a total past the largest float; the run
    # must be refused up front, in a fresh interpreter within 2 s
    argv = ["cool", "--method", "lindblad", *grid]
    done = run_python("-m", "thermofock", *argv, timeout=2)
    assert done.returncode == 2
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "budget" in lines[0]


def test_step_budget_admits_a_grid_at_the_budget():
    # intervals of kappa t = 1 take 1000 steps each at the default step
    def config(t_max):
        argv = ["cool", "--method", "both", "--t-max", str(t_max), "--steps", str(t_max)]
        return cli.build_config(cli.build_parser().parse_args(argv))

    at_budget = cli.LINDBLAD_STEP_BUDGET // 1000
    assert config(at_budget).method == "both"
    with pytest.raises(cli.ConfigError, match="budget"):
        config(at_budget + 1)
    # a grid of more intervals than the budget is refused before it is built
    with pytest.raises(cli.ConfigError, match="budget"):
        cli.build_config(cli.build_parser().parse_args(["cool", "--method", "lindblad", "--steps", "10000000000"]))


def test_steps_above_the_budget_is_refused_for_every_method():
    # 10^300 intervals pass every product check, and a kraus run would then
    # build a list of 10^300 grid times; the bound comes before any of it
    argv = ["cool", "--steps", "1" + "0" * 300]
    with pytest.raises(cli.ConfigError, match="budget"):
        cli.build_config(cli.build_parser().parse_args(argv))


def test_two_mode_work_budget_admits_the_largest_grid_and_no_larger():
    def config(*flags):
        return cli.build_config(cli.build_parser().parse_args(["two-mode", *flags]))

    # a cutoff below the floor counts as the floor; tau0 = 3 has the automatic cutoff 97
    floor = cli.WORK_CUTOFF_FLOOR
    for cutoff_flags, size in ((["--cutoff", "128"], 128), (["--cutoff", "8"], floor), ([], 97)):
        largest = cli.WORK_BUDGET // size**2 - 1
        assert config(*cutoff_flags, "--tau0", "3", "--steps", str(largest)).steps == largest
        with pytest.raises(cli.ConfigError, match="budget"):
            config(*cutoff_flags, "--tau0", "3", "--steps", str(largest + 1))
    # 50001 points at cutoff 128 would run for about two minutes
    with pytest.raises(cli.ConfigError, match="budget"):
        config("--cutoff", "128", "--tau0", "3", "--steps", "50000")
    # the documented and smoke-tested commands stay admitted
    for flags in ([], ["--tau0", "1", "--steps", "6"], ["--tau0", "3", "--steps", "8"],
                  ["--cutoff", "128", "--tau0", "3", "--steps", "16"]):
        config(*flags)


def test_cool_work_budget_is_the_two_mode_one(capsys):
    def config(*flags):
        return cli.build_config(cli.build_parser().parse_args(["cool", *flags]))

    # tau0 = 6 runs at the clamped cutoff 128, resolved before the check
    largest = cli.WORK_BUDGET // 128**2 - 1
    assert config("--tau0", "6", "--steps", str(largest)).cutoff == 128
    with pytest.raises(cli.ConfigError, match="units of work"):
        config("--tau0", "6", "--steps", str(largest + 1))
    # 50001 points at cutoff 128 would run for about three minutes; the grid
    # is refused before any state is built
    assert run_cli(["cool", "--tau0", "6", "--steps", "50000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cool needs") and "budget" in err and err.count("\n") == 1
    # the documented and smoke-tested commands stay admitted
    for flags in ([], ["--method", "both"], ["--method", "both", "--steps", "2"],
                  ["--method", "lindblad", "--steps", "16"], ["--tau0", "6", "--method", "lindblad", "--steps", "16"]):
        config(*flags)


def test_steps_past_the_largest_float_is_config_error(capsys):
    # t-max * steps would raise OverflowError converting the int to float
    assert run_cli(["cool", "--steps", "1" + "0" * 400]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "budget" in err
    assert err.count("\n") == 1


def test_two_mode_rejects_a_tolerance_it_does_not_read(capsys):
    assert run_cli(["two-mode", "--tol", "cross_method=1"]) == 2
    assert "cross_method" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key, value, flags",
    [
        ("cool", "tau0", "1.5", ["--tau0", "1.5"]),
        ("cool", "kappa", "0.7", ["--kappa", "0.7"]),
        ("cool", "t-max", "1.25", ["--t-max", "1.25"]),
        ("cool", "steps", "3", ["--steps", "3"]),
        ("cool", "cutoff", "40", ["--cutoff", "40"]),
        ("cool", "method", "both", ["--method", "both"]),
        ("cool", "tol", "deficit=1e-7, cross_method=1e-4", ["--tol", "deficit=1e-7", "--tol", "cross_method=1e-4"]),
        ("two-mode", "tau0", "1.5", ["--tau0", "1.5"]),
        ("two-mode", "kappa", "0.7", ["--kappa", "0.7"]),
        ("two-mode", "t-max", "1.25", ["--t-max", "1.25"]),
        ("two-mode", "steps", "3", ["--steps", "3"]),
        ("two-mode", "cutoff", "20", ["--cutoff", "20"]),
        ("two-mode", "tol", "deficit=1e-7", ["--tol", "deficit=1e-7"]),
    ],
)
def test_config_line_and_flag_write_the_same_csv(tmp_path, command, key, value, flags):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    from_file, from_flag = tmp_path / "file.csv", tmp_path / "flag.csv"
    base = [command, "--steps", "2", "--cutoff", "24"] if key not in ("steps", "cutoff") else [command]
    assert run_cli(base + ["--config", str(cfg), "--out", str(from_file)]) == 0
    assert run_cli(base + flags + ["--out", str(from_flag)]) == 0
    assert from_file.read_bytes() == from_flag.read_bytes()


def test_flag_after_a_config_file_wins_and_tol_items_merge(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tau0 = 2\nmethod = lindblad\ntol = deficit=1, cross_method=1e-30\n")
    merged, explicit = tmp_path / "merged.csv", tmp_path / "explicit.csv"
    # the flag's cross_method comes after the file's and replaces it; the
    # file's 1e-30 would fail the cross-check
    argv = ["cool", "--config", str(cfg), "--tau0", "1", "--method", "both", "--steps", "2"]
    assert run_cli(argv + ["--tol", "cross_method=1e-5", "--out", str(merged)]) == 0
    assert run_cli(
        ["cool", "--tau0", "1", "--method", "both", "--steps", "2", "--tol", "deficit=1", "--out", str(explicit)]
    ) == 0
    assert merged.read_bytes() == explicit.read_bytes()
    # without the override the file's own tolerance holds
    assert run_cli(argv) == 3
    assert capsys.readouterr().err.startswith("numerical failure: ")


def test_successive_runs_in_one_process_share_no_flags(tmp_path, monkeypatch):
    # the parser is built once per process, so a run's config file and
    # --tol items must not reach the next run
    seen = []
    monkeypatch.setattr(cli, "cmd_cool", lambda cfg: seen.append(cfg) or 0)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tau0 = 2\nmethod = lindblad\ntol = cross_method=1e-3\n")
    assert run_cli(["cool", "--config", str(cfg), "--tol", "deficit=1"]) == 0
    assert run_cli(["cool"]) == 0
    first, second = seen
    assert (first.tau0, first.method) == (2.0, "lindblad")
    assert first.tolerances == {"cross_method": 1e-3, "deficit": 1.0}
    fresh = cli.build_config(cli.build_parser.__wrapped__().parse_args(["cool"]))
    assert vars(second) == vars(fresh)
    assert second.config is None and second.tol == [] and second.tolerances == {}
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize(
    "argv",
    [
        ["cool", "--tau0", "abc"],
        ["cool", "--bogus", "1"],
        [],
        ["two-mode", "--method", "kraus"],
        ["verify", "--suite", "everything"],
        "config",
    ],
    ids=["bad-float", "unknown-flag", "no-command", "two-mode-method", "bad-suite", "bad-config-value"],
)
def test_parse_errors_return_2_with_one_line(tmp_path, capsys, argv):
    if argv == "config":
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("tau0 = abc\n")
        argv = ["cool", "--config", str(cfg)]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["cool", "two-mode"])
def test_huge_tau0_is_a_numerical_failure_on_one_line(capsys, command):
    # 4 * tau0 overflows above about 4.5e307; theta must stay finite there
    assert run_cli([command, "--tau0", "1e308"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["cool", "two-mode"])
def test_long_damping_reads_the_temperature_of_a_subnormal_occupation(capsys, command):
    # at kappa t = 350 the fitted occupation is about 2e-313, whose reciprocal
    # overflows; the temperature must still be read off it, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli([command, "--tau0", "0.05", "--kappa", "700", "--t-max", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [[float(x) for x in line.split(",")] for line in captured.out.strip().split("\n")[1:]]
    # column 2 is the fitted temperature in both commands
    row = next(r for r in rows if r[0] == 350.0)
    assert row[2] == pytest.approx(thermo.tau_after(0.05, 350.0), abs=1e-7)
    assert row[2] > 0.0


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_non_finite_tolerance_is_config_error(tmp_path, capsys, value, source):
    # with nan every `observed > tol` gate is false, which switches the gate off
    if source == "flag":
        argv = ["two-mode", "--tau0", "3", "--cutoff", "8", "--tol", f"deficit={value}"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"tol = deficit={value}\n")
        argv = ["two-mode", "--tau0", "3", "--cutoff", "8", "--config", str(cfg)]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_negative_tolerance_stays_legal():
    # verify's signed-margin check can use a negative bound
    assert cli.parse_args(["verify", "--tol", "cooling_denominator_margin=-1e-3"]).tol == [
        ("cooling_denominator_margin", -1e-3)
    ]


@pytest.mark.parametrize(
    "argv, kept",
    [
        (["cool", "--steps", "1" + "0" * 5000], "invalid int value"),
        (["cool", "--method", "x" * 5000], "(choose from 'kraus', 'lindblad', 'both')"),
        (["cool", "--tol", "y" * 5000 + "=1"], "(known: cross_method, deficit)"),
        (["cool", "--tau0", "1 " * 2500], "invalid float value"),
    ],
    ids=["long-int", "long-choice", "long-tol-name", "long-spaced-value"],
)
def test_a_long_flag_value_is_cut_in_the_error_line(capsys, argv, kept):
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 200
    assert kept in err


_REALS = st.sampled_from(
    ["0", "-1", "5e-324", "1e-300", "0.05", "1", "3", "1e308", "nan", "inf", "-inf", "1" + "0" * 400, "abc"]
)
# accepted steps stay small: a grid point at cutoff 128 costs about 3 ms, and
# a `cool --method both` grid interval at least 100 RK4 steps
_STEPS = st.one_of(st.integers(1, 3).map(str), st.sampled_from(["0", "-2", "50001", "1" + "0" * 5000, "1.5"]))
_CUTOFFS = st.sampled_from(["auto", "1", "2", "8", "128", "129", "abc"])
_METHODS = st.sampled_from(["kraus", "lindblad", "both", "euler"])
_TOLS = st.sampled_from(
    ["deficit=1e-3", "deficit=nan", "deficit=inf", "deficit=-1", "deficit=5e-324", "cross_method=1e308", "deficit", "bogus=1"]
)


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["cool", "two-mode", "verify"]))
    flags = {"--cutoff": _CUTOFFS, "--tol": _TOLS}
    if command != "verify":
        flags.update({"--tau0": _REALS, "--kappa": _REALS, "--t-max": _REALS, "--steps": _STEPS})
    if command == "cool":
        flags["--method"] = _METHODS
    argv = [command]
    for flag, values in flags.items():
        value = draw(st.none() | values)
        if value is not None:
            argv.append(f"{flag}={value}")
    return argv


# the slowest accepted draw (two-mode or verify at cutoff 128) takes under a second
RUN_SECONDS_MAX = 3.0


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@example(argv=["cool", "--tau0=1e308"])
@example(argv=["two-mode", "--tau0=1e308"])
@example(argv=["two-mode", "--tau0=0.05", "--kappa=700", "--t-max=1"])
@example(argv=["two-mode", "--cutoff=128", "--tau0=3", "--steps=50000"])
@example(argv=["two-mode", "--tau0=1e308", "--steps=50000"])
@example(argv=["cool", "--tau0=6", "--steps=50000"])
@example(argv=["cool", "--steps=1" + "0" * 5000])
@given(argv=cli_argv())
def test_every_input_exits_0_2_or_3_with_at_most_one_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    assert code in (0, 2, 3)
    assert err.getvalue().count("\n") <= 1
    # no long user value is repeated whole; the known-name lists may be long
    assert all(len(word) <= cli.ECHO_MAX for word in err.getvalue().split())
    # a warning would be printed as further stderr lines outside the test
    assert [str(w.message) for w in caught] == []
    assert elapsed < RUN_SECONDS_MAX
