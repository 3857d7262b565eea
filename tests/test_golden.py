"""The CLI's outputs for a fixed set of commands, pinned under tests/golden/.

Each command reruns through `cli.main` in process.  Every CSV column is
compared byte for byte, except the columns that only measure round-off,
which may move by ROUNDOFF_ABS.  Verify lines keep their PASS/FAIL word,
check name and tolerance byte for byte; only the observed value may move
by ROUNDOFF_ABS.  SVG files are compared byte for byte.

A change that moves a golden value on purpose rewrites the files with
`PYTHONPATH=src python tests/test_golden.py` and lists each changed value,
with the reason, in CHANGES.md.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from thermofock import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

# Largest round-off move an accepted change has made to a pinned column
# (`trace_error` of `cool --tau0 3.9 --method lindblad --steps 16 --t-max
# 50`, when the RK4 steps became one power of the step matrix).  It must
# not be widened.
ROUNDOFF_ABS = 2.4e-14
ROUNDOFF_COLUMNS = {"trace_error", "trace_dist_analytic_vs_kraus"}

# golden name -> (argv, whether the command also writes an SVG)
CASES = {
    "cool": (["cool"], True),
    "cool_both": (["cool", "--method", "both"], False),
    "cool_lindblad_steps16": (["cool", "--method", "lindblad", "--steps", "16"], False),
    "cool_tau0_6_steps20": (["cool", "--tau0", "6", "--steps", "20"], False),
    "cool_tau0_3.9_lindblad_tmax50": (
        ["cool", "--tau0", "3.9", "--method", "lindblad", "--steps", "16", "--t-max", "50"],
        False,
    ),
    "two_mode": (["two-mode"], True),
    "two_mode_tau0_3": (["two-mode", "--tau0", "3"], False),
    "two_mode_cutoff128_tau0_3_steps16": (["two-mode", "--cutoff", "128", "--tau0", "3", "--steps", "16"], False),
    "verify_all": (["verify", "--suite", "all"], False),
    "verify_all_cutoff128": (["verify", "--suite", "all", "--cutoff", "128"], False),
}


def run(name, svg_path):
    """stdout of the case `name`, its SVG written to svg_path if it has one."""
    argv, has_svg = CASES[name]
    with redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv + (["--svg", str(svg_path)] if has_svg else []))
    assert code == 0
    return out.getvalue()


def compare_csv(got, want):
    got_lines, want_lines = got.split("\n"), want.split("\n")
    assert got_lines[0] == want_lines[0]
    assert len(got_lines) == len(want_lines)
    header = want_lines[0].split(",")
    for row, (got_line, want_line) in enumerate(zip(got_lines[1:], want_lines[1:]), start=1):
        got_cells, want_cells = got_line.split(","), want_line.split(",")
        assert len(got_cells) == len(want_cells), f"row {row}"
        for column, got_cell, want_cell in zip(header, got_cells, want_cells):
            if column in ROUNDOFF_COLUMNS:
                assert abs(float(got_cell) - float(want_cell)) <= ROUNDOFF_ABS, (row, column, got_cell, want_cell)
            else:
                assert got_cell == want_cell, (row, column)


def compare_verify(got, want):
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines)
    for got_line, want_line in zip(got_lines, want_lines):
        status, name, observed, tol = want_line.split()
        got_status, got_name, got_observed, got_tol = got_line.split()
        assert (got_status, got_name, got_tol) == (status, name, tol)
        assert abs(float(got_observed) - float(observed)) <= ROUNDOFF_ABS, (name, got_observed, observed)
        # the columns keep their widths
        assert len(got_line) == len(want_line), name


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    svg = tmp_path / "plot.svg"
    out = run(name, svg)
    want = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    if name.startswith("verify"):
        compare_verify(out, want)
    else:
        compare_csv(out, want)
    if CASES[name][1]:
        assert svg.read_bytes() == (GOLDEN / f"{name}.svg").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        text = run(case, GOLDEN / f"{case}.svg")
        (GOLDEN / f"{case}.txt").write_text(text, encoding="utf-8", newline="")
        print(f"wrote {case}")
