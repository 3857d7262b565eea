"""Command-line front end: cooling curves, two-mode demonstrations, verification.

Subcommands:

  cool      damp a thermal state over a time grid; CSV columns
            kappa_t,tau_closed,tau_numeric,nbar,trace_error
  two-mode  damp the system half of a thermal vacuum; CSV columns
            kappa_t,trace_dist_analytic_vs_kraus,sys_tau_numeric,
            sys_tau_closed,tilde_nbar,purity_total
  verify    run named invariant checks, one PASS/FAIL line each

Values are written with 12 significant digits and `\n` newlines, so repeated
runs with the same configuration produce byte-identical files.

A config file (`--config`) holds `key = value` lines, `#` starting a comment.
A key is a flag name without `--`, and `tol` takes a comma-separated list of
NAME=VALUE items.  The lines are read as flags placed before the command
line's own, so a flag overrides the file and its `--tol` items follow the
file's; unknown keys are rejected.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.  Every
configuration error, from a flag or a file, prints one `error:` line and
exits 2; a user value longer than ECHO_MAX characters is cut in the middle
there.  That includes a non-finite `--tol` value, a time grid or damping
exponent kappa * t-max that overflows, `steps` above LINDBLAD_STEP_BUDGET
for every method, a Lindblad grid above LINDBLAD_STEP_BUDGET RK4 steps, a
`cool` or `two-mode` grid whose work exceeds WORK_BUDGET, and an `--out` or
`--svg` path that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

from . import channel, fock, states, thermo, verify

COOL_HEADER = ["kappa_t", "tau_closed", "tau_numeric", "nbar", "trace_error"]
TWO_MODE_HEADER = [
    "kappa_t",
    "trace_dist_analytic_vs_kraus",
    "sys_tau_numeric",
    "sys_tau_closed",
    "tilde_nbar",
    "purity_total",
]

# longest stretch of one user value that an `error:` line repeats
ECHO_MAX = 60

CROSS_METHOD_TOL = 1e-5
# Most RK4 steps a `cool --method lindblad|both` grid may take, and most grid
# intervals any grid may have, since each grid point costs at least one kernel
# call; a larger kappa * t-max or steps is refused with exit 2.  The steps of
# one grid interval cost about log2(steps) batched products of chain-sized
# matrices, at most cutoff x cutoff; the worst admitted grid, 500 intervals of
# 100 steps at cutoff 128 (`cool --tau0 3.9 --method lindblad --steps 500
# --t-max 0.05`), takes about 2 s on 2 vCPUs.
LINDBLAD_STEP_BUDGET = 50_000
# Most work a `cool` or `two-mode` grid may take, in units of (steps + 1) grid
# points times max(cutoff, WORK_CUTOFF_FLOOR)^2; a larger grid is refused with
# exit 2.  On 2 vCPUs a grid point costs about 0.1 ms (`cool`) and 0.35 ms
# (`two-mode`) at cutoff 8 and 0.4 and 1.8 ms at 128, and a unit at most
# about 0.2 us (`two-mode` at cutoff 64, whose largest admitted grid,
# --steps 3905, runs in 3.2 s), so the largest admitted grid runs in about
# 3 s.
WORK_BUDGET = 16_000_000
WORK_CUTOFF_FLOOR = 64

# tolerance names each curve command reads; verify's are its suite's check names
_CURVE_TOL_NAMES = {"cool": {"cross_method", "deficit"}, "two-mode": {"deficit"}}


class ConfigError(ValueError):
    """Invalid flag, config-file entry, or combination thereof."""


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as ConfigError, which `main` turns into exit 2."""

    def error(self, message: str):
        raise ConfigError(message)


def _cutoff(text: str) -> int | None:
    if text == "auto":
        return None
    try:
        if 2 <= int(text) <= fock.CUTOFF_MAX:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected `auto` or an integer in [2, {fock.CUTOFF_MAX}], got {text!r}")


def _tolerance(text: str) -> tuple[str, float]:
    # a nan tolerance would turn its gate off, since every gate compares with >
    name, sep, value = text.partition("=")
    try:
        if sep and math.isfinite(float(value)):
            return name.strip(), float(value)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected name=value with a finite numeric value, got {text!r}")


def _shorten(message: str) -> str:
    """`message` on one line, each quoted span or unbroken run of more than
    ECHO_MAX characters cut in the middle; name lists stay whole."""

    def cut(match: re.Match) -> str:
        text = match.group()
        return text if len(text) <= ECHO_MAX else f"{text[:40]}...{text[-16:]}"

    return " ".join(re.sub(r"'[^']*'|\"[^\"]*\"|\S+", cut, message).splitlines())


def _config_flags(path: str, keys: set[str]) -> list[str]:
    """`key = value` lines as `--key=value` flags; `#` starts a comment."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    flags = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {raw.strip()!r}")
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} (known: {', '.join(sorted(keys))})")
        items = [item for item in value.split(",") if item.strip()] if key == "tol" else [value]
        flags += [f"--{key}={item}" for item in items]
    return flags


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse argv; a `--config` file's lines go in as flags before argv's own."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    keys = {dest.replace("_", "-") for dest in vars(args)} - {"command", "config"}
    at = argv.index(args.command) + 1
    argv[at:at] = _config_flags(args.config, keys)
    try:
        return parser.parse_args(argv)
    except ConfigError as exc:
        # argv alone parsed, so the file's flags are at fault
        raise ConfigError(f"{args.config}: {exc}") from None


def build_config(args: argparse.Namespace) -> argparse.Namespace:
    """Check what spans several flags, add the `tolerances` dict, and
    resolve the automatic cutoff of `cool` and `two-mode`."""
    if args.command == "verify":
        known = {check.name for check in verify.select_checks(args.suite)}
    else:
        known = _CURVE_TOL_NAMES[args.command]
        for name, value in (("tau0", args.tau0), ("kappa", args.kappa), ("t-max", args.t_max)):
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if args.tau0 <= 0:
            raise ConfigError(f"tau0 must be > 0, got {args.tau0}")
        if args.kappa <= 0:
            raise ConfigError(f"kappa must be > 0, got {args.kappa}")
        if args.t_max <= 0:
            raise ConfigError(f"t-max must be > 0 so the time grid strictly increases, got {args.t_max}")
        if args.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {args.steps}")
        # refused before any product of steps is formed or the grid is built
        if args.steps > LINDBLAD_STEP_BUDGET:
            raise ConfigError(f"steps must not exceed the budget of {LINDBLAD_STEP_BUDGET} grid intervals")
        # the time grid is t_max * i / steps and the damping exponent kappa * t
        products = (("t-max * steps", args.t_max * args.steps), ("kappa * t-max", args.kappa * args.t_max))
        for name, value in products:
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if args.command == "cool" and args.method != "kraus":
            n_steps = channel.rk4_step_count(_time_grid(args), args.kappa)
            if n_steps > LINDBLAD_STEP_BUDGET:
                raise ConfigError(
                    f"method {args.method} needs at least {n_steps:.3g} RK4 steps on this grid, above the "
                    f"budget of {LINDBLAD_STEP_BUDGET}; lower kappa * t-max or steps"
                )
    args.tolerances = dict(args.tol)
    unknown = sorted(set(args.tolerances) - known)
    if unknown:
        raise ConfigError(
            f"unknown tolerance name(s) for {args.command}: {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known))})"
        )
    if args.command != "verify":
        args.cutoff = args.cutoff or fock.default_cutoff(thermo.theta_from_tau(args.tau0))
        work = (args.steps + 1) * max(args.cutoff, WORK_CUTOFF_FLOOR) ** 2
        if work > WORK_BUDGET:
            raise ConfigError(
                f"{args.command} needs {work} units of work on this grid, (steps + 1) * "
                f"max(cutoff, {WORK_CUTOFF_FLOOR})^2, above the budget of {WORK_BUDGET}; lower steps or the cutoff"
            )
    return args


def _time_grid(cfg: argparse.Namespace) -> list[float]:
    """The grid times t-max * i / steps, i = 0..steps."""
    return [cfg.t_max * i / cfg.steps for i in range(cfg.steps + 1)]


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def format_csv(header: list[str], rows: list[tuple]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{value:.12g}" for value in row))
    return "\n".join(lines) + "\n"


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def svg_line_plot(
    xs: list[float],
    line_ys: list[float],
    marker_ys: list[float],
    x_label: str,
    y_label: str,
    title: str,
) -> str:
    """Minimal deterministic SVG: solid polyline plus circular markers."""
    width, height = 640.0, 440.0
    left, right, top, bottom = 70.0, 20.0, 40.0, 50.0
    plot_w = width - left - right
    plot_h = height - top - bottom

    finite = [y for y in line_ys + marker_ys if not math.isnan(y)]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(finite), max(finite)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def px(x: float) -> float:
        return left + plot_w * (x - x_lo) / (x_hi - x_lo)

    def py(y: float) -> float:
        return top + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{width / 2:.2f}" y="22" text-anchor="middle" font-size="15">{title}</text>',
    ]
    axis = 'stroke="black" stroke-width="1"'
    parts.append(f'<line x1="{left:.2f}" y1="{top + plot_h:.2f}" x2="{left + plot_w:.2f}" y2="{top + plot_h:.2f}" {axis}/>')
    parts.append(f'<line x1="{left:.2f}" y1="{top:.2f}" x2="{left:.2f}" y2="{top + plot_h:.2f}" {axis}/>')
    n_ticks = 5
    for i in range(n_ticks + 1):
        fx = x_lo + (x_hi - x_lo) * i / n_ticks
        parts.append(f'<line x1="{px(fx):.2f}" y1="{top + plot_h:.2f}" x2="{px(fx):.2f}" y2="{top + plot_h + 5:.2f}" {axis}/>')
        parts.append(f'<text x="{px(fx):.2f}" y="{top + plot_h + 20:.2f}" text-anchor="middle" font-size="11">{fx:.4g}</text>')
        fy = y_lo + (y_hi - y_lo) * i / n_ticks
        parts.append(f'<line x1="{left - 5:.2f}" y1="{py(fy):.2f}" x2="{left:.2f}" y2="{py(fy):.2f}" {axis}/>')
        parts.append(f'<text x="{left - 9:.2f}" y="{py(fy) + 4:.2f}" text-anchor="end" font-size="11">{fy:.4g}</text>')
    parts.append(
        f'<text x="{left + plot_w / 2:.2f}" y="{height - 12:.2f}" text-anchor="middle" font-size="13">{x_label}</text>'
    )
    parts.append(
        f'<text x="18" y="{top + plot_h / 2:.2f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 18 {top + plot_h / 2:.2f})">{y_label}</text>'
    )
    points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, line_ys))
    parts.append(f'<polyline points="{points}" fill="none" stroke="#1f5fb4" stroke-width="2"/>')
    for x, y in zip(xs, marker_ys):
        if not math.isnan(y):
            parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3.5" fill="#c23b22"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write_curve(
    cfg: argparse.Namespace, header: list[str], rows: list[tuple], taus: tuple[str, str], y_label: str, title: str
) -> None:
    """A curve command's CSV, and its SVG when asked for: against kappa t (the
    first column), the closed-form tau as the line and the numeric tau as
    markers, the two columns `taus` names in that order."""
    _write_text(cfg.out, format_csv(header, rows))
    if cfg.svg:
        line, marks = ([row[header.index(name)] for row in rows] for name in taus)
        xs = [row[0] for row in rows]
        _write_text(cfg.svg, svg_line_plot(xs, line, marks, "kappa * t", y_label, f"{title}, tau0 = {cfg.tau0:g}"))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_cool(cfg: argparse.Namespace) -> int:
    times = _time_grid(cfg)
    primary = "kraus" if cfg.method == "both" else cfg.method
    limits = {"cutoff": cfg.cutoff, "deficit_tol": cfg.tolerances.get("deficit", fock.DEFICIT_TOL)}
    curve = thermo.cooling_curve(cfg.tau0, cfg.kappa, times, method=primary, **limits)

    if cfg.method == "both":
        other = thermo.cooling_curve(cfg.tau0, cfg.kappa, times, method="lindblad", **limits)
        gate = cfg.tolerances.get("cross_method", CROSS_METHOD_TOL)
        gaps = [abs(a.tau_numeric - b.tau_numeric) for a, b in zip(curve, other)]
        worst = max(gaps)
        if worst > gate:
            at = curve[gaps.index(worst)].kappa_t
            raise thermo.CoolingCurveError(
                at / cfg.kappa, at, RuntimeError(f"kraus and lindblad temperatures differ by {worst:.3e}")
            )

    rows = [(p.kappa_t, p.tau_closed, p.tau_numeric, p.nbar, p.trace_error) for p in curve]
    _write_curve(cfg, COOL_HEADER, rows, ("tau_closed", "tau_numeric"), "tau", "cooling of a thermal mode")
    return 0


def cmd_two_mode(cfg: argparse.Namespace) -> int:
    params = states.ThermoParams(cfg.tau0)
    deficit_tol = cfg.tolerances.get("deficit", fock.DEFICIT_TOL)
    layout = fock.ModeLayout(states.truncation_cutoff(params, cfg.cutoff, deficit_tol)).doubled()
    rho0 = states.thermal_vacuum(params, layout)

    rows = []
    for t in _time_grid(cfg):
        kappa_t = cfg.kappa * t
        try:
            analytic = states.evolved_two_mode_state(params, kappa_t, layout)
            evolved = channel.apply_kraus(rho0, kappa_t)
            dist = fock.trace_distance(analytic, evolved)
            sys_side = fock.partial_trace(evolved, over=fock.TILDE)
            tilde_side = fock.partial_trace(evolved, over=fock.SYSTEM)
            sys_tau_numeric = thermo.effective_temperature(sys_side)
            tilde_nbar = fock.mean_occupation(tilde_side)
            total_purity = fock.purity(evolved)
        except (thermo.NotChaoticError, channel.IntegrationError, fock.StateError) as exc:
            raise thermo.CoolingCurveError(t, kappa_t, exc) from exc
        sys_tau_closed = thermo.tau_after(cfg.tau0, kappa_t)
        rows.append((kappa_t, dist, sys_tau_numeric, sys_tau_closed, tilde_nbar, total_purity))
    _write_curve(cfg, TWO_MODE_HEADER, rows, ("sys_tau_closed", "sys_tau_numeric"), "system tau", "damped thermal vacuum")
    return 0


def cmd_verify(cfg: argparse.Namespace) -> int:
    results = verify.run_checks(cfg.suite, cutoff=cfg.cutoff, tol_overrides=cfg.tolerances)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name:<34s} {res.observed:13.6e} {res.tol:13.6e}")
    return 0 if all(res.passed for res in results) else 3


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use; parsing
    leaves it unchanged, so every call reuses it."""
    parser = _Parser(
        prog="thermofock",
        description="Amplitude damping of thermal bosonic states on truncated Fock spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, curve: bool) -> None:
        p.add_argument(
            "--cutoff",
            type=_cutoff,
            default="auto",
            help=f"Fock cutoff per mode, `auto` or an integer in [2, {fock.CUTOFF_MAX}] (default %(default)s)",
        )
        p.add_argument("--config", help="`key = value` file, read as flags before the command line's")
        p.add_argument(
            "--tol",
            type=_tolerance,
            action="append",
            default=[],
            metavar="NAME=VALUE",
            help="named tolerance override; repeatable",
        )
        if curve:
            p.add_argument("--tau0", type=float, default=1.0, help="initial temperature (default %(default)s)")
            p.add_argument("--kappa", type=float, default=1.0, help="damping rate (default %(default)s)")
            p.add_argument("--t-max", type=float, default=2.0, help="largest time on the grid (default %(default)s)")
            p.add_argument(
                "--steps",
                type=int,
                default=8,
                help=f"number of grid intervals, at most {LINDBLAD_STEP_BUDGET} (default %(default)s)",
            )
            p.add_argument("--out", default="-", help="CSV output path, `-` for stdout (default %(default)s)")
            p.add_argument("--svg", help="optional SVG plot path")

    cool = sub.add_parser("cool", help="damp a thermal state and tabulate the cooling law")
    add_common(cool, curve=True)
    cool.add_argument(
        "--method",
        choices=("kraus", "lindblad", "both"),
        default="kraus",
        help="evolution route (default %(default)s)",
    )

    two = sub.add_parser("two-mode", help="damp the system half of a thermal vacuum")
    add_common(two, curve=True)

    ver = sub.add_parser("verify", help="run the invariant checks")
    add_common(ver, curve=False)
    ver.add_argument(
        "--suite",
        choices=("all",) + verify.SUITES,
        default="all",
        help="checks to run (default %(default)s)",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = build_config(parse_args(argv))
        if cfg.command == "cool":
            return cmd_cool(cfg)
        if cfg.command == "two-mode":
            return cmd_two_mode(cfg)
        return cmd_verify(cfg)
    except ConfigError as exc:
        print(f"error: {_shorten(str(exc))}", file=sys.stderr)
        return 2
    except (
        thermo.CoolingCurveError,
        thermo.NotChaoticError,
        channel.IntegrationError,
        fock.StateError,
        ArithmeticError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
