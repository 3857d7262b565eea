"""Command-line front end: cooling curves, two-mode demonstrations, verification.

Subcommands:

  cool      damp a thermal state over a time grid; CSV columns
            kappa_t,tau_closed,tau_numeric,nbar,trace_error
  two-mode  damp the system half of a thermal vacuum; CSV columns
            kappa_t,trace_dist_analytic_vs_kraus,sys_tau_numeric,
            sys_tau_closed,tilde_nbar,purity_total
  verify    run named invariant checks, one PASS/FAIL line each

Values are written with 12 significant digits and `\n` newlines, so repeated
runs with the same configuration produce byte-identical files.  A config
file (`--config`) holds `key = value` lines with keys matching flag names;
explicit flags win over file values, unknown keys are rejected.  Exit codes:
0 success, 2 configuration error (including a time grid or damping exponent
kappa * t-max that overflows), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field

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

CROSS_METHOD_TOL = 1e-5
DEFICIT_TOL = 1e-6

_CURVE_TOL_NAMES = {"cross_method", "deficit"}


class ConfigError(ValueError):
    """Invalid flag, config-file entry, or combination thereof."""


@dataclass
class RunConfig:
    """Merged configuration for one subcommand invocation."""

    command: str
    tau0: float = 1.0
    kappa: float = 1.0
    t_max: float = 2.0
    steps: int = 8
    cutoff: int | None = None
    method: str = "kraus"
    out: str = "-"
    svg: str | None = None
    suite: str = "all"
    tolerances: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

_FLAG_KEYS = {
    "cool": ("tau0", "kappa", "t-max", "steps", "cutoff", "method", "out", "svg", "tol"),
    "two-mode": ("tau0", "kappa", "t-max", "steps", "cutoff", "method", "out", "svg", "tol"),
    "verify": ("suite", "cutoff", "tol"),
}


def load_config_file(path: str, command: str) -> dict[str, str]:
    """Parse a line-oriented `key = value` file; `#` starts a comment."""
    known = _FLAG_KEYS[command]
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} for command {command}")
        values[key] = value
    return values


def _parse_tol_items(items: list[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    for item in items:
        if "=" not in item:
            raise ConfigError(f"--tol expects name=value, got {item!r}")
        name, _, value = item.partition("=")
        name = name.strip()
        try:
            out[name] = float(value)
        except ValueError as exc:
            raise ConfigError(f"--tol {name}: {value!r} is not a number") from exc
    return out


def _pick(flag_value, file_values: dict[str, str], key: str, convert, default):
    if flag_value is not None:
        return flag_value
    if key in file_values:
        try:
            return convert(file_values[key])
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
    return default


def _convert_cutoff(text: str) -> int | None:
    if text == "auto":
        return None
    try:
        value = int(text)
    except ValueError as exc:
        raise ConfigError(f"cutoff must be an integer or `auto`, got {text!r}") from exc
    return value


def build_config(args: argparse.Namespace) -> RunConfig:
    command = args.command
    file_values = load_config_file(args.config, command) if args.config else {}

    tol_items: list[str] = list(args.tol or [])
    if "tol" in file_values:
        tol_items = [p for p in file_values["tol"].split(",") if p.strip()] + tol_items
    tolerances = _parse_tol_items(tol_items)

    cfg = RunConfig(command=command, tolerances=tolerances)
    cfg.cutoff = _pick(
        _convert_cutoff(args.cutoff) if args.cutoff is not None else None,
        file_values,
        "cutoff",
        _convert_cutoff,
        cfg.cutoff,
    )
    if cfg.cutoff is not None and not 2 <= cfg.cutoff <= 128:
        raise ConfigError(f"cutoff must lie in [2, 128], got {cfg.cutoff}")

    if command == "verify":
        cfg.suite = _pick(args.suite, file_values, "suite", str, cfg.suite)
        if cfg.suite not in ("all",) + verify.SUITES:
            raise ConfigError(
                f"suite must be one of all, {', '.join(verify.SUITES)}; got {cfg.suite!r}"
            )
        return cfg

    cfg.tau0 = _pick(args.tau0, file_values, "tau0", float, cfg.tau0)
    cfg.kappa = _pick(args.kappa, file_values, "kappa", float, cfg.kappa)
    cfg.t_max = _pick(args.t_max, file_values, "t-max", float, cfg.t_max)
    cfg.steps = _pick(args.steps, file_values, "steps", int, cfg.steps)
    cfg.method = _pick(args.method, file_values, "method", str, cfg.method)
    cfg.out = _pick(args.out, file_values, "out", str, cfg.out)
    cfg.svg = _pick(args.svg, file_values, "svg", str, cfg.svg)

    for name, value in (("tau0", cfg.tau0), ("kappa", cfg.kappa), ("t-max", cfg.t_max)):
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    if cfg.tau0 <= 0:
        raise ConfigError(f"tau0 must be > 0, got {cfg.tau0}")
    if cfg.kappa <= 0:
        raise ConfigError(f"kappa must be > 0, got {cfg.kappa}")
    if cfg.t_max <= 0:
        raise ConfigError(f"t-max must be > 0 so the time grid strictly increases, got {cfg.t_max}")
    if cfg.steps < 1:
        raise ConfigError(f"steps must be >= 1, got {cfg.steps}")
    # the time grid is t_max * i / steps and the damping exponent kappa * t
    products = (("t-max * steps", cfg.t_max * cfg.steps), ("kappa * t-max", cfg.kappa * cfg.t_max))
    for name, value in products:
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    if cfg.method not in ("kraus", "lindblad", "both"):
        raise ConfigError(f"method must be kraus, lindblad or both, got {cfg.method!r}")
    if command == "two-mode":
        if cfg.method != "kraus":
            raise ConfigError("two-mode evolves by the operator sum; only method=kraus is supported")
    unknown_tols = sorted(set(tolerances) - _CURVE_TOL_NAMES)
    if unknown_tols:
        raise ConfigError(
            f"unknown tolerance name(s) for {command}: {', '.join(unknown_tols)} "
            f"(known: {', '.join(sorted(_CURVE_TOL_NAMES))})"
        )
    return cfg


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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


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


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_cool(cfg: RunConfig) -> int:
    times = [cfg.t_max * i / cfg.steps for i in range(cfg.steps + 1)]
    primary = "kraus" if cfg.method == "both" else cfg.method
    limits = {"cutoff": cfg.cutoff, "deficit_tol": cfg.tolerances.get("deficit", DEFICIT_TOL)}
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

    rows = [
        (p.kappa_t, p.tau_closed, p.tau_numeric, p.nbar, p.trace_error)
        for p in curve
    ]
    _write_text(cfg.out, format_csv(COOL_HEADER, rows))
    if cfg.svg:
        xs = [p.kappa_t for p in curve]
        _write_text(
            cfg.svg,
            svg_line_plot(
                xs,
                [p.tau_closed for p in curve],
                [p.tau_numeric for p in curve],
                "kappa * t",
                "tau",
                f"cooling of a thermal mode, tau0 = {cfg.tau0:g}",
            ),
        )
    return 0


def cmd_two_mode(cfg: RunConfig) -> int:
    params = states.ThermoParams.from_tau(cfg.tau0)
    cutoff = cfg.cutoff
    if cutoff is None:
        cutoff = fock.default_cutoff(params.theta)
    layout = fock.ModeLayout(cutoff).doubled()
    deficit_tol = cfg.tolerances.get("deficit", DEFICIT_TOL)

    psi = states.thermal_vacuum(params, layout)
    rho0 = fock.outer(psi)
    number_single = fock.number(layout.single())

    rows = []
    svg_x, svg_line, svg_marks = [], [], []
    times = [cfg.t_max * i / cfg.steps for i in range(cfg.steps + 1)]
    for t in times:
        kappa_t = cfg.kappa * t
        try:
            analytic = states.evolved_two_mode_state(
                states.EvolvedTwoModeSpec(params.theta, kappa_t),
                layout,
                deficit_tol=deficit_tol,
            )
            evolved = channel.apply_kraus(rho0, kappa_t)
            dist = fock.trace_distance(analytic, evolved)
            sys_side = fock.partial_trace(evolved, over=fock.TILDE)
            tilde_side = fock.partial_trace(evolved, over=fock.SYSTEM)
            sys_tau_numeric = thermo.effective_temperature(sys_side)
            tilde_nbar = fock.expectation(tilde_side, number_single).real
            total_purity = fock.purity(evolved)
        except (thermo.NotChaoticError, states.TruncationError, channel.IntegrationError, fock.StateError) as exc:
            raise thermo.CoolingCurveError(t, kappa_t, exc) from exc
        sys_tau_closed = thermo.tau_after(cfg.tau0, kappa_t)
        rows.append((kappa_t, dist, sys_tau_numeric, sys_tau_closed, tilde_nbar, total_purity))
        svg_x.append(kappa_t)
        svg_line.append(sys_tau_closed)
        svg_marks.append(sys_tau_numeric)

    _write_text(cfg.out, format_csv(TWO_MODE_HEADER, rows))
    if cfg.svg:
        _write_text(
            cfg.svg,
            svg_line_plot(
                svg_x,
                svg_line,
                svg_marks,
                "kappa * t",
                "system tau",
                f"damped thermal vacuum, tau0 = {cfg.tau0:g}",
            ),
        )
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    checks = verify.select_checks(cfg.suite)
    known = {c.name for c in checks}
    unknown = sorted(set(cfg.tolerances) - known)
    if unknown:
        raise ConfigError(
            f"tolerance override for check(s) not in suite {cfg.suite!r}: {', '.join(unknown)}"
        )
    results = verify.run_checks(cfg.suite, cutoff=cfg.cutoff, tol_overrides=cfg.tolerances)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name:<34s} {res.observed:13.6e} {res.tol:13.6e}")
    return 0 if all(res.passed for res in results) else 3


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermofock",
        description="Amplitude damping of thermal bosonic states on truncated Fock spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, curve: bool) -> None:
        p.add_argument("--cutoff", help="Fock cutoff per mode, integer in [2, 128] or `auto`")
        p.add_argument("--config", help="line-oriented `key = value` file; flags override it")
        p.add_argument(
            "--tol",
            action="append",
            metavar="NAME=VALUE",
            help="named tolerance override; repeatable",
        )
        if curve:
            p.add_argument("--tau0", type=float, help="initial temperature (default 1)")
            p.add_argument("--kappa", type=float, help="damping rate (default 1)")
            p.add_argument("--t-max", type=float, help="largest time on the grid (default 2)")
            p.add_argument("--steps", type=int, help="number of grid intervals (default 8)")
            p.add_argument("--out", help="CSV output path, `-` for stdout (default)")
            p.add_argument("--svg", help="optional SVG plot path")

    cool = sub.add_parser("cool", help="damp a thermal state and tabulate the cooling law")
    add_common(cool, curve=True)
    cool.add_argument("--method", choices=["kraus", "lindblad", "both"], help="evolution route (default kraus)")

    two = sub.add_parser("two-mode", help="damp the system half of a thermal vacuum")
    add_common(two, curve=True)
    two.add_argument("--method", help="evolution route (kraus only)")

    ver = sub.add_parser("verify", help="run the invariant checks")
    add_common(ver, curve=False)
    ver.add_argument("--suite", help="all, fock, states, channel or thermo (default all)")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        if args.command == "cool":
            return cmd_cool(cfg)
        if args.command == "two-mode":
            return cmd_two_mode(cfg)
        return cmd_verify(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
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
