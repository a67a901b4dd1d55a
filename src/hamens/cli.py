"""Command-line front end: moments, simulate, rates, validate, scan.

Every command takes --config (a configuration file, see `config`) and --out;
validate alone also takes --seed and --samples, which override its [mc]
section (`SamplerConfig` checks the values either way).  Each command runs on
the `RunConfig` that `load_config` built, so a config that one command
refuses at load every command refuses.  Each emits CSV with a single header
row, '#'-prefixed comment lines, 17-significant-digit floats and '\\n' line
endings, so output is byte-stable for a fixed configuration.  Every number
has one route: rates and scan write the batched generator split
(`rate_trajectory`), and scan's summary is read from the per-value rates it
has just written, not from a closed form.
Exit codes: 0 success, 1 failed validation check, 2 configuration error, an
unwritable --out (OSError) or an error the library reports (a ValueError, such
as a pole or a bad table, a QuadratureError or an IntegrationError): one 'error:' line.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .angular import directional_moments_quadrature
from .config import ConfigError, load_config
from .dynmap import bloch_trajectory, purity_trajectory
from .generator import rate_trajectory
from .propagation import IntegrationError
from .quadrature import QuadratureError
from .validation import DEFAULT_ASYMMETRY, run_checks

_MOMENT_ROWS = ("first_x", "first_y", "first_z",
                "second_xx", "second_yy", "second_zz",
                "second_xy", "second_xz", "second_yz")
_RATE_COLUMNS = ("gamma_x", "gamma_y", "gamma_z", "gamma_xy", "omega_bar", "kossakowski_min")


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _rows(*columns):
    """One CSV row per index of the columns, every cell as _fmt writes it:
    one %-format per row, of plain Python numbers."""
    row = ",".join(["%.17g"] * len(columns))
    return [row % cells for cells in zip(*(np.asarray(c).tolist() for c in columns))]


def _write_lines(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _moment_values(m):
    return [m.first[0], m.first[1], m.first[2],
            m.second[0, 0], m.second[1, 1], m.second[2, 2],
            m.second[0, 1], m.second[0, 2], m.second[1, 2]]


def cmd_moments(cfg, out_path):
    fam = cfg.family
    tabulated = cfg.angular_kind == "tabulated"
    quad_m = fam.moments if tabulated else directional_moments_quadrature(fam.angular)
    analytic = [float("nan")] * 9 if tabulated else _moment_values(fam.moments)
    quad = _moment_values(quad_m)
    lines = ["moment,analytic,quadrature,abs_diff"]
    for name, a, q in zip(_MOMENT_ROWS, analytic, quad):
        lines.append(f"{name},{_fmt(a)},{_fmt(q)},{_fmt(abs(a - q))}")
    _write_lines(lines, out_path)
    return 0


def cmd_simulate(cfg, out_path):
    fam, rho0, grid = cfg.family, cfg.rho0, cfg.grid
    bloch = bloch_trajectory(fam, rho0, grid)
    pur = purity_trajectory(fam, rho0, grid)
    lines = ["t,wc_t,r_x,r_y,r_z,purity", *_rows(grid, cfg.omega_c * grid, *bloch.T, pur)]
    _write_lines(lines, out_path)
    return 0


def _rates_lines(cfg, fam, grid):
    traj = rate_trajectory(fam, grid)
    flags = np.zeros(grid.size, dtype=int)
    for pole in traj.poles:
        flags[int(np.argmin(np.abs(grid - pole)))] = 1
    lines = [",".join(["t", "wc_t", *_RATE_COLUMNS, "pole_flag"]),
             *_rows(grid, cfg.omega_c * grid, *(traj.rates[name] for name in _RATE_COLUMNS), flags)]
    if traj.poles:
        lines.append("# poles: " + " ".join(_fmt(p) for p in traj.poles))
    else:
        lines.append("# poles: none")
    return lines, traj


def cmd_rates(cfg, out_path):
    lines, _ = _rates_lines(cfg, cfg.family, cfg.grid)
    _write_lines(lines, out_path)
    return 0


def cmd_validate(cfg, out_path, sampler):
    if sampler.n_samples < 2:
        # one sample has no standard error to scale the MC check by
        raise ConfigError("validate needs at least 2 samples")
    asymmetry = DEFAULT_ASYMMETRY if cfg.asymmetry is None else cfg.asymmetry
    results = run_checks(cfg.rho0, sampler, omega_c=cfg.omega_c, asymmetry=asymmetry)
    lines = ["check,metric,threshold,pass"]
    for res in results:
        lines.append(f"{res.check},{_fmt(res.metric)},{_fmt(res.threshold)},{int(res.passed)}")
    _write_lines(lines, out_path)
    return 0 if all(res.passed for res in results) else 1


def cmd_scan(cfg, out_path):
    """One rates file per [scan] value a, named with the suffix _a{a:g}, and
    a summary row per value: a, the largest |gamma_xy| of that file over
    t > 0 (NaN rows, inside pole windows, skipped) and its pole count."""
    if cfg.angular_kind != "kneaded":
        raise ConfigError("[scan] over 'a' needs [angular] kind = kneaded")
    if not cfg.scan_values:
        raise ConfigError("[scan] values list is empty")
    # refuse, before any work, two values whose per-value files, named by {a:g}, coincide
    names = {}
    for a in cfg.scan_values:
        if f"{a:g}" in names:
            raise ConfigError(f"[scan] values {names[f'{a:g}']!r} and {a!r} give the same "
                              f"file name suffix _a{a:g}")
        names[f"{a:g}"] = a
    grid = cfg.grid
    summary = ["a,max_abs_gamma_xy,pole_count"]
    for a in cfg.scan_values:
        fam = cfg.build_family(asymmetry=a)
        lines, traj = _rates_lines(cfg, fam, grid)
        if out_path:
            stem, ext = os.path.splitext(out_path)
            _write_lines(lines, f"{stem}_a{a:g}{ext}")
        gxy = np.abs(traj.rates["gamma_xy"][1:])
        gxy = gxy[~np.isnan(gxy)]
        max_gxy = float(np.max(gxy)) if gxy.size else float("nan")
        summary.append(f"{_fmt(a)},{_fmt(max_gxy)},{len(traj.poles)}")
    _write_lines(summary, out_path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamens",
        description="Qubit decoherence under structurally disordered Hamiltonian ensembles")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
            ("moments", "directional moments: analytic vs quadrature"),
            ("simulate", "Bloch-vector and purity time series"),
            ("rates", "decay rates, level spacing, Kossakowski spectrum"),
            ("validate", "run the cross-validation suites"),
            ("scan", "sweep the lateral asymmetry and report poles")]:
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", required=True, help="path to the run configuration")
        cmd.add_argument("--out", default=None, help="output CSV path (default: stdout)")
        if name == "validate":  # the only command that draws Monte-Carlo samples
            cmd.add_argument("--seed", type=int, default=None, help="override [mc] seed")
            cmd.add_argument("--samples", type=int, default=None, help="override [mc] samples")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "moments":
            return cmd_moments(cfg, args.out)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out)
        if args.command == "rates":
            return cmd_rates(cfg, args.out)
        if args.command == "validate":
            flags = {"seed": args.seed, "n_samples": args.samples}
            return cmd_validate(cfg, args.out, dataclasses.replace(
                cfg.sampler, **{name: value for name, value in flags.items() if value is not None}))
        return cmd_scan(cfg, args.out)
    except (ConfigError, QuadratureError, IntegrationError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
