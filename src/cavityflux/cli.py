"""Command-line front end.

Subcommands: dynamics, mcwf, measure, boundary, spectrum, classify,
sweep, figures.  Physics flags are in units of gamma; --gamma rescales
on input so outputs come out in absolute units.  Each subcommand takes
--config JSON with the same keys as its flags; explicit flags win.

Exit codes: 0 success, 1 numerical/detection failure (NoSignal,
EmptyRegion, GridMismatch, failed sweep cells, --strict), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .dynamics import (DEFAULT_DT, DEFAULT_T_MAX, ModelParams,
                       amplitude_series, photon_flux_analytic)
from .nonmarkov import (BOUNDARY_DT, BOUNDARY_T_MAX, BOUNDARY_TOL_V,
                        markovian_boundary, nm_measure)
from .spectrum import (DEFAULT_MIN_PROMINENCE, EmptyRegion, NoSignal,
                       classify, detrend, dft, dominant_peak,
                       threshold_frequency)
from .sweep import SweepConfig, figure_datasets, run_sweep
from .trajectories import (DEFAULT_BIN_WIDTH, GridMismatch,
                           analytic_flux_at_bins, estimate_flux,
                           flux_residual_stats, sample_jump_times)


class CliError(ValueError):
    """Invalid input; reported with usage text and exit code 2."""


def _load_config(path) -> dict:
    if not path:
        return {}
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise CliError(f"config {path} must hold a JSON object")
    return data


def _merge(args, config: dict, key: str, default):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _build_params(args, config: dict):
    """ModelParams + dt from flags/config; flags are in units of gamma."""
    for key in ("v", "delta"):
        if _merge(args, config, key, None) is None:
            raise CliError(f"missing required --{key}")
    gamma = float(_merge(args, config, "gamma", 1.0))
    if not gamma > 0:
        raise CliError(f"--gamma must be > 0, got {gamma}")
    c0 = complex(float(_merge(args, config, "c0_re", 1.0)),
                 float(_merge(args, config, "c0_im", 0.0)))
    try:
        params = ModelParams(
            v=float(_merge(args, config, "v", None)) * gamma,
            delta=float(_merge(args, config, "delta", None)) * gamma,
            gamma=gamma, c0_init=c0,
            t_max=float(_merge(args, config, "t_max", DEFAULT_T_MAX)) / gamma)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    dt = float(_merge(args, config, "dt", DEFAULT_DT)) / gamma
    return params, dt


def _add_param_flags(sub, c0: bool = False):
    sub.add_argument("--v", type=float, help="coupling V (units of gamma)")
    sub.add_argument("--delta", type=float,
                     help="detuning delta (units of gamma)")
    sub.add_argument("--gamma", type=float, help="decay rate (default 1)")
    sub.add_argument("--t-max", type=float, dest="t_max",
                     help=f"horizon T (default {DEFAULT_T_MAX:g})")
    sub.add_argument("--dt", type=float, help=f"step (default {DEFAULT_DT:g})")
    if c0:
        sub.add_argument("--c0-re", type=float, dest="c0_re",
                         help="Re c(0) (default 1)")
        sub.add_argument("--c0-im", type=float, dest="c0_im",
                         help="Im c(0) (default 0)")
    sub.add_argument("--config", help="JSON file with flag defaults")


def cmd_dynamics(args, parser) -> int:
    config = _load_config(args.config)
    params, dt = _build_params(args, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    series = amplitude_series(params, dt)
    series.to_csv(out / "amplitudes.csv")
    np.savetxt(out / "population.csv",
               np.column_stack([series.times, series.population()]),
               fmt="%.17g", delimiter=",", header="t,population", comments="")
    photon_flux_analytic(params, dt).to_csv(out / "flux.csv")

    if complex(params.c0_init) == 1.0 + 0.0j:
        result = nm_measure(params, dt)
        tag = "non-Markovian" if result.n_value > 1e-10 else "Markovian"
        print(f"N = {result.n_value:.6g} ({tag}), "
              f"{len(result.revival_intervals)} revival interval(s)")
    print(f"wrote amplitudes.csv, population.csv, flux.csv to {out}")
    return 0


def cmd_mcwf(args, parser) -> int:
    config = _load_config(args.config)
    params, dt = _build_params(args, config)
    n_traj = int(_merge(args, config, "n_traj", 0))
    if n_traj < 1:
        raise CliError(f"--n-traj must be >= 1, got {n_traj}")
    seed = _merge(args, config, "seed", None)
    if seed is None:
        print("warning: --seed not given, defaulting to 0", file=sys.stderr)
        seed = 0
    bin_width = float(_merge(args, config, "bin", DEFAULT_BIN_WIDTH)) / params.gamma

    record = sample_jump_times(params, n_traj, int(seed), dt)
    estimate = estimate_flux(params, n_traj, bin_width, record=record)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    record.to_csv(out / "jumps.csv")
    estimate.to_csv(out / "flux_estimate.csv")
    record.write_manifest(out / "manifest.json", bin_width=bin_width)

    stats = flux_residual_stats(estimate, analytic_flux_at_bins(params, estimate))
    print(f"jumps: {record.n_jumps}/{n_traj}; residuals vs analytic: "
          f"{stats.summary()}")
    print(f"wrote jumps.csv, flux_estimate.csv, manifest.json to {out}")
    return 0


def cmd_measure(args, parser) -> int:
    config = _load_config(args.config)
    params, dt = _build_params(args, config)
    eps_n = float(_merge(args, config, "eps_n", 1e-10))
    result = nm_measure(params, dt)
    print(json.dumps({
        "n_value": result.n_value,
        "revival_intervals": [[a, b] for a, b in result.revival_intervals],
        "is_nonmarkovian": bool(result.n_value > eps_n),
        "t_max": result.t_max, "dt": result.dt}, indent=2))
    return 0


def cmd_boundary(args, parser) -> int:
    config = _load_config(args.config)
    gamma = float(_merge(args, config, "gamma", 1.0))
    deltas = np.linspace(float(_merge(args, config, "delta_min", 0.0)),
                         float(_merge(args, config, "delta_max", 2.0)),
                         int(_merge(args, config, "delta_count", 41))) * gamma
    curve = markovian_boundary(
        deltas,
        v_search=(float(_merge(args, config, "v_lo", 0.05)) * gamma,
                  float(_merge(args, config, "v_hi", 1.2)) * gamma),
        tol_v=float(_merge(args, config, "tol", BOUNDARY_TOL_V)) * gamma,
        gamma=gamma,
        t_max=float(_merge(args, config, "t_max", BOUNDARY_T_MAX)) / gamma,
        dt=float(_merge(args, config, "dt", BOUNDARY_DT)) / gamma,
        workers=args.workers)
    curve.to_csv(args.out)
    for delta, kind in curve.unbracketed:
        print(f"unbracketed at delta={delta:g}: {kind}")
    print(f"wrote {args.out} ({curve.deltas.size} detunings, "
          f"{len(curve.unbracketed)} unbracketed)")
    return 0


def cmd_spectrum(args, parser) -> int:
    config = _load_config(args.config)
    params, dt = _build_params(args, config)
    spec = dft(detrend(photon_flux_analytic(params, dt)), dt)
    spec.to_csv(args.out)
    try:
        peak = dominant_peak(spec)
        print(f"omega_peak = {peak.omega_peak:.6g}, "
              f"prominence = {peak.prominence:.6g}")
    except NoSignal:
        print("no signal: flux carries no detrended power")
    print(f"wrote {args.out}")
    return 0


def cmd_classify(args, parser) -> int:
    config = _load_config(args.config)
    params, dt = _build_params(args, config)
    omega_threshold = _merge(args, config, "omega_threshold", None)
    if omega_threshold is None and not args.auto_threshold:
        raise CliError("either --omega-threshold or --auto-threshold required")
    if omega_threshold is None:
        gamma = params.gamma
        deltas = np.linspace(0.0, 2.0 * gamma,
                             int(_merge(args, config, "boundary_points", 41)))
        boundary = markovian_boundary(
            deltas, v_search=(0.05 * gamma, 1.2 * gamma),
            tol_v=BOUNDARY_TOL_V * gamma, gamma=gamma,
            t_max=BOUNDARY_T_MAX / gamma, dt=BOUNDARY_DT / gamma)
        omega_threshold = threshold_frequency(boundary).omega_m
    verdict = classify(params, float(omega_threshold),
                       min_prominence=float(_merge(args, config,
                                                   "min_prominence",
                                                   DEFAULT_MIN_PROMINENCE)),
                       ground_truth=bool(args.ground_truth), dt=dt)
    print(verdict.to_json())
    if args.strict and verdict.note == "zero flux":
        return 1
    return 0


def cmd_sweep(args, parser) -> int:
    with open(args.config_path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise CliError(f"sweep config {args.config_path} must be a JSON object")
    out_dir = args.out or data.pop("out_dir", None) or "sweep_out"
    data.pop("out_dir", None)
    try:
        config = SweepConfig(**data)
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid sweep config: {exc}") from exc
    region_map = run_sweep(config, out_dir=out_dir)
    n_cells = region_map.deltas.size * region_map.vs.size
    print(f"swept {n_cells} cells into {out_dir} "
          f"(omega_threshold = {region_map.omega_threshold:.6g}, "
          f"{len(region_map.errors)} errors)")
    if not region_map.all_ok:
        for delta, v, msg in region_map.errors:
            print(f"cell ({delta:g}, {v:g}) failed: {msg}", file=sys.stderr)
        return 1
    return 0


def cmd_figures(args, parser) -> int:
    paths = figure_datasets(args.figure_id, args.out)
    print(f"wrote {len(paths)} files to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavityflux",
        description="Atom-mode dynamics, monitored emission, and spectral "
                    "non-Markovianity detection.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("dynamics",
                        help="closed-form amplitudes, population and flux")
    _add_param_flags(p, c0=True)
    p.add_argument("--out", default="dynamics_out", help="output directory")
    p.set_defaults(func=cmd_dynamics)

    p = subs.add_parser("mcwf", help="trajectory ensemble and binned flux")
    _add_param_flags(p, c0=True)
    p.add_argument("--n-traj", type=int, dest="n_traj",
                   help="number of trajectories (>= 1)")
    p.add_argument("--seed", type=int, help="master seed (default 0, warns)")
    p.add_argument("--bin", type=float,
                   help=f"bin width (default {DEFAULT_BIN_WIDTH:g})")
    p.add_argument("--out", default="mcwf_out", help="output directory")
    p.set_defaults(func=cmd_mcwf)

    p = subs.add_parser("measure", help="non-Markovianity measure")
    _add_param_flags(p)
    p.add_argument("--eps-n", type=float, dest="eps_n",
                   help="measure threshold (default 1e-10)")
    p.set_defaults(func=cmd_measure)

    p = subs.add_parser("boundary", help="critical coupling per detuning")
    p.add_argument("--delta-min", type=float, dest="delta_min")
    p.add_argument("--delta-max", type=float, dest="delta_max")
    p.add_argument("--delta-count", type=int, dest="delta_count")
    p.add_argument("--v-lo", type=float, dest="v_lo")
    p.add_argument("--v-hi", type=float, dest="v_hi")
    p.add_argument("--tol", type=float, help="bisection tolerance on V")
    p.add_argument("--t-max", type=float, dest="t_max")
    p.add_argument("--dt", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--workers", type=int)
    p.add_argument("--config", help="JSON file with flag defaults")
    p.add_argument("--out", default="boundary.csv", help="output CSV")
    p.set_defaults(func=cmd_boundary)

    p = subs.add_parser("spectrum", help="flux power spectrum")
    _add_param_flags(p)
    p.add_argument("--out", default="spectrum.csv", help="output CSV")
    p.set_defaults(func=cmd_spectrum)

    p = subs.add_parser("classify", help="spectral verdict for one point")
    _add_param_flags(p)
    p.add_argument("--omega-threshold", type=float, dest="omega_threshold")
    p.add_argument("--auto-threshold", action="store_true",
                   dest="auto_threshold",
                   help="compute the threshold from the boundary")
    p.add_argument("--boundary-points", type=int, dest="boundary_points",
                   help="detunings for --auto-threshold (default 41)")
    p.add_argument("--min-prominence", type=float, dest="min_prominence")
    p.add_argument("--ground-truth", action="store_true", dest="ground_truth",
                   help="also evaluate the measure to refine the label")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when the flux carries no signal")
    p.set_defaults(func=cmd_classify)

    p = subs.add_parser("sweep", help="grid sweep from a JSON config")
    p.add_argument("config_path", help="SweepConfig JSON file")
    p.add_argument("--out", help="output directory (overrides config)")
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("figures", help="export reference figure datasets")
    p.add_argument("figure_id", type=int, help="figure id in 1..4")
    p.add_argument("--out", default="figures_out", help="output directory")
    p.set_defaults(func=cmd_figures)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (NoSignal, EmptyRegion, GridMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)    # numerical failure
        return 1
    except (CliError, ValueError, OSError, json.JSONDecodeError) as exc:
        parser.error(str(exc))       # prints usage, exits 2
    except Exception as exc:         # numerical failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
