"""Command-line front end.

Subcommands: dynamics, mcwf, measure, boundary, spectrum, classify,
sweep, figures.  Each subcommand takes --config JSON with the same keys
as its flags; a flag wins over the config, which wins over the default.
Physics flags and config values are in units of gamma: parse_args
multiplies the frequencies by gamma and divides the times by gamma
once, so every command reads absolute values.

Exit codes: 0 success, 1 numerical/detection failure (EmptyRegion,
failed sweep cells, --strict), 2 usage error.  A flux with no signal is
a result, not a failure: spectrum prints "no signal" and classify
reports the note "zero flux", both with exit 0, unless classify
--strict turns that note into exit 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .dynamics import (DEFAULT_DT, DEFAULT_T_MAX, ModelParams, Unresolved,
                       amplitude_series, require_finite)
from .files import write_csv
from .nonmarkov import (BOUNDARY_DT, BOUNDARY_T_MAX, BOUNDARY_TOL_V,
                        BOUNDARY_V_SEARCH, EPS_N, markovian_boundary,
                        nm_measure)
from .spectrum import (DEFAULT_MIN_PROMINENCE, EmptyRegion,
                       analytic_spectrum, classify, threshold_frequency)
from .sweep import SweepConfig, figure_datasets, run_sweep
from .trajectories import (DEFAULT_BIN_WIDTH, analytic_flux_at_bins,
                           estimate_flux, flux_residual_stats,
                           sample_jump_times)

# flags in units of gamma: frequencies scale with gamma, times with 1/gamma
FREQUENCIES = ("v", "delta", "v_lo", "v_hi", "tol", "omega_threshold")
TIMES = ("t_max", "dt", "bin")


# the lower bound of each bounded number flag, and whether it is strict
BOUNDS = {"gamma": (0, True), "v": (0, False), "t_max": (0, True),
          "dt": (0, True), "bin": (0, True), "seed": (0, False),
          "tol": (0, True), "v_lo": (0, False), "delta_count": (1, False),
          "omega_threshold": (0, False), "boundary_points": (1, False),
          "n_traj": (1, False)}


def _load_config(path) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    return data


def parse_args(parser, argv=None) -> argparse.Namespace:
    """Flags over --config over defaults, then gamma units made absolute.

    Config values become the subcommand's defaults as strings, so the
    second parse types them as it types flags; a switch takes only a
    JSON true or false, and no other flag takes either.  Other keys are
    ignored, and a null value counts as not given.  Every float flag
    must be finite, each flag in BOUNDS that is given past its lower
    bound, and --v-hi past --v-lo, --bin within --t-max and --dt fine
    enough for --t-max, or it is a usage error in the units of the flags.
    """
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        config = {key: value
                  for key, value in _load_config(args.config).items()
                  if key in vars(args) and key not in ("command", "func")
                  and value is not None}
        for key, value in config.items():
            switch = isinstance(getattr(args, key), bool)   # a switch
            if isinstance(value, bool) != switch:
                raise ValueError(
                    f"config key {key} must {'' if switch else 'not '}be "
                    f"true or false, got {json.dumps(value)}")
            config[key] = value if switch else str(value)
        parser.commands[args.command].set_defaults(**config)
        args = parser.parse_args(argv)
    for key in ("v", "delta"):
        if hasattr(args, key) and getattr(args, key) is None:
            raise ValueError(f"missing required --{key}")
    for key, value in vars(args).items():
        if isinstance(value, float) or (key in BOUNDS and value is not None):
            require_finite(f"--{key.replace('_', '-')}", value,
                           *BOUNDS.get(key, ()))
    if hasattr(args, "v_hi"):
        require_finite("--v-hi", args.v_hi, args.v_lo, strict=True)
    if hasattr(args, "bin") and args.bin > args.t_max:
        raise ValueError(f"--bin must be <= --t-max = {args.t_max:g}, "
                         f"got {args.bin:g}")
    if hasattr(args, "dt") and args.t_max / args.dt <= 0.5:   # no grid step
        raise ValueError(f"--dt={args.dt:g} too coarse for "
                         f"--t-max={args.t_max:g}")
    if hasattr(args, "gamma"):
        for key in FREQUENCIES + TIMES:
            value = getattr(args, key, None)
            if value is not None:
                setattr(args, key, value * args.gamma if key in FREQUENCIES
                        else value / args.gamma)
    return args


def _params(args) -> ModelParams:
    c0 = complex(getattr(args, "c0_re", 1.0), getattr(args, "c0_im", 0.0))
    return ModelParams(v=args.v, delta=args.delta, gamma=args.gamma,
                       c0_init=c0, t_max=args.t_max)


def _add_unit_flags(sub, t_max: float, dt: float):
    sub.add_argument("--gamma", type=float, default=1.0,
                     help="decay rate, the unit of the other flags "
                          "(default 1)")
    sub.add_argument("--t-max", type=float, default=t_max,
                     help=f"horizon T (units of 1/gamma, default {t_max:g})")
    sub.add_argument("--dt", type=float, default=dt,
                     help=f"step (units of 1/gamma, default {dt:g})")
    sub.add_argument("--config", help="JSON file with flag defaults")


def _add_param_flags(sub, c0: bool = False):
    sub.add_argument("--v", type=float, help="coupling V (units of gamma)")
    sub.add_argument("--delta", type=float,
                     help="detuning delta (units of gamma)")
    if c0:
        sub.add_argument("--c0-re", type=float, default=1.0,
                         help="Re c(0) (default 1)")
        sub.add_argument("--c0-im", type=float, default=0.0,
                         help="Im c(0) (default 0)")
    _add_unit_flags(sub, DEFAULT_T_MAX, DEFAULT_DT)


def cmd_dynamics(args) -> int:
    params = _params(args)
    # the measure first, so a grid it refuses leaves no files behind
    result = (nm_measure(params, args.dt)
              if complex(params.c0_init) == 1.0 + 0.0j else None)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    series = amplitude_series(params, args.dt)
    series.to_csv(out / "amplitudes.csv")
    write_csv(out / "population.csv", "t,population", series.times,
              series.population())
    series.flux(params.gamma).to_csv(out / "flux.csv")

    if result is not None:
        tag = "non-Markovian" if result.n_value > EPS_N else "Markovian"
        print(f"N = {result.n_value:.6g} ({tag}), "
              f"{len(result.revival_intervals)} revival interval(s)")
    print(f"wrote amplitudes.csv, population.csv, flux.csv to {out}")
    return 0


def cmd_mcwf(args) -> int:
    params = _params(args)
    if args.seed is None:
        print("warning: --seed not given, defaulting to 0", file=sys.stderr)
        args.seed = 0

    record = sample_jump_times(params, args.n_traj, args.seed, args.dt)
    estimate = estimate_flux(params, args.n_traj, args.bin, record=record)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    record.to_csv(out / "jumps.csv")
    estimate.to_csv(out / "flux_estimate.csv")
    record.write_manifest(out / "manifest.json", bin_width=args.bin)

    stats = flux_residual_stats(estimate, analytic_flux_at_bins(params, estimate))
    print(f"jumps: {record.n_jumps}/{args.n_traj}; residuals vs analytic: "
          f"{stats.summary()}")
    print(f"wrote jumps.csv, flux_estimate.csv, manifest.json to {out}")
    return 0


def cmd_measure(args) -> int:
    result = nm_measure(_params(args), args.dt)
    print(json.dumps({
        "n_value": result.n_value,
        "revival_intervals": [[a, b] for a, b in result.revival_intervals],
        "is_nonmarkovian": bool(result.n_value > args.eps_n),
        "t_max": result.t_max, "dt": result.dt}, indent=2))
    return 0


def cmd_boundary(args) -> int:
    # the grid is scaled as a whole, keeping boundary.csv's digits
    deltas = np.linspace(args.delta_min, args.delta_max,
                         args.delta_count) * args.gamma
    curve = markovian_boundary(deltas, v_search=(args.v_lo, args.v_hi),
                               tol_v=args.tol, gamma=args.gamma,
                               t_max=args.t_max, dt=args.dt,
                               workers=args.workers)
    curve.to_csv(args.out)
    for delta, kind in curve.unbracketed:
        print(f"unbracketed at delta={delta:g}: {kind}")
    print(f"wrote {args.out} ({curve.deltas.size} detunings, "
          f"{len(curve.unbracketed)} unbracketed)")
    return 0


def cmd_spectrum(args) -> int:
    params = _params(args)
    spec = analytic_spectrum(params, args.dt)
    total = spec.total_power()
    if not total < np.inf:      # out of float range: write nothing
        raise FloatingPointError(f"spectrum's total power is {total}")
    # the line as classify reads it, free of the flux's scale, so it does
    # not move with gamma where the power goes subnormal
    verdict = classify(params, 0.0, dt=args.dt)
    line = ("no signal: flux carries no detrended power"
            if verdict.omega_peak is None
            else f"omega_peak = {verdict.omega_peak:.6g}, "
                 f"prominence = {verdict.prominence:.6g}")
    spec.to_csv(args.out)
    print(line)
    print(f"wrote {args.out}")
    return 0


def cmd_classify(args) -> int:
    params = _params(args)
    omega_threshold = args.omega_threshold
    if omega_threshold is None:        # the boundary's threshold
        deltas = np.linspace(0.0, 2.0 * args.gamma, args.boundary_points)
        boundary = markovian_boundary(deltas, gamma=args.gamma)
        omega_threshold = threshold_frequency(boundary).omega_m
    verdict = classify(params, omega_threshold,
                       min_prominence=args.min_prominence,
                       ground_truth=args.ground_truth, dt=args.dt)
    print(verdict.to_json())
    if args.strict and verdict.note == "zero flux":
        return 1
    return 0


def cmd_sweep(args) -> int:
    data = _load_config(args.config_path)
    out_dir = data.pop("out_dir", None)
    out_dir = args.out or out_dir or "sweep_out"
    try:
        config = SweepConfig(**data)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid sweep config: {exc}") from exc
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


def cmd_figures(args) -> int:
    paths = figure_datasets(args.figure_id, args.out)
    print(f"wrote {len(paths)} files to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavityflux",
        description="Atom-mode dynamics, monitored emission, and spectral "
                    "non-Markovianity detection.")
    subs = parser.add_subparsers(dest="command", required=True)
    parser.commands = subs.choices       # parse_args sets config defaults

    p = subs.add_parser("dynamics",
                        help="closed-form amplitudes, population and flux")
    _add_param_flags(p, c0=True)
    p.add_argument("--out", default="dynamics_out", help="output directory")
    p.set_defaults(func=cmd_dynamics)

    p = subs.add_parser("mcwf", help="trajectory ensemble and binned flux")
    _add_param_flags(p, c0=True)
    p.add_argument("--n-traj", type=int, default=0,
                   help="number of trajectories (>= 1)")
    p.add_argument("--seed", type=int, help="master seed (default 0, warns)")
    p.add_argument("--bin", type=float, default=DEFAULT_BIN_WIDTH,
                   help=f"bin width (units of 1/gamma, "
                        f"default {DEFAULT_BIN_WIDTH:g})")
    p.add_argument("--out", default="mcwf_out", help="output directory")
    p.set_defaults(func=cmd_mcwf)

    p = subs.add_parser("measure", help="non-Markovianity measure")
    _add_param_flags(p)
    p.add_argument("--eps-n", type=float, default=EPS_N,
                   help=f"measure threshold (default {EPS_N:g})")
    p.set_defaults(func=cmd_measure)

    p = subs.add_parser("boundary", help="critical coupling per detuning")
    p.add_argument("--delta-min", type=float, default=0.0,
                   help="first detuning (units of gamma, default 0)")
    p.add_argument("--delta-max", type=float, default=2.0,
                   help="last detuning (units of gamma, default 2)")
    p.add_argument("--delta-count", type=int, default=41)
    p.add_argument("--v-lo", type=float, default=BOUNDARY_V_SEARCH[0],
                   help="lowest coupling searched (units of gamma)")
    p.add_argument("--v-hi", type=float, default=BOUNDARY_V_SEARCH[1],
                   help="highest coupling searched (units of gamma)")
    p.add_argument("--tol", type=float, default=BOUNDARY_TOL_V,
                   help="bisection tolerance on V (units of gamma)")
    _add_unit_flags(p, BOUNDARY_T_MAX, BOUNDARY_DT)
    p.add_argument("--workers", type=int)
    p.add_argument("--out", default="boundary.csv", help="output CSV")
    p.set_defaults(func=cmd_boundary)

    p = subs.add_parser("spectrum", help="flux power spectrum")
    _add_param_flags(p)
    p.add_argument("--out", default="spectrum.csv", help="output CSV")
    p.set_defaults(func=cmd_spectrum)

    p = subs.add_parser("classify", help="spectral verdict for one point")
    _add_param_flags(p)
    p.add_argument("--omega-threshold", type=float,
                   help="threshold frequency (units of gamma; default: "
                        "computed from the boundary)")
    p.add_argument("--boundary-points", type=int, default=41,
                   help="detunings of that boundary (default 41)")
    p.add_argument("--min-prominence", type=float,
                   default=DEFAULT_MIN_PROMINENCE)
    p.add_argument("--ground-truth", action="store_true",
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
    try:
        args = parse_args(parser, argv)
        return args.func(args)
    except EmptyRegion as exc:
        print(f"error: {exc}", file=sys.stderr)    # numerical failure
        return 1
    except Unresolved as exc:        # restated in the units of the flags
        v, delta, largest, dt, _ = exc.args
        g = args.gamma
        parser.error(str(Unresolved(v / g, delta / g, largest * g, dt * g,
                                    "--dt")))
    except (ValueError, OSError) as exc:
        parser.error(str(exc))       # prints usage, exits 2
    except Exception as exc:         # numerical failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
