"""The three benchmark workloads: seeded inputs, timed body, output check.

Each workload draws its inputs from the seed alone and hands the program
only those inputs.  Execution is pinned here, not in the program: every
call that can fan out gets ``workers=1`` explicitly.

boundary  criterion-4 / figure-3 path: Markovian boundary over seeded
          detunings, threshold frequency, boundary CSV.  Time goes to
          nonmarkov bisection over long dynamics-kernel scans.
sweep     criterion-7 path: a seeded grid swept with a fixed threshold and
          analytic flux.  Time goes to the revival measure, flux, DFT,
          peak search and cell/CSV assembly; the boundary is bypassed.
mcwf      criterion-8 path: 1e5 emission trajectories, binned estimate,
          residual statistics, record CSV and manifest.  Time goes to
          per-trajectory seeding and survival inversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

# V_c(delta) falls below the search window's 0.05 between delta = 1.80
# and 1.82; beyond, a column is unbracketed and costs 2 probes, not 13
BOUNDARY_BRACKETED = (14, 0.0, 1.8)
BOUNDARY_UNBRACKETED = (2, 1.85, 2.0)
THRESHOLD_V_GRID = 200
SWEEP_SIDE = 10
SWEEP_OMEGA_THRESHOLD = 1.817
MCWF_TRAJECTORIES = 100_000
MCWF_BIN_WIDTH = 0.1
MCWF_CHECKED_INDICES = 32


@dataclass(frozen=True)
class Workload:
    items: str              # what one item is, for the report
    make_inputs: object     # (rng) -> inputs
    count_items: object     # (inputs) -> items per body
    body: object            # (inputs, out_dir) -> output; the timed part
    check: object           # (inputs, output) -> failed items
    output_files: tuple     # written by the body, compared between bodies


# -- boundary ---------------------------------------------------------------

def _strata(rng, n, lo, hi):
    return lo + (hi - lo) * (np.arange(n) + rng.random(n)) / n


def _boundary_inputs(rng):
    # one detuning per stratum: every seed reaches the high-detuning
    # columns where Omega_M sits, and every seed has the same number of
    # unbracketed columns, so the cost of a body does not depend on it
    deltas = np.concatenate([_strata(rng, *BOUNDARY_BRACKETED),
                             _strata(rng, *BOUNDARY_UNBRACKETED)])
    return {"deltas": deltas,
            "v_grid": np.linspace(0.05, 1.2, THRESHOLD_V_GRID)}


def _boundary_body(inputs, out_dir: Path):
    from cavityflux import markovian_boundary, threshold_frequency
    curve = markovian_boundary(inputs["deltas"], workers=1)
    threshold = threshold_frequency(curve, v_grid=inputs["v_grid"])
    curve.to_csv(out_dir / "boundary.csv")
    return curve, threshold


def _boundary_check(inputs, output) -> int:
    curve, threshold = output
    return checks.check_boundary(curve, threshold.omega_m)


# -- sweep ------------------------------------------------------------------

def _sweep_inputs(rng):
    from cavityflux import SweepConfig
    lo, hi, dlo, dhi = 0.1 * rng.random(4)
    return SweepConfig(v_min=0.05 + lo, v_max=1.2 - hi, v_count=SWEEP_SIDE,
                       delta_min=dlo, delta_max=2.0 - dhi,
                       delta_count=SWEEP_SIDE,
                       omega_threshold=SWEEP_OMEGA_THRESHOLD, workers=1)


def _sweep_body(config, out_dir: Path):
    from cavityflux import run_sweep
    return run_sweep(config, out_dir=out_dir / "sweep")


def _sweep_check(config, region) -> int:
    return checks.check_sweep(list(region.iter_cells()), config.eps_n)


# -- mcwf -------------------------------------------------------------------

def _mcwf_inputs(rng):
    from cavityflux import ModelParams
    v, delta = 0.95 + 0.1 * rng.random(), 0.05 * rng.random()
    return {"params": ModelParams(v=float(v), delta=float(delta)),
            "master_seed": int(rng.integers(2 ** 32)),
            "indices": rng.choice(MCWF_TRAJECTORIES, MCWF_CHECKED_INDICES,
                                  replace=False)}


def _mcwf_body(inputs, out_dir: Path):
    from cavityflux import (analytic_flux_at_bins, estimate_flux,
                            flux_residual_stats, sample_jump_times)
    params = inputs["params"]
    record = sample_jump_times(params, MCWF_TRAJECTORIES,
                               inputs["master_seed"])
    estimate = estimate_flux(params, record.n_traj, MCWF_BIN_WIDTH,
                             record=record)
    stats = flux_residual_stats(estimate,
                                analytic_flux_at_bins(params, estimate))
    record.to_csv(out_dir / "jumps.csv")
    record.write_manifest(out_dir / "manifest.json", bin_width=MCWF_BIN_WIDTH)
    return record, stats


def _mcwf_check(inputs, output) -> int:
    record, stats = output
    return checks.check_mcwf(record, stats, inputs["indices"])


WORKLOADS = {
    "boundary": Workload("detunings", _boundary_inputs,
                         lambda inputs: int(inputs["deltas"].size),
                         _boundary_body, _boundary_check, ("boundary.csv",)),
    "sweep": Workload("cells", _sweep_inputs,
                      lambda config: config.v_count * config.delta_count,
                      _sweep_body, _sweep_check,
                      ("sweep/cells.csv", "sweep/manifest.json")),
    "mcwf": Workload("trajectories", _mcwf_inputs,
                     lambda inputs: MCWF_TRAJECTORIES,
                     _mcwf_body, _mcwf_check, ("jumps.csv", "manifest.json")),
}


def make_inputs(name: str, seed: int):
    """The workload's inputs; the same seed gives the same inputs."""
    return WORKLOADS[name].make_inputs(np.random.default_rng(seed))
