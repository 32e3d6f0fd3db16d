"""Parameter-grid sweeps, region maps, and figure dataset export.

Each (delta, V) cell gets the non-Markovianity measure, the coherent
frequency Omega, and the spectral verdict (ground-truth refined).  A
delta column is one work item: its cells read their peaks one by one
and take their measures from one batch, which gives each cell's
stand-alone nm_measure to the bit.  A sampled cell k (delta-major)
seeds its ensemble with word 0 of philox_keys(master_seed, k), numpy's
SeedSequence(master_seed, spawn_key=(k,)) word; a column takes its
cells' words from one call.  Assembly follows cell order, so results
are identical regardless of worker count.  Manifests carry all inputs
and versions but no timestamps, keeping reruns byte-identical.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (DEFAULT_DT, DEFAULT_T_MAX, ModelParams,
                       amplitude_series, require_finite)
from .files import write_csv, write_json
from .nonmarkov import (EPS_N, markovian_boundary, measure_batch,
                        measure_plan, parallel_map, resolve_workers,
                        sign_map)
from .nonmarkov import nm_measure  # noqa: F401  (perfbench rebinds it here)
from .spectrum import (DEFAULT_MIN_PROMINENCE, analytic_spectrum, classify,
                       coherent_frequency, threshold_frequency)
from .trajectories import DEFAULT_BIN_WIDTH, estimate_flux, philox_keys

FIGURE_IDS = (1, 2, 3, 4)

# reference curve sets: one Markovian coupling, two non-Markovian,
# each at zero and unit detuning
FIG1_V = (0.2, 0.5, 1.0)
FIG1_DELTA = (0.0, 1.0)
FIG4_POINTS = ((2.0, 2.0), (0.0, 0.9), (1.0, 0.7), (1.7, 0.3))
# dataset sizes: the time step of figures 1 and 4, figure 2's sign-map
# rows and time step, figure 3's detuning and coupling grids
FIG_DT = DEFAULT_DT
FIG2_POINTS = 101
FIG2_DT = 2e-2
FIG3_DELTA_POINTS = 200
FIG3_V_POINTS = 200


class UnknownFigure(ValueError):
    """figure id must be one of 1..4."""


@dataclass(frozen=True)
class SweepConfig:
    """Grid and per-cell settings of one sweep."""

    v_min: float
    v_max: float
    v_count: int
    delta_min: float
    delta_max: float
    delta_count: int
    t_max: float = DEFAULT_T_MAX
    dt: float = DEFAULT_DT
    gamma: float = 1.0
    n_traj: int = 0             # 0 = analytic flux per cell
    bin_width: float = DEFAULT_BIN_WIDTH
    master_seed: int | None = None
    omega_threshold: float | None = None   # None = compute from boundary
    min_prominence: float = DEFAULT_MIN_PROMINENCE
    eps_n: float = EPS_N
    workers: int | None = None   # None = NM_WORKERS, else 1

    def __post_init__(self):
        for name in ("v_min", "delta_min", "bin_width", "min_prominence",
                     "eps_n"):
            require_finite(name, getattr(self, name))
        require_finite("v_max", self.v_max, self.v_min)
        require_finite("delta_max", self.delta_max, self.delta_min)
        for name in ("gamma", "t_max", "dt"):
            require_finite(name, getattr(self, name), 0, strict=True)
        for name, low in (("v_count", 1), ("delta_count", 1), ("n_traj", 0)):
            require_finite(name, getattr(self, name), low, integer=True)
        if self.omega_threshold is not None:
            require_finite("omega_threshold", self.omega_threshold, 0)
        if self.workers is not None:
            resolve_workers(self.workers)
        if self.master_seed is not None:
            require_finite("master_seed", self.master_seed, 0, integer=True)
        elif self.n_traj > 0:
            raise ValueError("master_seed required when n_traj > 0")
        # the spectrum of a sampled flux needs at least 2 bins
        if self.n_traj > 0 and not 0 < self.bin_width <= self.t_max / 2:
            raise ValueError(f"bin_width must be in (0, t_max / 2] when "
                             f"n_traj > 0, got {self.bin_width}")

    def v_values(self) -> np.ndarray:
        return np.linspace(self.v_min, self.v_max, self.v_count)

    def delta_values(self) -> np.ndarray:
        return np.linspace(self.delta_min, self.delta_max, self.delta_count)


def _sweep_column(task) -> list:
    """The cells of one delta column, in V order: each cell's spectral
    verdict from classify, refined by its N from one measure batch over
    the column.  A cell whose verdict or measure plan raises records the
    error and is left out of the batch."""
    config, first_index, delta, vs, omega_threshold = task
    if config.n_traj > 0:
        seeds = philox_keys(config.master_seed, np.arange(
            first_index, first_index + len(vs), dtype=np.uint32))[0]
    cells, measured = [], []
    for i, v in enumerate(vs):
        cell = {"delta": delta, "v": v, "n_value": float("nan"),
                "omega": coherent_frequency(v, delta), "omega_peak": None,
                "prominence": float("nan"), "verdict": None, "error": None}
        try:
            params = ModelParams(v=v, delta=delta, gamma=config.gamma,
                                 t_max=config.t_max)
            flux = None             # None = analytic flux, inside classify
            if config.n_traj > 0:
                flux = estimate_flux(params, config.n_traj,
                                     config.bin_width, int(seeds[i]),
                                     config.dt)
            verdict = classify(params, omega_threshold,
                               min_prominence=config.min_prominence,
                               flux=flux, dt=config.dt)
            plan = measure_plan(params, config.dt)
            measured.append((cell, verdict, plan))
        except Exception as exc:    # one bad cell must not kill the sweep
            cell.update(verdict=f"Error({type(exc).__name__})",
                        error=str(exc))
        cells.append(cell)
    results = measure_batch([plan for _, _, plan in measured])
    for (cell, verdict, _), result in zip(measured, results):
        verdict = verdict.with_ground_truth(result.n_value, config.eps_n)
        cell.update(n_value=verdict.n_value, omega_peak=verdict.omega_peak,
                    prominence=verdict.prominence, verdict=verdict.label)
    return cells


@dataclass(frozen=True)
class RegionMap:
    """Sweep result: one dict per (delta, v) cell plus provenance."""

    deltas: np.ndarray
    vs: np.ndarray
    cells: list                 # cells[j * vs.size + i] at (delta_j, v_i)
    omega_threshold: float
    config: SweepConfig
    n_workers: int

    @property
    def errors(self) -> list:
        return [(c["delta"], c["v"], c["error"])
                for c in self.cells if c["error"]]

    @property
    def all_ok(self) -> bool:
        return not self.errors

    def iter_cells(self):
        return iter(self.cells)

    def manifest(self) -> dict:
        cfg = asdict(self.config)
        cfg.pop("workers")      # execution detail; results don't depend on it
        return {"config": cfg, "omega_threshold": self.omega_threshold,
                "engine_version": __version__,
                "numpy_version": np.__version__}

    def write(self, out_dir) -> list:
        """manifest.json + cells.csv into out_dir; returns the paths."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        manifest_path = out / "manifest.json"
        write_json(manifest_path, self.manifest())
        cells_path = out / "cells.csv"
        header = "delta,v,n_value,omega,omega_peak,prominence,verdict"
        write_csv(cells_path, header,
                  *([c[key] for c in self.cells] for key in header.split(",")))
        return [manifest_path, cells_path]


def run_sweep(config: SweepConfig, out_dir=None) -> RegionMap:
    """Evaluate every grid cell; optionally write outputs to out_dir.

    The threshold frequency is taken from the config when given,
    otherwise computed once from the Markovian boundary over the
    sweep's own delta grid and coupling window.
    """
    deltas = config.delta_values()
    vs = config.v_values()

    n_workers = resolve_workers(config.workers)
    omega_threshold = config.omega_threshold
    if omega_threshold is None:
        boundary = markovian_boundary(deltas,
                                      v_search=(config.v_min, config.v_max),
                                      gamma=config.gamma, workers=n_workers)
        omega_threshold = threshold_frequency(boundary, v_grid=vs).omega_m

    # one task per delta column; cells are delta-major
    tasks = [(config, j * vs.size, delta, vs.tolist(), omega_threshold)
             for j, delta in enumerate(deltas.tolist())]
    cells = [cell for column in parallel_map(_sweep_column, tasks,
                                             n_workers, chunksize=1)
             for cell in column]

    region_map = RegionMap(deltas=deltas, vs=vs, cells=cells,
                           omega_threshold=float(omega_threshold),
                           config=config, n_workers=n_workers)
    if out_dir is not None:
        region_map.write(out_dir)
    return region_map


def figure_datasets(figure_id: int, out_dir) -> list:
    """Emit the CSV datasets behind one of the four reference figures.

    1: population and flux curves for three couplings at two detunings.
    2: derivative sign maps over (t, delta) at V=1 and (t, V) at delta=1.
    3: Markovian boundary, Omega map, and the threshold frequency.
    4: flux spectra of the four classification showcase points.

    Grid sizes and time steps are the module's FIG_* constants.
    """
    if require_finite("figure_id", figure_id, integer=True) not in FIGURE_IDS:
        raise UnknownFigure(f"figure id must be one of {FIGURE_IDS}, "
                            f"got {figure_id}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []

    if figure_id == 1:
        for v in FIG1_V:
            for delta in FIG1_DELTA:
                params = ModelParams(v=v, delta=delta)
                series = amplitude_series(params, FIG_DT)
                pop_path = out / f"population_v{v:g}_d{delta:g}.csv"
                write_csv(pop_path, "t,population", series.times,
                          series.population())
                flux_path = out / f"flux_v{v:g}_d{delta:g}.csv"
                series.flux(params.gamma).to_csv(flux_path)
                paths += [pop_path, flux_path]

    elif figure_id == 2:
        top = sign_map("delta", 1.0, np.linspace(0.0, 2.0, FIG2_POINTS),
                       dt=FIG2_DT)
        bottom = sign_map("v", 1.0, np.linspace(0.05, 1.2, FIG2_POINTS),
                          dt=FIG2_DT)
        for smap, name in ((top, "sign_map_delta.csv"),
                           (bottom, "sign_map_v.csv")):
            path = out / name
            smap.to_csv(path)
            paths.append(path)

    elif figure_id == 3:
        deltas = np.linspace(0.0, 2.0, FIG3_DELTA_POINTS)
        vs = np.linspace(0.05, 1.2, FIG3_V_POINTS)
        boundary = markovian_boundary(deltas)
        bpath = out / "boundary.csv"
        boundary.to_csv(bpath)
        dd, vv = np.meshgrid(deltas, vs, indexing="ij")
        omega = np.hypot(2.0 * vv, dd)
        mpath = out / "omega_map.csv"
        write_csv(mpath, "delta,v,omega", dd.ravel(), vv.ravel(),
                  omega.ravel())
        tpath = out / "threshold.json"
        write_json(tpath, asdict(threshold_frequency(boundary, v_grid=vs)))
        paths += [bpath, mpath, tpath]

    elif figure_id == 4:
        peaks = {}
        for delta, v in FIG4_POINTS:
            params = ModelParams(v=v, delta=delta)
            spec = analytic_spectrum(params, FIG_DT)
            path = out / f"spectrum_d{delta:g}_v{v:g}.csv"
            spec.to_csv(path)
            paths.append(path)
            # the line as classify reads it, free of the flux's scale
            verdict = classify(params, 0.0, dt=FIG_DT)
            peaks[f"d{delta:g}_v{v:g}"] = {"omega_peak": verdict.omega_peak,
                                           "prominence": verdict.prominence}
        ppath = out / "peaks.json"
        write_json(ppath, peaks)
        paths.append(ppath)
    return paths
