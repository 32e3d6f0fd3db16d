"""Parameter-grid sweeps, region maps, and figure dataset export.

Each (delta, V) cell gets the non-Markovianity measure, the coherent
frequency Omega, and the spectral verdict (ground-truth refined).  Cells
are independent work items; assembly is keyed by cell index so results
are identical regardless of worker count.  Manifests carry all inputs
and versions but no timestamps, keeping reruns byte-identical.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (DEFAULT_DT, DEFAULT_T_MAX, ModelParams,
                       amplitude_series, photon_flux_analytic)
from .nonmarkov import (BOUNDARY_DT, BOUNDARY_T_MAX, BOUNDARY_TOL_V,
                        markovian_boundary, nm_measure, sign_map)
from .spectrum import (DEFAULT_MIN_PROMINENCE, classify, coherent_frequency,
                       detrend, dft, dominant_peak, threshold_frequency)
from .trajectories import DEFAULT_BIN_WIDTH, estimate_flux, philox_keys

FIGURE_IDS = (1, 2, 3, 4)

# reference curve sets: one Markovian coupling, two non-Markovian,
# each at zero and unit detuning
FIG1_V = (0.2, 0.5, 1.0)
FIG1_DELTA = (0.0, 1.0)
FIG4_POINTS = ((2.0, 2.0), (0.0, 0.9), (1.0, 0.7), (1.7, 0.3))


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
    eps_n: float = 1e-10
    workers: int | None = None   # None = 1 worker; NM_WORKERS overrides

    def __post_init__(self):
        if self.v_count < 1 or self.delta_count < 1:
            raise ValueError("grid counts must be >= 1")
        if self.v_max < self.v_min or self.delta_max < self.delta_min:
            raise ValueError("grid bounds must be monotone")
        if self.n_traj > 0 and self.master_seed is None:
            raise ValueError("master_seed required when n_traj > 0")

    def v_values(self) -> np.ndarray:
        return np.linspace(self.v_min, self.v_max, self.v_count)

    def delta_values(self) -> np.ndarray:
        return np.linspace(self.delta_min, self.delta_max, self.delta_count)

    @classmethod
    def from_json(cls, path) -> "SweepConfig":
        with open(path) as fh:
            return cls(**json.load(fh))


def _cell_seed(master_seed: int, cell_index: int) -> int:
    # key word 0 is SeedSequence(master_seed, spawn_key=(cell_index,))
    # .generate_state(1, np.uint64)[0]
    key = philox_keys(master_seed, np.array([cell_index], dtype=np.uint32))
    return int(key[0][0])


def _sweep_cell(config: SweepConfig, delta: float, v: float,
                omega_threshold: float, cell_index: int) -> dict:
    try:
        params = ModelParams(v=v, delta=delta, gamma=config.gamma,
                             t_max=config.t_max)
        n_value = nm_measure(params, config.dt).n_value
        flux = None
        if config.n_traj > 0:
            flux = estimate_flux(params, config.n_traj, config.bin_width,
                                 _cell_seed(config.master_seed, cell_index),
                                 config.dt)
        verdict = classify(params, omega_threshold,
                           min_prominence=config.min_prominence, flux=flux,
                           ground_truth=True, dt=config.dt,
                           eps_n=config.eps_n, n_value=n_value)
        return {"delta": delta, "v": v, "n_value": n_value,
                "omega": coherent_frequency(v, delta),
                "omega_peak": verdict.omega_peak,
                "prominence": verdict.prominence,
                "verdict": verdict.label, "error": None}
    except Exception as exc:    # isolate: one bad cell must not kill the sweep
        return {"delta": delta, "v": v, "n_value": float("nan"),
                "omega": coherent_frequency(v, delta),
                "omega_peak": None, "prominence": float("nan"),
                "verdict": f"Error({type(exc).__name__})",
                "error": str(exc)}


def _sweep_column(args):
    config, j, delta, omega_threshold = args
    vs = config.v_values()
    cells = [_sweep_cell(config, float(delta), float(v), omega_threshold,
                         j * vs.size + i)
             for i, v in enumerate(vs)]
    return j, cells


@dataclass(frozen=True)
class RegionMap:
    """Sweep result: one dict per (delta, v) cell plus provenance."""

    deltas: np.ndarray
    vs: np.ndarray
    cells: list                 # cells[j][i] over (delta_j, v_i)
    omega_threshold: float
    config: SweepConfig
    n_workers: int

    @property
    def errors(self) -> list:
        return [(c["delta"], c["v"], c["error"])
                for row in self.cells for c in row if c["error"]]

    @property
    def all_ok(self) -> bool:
        return not self.errors

    def iter_cells(self):
        for row in self.cells:
            yield from row

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
        with open(manifest_path, "w") as fh:
            json.dump(self.manifest(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        cells_path = out / "cells.csv"
        with open(cells_path, "w") as fh:
            fh.write("delta,v,n_value,omega,omega_peak,prominence,verdict\n")
            for c in self.iter_cells():
                peak = "" if c["omega_peak"] is None else f"{c['omega_peak']:.17g}"
                verdict = c["verdict"].replace(",", ";")
                fh.write(f"{c['delta']:.17g},{c['v']:.17g},"
                         f"{c['n_value']:.17g},{c['omega']:.17g},"
                         f"{peak},{c['prominence']:.17g},{verdict}\n")
        return [manifest_path, cells_path]


def _resolve_sweep_workers(config: SweepConfig) -> int:
    """NM_WORKERS env var wins, then config.workers, then one worker."""
    env = os.environ.get("NM_WORKERS", "")
    if env:
        return max(1, int(env))         # env var overrides the config
    if config.workers is not None:
        return max(1, int(config.workers))
    return 1


def run_sweep(config: SweepConfig, out_dir=None) -> RegionMap:
    """Evaluate every grid cell; optionally write outputs to out_dir.

    The threshold frequency is taken from the config when given,
    otherwise computed once from the Markovian boundary over the
    sweep's own delta grid and coupling window, with the boundary's
    default horizon, step and tolerance taken in units of gamma.
    """
    deltas = config.delta_values()
    vs = config.v_values()

    omega_threshold = config.omega_threshold
    if omega_threshold is None:
        gamma = config.gamma
        boundary = markovian_boundary(deltas,
                                      v_search=(config.v_min, config.v_max),
                                      tol_v=BOUNDARY_TOL_V * gamma,
                                      gamma=gamma,
                                      t_max=BOUNDARY_T_MAX / gamma,
                                      dt=BOUNDARY_DT / gamma)
        omega_threshold = threshold_frequency(boundary, v_grid=vs).omega_m

    n_workers = _resolve_sweep_workers(config)
    tasks = [(config, j, delta, omega_threshold)
             for j, delta in enumerate(deltas)]
    if n_workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = dict(pool.map(_sweep_column, tasks, chunksize=1))
    else:
        results = dict(_sweep_column(t) for t in tasks)
    cells = [results[j] for j in range(deltas.size)]

    region_map = RegionMap(deltas=deltas, vs=vs, cells=cells,
                           omega_threshold=float(omega_threshold),
                           config=config, n_workers=n_workers)
    if out_dir is not None:
        region_map.write(out_dir)
    return region_map


_PLOT_STUB = '''\
"""Plot the exported figure datasets (requires matplotlib + pandas)."""
import sys
from pathlib import Path

import matplotlib.pyplot as plt
import pandas as pd

here = Path(sys.argv[1] if len(sys.argv) > 1 else ".")

for csv in sorted(here.glob("population_*.csv")) + sorted(here.glob("flux_*.csv")):
    frame = pd.read_csv(csv)
    plt.plot(frame.iloc[:, 0], frame.iloc[:, 1], label=csv.stem)
if plt.gca().lines:
    plt.xlabel("t"); plt.legend(fontsize=6); plt.show()

for csv in sorted(here.glob("sign_map_*.csv")):
    frame = pd.read_csv(csv)
    axis = frame.columns[1]
    for col, marker in (("c_pos", "."), ("b_pos", "x")):
        sub = frame[frame[col] == 1]
        plt.scatter(sub["t"], sub[axis], s=2, marker=marker, label=col)
    plt.xlabel("t"); plt.ylabel(axis); plt.title(csv.stem)
    plt.legend(); plt.show()

boundary = here / "boundary.csv"
if boundary.exists():
    frame = pd.read_csv(boundary)
    plt.plot(frame["delta"], frame["v_c"], "k-")
    plt.xlabel("delta"); plt.ylabel("v_c"); plt.show()

for csv in sorted(here.glob("spectrum_*.csv")):
    frame = pd.read_csv(csv)
    plt.plot(frame["omega"], frame["power"], label=csv.stem)
if plt.gca().lines:
    plt.xlabel("omega"); plt.ylabel("power"); plt.legend(fontsize=6); plt.show()
'''


def _write_plot_stub(out: Path) -> Path:
    path = out / "plot_figures.py"
    path.write_text(_PLOT_STUB)
    return path


def figure_datasets(figure_id: int, out_dir, dt: float = DEFAULT_DT,
                    boundary_points: int = 200, map_points: int = 200,
                    sign_points: int = 101, sign_dt: float = 2e-2) -> list:
    """Emit the CSV datasets behind one of the four reference figures.

    1: population and flux curves for three couplings at two detunings.
    2: derivative sign maps over (t, delta) at V=1 and (t, V) at delta=1.
    3: Markovian boundary, Omega map, and the threshold frequency.
    4: flux spectra of the four classification showcase points.
    """
    if figure_id not in FIGURE_IDS:
        raise UnknownFigure(f"figure id must be one of {FIGURE_IDS}, "
                            f"got {figure_id}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []

    if figure_id == 1:
        for v in FIG1_V:
            for delta in FIG1_DELTA:
                params = ModelParams(v=v, delta=delta)
                series = amplitude_series(params, dt)
                pop_path = out / f"population_v{v:g}_d{delta:g}.csv"
                np.savetxt(pop_path,
                           np.column_stack([series.times, series.population()]),
                           fmt="%.17g", delimiter=",",
                           header="t,population", comments="")
                flux_path = out / f"flux_v{v:g}_d{delta:g}.csv"
                photon_flux_analytic(params, dt).to_csv(flux_path)
                paths += [pop_path, flux_path]

    elif figure_id == 2:
        top = sign_map("delta", 1.0, np.linspace(0.0, 2.0, sign_points),
                       dt=sign_dt)
        bottom = sign_map("v", 1.0, np.linspace(0.05, 1.2, sign_points),
                          dt=sign_dt)
        for smap, name in ((top, "sign_map_delta.csv"),
                           (bottom, "sign_map_v.csv")):
            path = out / name
            smap.to_csv(path)
            paths.append(path)

    elif figure_id == 3:
        deltas = np.linspace(0.0, 2.0, boundary_points)
        vs = np.linspace(0.05, 1.2, map_points)
        boundary = markovian_boundary(deltas)
        bpath = out / "boundary.csv"
        boundary.to_csv(bpath)
        dd, vv = np.meshgrid(deltas, vs, indexing="ij")
        omega = np.hypot(2.0 * vv, dd)
        mpath = out / "omega_map.csv"
        np.savetxt(mpath,
                   np.column_stack([dd.ravel(), vv.ravel(), omega.ravel()]),
                   fmt="%.17g", delimiter=",", header="delta,v,omega",
                   comments="")
        thr = threshold_frequency(boundary, v_grid=vs)
        tpath = out / "threshold.json"
        with open(tpath, "w") as fh:
            json.dump({"omega_m": thr.omega_m, "v_star": thr.v_star,
                       "delta_star": thr.delta_star}, fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
        paths += [bpath, mpath, tpath]

    elif figure_id == 4:
        peaks = {}
        for delta, v in FIG4_POINTS:
            params = ModelParams(v=v, delta=delta)
            spec = dft(detrend(photon_flux_analytic(params, dt)), dt)
            path = out / f"spectrum_d{delta:g}_v{v:g}.csv"
            spec.to_csv(path)
            paths.append(path)
            peak = dominant_peak(spec)
            peaks[f"d{delta:g}_v{v:g}"] = {"omega_peak": peak.omega_peak,
                                           "prominence": peak.prominence}
        ppath = out / "peaks.json"
        with open(ppath, "w") as fh:
            json.dump(peaks, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(ppath)

    paths.append(_write_plot_stub(out))
    return paths
