"""The input contract: every entry point rejects a non-finite or
out-of-range float, an empty grid or a negative seed with a ValueError
naming the field, and the CLI exits 2 on it without writing output."""

import json
import subprocess
import sys

import pytest

from cavityflux.dynamics import ModelParams, time_grid
from cavityflux.nonmarkov import markovian_boundary, nm_measure, sign_map
from cavityflux.spectrum import classify
from cavityflux.sweep import SweepConfig
from cavityflux.trajectories import estimate_flux, sample_jump_times

NAN, INF = float("nan"), float("inf")
GRID = dict(v_min=0.05, v_max=1.2, v_count=2, delta_min=0.0, delta_max=2.0,
            delta_count=2, omega_threshold=1.817)
POINT = ["--v", "1", "--delta", "0"]
PARAMS = ModelParams(v=1.0, delta=0.0)

LIBRARY = {
    "params-v": ("v", lambda: ModelParams(v=NAN, delta=0.0)),
    "params-delta": ("delta", lambda: ModelParams(v=1.0, delta=INF)),
    "params-gamma": ("gamma", lambda: ModelParams(v=1.0, delta=0.0,
                                                  gamma=NAN)),
    "params-t_max": ("t_max", lambda: ModelParams(v=1.0, delta=0.0,
                                                  t_max=INF)),
    "params-c0": ("c0_init", lambda: ModelParams(v=1.0, delta=0.0,
                                                 c0_init=complex(NAN, 0.0))),
    "boundary-gamma": ("gamma", lambda: markovian_boundary([0.0],
                                                           gamma=NAN)),
    "boundary-v_search": ("v_search", lambda: markovian_boundary(
        [0.0], v_search=(0.05, INF))),
    "boundary-tol-nan": ("tol_v", lambda: markovian_boundary([0.0],
                                                             tol_v=NAN)),
    "boundary-t_max": ("t_max", lambda: markovian_boundary([0.0],
                                                           t_max=INF)),
    "boundary-dt": ("dt", lambda: markovian_boundary([0.0], dt=NAN)),
    "boundary-deltas": ("deltas", lambda: markovian_boundary([0.0, NAN])),
    "sweep-v_min": ("v_min", lambda: SweepConfig(**{**GRID, "v_min": NAN})),
    "sweep-delta_max": ("delta_max", lambda: SweepConfig(
        **{**GRID, "delta_max": INF})),
    "sweep-gamma": ("gamma", lambda: SweepConfig(**GRID, gamma=NAN)),
    "sweep-t_max": ("t_max", lambda: SweepConfig(**GRID, t_max=INF)),
    "sweep-bin_width": ("bin_width", lambda: SweepConfig(**GRID,
                                                         bin_width=NAN)),
    "sweep-min_prominence": ("min_prominence", lambda: SweepConfig(
        **GRID, min_prominence=NAN)),
    "sweep-eps_n": ("eps_n", lambda: SweepConfig(**GRID, eps_n=INF)),
    "sweep-omega_threshold": ("omega_threshold", lambda: SweepConfig(
        **{**GRID, "omega_threshold": NAN})),
    "classify-nan": ("omega_threshold", lambda: classify(
        ModelParams(v=1.0, delta=0.0), NAN)),
    "classify-negative": ("omega_threshold", lambda: classify(
        ModelParams(v=1.0, delta=0.0), -1.0)),
    "estimate-bin": ("bin_width", lambda: estimate_flux(
        ModelParams(v=1.0, delta=0.0), 10, bin_width=NAN)),
    "grid-t_max": ("t_max", lambda: time_grid(INF, 1e-3)),
    "measure-dt-zero": ("dt", lambda: nm_measure(PARAMS, 0.0)),
    "measure-dt-nan": ("dt", lambda: nm_measure(PARAMS, NAN)),
    "classify-dt": ("dt", lambda: classify(PARAMS, 1.8, dt=0.0)),
    "jumps-dt": ("dt", lambda: sample_jump_times(PARAMS, 10, 1, dt=0.0)),
    "sign_map-dt": ("dt", lambda: sign_map("v", 1.0, [0.5], dt=0.0)),
    "boundary-deltas-empty": ("deltas", lambda: markovian_boundary([])),
    "sweep-master_seed": ("master_seed", lambda: SweepConfig(
        **GRID, n_traj=10, master_seed=-3)),
}

# each runs in its own interpreter, since a zero or negative tolerance
# once never returned (so library calls take only a NaN one); {tmp} is
# the test's directory, which holds the configs cfg.json and sweep.json
COMMAND_LINE = {
    "boundary-tol-zero": ("tol_v", ["boundary", "--delta-count", "2",
                                    "--tol", "0", "--out", "{tmp}/b.csv"]),
    "boundary-tol-negative": ("tol_v", ["boundary", "--delta-count", "2",
                                        "--tol=-1", "--out", "{tmp}/b.csv"]),
    "boundary-tol-nan": ("--tol", ["boundary", "--delta-count", "2",
                                   "--tol", "nan", "--out", "{tmp}/b.csv"]),
    "dynamics-v": ("--v", ["dynamics", "--v", "nan", "--delta", "0",
                           "--out", "{tmp}/dyn"]),
    "measure-v": ("--v", ["measure", "--v", "nan", "--delta", "0"]),
    "spectrum-delta": ("--delta", ["spectrum", "--v", "1", "--delta", "nan",
                                   "--out", "{tmp}/s.csv"]),
    "classify-threshold": ("--omega-threshold", ["classify", *POINT,
                                                 "--omega-threshold", "nan"]),
    "mcwf-bin": ("--bin", ["mcwf", *POINT, "--n-traj", "10", "--bin", "nan",
                           "--out", "{tmp}/mc"]),
    "config-t_max": ("--t-max", ["measure", *POINT,
                                 "--config", "{tmp}/cfg.json"]),
    "boundary-delta-count": ("--delta-count", ["boundary", "--delta-count",
                                               "0", "--out", "{tmp}/b.csv"]),
    "classify-boundary-points": ("--boundary-points", [
        "classify", *POINT, "--auto-threshold", "--boundary-points", "0"]),
    "sweep-master_seed": ("master_seed", ["sweep", "{tmp}/sweep.json",
                                          "--out", "{tmp}/sw"]),
}


@pytest.mark.parametrize("case", [*(f"library:{k}" for k in LIBRARY),
                                  *(f"cli:{k}" for k in COMMAND_LINE)])
def test_bad_input_is_rejected(case, tmp_path):
    route, name = case.split(":")
    if route == "library":
        field, call = LIBRARY[name]
        with pytest.raises(ValueError, match=field):
            call()
        return
    field, argv = COMMAND_LINE[name]
    (tmp_path / "cfg.json").write_text(json.dumps({"t_max": NAN}))
    (tmp_path / "sweep.json").write_text(json.dumps(
        {**GRID, "n_traj": 10, "master_seed": -3}))
    proc = subprocess.run(
        [sys.executable, "-m", "cavityflux.cli",
         *(a.format(tmp=tmp_path) for a in argv)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert field in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json",
                                                          "sweep.json"]


def test_boundary_tolerance_below_float_spacing_ends(tmp_path):
    # bisection stops once the midpoint repeats an end of the bracket; in
    # its own interpreter, since a loop that misses this never returns
    out = tmp_path / "b.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "cavityflux.cli", "boundary",
         "--delta-count", "1", "--tol", "1e-300", "--t-max", "20",
         "--out", str(out)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    v_c = float(out.read_text().splitlines()[1].split(",")[1])
    coarse = markovian_boundary([0.0], t_max=20.0)
    assert abs(v_c - coarse.v_c[0]) < coarse.tol_v
