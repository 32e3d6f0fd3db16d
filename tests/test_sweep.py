"""Unit tests for ``cavityflux.sweep``."""

import json
import os
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cavityflux import sweep
from cavityflux.dynamics import DEFAULT_DT, DEFAULT_T_MAX, ModelParams
from cavityflux.nonmarkov import markovian_boundary, nm_measure
from cavityflux.spectrum import classify
from cavityflux.sweep import (
    SweepConfig,
    UnknownFigure,
    figure_datasets,
    run_sweep,
)
from cavityflux.trajectories import estimate_flux, philox_keys

OMEGA_M = 1.8170


def _numpy_seed_word(master_seed, index):
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _config(**kwargs):
    base = dict(v_min=0.05, v_max=1.2, v_count=4,
                delta_min=0.0, delta_max=2.0, delta_count=4,
                omega_threshold=OMEGA_M)
    base.update(kwargs)
    return SweepConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        _config(v_count=0)
    with pytest.raises(ValueError):
        _config(delta_min=2.0, delta_max=0.0)
    with pytest.raises(ValueError):
        _config(n_traj=100)            # sampled flux needs a master seed
    _config(n_traj=100, master_seed=1)


@pytest.mark.parametrize("field,value", [
    ("gamma", 0.0), ("gamma", -1.0), ("t_max", 0.0), ("t_max", -14.0),
    ("dt", 0.0), ("dt", -1e-3), ("n_traj", -5),
    ("bin_width", 0.0), ("bin_width", 14.5), ("bin_width", 10.0)])
def test_config_rejects_bad_physics(field, value):
    # the bin width only matters to sampled flux
    sampled = {"n_traj": 10, "master_seed": 1} if field == "bin_width" else {}
    with pytest.raises(ValueError, match=field):
        _config(**{field: value}, **sampled)


def test_config_grids():
    cfg = _config()
    assert_allclose(cfg.v_values(), np.linspace(0.05, 1.2, 4))
    assert_allclose(cfg.delta_values(), np.linspace(0.0, 2.0, 4))


def test_single_cell():
    cfg = _config(v_min=2.0, v_max=2.0, v_count=1,
                  delta_min=2.0, delta_max=2.0, delta_count=1)
    region = run_sweep(cfg)
    assert region.all_ok
    cells = list(region.iter_cells())
    assert len(cells) == 1
    cell = cells[0]
    assert cell["n_value"] > 0.0
    assert cell["verdict"] == "NonMarkovianDetected"
    assert cell["omega"] == pytest.approx(np.sqrt(20.0))


@pytest.mark.parametrize("gamma", [1.0, 10.0])
def test_cells_match_measure_and_classify(gamma):
    # a cell shares one kernel pass between measure and flux; each value
    # must still equal the stand-alone nm_measure and classify
    cfg = _config(v_min=0.0, v_max=2.0 * gamma, v_count=5,
                  delta_min=-gamma, delta_max=2.0 * gamma, delta_count=4,
                  gamma=gamma, t_max=14.0 / gamma, dt=1e-3 / gamma,
                  omega_threshold=OMEGA_M * gamma)
    region = run_sweep(cfg)
    assert region.all_ok
    labels = set()
    for cell in region.iter_cells():
        params = ModelParams(v=cell["v"], delta=cell["delta"], gamma=gamma,
                             t_max=cfg.t_max)
        verdict = classify(params, cfg.omega_threshold,
                           min_prominence=cfg.min_prominence,
                           ground_truth=True, dt=cfg.dt, eps_n=cfg.eps_n)
        assert cell["n_value"] == nm_measure(params, cfg.dt).n_value
        assert cell["n_value"] == verdict.n_value
        assert cell["omega_peak"] == verdict.omega_peak
        assert cell["prominence"] == verdict.prominence
        assert cell["verdict"] == verdict.label
        labels.add(verdict.note or verdict.label)
    assert labels == {"zero flux", "Markovian", "NonMarkovianDetected",
                      "NonMarkovianUndetectable"}


def test_sweep_in_units_of_gamma():
    # every rate times gamma and every time over gamma: same map
    def sweep(gamma):
        return list(run_sweep(_config(
            v_min=0.05 * gamma, v_max=1.2 * gamma, v_count=5,
            delta_min=0.0, delta_max=2.0 * gamma, delta_count=5,
            gamma=gamma, t_max=14.0 / gamma, dt=1e-3 / gamma,
            omega_threshold=OMEGA_M * gamma)).iter_cells())
    for cell, ref in zip(sweep(10.0), sweep(1.0), strict=True):
        assert cell["verdict"] == ref["verdict"]
        assert cell["n_value"] == pytest.approx(ref["n_value"], rel=0,
                                                abs=1e-9)


@settings(max_examples=100)
# past gamma = 1e152 the unscaled spectrum underflowed to "zero flux"
@example(v=(1.0, 1.0), delta=(0.0, 0.3), log_gamma=200.0)
@given(v=st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 2.0)),
       delta=st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 3.0)),
       log_gamma=st.floats(-12.0, 3.0))
def test_sweep_gamma_invariance(v, delta, log_gamma):
    # a 2x2 grid (V and delta windows in units of gamma, as lower end
    # and width) at a fixed threshold, every rate times gamma and every
    # time over gamma: the same cells
    def sweep(gamma):
        return list(run_sweep(_config(
            v_min=v[0] * gamma, v_max=(v[0] + v[1]) * gamma, v_count=2,
            delta_min=delta[0] * gamma,
            delta_max=(delta[0] + delta[1]) * gamma, delta_count=2,
            gamma=gamma, t_max=DEFAULT_T_MAX / gamma,
            dt=DEFAULT_DT / gamma,
            omega_threshold=OMEGA_M * gamma)).iter_cells())

    gamma = 10.0 ** log_gamma
    for cell, ref in zip(sweep(gamma), sweep(1.0), strict=True):
        assert cell["verdict"] == ref["verdict"]
        assert cell["n_value"] == pytest.approx(ref["n_value"], rel=1e-9,
                                                abs=1e-12)
        if ref["omega_peak"] is None:       # zero flux at V = 0
            assert cell["omega_peak"] is None
        else:
            assert cell["omega_peak"] / gamma == pytest.approx(
                ref["omega_peak"], rel=1e-11)
        assert cell["prominence"] == pytest.approx(ref["prominence"],
                                                   rel=1e-11)


def test_ground_truth_flips_at_resonant_threshold():
    # the resonant critical coupling is gamma/4; just above it the first
    # revival arrives near t = 15..19, hence the longer horizon
    cfg = _config(v_min=0.1, v_max=0.3, v_count=3,
                  delta_min=0.0, delta_max=0.0, delta_count=1, t_max=30.0)
    region = run_sweep(cfg)
    verdicts = [c["verdict"] for c in region.iter_cells()]
    assert verdicts[0] == "Markovian"
    assert verdicts[1] == "Markovian"
    assert verdicts[2] == "NonMarkovianUndetectable"


def test_verdict_coherence():
    region = run_sweep(_config())
    assert region.all_ok
    for cell in region.iter_cells():
        assert cell["omega"] == pytest.approx(
            np.hypot(2.0 * cell["v"], cell["delta"]))
        if cell["verdict"] == "NonMarkovianDetected":
            assert cell["n_value"] > 1e-10
        if cell["n_value"] == 0.0:
            assert cell["verdict"] == "Markovian"


@pytest.mark.parametrize("n_traj,master_seed",
                         [(1000, 1), (1000, 3), (4000, 1), (4000, 7)])
def test_sampled_record_never_flags_a_markovian_cell(n_traj, master_seed):
    # the paper's claim: a line above Omega_M in the monitored flux alone
    # means N > 0; a detector that reads any line as a detection (threshold
    # 0) flags at least one Markovian cell at each of these seeds
    config = SweepConfig(v_min=0.05, v_max=1.2, v_count=6, delta_min=0.0,
                         delta_max=2.0, delta_count=6, n_traj=n_traj,
                         master_seed=master_seed,
                         omega_threshold=1.8169543, workers=1)
    region = run_sweep(config)
    assert region.all_ok
    detected = [c["n_value"] for c in region.iter_cells()
                if c["verdict"] == "NonMarkovianDetected"]
    assert detected and min(detected) > config.eps_n
    assert any(c["verdict"] == "Markovian" for c in region.iter_cells())


def test_auto_threshold():
    cfg = SweepConfig(v_min=0.05, v_max=1.2, v_count=4,
                      delta_min=0.0, delta_max=1.0, delta_count=3)
    region = run_sweep(cfg)
    # largest coherent frequency over Markovian grid points of this grid
    assert region.omega_threshold == pytest.approx(1.3233, abs=2e-3)
    assert region.manifest()["omega_threshold"] == region.omega_threshold


@pytest.mark.parametrize("v_min, v_max, bad, error, label", [
    # V = -0.1 is refused by ModelParams
    pytest.param(-0.1, 0.2, 0, "ValueError", "Markovian", id="ValueError"),
    # the measure refuses V = 400 (its grid misses revivals), after the
    # spectrum read its peak; V = 0.5 shares the column's measure batch
    pytest.param(0.5, 400.0, 1, "Unresolved", "NonMarkovianUndetectable",
                 id="Unresolved"),
])
def test_error_isolation(tmp_path, v_min, v_max, bad, error, label):
    cfg = _config(v_min=v_min, v_max=v_max, v_count=2,
                  delta_min=0.0, delta_max=0.0, delta_count=1)
    region = run_sweep(cfg, out_dir=tmp_path)
    cells = list(region.iter_cells())
    assert cells[bad]["verdict"] == f"Error({error})"
    assert cells[bad]["error"]
    assert np.isnan(cells[bad]["n_value"])
    good = cells[1 - bad]
    assert good["verdict"] == label     # the sweep carries on
    verdict = classify(ModelParams(v=good["v"], delta=0.0, t_max=cfg.t_max),
                       cfg.omega_threshold,
                       min_prominence=cfg.min_prominence, ground_truth=True,
                       dt=cfg.dt, eps_n=cfg.eps_n)
    assert good["n_value"] == verdict.n_value
    assert good["omega_peak"] == verdict.omega_peak
    assert good["prominence"] == verdict.prominence
    assert good["verdict"] == verdict.label
    assert not region.all_ok
    assert len(region.errors) == 1
    # the error row's NaN n_value and prominence are empty fields
    lines = (tmp_path / "cells.csv").read_text().splitlines()
    row = lines[1 + bad].split(",")
    assert row[2] == "" and row[5] == ""
    assert row[6] == f"Error({error})"


@pytest.mark.parametrize("v_min, v_max", [
    # dt = 1e-3 aliases the flux line at V = 1600 and V = 3141.6
    (1600.0, 3141.6),
    # at V = 400 it resolves the line but not the measure's revivals
    (400.0, 450.0),
])
def test_unresolved_cells_record_the_error(v_min, v_max):
    region = run_sweep(_config(v_min=v_min, v_max=v_max, v_count=2,
                               delta_min=0.0, delta_max=0.0, delta_count=1))
    # Unresolved is the resolution rule's ValueError
    assert [c["verdict"] for c in region.cells] == ["Error(Unresolved)"] * 2
    assert all(msg.startswith("dt must be < ") for _, _, msg in region.errors)


def test_cell_seed_index_is_delta_major():
    # cell (delta_j, v_i) samples from seed index j * v_count + i; on a
    # non-square grid the transposed index i * delta_count + j differs
    cfg = _config(v_min=0.5, v_max=1.5, v_count=3, delta_min=0.0,
                  delta_max=1.0, delta_count=2, n_traj=200, master_seed=5)
    region = run_sweep(cfg)
    assert region.all_ok
    for j, delta in enumerate(cfg.delta_values()):
        for i, v in enumerate(cfg.v_values()):
            index = j * cfg.v_count + i
            cell = region.cells[index]
            params = ModelParams(v=float(v), delta=float(delta),
                                 t_max=cfg.t_max)
            flux = estimate_flux(params, cfg.n_traj, cfg.bin_width,
                                 _numpy_seed_word(cfg.master_seed, index),
                                 cfg.dt)
            verdict = classify(params, cfg.omega_threshold,
                               min_prominence=cfg.min_prominence, flux=flux,
                               ground_truth=True, dt=cfg.dt, eps_n=cfg.eps_n)
            assert np.isfinite(verdict.prominence)
            assert (cell["delta"], cell["v"]) == (delta, v)
            assert cell["omega_peak"] == verdict.omega_peak
            assert cell["prominence"] == verdict.prominence
            assert cell["verdict"] == verdict.label


@pytest.mark.parametrize("master_seed,cell_index",
                         [(0, 0), (7, 3), (2**40, 99), (2**64 + 1, 2499),
                          (3**90, 17), (5, 2**32 - 1), (3**90, 2**32 - 1)])
def test_cell_seed_is_numpy_seed_sequence_word(master_seed, cell_index):
    # a sampled cell k seeds from word 0 of philox_keys(master_seed, k)
    words = philox_keys(master_seed, np.array([cell_index], dtype=np.uint32))
    assert int(words[0][0]) == _numpy_seed_word(master_seed, cell_index)


def test_worker_count_does_not_change_results(tmp_path, monkeypatch):
    monkeypatch.delenv("NM_WORKERS", raising=False)
    cfg = _config(v_count=2, delta_count=3, n_traj=100, master_seed=11)
    serial = run_sweep(cfg, out_dir=tmp_path / "serial")
    parallel = run_sweep(_config(v_count=2, delta_count=3, n_traj=100,
                                 master_seed=11, workers=2),
                         out_dir=tmp_path / "parallel")
    assert serial.n_workers == 1
    assert parallel.n_workers == 2
    assert serial.cells == parallel.cells
    for name in ("manifest.json", "cells.csv"):
        a = (tmp_path / "serial" / name).read_bytes()
        b = (tmp_path / "parallel" / name).read_bytes()
        assert a == b


def test_default_is_one_worker_on_many_cores(monkeypatch):
    # the default must not follow the host's core count
    monkeypatch.delenv("NM_WORKERS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    region = run_sweep(_config(v_count=1, delta_count=1))
    assert region.n_workers == 1


def test_threshold_boundary_runs_on_the_sweep_workers(monkeypatch):
    # the boundary behind a computed threshold gets the resolved count;
    # the recorder runs it on one worker and one column spawns no pool
    monkeypatch.delenv("NM_WORKERS", raising=False)
    seen = []

    def boundary(*args, workers=None, **kwargs):
        seen.append(workers)
        return markovian_boundary(*args, workers=1, **kwargs)

    monkeypatch.setattr("cavityflux.sweep.markovian_boundary", boundary)
    region = run_sweep(SweepConfig(v_min=0.05, v_max=1.2, v_count=2,
                                   delta_min=0.0, delta_max=0.0,
                                   delta_count=1, workers=4))
    assert seen == [4]
    assert region.n_workers == 4


def test_workers_env_override(monkeypatch):
    # the config's count wins over NM_WORKERS, which wins over one worker
    monkeypatch.setenv("NM_WORKERS", "2")
    assert run_sweep(_config(v_count=1, delta_count=2,
                             workers=1)).n_workers == 1
    assert run_sweep(_config(v_count=1, delta_count=2)).n_workers == 2
    monkeypatch.setenv("NM_WORKERS", "")
    assert run_sweep(_config(v_count=1, delta_count=2)).n_workers == 1


def test_manifest_excludes_execution_details():
    cfg = _config(v_count=1, delta_count=1, workers=3)
    region = run_sweep(cfg)
    manifest = region.manifest()
    expected = asdict(cfg)
    expected.pop("workers")
    assert manifest["config"] == expected
    assert "workers" not in manifest["config"]
    assert set(manifest) == {"config", "omega_threshold",
                             "engine_version", "numpy_version"}


def test_cells_csv_format(tmp_path):
    cfg = _config(v_count=2, delta_count=2)
    region = run_sweep(cfg, out_dir=tmp_path)
    lines = (tmp_path / "cells.csv").read_text().splitlines()
    assert lines[0] == "delta,v,n_value,omega,omega_peak,prominence,verdict"
    assert len(lines) == 5
    # verdict strings stay single-column: commas are replaced
    for line in lines[1:]:
        assert len(line.split(",")) == 7
    data = np.genfromtxt(tmp_path / "cells.csv", delimiter=",", names=True,
                         dtype=None, encoding="utf-8")
    assert data["verdict"].dtype.kind == "U"
    assert_allclose(sorted(set(data["delta"])), [0.0, 2.0])


def test_unknown_figure(tmp_path):
    for bad in (0, 9, -1):
        with pytest.raises(UnknownFigure):
            figure_datasets(bad, tmp_path)


def test_figure1_datasets(tmp_path, monkeypatch):
    monkeypatch.setattr(sweep, "FIG_DT", 1e-2)
    paths = figure_datasets(1, tmp_path)
    names = {p.name for p in paths}
    assert len([n for n in names if n.startswith("population_")]) == 6
    assert len([n for n in names if n.startswith("flux_")]) == 6
    assert "plot_figures.py" not in names
    assert not (tmp_path / "plot_figures.py").exists()
    for p in paths:
        assert p.exists()
    resonant = np.genfromtxt(tmp_path / "flux_v1_d0.csv", delimiter=",",
                             names=True)
    detuned = np.genfromtxt(tmp_path / "flux_v1_d1.csv", delimiter=",",
                            names=True)
    # detuning weakens the emission
    assert resonant["flux"].max() > detuned["flux"].max()
    pop = np.genfromtxt(tmp_path / "population_v0.2_d0.csv", delimiter=",",
                        names=True)
    assert pop["population"][0] == 1.0
    assert np.all(np.diff(pop["population"]) <= 1e-12)   # below threshold


def test_figure2_datasets(tmp_path, monkeypatch):
    monkeypatch.setattr(sweep, "FIG2_POINTS", 11)
    monkeypatch.setattr(sweep, "FIG2_DT", 0.1)
    paths = figure_datasets(2, tmp_path)
    names = {p.name for p in paths}
    assert names == {"sign_map_delta.csv", "sign_map_v.csv"}
    assert not (tmp_path / "plot_figures.py").exists()
    frame = np.genfromtxt(tmp_path / "sign_map_delta.csv", delimiter=",",
                          names=True)
    assert frame.dtype.names == ("t", "delta", "c_pos", "b_pos")
    assert set(np.unique(frame["c_pos"])) <= {0.0, 1.0}


def test_figure3_datasets(tmp_path, monkeypatch):
    monkeypatch.setattr(sweep, "FIG3_DELTA_POINTS", 15)
    monkeypatch.setattr(sweep, "FIG3_V_POINTS", 10)
    paths = figure_datasets(3, tmp_path)
    names = {p.name for p in paths}
    assert {"boundary.csv", "omega_map.csv", "threshold.json"} <= names
    thr = json.loads((tmp_path / "threshold.json").read_text())
    assert set(thr) == {"omega_m", "v_star", "delta_star"}
    assert 1.4 < thr["omega_m"] < 2.2
    omega_map = np.genfromtxt(tmp_path / "omega_map.csv", delimiter=",",
                              names=True)
    assert omega_map.size == 150
    assert_allclose(omega_map["omega"],
                    np.hypot(2.0 * omega_map["v"], omega_map["delta"]))


def test_figure4_datasets(tmp_path):
    paths = figure_datasets(4, tmp_path)
    names = {p.name for p in paths}
    assert {"spectrum_d2_v2.csv", "spectrum_d0_v0.9.csv",
            "spectrum_d1_v0.7.csv", "spectrum_d1.7_v0.3.csv",
            "peaks.json"} <= names
    peaks = json.loads((tmp_path / "peaks.json").read_text())
    assert peaks["d2_v2"]["omega_peak"] == pytest.approx(4.3677, abs=1e-3)
    # the strong point's line sits beyond the Markovian threshold: the
    # spectrum has a strict local maximum above OMEGA_M
    spec = np.genfromtxt(tmp_path / "spectrum_d2_v2.csv", delimiter=",",
                         names=True)
    p = spec["power"]
    local_max = (p[1:-1] > p[:-2]) & (p[1:-1] > p[2:])
    assert np.any(local_max & (spec["omega"][1:-1] > OMEGA_M))


def test_figure_rerun_is_byte_identical(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    figure_datasets(4, first)
    figure_datasets(4, second)
    for path in sorted(first.iterdir()):
        assert path.read_bytes() == (second / path.name).read_bytes()
