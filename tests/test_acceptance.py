"""Acceptance tests: one test per release criterion.

Each test prints a ``[criterion NN] PASS/FAIL`` line (collected again in
the terminal summary) and then asserts, so a red run shows exactly which
guarantees broke.  Numbering fixes the execution order.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from cavityflux.dynamics import (ModelParams, amplitude_series,
                                 amplitudes_analytic, photon_flux_analytic,
                                 time_grid)
from cavityflux.nonmarkov import markovian_boundary
from cavityflux.spectrum import (classify, dft, detrend, dominant_peak,
                                 threshold_frequency)
from cavityflux.sweep import SweepConfig, run_sweep
from cavityflux.trajectories import (analytic_flux_at_bins, estimate_flux,
                                     flux_residual_stats, sample_jump_times,
                                     survival_at)

CLI = [sys.executable, "-m", "cavityflux.cli"]

FIG1_SET = [(v, d) for v in (0.2, 0.5, 1.0) for d in (0.0, 1.0)]


@pytest.fixture(scope="session")
def threshold_200x200():
    """Criterion-4 threshold frequency on the 200x200 reference grid."""
    deltas = np.linspace(0.0, 2.0, 200)
    v_grid = np.linspace(0.05, 1.2, 200)
    start = time.perf_counter()
    boundary = markovian_boundary(deltas)
    result = threshold_frequency(boundary, v_grid=v_grid)
    elapsed = time.perf_counter() - start
    return result, elapsed


def test_criterion_01(criterion_report, rk4_reference):
    rng = np.random.default_rng(2024)
    dt = 1e-3
    times = time_grid(14.0, dt)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        v = rng.uniform(0.0, 3.0)
        delta = rng.uniform(-3.0, 3.0)
        c_ref, b_ref = rk4_reference(v, delta, 1.0, 14.0, dt)
        c, b = amplitudes_analytic(ModelParams(v=v, delta=delta), times)
        worst = max(worst,
                    float(np.max(np.abs(c - c_ref))),
                    float(np.max(np.abs(b - b_ref))))
    elapsed = time.perf_counter() - start
    criterion_report(
        1, "closed forms match independent RK4 to 1e-8 on 20 random points",
        worst <= 1e-8 and elapsed < 10.0,
        f"max abs err {worst:.3g}, {elapsed:.1f} s")


def test_criterion_02(criterion_report):
    worst = 0.0
    for v, delta in FIG1_SET:
        params = ModelParams(v=v, delta=delta)
        series = amplitude_series(params, dt=1e-3)
        emitted = np.trapezoid(params.gamma * series.mode_population(),
                               series.times)
        survival = survival_at(params, series.times)
        worst = max(worst, abs(survival[-1] + emitted - 1.0))
    criterion_report(
        2, "excitation bookkeeping closes to 1e-6 on the reference curves",
        worst <= 1e-6, f"max deviation {worst:.3g}")


def test_criterion_03(criterion_report):
    start = time.perf_counter()
    curve = markovian_boundary([0.0])
    elapsed = time.perf_counter() - start
    v_c = float(curve.v_c[0])
    criterion_report(
        3, "resonant critical coupling is 0.250 +/- 0.005",
        abs(v_c - 0.25) <= 0.005 and elapsed < 5.0,
        f"V_c = {v_c:.5f}, {elapsed:.1f} s")


def test_criterion_04(criterion_report, threshold_200x200):
    result, elapsed = threshold_200x200
    ok = 1.8 * 0.85 <= result.omega_m <= 1.8 * 1.15 and elapsed < 120.0
    criterion_report(
        4, "threshold frequency on the 200x200 grid is 1.8 +/- 15%",
        ok,
        f"Omega_M = {result.omega_m:.4f} at (V, delta) = "
        f"({result.v_star:.4f}, {result.delta_star:.4f}), {elapsed:.1f} s")


def test_criterion_05(criterion_report):
    params = ModelParams(v=2.0, delta=2.0)
    spec = dft(detrend(photon_flux_analytic(params)), 1e-3)
    peak = dominant_peak(spec)
    err = abs(peak.omega_peak - np.sqrt(20.0))
    criterion_report(
        5, "strong-coupling spectral peak sits at 4.47 within one DFT bin",
        err <= spec.bin_width,
        f"omega_peak = {peak.omega_peak:.4f}, off by {err:.4f} "
        f"(bin {spec.bin_width:.4f})")


def test_criterion_06(criterion_report, threshold_200x200):
    omega_m = threshold_200x200[0].omega_m
    expected = {
        (2.0, 2.0): ("NonMarkovianDetected", True),
        (0.0, 0.9): ("NonMarkovianUndetectable", True),
        (1.0, 0.7): ("NonMarkovianUndetectable", True),
        # the weak-flux point is judged by the detector alone
        (1.7, 0.3): ("MarkovianConsistent", False),
    }
    got = {}
    for (delta, v), (label, ground_truth) in expected.items():
        verdict = classify(ModelParams(v=v, delta=delta), omega_m,
                           ground_truth=ground_truth)
        got[(delta, v)] = verdict.label
    ok = all(got[key] == label for key, (label, _) in expected.items())
    criterion_report(
        6, "the four showcase points classify as the reference table",
        ok, "; ".join(f"({d:g},{v:g}): {lab}"
                      for (d, v), lab in sorted(got.items())))


def test_criterion_07(criterion_report, threshold_200x200):
    omega_m = threshold_200x200[0].omega_m
    config = SweepConfig(v_min=0.05, v_max=1.2, v_count=50,
                         delta_min=0.0, delta_max=2.0, delta_count=50,
                         omega_threshold=omega_m)
    region = run_sweep(config)
    assert region.all_ok
    cells = list(region.iter_cells())
    markovian = [c for c in cells if c["n_value"] <= config.eps_n]
    false_pos = [c for c in markovian
                 if c["verdict"] == "NonMarkovianDetected"]
    detected = sum(c["verdict"] == "NonMarkovianDetected" for c in cells)
    ok = not false_pos and len(markovian) > 0 and detected > 0
    criterion_report(
        7, "no Markovian cell of the 50x50 sweep triggers detection",
        ok,
        f"{len(markovian)} Markovian cells, {detected} detections, "
        f"{len(false_pos)} false positives")


def test_criterion_08(criterion_report):
    params = ModelParams(v=1.0, delta=0.0)
    n_traj = 100_000
    start = time.perf_counter()
    record = sample_jump_times(params, n_traj, master_seed=42)
    estimate = estimate_flux(params, n_traj, bin_width=0.1, record=record)
    stats = flux_residual_stats(estimate,
                                analytic_flux_at_bins(params, estimate))
    t_grid = np.linspace(0.0, 14.0, 141)
    jt = record.jump_times
    emp = np.array([np.mean(~np.isnan(jt) & (jt <= t)) for t in t_grid])
    model = 1.0 - survival_at(params, t_grid)
    sup_dev = float(np.max(np.abs(emp - model)))
    dkw = float(np.sqrt(np.log(2.0 / 0.01) / (2.0 * n_traj)))
    elapsed = time.perf_counter() - start
    ok = (stats.frac_within[3] >= 0.95 and sup_dev <= dkw
          and elapsed < 60.0)
    criterion_report(
        8, "1e5-trajectory flux and jump CDF match the analytic law",
        ok,
        f"{stats.frac_within[3]:.3f} of bins within 3 sigma, "
        f"CDF dev {sup_dev:.4f} <= {dkw:.4f}, {elapsed:.1f} s")


def test_criterion_09(criterion_report):
    rng = np.random.default_rng(99)
    worst_parseval = 0.0
    worst_wk = 0.0
    for _ in range(100):
        n = int(rng.integers(16, 401))
        r = rng.standard_normal(n)
        spec = dft(r, 0.1)
        sumsq = float(n * np.sum(r ** 2))
        worst_parseval = max(
            worst_parseval, abs(spec.total_power() - sumsq) / sumsq)
        auto = np.fft.irfft(spec.power, n=n)
        brute = np.array([np.dot(r, np.roll(r, -lag)) for lag in range(n)])
        worst_wk = max(
            worst_wk,
            float(np.max(np.abs(auto - brute)) / np.abs(brute[0])))
    ok = worst_parseval <= 1e-10 and worst_wk <= 1e-10
    criterion_report(
        9, "Parseval and Wiener-Khinchin hold to 1e-10 on 100 signals",
        ok, f"worst rel err {worst_parseval:.2g} / {worst_wk:.2g}")


def test_criterion_10(criterion_report, tmp_path):
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps({
        "v_min": 0.1, "v_max": 1.2, "v_count": 5,
        "delta_min": 0.0, "delta_max": 2.0, "delta_count": 6,
        "n_traj": 300, "master_seed": 11, "omega_threshold": 1.817}))
    env_serial = {**os.environ, "NM_WORKERS": "1"}
    env_parallel = {**os.environ, "NM_WORKERS": "2"}
    runs = {}
    for tag, env in (("serial", env_serial), ("parallel", env_parallel)):
        out = tmp_path / f"sweep_{tag}"
        proc = subprocess.run(
            CLI + ["sweep", str(sweep_cfg), "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        runs[tag] = {name: (out / name).read_bytes()
                     for name in ("manifest.json", "cells.csv")}
    sweep_ok = runs["serial"] == runs["parallel"]

    mcwf_files = {}
    for tag in ("first", "second"):
        out = tmp_path / f"mcwf_{tag}"
        proc = subprocess.run(
            CLI + ["mcwf", "--v", "1", "--delta", "0", "--n-traj", "400",
                   "--seed", "5", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        mcwf_files[tag] = {
            name: (out / name).read_bytes()
            for name in ("jumps.csv", "flux_estimate.csv", "manifest.json")}
    mcwf_ok = mcwf_files["first"] == mcwf_files["second"]

    criterion_report(
        10, "seeded sweep and mcwf reruns are byte-identical across workers",
        sweep_ok and mcwf_ok,
        f"sweep identical: {sweep_ok}, mcwf identical: {mcwf_ok}")
