"""Tests of the benchmark's own code: tracer, rebinding, names, checks.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
import re
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# cli binds names of its own that the rebinding must reach
import cavityflux.cli  # noqa: E402,F401
from cavityflux import dynamics, nonmarkov, sweep, trajectories  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_on_synthetic_nested_trace():
    # a [0, 10] holds b [1, 3] and c [4, 8]; c holds d [5, 6] and d [6.5, 7]
    tr = tracing.Tracer(clock=FakeClock([0, 1, 3, 4, 5, 6, 6.5, 7, 8, 10]))
    tr.enter("a")
    tr.enter("b")
    tr.exit()
    tr.enter("c")
    tr.enter("d")
    tr.exit()
    tr.enter("d")
    tr.exit()
    tr.exit()
    tr.exit()
    assert tr.spans == {"a": [1, 10, 4], "b": [1, 2, 2],
                        "c": [1, 4, 2.5], "d": [2, 1.5, 1.5]}


def test_rebinding_reaches_imported_names_and_restore_undoes_it():
    kernel = dynamics.amplitudes_analytic
    survival = trajectories.survival_at
    measure = nonmarkov.nm_measure
    to_csv = nonmarkov.BoundaryCurve.to_csv
    tr = tracing.Tracer()
    inst = tracing.instrument(tr)
    try:
        wrapped = dynamics.amplitudes_analytic
        assert wrapped is not kernel and wrapped.__wrapped__ is kernel
        assert nonmarkov.amplitudes_analytic is wrapped
        assert trajectories.amplitudes_analytic is wrapped
        assert cavityflux.amplitudes_analytic is wrapped
        assert trajectories.survival_at is not survival
        assert cavityflux.survival_at is trajectories.survival_at
        assert sweep.nm_measure is nonmarkov.nm_measure is not measure
        assert nonmarkov.BoundaryCurve.to_csv is not to_csv

        params = dynamics.ModelParams(v=1.0, delta=0.0)
        nonmarkov.sigma_values(params, np.linspace(0.0, 1.0, 11))
        trajectories.survival_at(params, 0.5)
    finally:
        inst.restore()
    assert tr.calls("nonmarkov.sigma") == 1
    assert tr.calls("trajectories.survival") == 1
    assert tr.calls("dynamics.kernel") == 2
    assert tr.counts["dynamics.kernel.samples"] == 12
    assert tr.self_s("nonmarkov.sigma") < tr.total_s("nonmarkov.sigma")

    assert dynamics.amplitudes_analytic is kernel
    assert nonmarkov.amplitudes_analytic is kernel
    assert cavityflux.amplitudes_analytic is kernel
    assert trajectories.survival_at is survival
    assert sweep.nm_measure is measure
    assert nonmarkov.BoundaryCurve.to_csv is to_csv
    for mod in tracing.package_modules():
        assert not any(hasattr(value, "__wrapped__")
                       for value in vars(mod).values() if callable(value))


def test_speed_probe_samples_a_body_and_restores_the_timer():
    handler = signal.getsignal(signal.SIGALRM)
    probe = run.SpeedProbe()
    with probe:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            pass
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert len(probe.loops) >= 3
    assert run.loop_cost(0.2 - sum(probe.loops), probe.loops) > 0


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = run.end_to_end([1.0], [1.0], 1, 1, 0)
    layer = dict(tracing.layer_metrics(tracing.Tracer()),
                 **{"trace.overhead_s": 0.0})
    names = list(e2e) + list(layer) + [w["name"] for w in spec["workloads"]]
    for name in names:
        assert NAME.fullmatch(name), name
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def boundary_output():
    inputs = {"deltas": np.array([0.5, 1.5]),
              "v_grid": np.linspace(0.05, 1.2, 200)}
    curve = nonmarkov.markovian_boundary(inputs["deltas"], workers=1)
    threshold = cavityflux.threshold_frequency(curve, v_grid=inputs["v_grid"])
    return curve, threshold.omega_m


def test_boundary_check_flags_a_corrupted_boundary(boundary_output):
    curve, omega_m = boundary_output
    assert checks.check_boundary(curve, omega_m) == 0
    moved = curve.v_c.copy()
    moved[1] += 10 * curve.tol_v
    assert checks.check_boundary(dataclasses.replace(curve, v_c=moved),
                                 omega_m) == 1
    assert checks.check_boundary(curve, 2.5) == 2


def test_sweep_check_flags_errors_and_false_positives():
    config = sweep.SweepConfig(v_min=0.05, v_max=1.2, v_count=3,
                               delta_min=0.0, delta_max=2.0, delta_count=3,
                               omega_threshold=1.817, workers=1)
    cells = list(sweep.run_sweep(config).iter_cells())
    assert checks.check_sweep(cells, config.eps_n) == 0
    markovian = next(i for i, c in enumerate(cells)
                     if c["n_value"] <= config.eps_n)
    bad = [dict(c) for c in cells]
    bad[markovian]["verdict"] = "NonMarkovianDetected"
    bad[-1]["verdict"] = "Error(ValueError)"
    assert checks.check_sweep(bad, config.eps_n) == 2


def test_mcwf_check_flags_a_wrong_draw():
    params = dynamics.ModelParams(v=1.0, delta=0.0)
    record = trajectories.sample_jump_times(params, 2000, master_seed=7)
    estimate = trajectories.estimate_flux(params, 2000, 0.1, record=record)
    stats = trajectories.flux_residual_stats(
        estimate, trajectories.analytic_flux_at_bins(params, estimate))
    indices = np.array([3, 500, 1999])
    assert checks.check_mcwf(record, stats, indices) == 0
    jt = record.jump_times.copy()
    jt[500] += 1e-3
    corrupted = dataclasses.replace(record, jump_times=jt)
    assert checks.check_mcwf(corrupted, stats, indices) == 2000


def test_runner_flags_outputs_that_change_between_bodies(tmp_path):
    calls = []

    def body(inputs, out_dir):
        calls.append(1)
        (out_dir / "out.csv").write_text(f"{len(calls) // 2}\n")
        return "output"

    workload = workloads.Workload("items", None, lambda inputs: 4,
                                  body, lambda inputs, output: 0,
                                  ("out.csv",))
    runner = run.Runner(workload, None, tmp_path)
    for _ in range(3):
        runner.run()
    assert (runner.attempted, runner.failed) == (12, 8)
