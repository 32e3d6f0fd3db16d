"""Unit tests for ``cavityflux.trajectories``."""

import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import cavityflux
from cavityflux import trajectories
from cavityflux.dynamics import (DEFAULT_DT, ModelParams, flux_at,
                                 photon_flux_analytic, time_grid)
from cavityflux.nonmarkov import nm_measure
from cavityflux.trajectories import (
    JUMP_BLOCK,
    JUMP_TOL,
    MAX_TRAJECTORIES,
    GridMismatch,
    InvalidBinning,
    PartialBinWarning,
    _invert_survival,
    _philox4x64,
    _philox_keys,
    analytic_flux_at_bins,
    estimate_flux,
    flux_residual_stats,
    sample_jump_times,
    survival_at,
    trajectory_seed,
    trajectory_uniforms,
)

STRONG = ModelParams(v=1.0, delta=0.0)


def test_survival_matches_amplitudes():
    t = np.linspace(0.0, 14.0, 29)
    n2 = survival_at(STRONG, t)
    assert n2[0] == pytest.approx(1.0)
    assert np.all(n2 > 0.0)
    assert np.all(n2 <= 1.0 + 1e-12)


def test_trajectory_seed_streams():
    a = np.random.Generator(np.random.Philox(trajectory_seed(3, 0)))
    b = np.random.Generator(np.random.Philox(trajectory_seed(3, 0)))
    c = np.random.Generator(np.random.Philox(trajectory_seed(3, 1)))
    x, y, z = a.random(4), b.random(4), c.random(4)
    assert_array_equal(x, y)
    assert not np.array_equal(x, z)


def _numpy_uniform(master_seed, index):
    rng = np.random.Generator(np.random.Philox(trajectory_seed(master_seed,
                                                               index)))
    return 1.0 - rng.random()


# 2**96 + 1 fills the SeedSequence pool's four 32-bit words exactly;
# 2**130 + 77 (five words) and 2**290 + 11 (ten) are longer than the
# pool, so the master seed is not padded before the spawn index
@pytest.mark.parametrize("master_seed",
                         [0, 2**32 - 1, 2**32, 2**64 + 5, 2**96 + 1,
                          2**130 + 77, 2**290 + 11])
def test_uniforms_match_numpy_streams(master_seed):
    rng = np.random.default_rng(master_seed % 1000)
    n = 4000
    indices = rng.choice(n, 64, replace=False)
    us = trajectory_uniforms(master_seed, n)
    assert us.shape == (n,)
    assert_array_equal(us[indices],
                       [_numpy_uniform(master_seed, int(i)) for i in indices])
    # keys over the whole single-word index range, the top included
    high = np.append(rng.integers(MAX_TRAJECTORIES, size=31,
                                  dtype=np.uint32), np.uint32(2**32 - 1))
    k0, k1 = _philox_keys(master_seed, high)
    expected = np.array([trajectory_seed(master_seed, int(i))
                         .generate_state(2, np.uint64) for i in high])
    assert_array_equal(k0, expected[:, 0])
    assert_array_equal(k1, expected[:, 1])


@pytest.mark.parametrize("name", ["philox-testset-1.csv",
                                  "philox-testset-2.csv"])
def test_philox_block_matches_numpy_vectors(name):
    path = Path(np.random.__file__).parent / "tests" / "data" / name
    if not path.exists():
        pytest.skip(f"numpy installed without its test data ({name})")
    lines = path.read_text().splitlines()
    seed = int(lines[0].split(",")[1], 0)
    outputs = [int(line.split(",")[1], 0) for line in lines[1:]]
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    # a fresh Philox steps its counter before each block: blocks 1, 2, ...
    drawn = []
    for block in range(1, len(outputs) // 4 + 1):
        words = _philox4x64((block, 0, 0, 0), (key[:1], key[1:]))
        drawn.extend(int(w[0]) for w in words)
    assert drawn == outputs


def test_record_uses_numpy_trajectory_streams():
    record = sample_jump_times(STRONG, 60, master_seed=17)
    times = np.arange(0, 14001) * 1e-3
    n2 = np.minimum.accumulate(survival_at(STRONG, times))
    us = np.array([_numpy_uniform(17, i) for i in range(60)])
    assert_array_equal(record.jump_times,
                       _invert_survival(STRONG, times, n2, us))


def test_sample_input_guards():
    with pytest.raises(ValueError, match="master_seed.*non-negative"):
        sample_jump_times(STRONG, 5, master_seed=-3)
    # numpy would take None as a request for fresh OS entropy
    with pytest.raises(TypeError):
        trajectory_uniforms(None, 4)
    # rejected before any per-trajectory array exists
    with pytest.raises(ValueError, match="n_traj must be <="):
        sample_jump_times(STRONG, MAX_TRAJECTORIES + 1, master_seed=0)


def test_zero_coupling_never_jumps():
    record = sample_jump_times(ModelParams(v=0.0, delta=1.0), 200,
                               master_seed=1)
    assert record.n_jumps == 0
    assert np.all(np.isnan(record.jump_times))
    # no initial excitation behaves the same way
    record = sample_jump_times(ModelParams(v=1.0, delta=0.0, c0_init=0.0),
                               50, master_seed=1)
    assert record.n_jumps == 0
    # nor does a lossless cavity; rounding leaves N^2(T) = 1 - 3e-16
    # there, so a draw of u = 1 gets past the survival test
    params = ModelParams(v=1.0, delta=0.0, gamma=0.0)
    times = time_grid(params.t_max, DEFAULT_DT)
    n2 = np.minimum.accumulate(survival_at(params, times))
    assert n2[-1] < 1.0
    assert np.isnan(_invert_survival(params, times, n2, np.ones(1))).all()


def test_numpy_integer_seed_gives_the_same_record():
    a = sample_jump_times(STRONG, 300, master_seed=np.int64(5))
    b = sample_jump_times(STRONG, 300, master_seed=5)
    assert_array_equal(a.jump_times, b.jump_times)
    assert a.master_seed == 5 and type(a.master_seed) is int


def test_record_reproducible():
    a = sample_jump_times(STRONG, 300, master_seed=9)
    b = sample_jump_times(STRONG, 300, master_seed=9)
    assert_array_equal(a.jump_times, b.jump_times)
    c = sample_jump_times(STRONG, 300, master_seed=10)
    assert not np.array_equal(c.jump_times, a.jump_times, equal_nan=True)


def test_single_trajectory_frozen_value():
    # numpy's own draw for seed 5, inverted on the default grid
    u = 1.0 - np.random.Generator(np.random.Philox(5)).random()
    times = time_grid(14.0, DEFAULT_DT)
    n2 = np.minimum.accumulate(survival_at(STRONG, times))
    jt = _invert_survival(STRONG, times, n2, np.array([u]))[0]
    assert jt == pytest.approx(4.4293237092792985, abs=1e-9)


def test_jump_at_survival_tie():
    # a draw equal to N^2(T) must still fire, at the horizon itself
    times = np.arange(0, 14001) * 1e-3
    n2 = np.minimum.accumulate(survival_at(STRONG, times))
    jt = _invert_survival(STRONG, times, n2, np.array([n2[-1]]))
    assert not np.isnan(jt[0])
    assert jt[0] == pytest.approx(14.0, abs=1e-5)


# (2, 2) has flux zeros, where f' = -gamma |b|^2 vanishes
@pytest.mark.parametrize("v, delta", [(1.0, 0.0), (2.0, 2.0), (5.0, 0.0),
                                      (0.25, 0.0)])
def test_newton_matches_bisection(v, delta, bisection_reference):
    params = ModelParams(v=v, delta=delta)
    times = time_grid(params.t_max, DEFAULT_DT)
    n2 = np.minimum.accumulate(survival_at(params, times))
    us = trajectory_uniforms(11, 20000)
    jt = _invert_survival(params, times, n2, us)
    ref = bisection_reference(params, times, n2, us, JUMP_TOL)
    assert_array_equal(np.isnan(jt), np.isnan(ref))
    fired = ~np.isnan(jt)
    assert fired.sum() > 15000
    assert np.max(np.abs(jt[fired] - ref[fired])) <= JUMP_TOL
    assert np.max(np.abs(survival_at(params, jt[fired]) - us[fired])) < 1e-14


def _count_kernel_calls(monkeypatch):
    kernel = trajectories.amplitudes_analytic
    calls = []

    def counting(p, t):
        calls.append(np.size(t))
        return kernel(p, t)

    monkeypatch.setattr(trajectories, "amplitudes_analytic", counting)
    return calls


def test_newton_passes_per_block(monkeypatch):
    # criterion 8's point: at most 4 kernel passes per block, beyond the
    # one pass on the survival grid
    calls = _count_kernel_calls(monkeypatch)
    n = 100_000
    sample_jump_times(STRONG, n, master_seed=42)
    n_blocks = -(-n // JUMP_BLOCK)
    assert calls[0] == time_grid(STRONG.t_max, DEFAULT_DT).size
    assert max(calls[1:]) <= JUMP_BLOCK
    assert len(calls) - 1 <= 4 * n_blocks


def test_newton_passes_do_not_depend_on_gamma(monkeypatch, scaled_point):
    # an absolute tolerance of 1e-10 lay below the float spacing of the
    # jump times at gamma = 1e-8, and every block ran all MAX_JUMP_STEPS
    calls = _count_kernel_calls(monkeypatch)
    sample_jump_times(STRONG, 100_000, master_seed=42)
    unit = len(calls)
    calls.clear()
    params, dt = scaled_point(1.0, 0.0, 1e-8)
    sample_jump_times(params, 100_000, 42, dt)
    assert len(calls) == unit


@settings(max_examples=60)
@given(point=st.tuples(st.floats(0.0, 5.0), st.floats(-5.0, 5.0)),
       log_gamma=st.floats(-10.0, 6.0), seed=st.integers(0, 2 ** 32))
def test_jump_times_are_gamma_invariant(point, log_gamma, seed,
                                        scaled_point):
    gamma = 10.0 ** log_gamma
    unit_params = ModelParams(v=point[0], delta=point[1])
    unit = sample_jump_times(unit_params, 500, seed).jump_times
    params, dt = scaled_point(*point, gamma)
    scaled = sample_jump_times(params, 500, seed, dt).jump_times * gamma
    assert_array_equal(np.isnan(scaled), np.isnan(unit))
    fired = ~np.isnan(unit)
    # 1e-12 in units of 1/gamma, or, where the flux is weak, the time in
    # which the survival moves by 1e-14: the rounding of the rescaled
    # amplitudes moves N^2 by a few ulps, and t by that over the flux
    slack = 1e-12 + 1e-14 / flux_at(unit_params, unit[fired])
    assert (np.abs(scaled[fired] - unit[fired]) <= slack).all()


def test_blocks_do_not_change_the_record():
    long = sample_jump_times(STRONG, 3 * JUMP_BLOCK, master_seed=5)
    short = sample_jump_times(STRONG, JUMP_BLOCK + 5, master_seed=5)
    assert_array_equal(long.jump_times[:JUMP_BLOCK + 5], short.jump_times)
    # a block's draws are those of its own index range
    assert_array_equal(trajectory_uniforms(5, 7, JUMP_BLOCK - 2),
                       trajectory_uniforms(5, JUMP_BLOCK + 5)[-7:])


def test_sample_memory_is_flat():
    # the parent's unblocked inversion peaked near 43 MB here
    tracemalloc.start()
    try:
        sample_jump_times(STRONG, 2 ** 18, master_seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_long_horizons_do_not_overflow():
    # the survival grid overflowed to NaN here, us >= NaN is False, and
    # no draw fired
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for params in (ModelParams(v=0.1, delta=0.0, t_max=4000.0),
                       ModelParams(v=2.5, delta=15.0, gamma=10.0,
                                   t_max=300.0)):
            record = sample_jump_times(params, 2000, master_seed=1)
            assert record.n_jumps == 2000
            assert np.all(record.jump_times <= params.t_max)
        for v, delta in ((2.5, 15.0), (2.5, -15.0), (0.5, 0.0)):
            params = ModelParams(v=v, delta=delta, gamma=10.0, t_max=300.0)
            assert np.isfinite(photon_flux_analytic(params).values).all()
            assert np.isfinite(nm_measure(params).n_value)


def test_jump_times_inside_horizon():
    record = sample_jump_times(STRONG, 500, master_seed=2)
    fired = record.jump_times[~np.isnan(record.jump_times)]
    assert fired.size == record.n_jumps
    assert np.all(fired > 0.0)
    assert np.all(fired <= 14.0 + 1e-9)
    # the inverse transform reproduces the draw: N^2(t*) equals some u
    n2_at_jumps = survival_at(STRONG, fired)
    assert np.all(n2_at_jumps < 1.0)


def test_jump_fraction_matches_survival():
    n = 20000
    record = sample_jump_times(STRONG, n, master_seed=42)
    p_true = 1.0 - float(survival_at(STRONG, 14.0))
    se = np.sqrt(p_true * (1.0 - p_true) / n)
    assert abs(record.n_jumps / n - p_true) < 4.0 * se


def test_jump_time_distribution():
    # sub-distribution of the arrival time is 1 - N^2(t); the empirical
    # CDF must stay inside the 99% Dvoretzky-Kiefer-Wolfowitz band
    n = 20000
    record = sample_jump_times(STRONG, n, master_seed=42)
    jt = record.jump_times
    t_grid = np.linspace(0.0, 14.0, 141)
    emp = np.array([np.mean(~np.isnan(jt) & (jt <= t)) for t in t_grid])
    model = 1.0 - survival_at(STRONG, t_grid)
    eps = np.sqrt(np.log(2.0 / 0.01) / (2.0 * n))
    assert np.max(np.abs(emp - model)) < eps


def test_flux_estimate_zero_coupling():
    flux = estimate_flux(ModelParams(v=0.0, delta=0.0), 100, master_seed=0)
    assert_array_equal(flux.values, np.zeros_like(flux.values))
    assert flux.counts.sum() == 0


def test_invalid_binning():
    for bad in (0.0, -0.5, 15.0):
        with pytest.raises(InvalidBinning):
            estimate_flux(STRONG, 10, bin_width=bad, master_seed=0)


def test_partial_bin_warning():
    with pytest.warns(PartialBinWarning):
        flux = estimate_flux(STRONG, 50, bin_width=0.33, master_seed=0)
    assert flux.times.size == 42            # floor(14 / 0.33)
    assert flux.times[-1] < 14.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estimate_flux(STRONG, 50, bin_width=0.1, master_seed=0)


def test_counts_account_for_every_jump():
    record = sample_jump_times(STRONG, 1000, master_seed=3)
    flux = estimate_flux(STRONG, 1000, bin_width=0.1, record=record)
    assert flux.counts.sum() == record.n_jumps
    assert flux.n_traj == 1000
    assert flux.bin_width == 0.1
    assert_allclose(flux.times[0], 0.05)
    assert_allclose(flux.values, flux.counts / (1000 * 0.1))


def test_estimate_reuses_record():
    record = sample_jump_times(STRONG, 400, master_seed=6)
    direct = estimate_flux(STRONG, 400, bin_width=0.2, master_seed=6)
    reused = estimate_flux(STRONG, 9999, bin_width=0.2, record=record)
    assert_array_equal(direct.values, reused.values)
    assert reused.n_traj == 400


@pytest.mark.parametrize("gamma", [0.25, 10.0, 1000.0])
def test_estimate_flux_in_units_of_gamma(gamma):
    # rates times gamma, times over gamma: the same draws land in the
    # same bins, whose centres scale with 1/gamma
    for seed in (1, 2, 3):
        ref = estimate_flux(STRONG, 20000, bin_width=0.2, master_seed=seed)
        params = ModelParams(v=gamma, delta=0.0, gamma=gamma,
                             t_max=STRONG.t_max / gamma)
        flux = estimate_flux(params, 20000, bin_width=0.2 / gamma,
                             master_seed=seed, dt=DEFAULT_DT / gamma)
        assert_array_equal(flux.counts, ref.counts)
        assert_allclose(flux.times * gamma, ref.times, rtol=1e-12)


def test_poisson_coverage():
    n = 20000
    est = estimate_flux(STRONG, n, bin_width=0.1, master_seed=42)
    stats = flux_residual_stats(est, analytic_flux_at_bins(STRONG, est))
    assert stats.frac_within[2] >= 0.9
    assert stats.frac_within[3] >= 0.95
    assert stats.max_abs_z < 6.0
    assert "max|z|" in stats.summary()


def test_rms_shrinks_with_ensemble_size():
    small = estimate_flux(STRONG, 2500, bin_width=0.1, master_seed=7)
    large = estimate_flux(STRONG, 10000, bin_width=0.1, master_seed=8)
    rms_small = flux_residual_stats(
        small, analytic_flux_at_bins(STRONG, small)).rms
    rms_large = flux_residual_stats(
        large, analytic_flux_at_bins(STRONG, large)).rms
    assert rms_large < rms_small


def test_grid_mismatch():
    est = estimate_flux(STRONG, 100, bin_width=0.2, master_seed=0)
    other = estimate_flux(STRONG, 100, bin_width=0.1, master_seed=0)
    with pytest.raises(GridMismatch):
        flux_residual_stats(est, analytic_flux_at_bins(STRONG, other))
    shifted = analytic_flux_at_bins(STRONG, est)
    with pytest.raises(GridMismatch):
        flux_residual_stats(
            est, type(shifted)(times=shifted.times + 0.01,
                               values=shifted.values))


def test_residual_identity_and_no_counts():
    est = estimate_flux(STRONG, 200, bin_width=0.2, master_seed=1)
    same = flux_residual_stats(est, est)
    assert same.rms == 0.0
    assert same.max_abs_z == 0.0
    analytic = analytic_flux_at_bins(STRONG, est)
    stats = flux_residual_stats(analytic, analytic)
    assert stats.max_abs_z is None
    assert stats.frac_within is None
    assert stats.summary() == "rms=0"


def test_record_csv(tmp_path):
    record = sample_jump_times(ModelParams(v=0.3, delta=0.0), 25,
                               master_seed=8)
    path = tmp_path / "jumps.csv"
    record.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "trajectory_index,jump_time"
    assert len(lines) == 26
    n_empty = sum(1 for line in lines[1:] if line.endswith(","))
    assert n_empty == 25 - record.n_jumps
    # row by row, the reference format; 2500 rows span three write blocks
    for record in (record, sample_jump_times(STRONG, 2500, master_seed=8)):
        record.to_csv(path)
        expected = "trajectory_index,jump_time\n" + "".join(
            f"{i},{'' if np.isnan(jt) else format(jt, '.17g')}\n"
            for i, jt in enumerate(record.jump_times))
        assert path.read_text() == expected


def test_manifest(tmp_path):
    record = sample_jump_times(STRONG, 10, master_seed=5)
    manifest = record.manifest(bin_width=0.1)
    assert manifest["n_traj"] == 10
    assert manifest["master_seed"] == 5
    assert manifest["bin_width"] == 0.1
    assert manifest["engine_version"] == cavityflux.__version__
    assert manifest["params"]["v"] == 1.0
    assert manifest["params"]["c0_init"] == [1.0, 0.0]
    path = tmp_path / "manifest.json"
    record.write_manifest(path, bin_width=0.1)
    assert json.loads(path.read_text()) == manifest
