"""Unit tests for ``cavityflux.dynamics``."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from cavityflux.dynamics import (
    AmplitudeSeries,
    ModelParams,
    amplitude_series,
    amplitudes_analytic,
    flux_at,
    photon_flux_analytic,
    splitting,
    time_grid,
)
from cavityflux.trajectories import survival_at


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(v=-0.1, delta=0.0)
    with pytest.raises(ValueError):
        ModelParams(v=1.0, delta=0.0, gamma=-1.0)
    with pytest.raises(ValueError):
        ModelParams(v=1.0, delta=0.0, t_max=0.0)
    with pytest.raises(ValueError):
        ModelParams(v=1.0, delta=0.0, c0_init=1.2)
    # gamma = 0 is a valid lossless limit
    ModelParams(v=1.0, delta=0.0, gamma=0.0)


def test_ground_amplitude():
    assert ModelParams(v=1.0, delta=0.0).c0_ground == 0.0
    assert_allclose(ModelParams(v=1.0, delta=0.0, c0_init=0.6).c0_ground, 0.8)
    assert ModelParams(v=1.0, delta=0.0, c0_init=0.0).c0_ground == 1.0


def test_time_grid():
    grid = time_grid(1.0, 0.1)
    assert grid.size == 11
    assert grid[0] == 0.0
    assert_allclose(grid[-1], 1.0)
    assert_allclose(np.diff(grid), 0.1)
    with pytest.raises(ValueError):
        time_grid(1.0, 10.0)


def test_splitting_examples():
    # V = 0: d reduces to gamma + 2i delta
    assert splitting(ModelParams(v=0.0, delta=0.0)) == 1.0 + 0.0j
    # lossless resonant: d = sqrt(-16 V^2) = 4i V
    assert splitting(ModelParams(v=1.0, delta=0.0, gamma=0.0)) == 4.0j
    # critical coupling V = gamma / 4 on resonance: d = 0
    assert splitting(ModelParams(v=0.25, delta=0.0)) == 0.0


def test_splitting_beyond_float_range_names_its_ratio():
    # |d| = 3.925 gamma passes float max at gamma = 5e307; ldexp's bare
    # "math range error" named neither d nor what to lower
    gamma = 5e307
    with pytest.raises(OverflowError,
                       match=r"\|d\|/gamma = 3\.925 .*lower --gamma \(gamma\)"
                             r" below about 4\.58e\+307"):
        splitting(ModelParams(v=gamma, delta=0.3 * gamma, gamma=gamma))
    gamma = 4.5e307
    d = splitting(ModelParams(v=gamma, delta=0.3 * gamma, gamma=gamma))
    assert abs(d) / gamma == pytest.approx(3.925, abs=5e-4)


def test_branch_invariance():
    # the amplitudes must not depend on the square-root branch of d
    rng = np.random.default_rng(7)
    t = np.linspace(0.0, 14.0, 57)
    for _ in range(10):
        params = ModelParams(v=rng.uniform(0.05, 3.0),
                             delta=rng.uniform(-3.0, 3.0))
        g = params.gamma + 2j * params.delta
        d = -splitting(params)  # opposite branch, recomputed by hand
        x = d * t / 4.0
        c_flip = np.exp(-t * g / 4.0) * (np.cosh(x) + (g / d) * np.sinh(x))
        b_flip = -4j * params.v * np.exp(-t * np.conj(g) / 4.0) * np.sinh(x) / d
        c, b = amplitudes_analytic(params, t)
        assert_allclose(c, c_flip, rtol=0.0, atol=1e-12)
        assert_allclose(b, b_flip, rtol=0.0, atol=1e-12)


def test_zero_coupling_is_frozen():
    params = ModelParams(v=0.0, delta=0.7, c0_init=0.5 + 0.5j)
    t = np.linspace(0.0, 14.0, 200)
    c, b = amplitudes_analytic(params, t)
    assert_allclose(c, np.full_like(t, 0.5 + 0.5j, dtype=complex),
                    rtol=0.0, atol=1e-14)
    assert_array_equal(b, np.zeros_like(t, dtype=complex))
    assert_array_equal(flux_at(params, t), np.zeros_like(t))


def test_lossless_rabi_oscillation():
    params = ModelParams(v=1.0, delta=0.0, gamma=0.0)
    t = np.linspace(0.0, 14.0, 300)
    c, b = amplitudes_analytic(params, t)
    assert_allclose(np.abs(c) ** 2, np.cos(t) ** 2, rtol=0.0, atol=1e-12)
    assert_allclose(np.abs(b) ** 2, np.sin(t) ** 2, rtol=0.0, atol=1e-12)


def _both_branches(params, t):
    # reference kernel: the d -> 0 limit at d = 0, the closed form with
    # the envelope factored out everywhere else
    c0 = complex(params.c0_init)
    g = params.gamma + 2j * params.delta
    d = splitting(params)
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    phase = np.exp(1j * params.delta * tt)
    if d == 0:
        ec = np.exp(-g * tt / 4.0)
        return (ec * c0 * (1.0 + g * tt / 4.0),
                -1j * params.v * c0 * tt * ec * phase)
    env = np.exp((d - g) * tt / 4.0)
    um1 = np.expm1(-d * tt / 2.0)
    return (c0 * env * (1.0 + (1.0 - g / d) * um1 / 2.0),
            2j * params.v * c0 * phase * env * um1 / d)


def _cosh_sinh_form(params, t):
    # the closed forms as cosh and sinh of x = d t / 4 under the decaying
    # envelopes e^{-g t/4} and e^{-conj(g) t/4}: overflows at long t
    c0 = complex(params.c0_init)
    g = params.gamma + 2j * params.delta
    d = splitting(params)
    x = d * t / 4.0
    c = np.exp(-t * g / 4.0) * c0 * (np.cosh(x) + (g / d) * np.sinh(x))
    b = -4j * params.v * c0 * np.exp(-t * np.conj(g) / 4.0) * np.sinh(x) / d
    return c, b


def test_kernel_matches_cosh_sinh_form():
    # 135 random points, and points near the d = 0 line V = gamma/4
    rng = np.random.default_rng(135)
    points = [(rng.uniform(0.0, 3.0), rng.uniform(-3.0, 3.0))
              for _ in range(135)]
    points += [(0.25 + eps, 0.0) for eps in (1e-9, -1e-9, 1e-6, -1e-3)]
    t = time_grid(14.0, 1e-3)
    for v, delta in points:
        params = ModelParams(v=v, delta=delta)
        c, b = amplitudes_analytic(params, t)
        c_ref, b_ref = _cosh_sinh_form(params, t)
        assert_allclose(c, c_ref, rtol=0.0, atol=1e-14)
        assert_allclose(b, b_ref, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("params", [
    ModelParams(v=0.1, delta=0.0, t_max=4000.0),
    ModelParams(v=2.5, delta=15.0, gamma=10.0, t_max=300.0),
])
def test_kernel_finite_at_long_horizons(params):
    # cosh and sinh of d t / 4 overflowed here, and inf * 0 gave NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        c, b = amplitudes_analytic(params, time_grid(params.t_max, 1e-2))
    assert np.isfinite(c).all() and np.isfinite(b).all()
    assert abs(c[-1]) < 1e-15


@pytest.mark.parametrize("params, times", [
    # d = 0 (V = gamma/4 at resonance): the limit holds on every sample
    (ModelParams(v=0.25, delta=0.0), time_grid(14.0, 1e-3)),
    (ModelParams(v=2.5, delta=0.0, gamma=10.0, t_max=1.4),
     time_grid(1.4, 1e-4)),
    # the first 41 samples have |d| t/4 < 1e-6, then the full grid
    (ModelParams(v=1.0, delta=0.5, t_max=14.0),
     np.concatenate([np.linspace(0.0, 9e-7, 41), time_grid(14.0, 1e-3)[1:]])),
    (ModelParams(v=1.0, delta=0.5, c0_init=0.6 + 0.3j, t_max=14.0),
     np.linspace(0.0, 9e-7, 41)),
])
def test_kernel_matches_both_branch_reference_bitwise(params, times):
    c, b = amplitudes_analytic(params, times)
    c_ref, b_ref = _both_branches(params, times)
    assert_array_equal(c.view(np.uint64), c_ref.view(np.uint64))
    assert_array_equal(b.view(np.uint64), b_ref.view(np.uint64))
    if splitting(params) != 0:
        # at |d| t/4 < 1e-6 the closed form alone keeps full accuracy
        c_cs, b_cs = _cosh_sinh_form(params, times[:41])
        assert_allclose(c[:41], c_cs, rtol=0.0, atol=1e-15)
        assert_allclose(b[:41], b_cs, rtol=0.0, atol=1e-15)
    # a scalar time takes the same path as a one-sample grid
    for k in (0, 40, times.size - 1):
        assert amplitudes_analytic(params, times[k]) == (c[k], b[k])


def test_initial_state_and_flat_start():
    params = ModelParams(v=1.0, delta=0.5)
    c0, b0 = amplitudes_analytic(params, 0.0)
    assert c0 == 1.0 + 0.0j
    assert b0 == 0.0 + 0.0j
    # dc/dt(0) = 0, so the population leaves 1 only at second order
    dt = 1e-3
    c1, _ = amplitudes_analytic(params, dt)
    assert abs(abs(c1) ** 2 - 1.0) < 10.0 * dt ** 2


def test_initial_derivatives(amplitude_derivatives):
    params = ModelParams(v=1.3, delta=-0.8, c0_init=0.9)
    dc0, db0 = amplitude_derivatives(params, 0.0)
    assert abs(dc0) < 1e-15
    assert_allclose(db0, -1j * params.v * params.c0_init, rtol=0.0, atol=1e-15)


def test_derivatives_match_finite_differences(amplitude_derivatives):
    params = ModelParams(v=1.3, delta=0.8)
    h = 1e-5
    for t in (0.3, 1.7, 5.0, 11.0):
        dc, db = amplitude_derivatives(params, t)
        cp, bp = amplitudes_analytic(params, t + h)
        cm, bm = amplitudes_analytic(params, t - h)
        assert_allclose(dc, (cp - cm) / (2.0 * h), rtol=0.0, atol=1e-6)
        assert_allclose(db, (bp - bm) / (2.0 * h), rtol=0.0, atol=1e-6)


@pytest.mark.parametrize("v,delta", [(1.0, 0.0), (1.0, 1.0), (0.25, 0.0)])
def test_analytic_matches_ode(v, delta, rk4_reference):
    # the closed forms and the step integrator are independent routes;
    # (0.25, 0.0) sits exactly on the d = 0 series branch
    params = ModelParams(v=v, delta=delta)
    analytic = amplitude_series(params, dt=1e-3)
    c_ref, b_ref = rk4_reference(v, delta, params.gamma, params.t_max, 1e-3)
    assert c_ref.shape == analytic.times.shape
    assert np.max(np.abs(analytic.c_values - c_ref)) < 1e-8
    assert np.max(np.abs(analytic.b_values - b_ref)) < 1e-8


# (V, delta) in units of gamma: the whole drawn range, and a strip
# around d = 0 (V = gamma/4 on resonance) that holds d = 0 itself
UNIT_POINTS = st.one_of(
    st.tuples(st.floats(0.0, 5.0), st.floats(-5.0, 5.0)),
    st.tuples(st.floats(-1e-6, 1e-6).map(lambda eps: 0.25 + eps),
              st.floats(-1e-6, 1e-6)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40)
@given(point=UNIT_POINTS, gamma=st.floats(0.1, 10.0))
def test_kernel_matches_ode_everywhere(point, gamma, rk4_reference):
    # over 4/gamma, with an RK4 step of 1/50 of the fastest rate
    v, delta = point[0] * gamma, point[1] * gamma
    t_max = 4.0 / gamma
    steps = int(np.ceil(50.0 * t_max * (gamma + 2.0 * v + abs(delta))))
    dt = t_max / steps
    c_ref, b_ref = rk4_reference(v, delta, gamma, t_max, dt)
    params = ModelParams(v=v, delta=delta, gamma=gamma, t_max=t_max)
    c, b = amplitudes_analytic(params, np.arange(steps + 1) * dt)
    assert np.max(np.abs(c - c_ref)) < 1e-8
    assert np.max(np.abs(b - b_ref)) < 1e-8
    # and finite out to the boundary's 300/gamma horizon
    far = amplitudes_analytic(params, np.linspace(0.0, 300.0 / gamma, 301))
    assert np.isfinite(far).all()


def test_detuning_parity():
    # |c| and |b| are even in the detuning for a real initial amplitude
    rng = np.random.default_rng(11)
    t = np.linspace(0.0, 14.0, 113)
    for _ in range(10):
        v = rng.uniform(0.0, 3.0)
        delta = rng.uniform(0.05, 3.0)
        cp, bp = amplitudes_analytic(ModelParams(v=v, delta=delta), t)
        cm, bm = amplitudes_analytic(ModelParams(v=v, delta=-delta), t)
        assert_allclose(np.abs(cp), np.abs(cm), rtol=0.0, atol=1e-12)
        assert_allclose(np.abs(bp), np.abs(bm), rtol=0.0, atol=1e-12)


def test_excitation_bookkeeping():
    # emitted photons plus surviving excitation account for the initial
    # excitation: N^2(T) + int_0^T gamma |b|^2 dt = 1
    for v, delta in [(0.7, 0.4), (2.0, 2.0), (0.2, 0.0), (1.0, 1.0)]:
        params = ModelParams(v=v, delta=delta)
        series = amplitude_series(params, dt=1e-3)
        emitted = np.trapezoid(params.gamma * series.mode_population(),
                               series.times)
        survival = survival_at(params, series.times)
        assert abs(survival[-1] + emitted - 1.0) < 1e-6


def test_survival_nonincreasing():
    rng = np.random.default_rng(3)
    for _ in range(8):
        params = ModelParams(v=rng.uniform(0.0, 2.5),
                             delta=rng.uniform(-2.0, 2.0))
        n2 = survival_at(params, time_grid(params.t_max, 1e-2))
        assert np.all(np.diff(n2) <= 1e-12)
        assert_allclose(n2[0], 1.0, rtol=0.0, atol=1e-14)


def test_partial_initial_excitation():
    # linearity: amplitudes scale with c0 and the ground weight is constant
    t = np.linspace(0.0, 14.0, 50)
    full = ModelParams(v=1.0, delta=0.5)
    half = ModelParams(v=1.0, delta=0.5, c0_init=0.5)
    c1, b1 = amplitudes_analytic(full, t)
    c2, b2 = amplitudes_analytic(half, t)
    assert_allclose(c2, 0.5 * c1, rtol=0.0, atol=1e-14)
    assert_allclose(b2, 0.5 * b1, rtol=0.0, atol=1e-14)
    series = amplitude_series(half, dt=1e-2)
    assert series.c0_ground ** 2 == pytest.approx(0.75)
    assert_allclose(survival_at(half, series.times)[0], 1.0, rtol=0.0,
                    atol=1e-14)


def test_amplitude_csv_round_trip(tmp_path):
    series = amplitude_series(ModelParams(v=1.0, delta=1.0, t_max=2.0),
                              dt=1e-2)
    path = tmp_path / "amplitudes.csv"
    series.to_csv(path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert data.dtype.names == ("t", "re_c", "im_c", "re_b", "im_b")
    assert_array_equal(data["t"], series.times)
    assert_array_equal(data["re_c"] + 1j * data["im_c"], series.c_values)
    assert_array_equal(data["re_b"] + 1j * data["im_b"], series.b_values)


def test_flux_series(tmp_path):
    params = ModelParams(v=1.0, delta=0.0)
    flux = photon_flux_analytic(params, dt=1e-2)
    assert flux.dt == pytest.approx(1e-2)
    # flux is gamma |b|^2 by construction
    series = amplitude_series(params, dt=1e-2)
    assert_array_equal(flux.values, params.gamma * series.mode_population())
    # strong coupling rings: several separated flux maxima
    inner = flux.values[1:-1]
    n_max = int(np.sum((inner > flux.values[:-2]) & (inner > flux.values[2:])))
    assert n_max >= 2
    path = tmp_path / "flux.csv"
    flux.to_csv(path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert data.dtype.names == ("t", "flux")
    assert_array_equal(data["flux"], flux.values)


def test_flux_at_scalar_and_array():
    params = ModelParams(v=0.8, delta=0.3)
    t = np.array([0.0, 1.0, 2.5])
    vals = flux_at(params, t)
    assert vals.shape == (3,)
    assert vals[0] == 0.0
    _, b1 = amplitudes_analytic(params, 1.0)
    assert_allclose(vals[1], params.gamma * abs(b1) ** 2, rtol=1e-14)


def test_series_is_dataclass_payload():
    series = amplitude_series(ModelParams(v=0.5, delta=0.0, t_max=1.0),
                              dt=0.1)
    assert isinstance(series, AmplitudeSeries)
    assert series.times.size == series.c_values.size == series.b_values.size
