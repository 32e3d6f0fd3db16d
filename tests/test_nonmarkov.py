"""Unit tests for ``cavityflux.nonmarkov``."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from cavityflux import nonmarkov
from cavityflux.dynamics import (ModelParams, amplitudes_analytic, flux_at,
                                 splitting, time_grid)
from cavityflux.nonmarkov import (
    BOUNDARY_DT,
    BOUNDARY_T_MAX,
    RESOLUTION,
    STRIDE,
    BoundaryCurve,
    UnsupportedInitialState,
    markovian_boundary,
    nm_measure,
    parallel_map,
    resolve_workers,
    revival_free_after,
    sigma_positive,
    sigma_values,
    sign_map,
)


def _runs(mask):
    """Maximal runs of True as (start, end) inclusive index pairs."""
    runs = []
    start = None
    for k, val in enumerate(mask):
        if val and start is None:
            start = k
        elif not val and start is not None:
            runs.append((start, k - 1))
            start = None
    if start is not None:
        runs.append((start, mask.size - 1))
    return runs


def test_sigma_starts_at_zero():
    for v, delta in [(0.5, 0.0), (1.0, 1.0), (0.0, 0.3)]:
        assert sigma_values(ModelParams(v=v, delta=delta), 0.0) == 0.0


def test_mode_gain_matches_flux_slope():
    # b_pos against the sign of flux_at's central difference, wherever
    # that difference is clear of its truncation and rounding; d = 0 and
    # 0 < |d| < 1e-150 take the limit t < 4/gamma
    h = 1e-5
    for v, delta in [(1.0, 0.7), (0.25, 0.0), (0.25, 1e-310)]:
        smap = sign_map("v", delta, [v], t_max=14.0, dt=1e-2)
        params, t = ModelParams(v=v, delta=delta), smap.times
        slope = (flux_at(params, t + h) - flux_at(params, t - h)) / (2.0 * h)
        clear = np.abs(slope) > 1e-6 * flux_at(params, t)
        assert clear.mean() > 0.98
        assert_array_equal(smap.b_pos[0][clear], slope[clear] > 0.0)


def test_measure_monotone_decay_is_zero():
    assert nm_measure(ModelParams(v=0.1, delta=0.0)).n_value == 0.0
    assert nm_measure(ModelParams(v=0.0, delta=1.0)).n_value == 0.0
    assert nm_measure(ModelParams(v=0.1, delta=0.0)).revival_intervals == []


def test_measure_strong_coupling():
    result = nm_measure(ModelParams(v=1.0, delta=0.0))
    assert result.n_value == pytest.approx(0.245642, abs=1e-4)
    assert len(result.revival_intervals) == 4
    # intervals are sorted, disjoint and inside the horizon
    flat = [t for pair in result.revival_intervals for t in pair]
    assert flat == sorted(flat)
    assert 0.0 < flat[0] and flat[-1] <= result.t_max
    assert result.t_max == 14.0
    assert result.dt == 1e-3


def test_measure_requires_unit_initial_amplitude():
    with pytest.raises(UnsupportedInitialState):
        nm_measure(ModelParams(v=1.0, delta=0.0, c0_init=0.5))
    with pytest.raises(UnsupportedInitialState):
        nm_measure(ModelParams(v=1.0, delta=0.0, c0_init=1j))


def test_measure_truncates_open_revival():
    # horizon inside the first revival window of (V, delta) = (1, 0)
    params = ModelParams(v=1.0, delta=0.0, t_max=2.6)
    result = nm_measure(params)
    assert len(result.revival_intervals) == 1
    start, end = result.revival_intervals[0]
    assert end == pytest.approx(2.6, abs=1e-9)
    assert 0.0 < result.n_value
    # the full window gains more than the truncated one
    full = nm_measure(ModelParams(v=1.0, delta=0.0, t_max=3.5))
    assert result.n_value < full.n_value


def test_measure_agrees_with_quadrature():
    # telescoped endpoint sum vs direct quadrature of the positive part
    for v, delta in [(1.0, 0.0), (2.0, 2.0)]:
        params = ModelParams(v=v, delta=delta)
        result = nm_measure(params)
        times = time_grid(params.t_max, 1e-3)
        sig = sigma_values(params, times)
        quad = np.trapezoid(np.clip(sig, 0.0, None), times)
        assert_allclose(result.n_value, quad, rtol=0.0, atol=1e-5)


def test_measure_grid_refinement_stable():
    coarse = nm_measure(ModelParams(v=1.0, delta=0.0), dt=1e-3)
    fine = nm_measure(ModelParams(v=1.0, delta=0.0), dt=5e-4)
    assert abs(coarse.n_value - fine.n_value) < 1e-6
    assert len(coarse.revival_intervals) == len(fine.revival_intervals)


def test_measure_sign_consistency():
    # n = 0 exactly when the population never rises on the grid
    rng = np.random.default_rng(19)
    for _ in range(12):
        params = ModelParams(v=rng.uniform(0.0, 2.0),
                             delta=rng.uniform(-2.0, 2.0))
        result = nm_measure(params, dt=1e-2)
        assert result.n_value >= 0.0
        times = time_grid(params.t_max, 1e-2)
        c, _ = amplitudes_analytic(params, times)
        gains = np.diff(np.abs(c) ** 2)
        if result.n_value == 0.0:
            assert np.max(gains) <= 1e-12
        if np.any(gains > 1e-9):
            assert result.n_value > 0.0


def test_measure_long_horizon_does_not_overflow():
    # sinh(d t / 4) of the closed forms overflows near t = 2980 here;
    # the sign scan drops it and finds no revival, as the boundary does
    params = ModelParams(v=0.3, delta=1.5, t_max=4000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = nm_measure(params, 1e-2)
    assert result.n_value == 0.0
    assert result.revival_intervals == []


def test_measure_revivals_outlive_the_envelope():
    # e^{-gamma t / 2} underflows near t = 149, but the revivals go on
    # to the horizon; their populations, and so the measure, stay put.
    # The sum over the same endpoints at 40 digits (mpmath 1.3.0) is
    # 0.0273057176346743295: this value is 3.3 units of 2**-58 off.
    params = ModelParams(v=5.0, delta=0.0, gamma=10.0, t_max=300.0)
    result = nm_measure(params, 1e-2)
    assert result.revival_intervals[-1][1] > 290.0
    assert result.n_value == 0.02730571763467434


def test_measure_refuses_an_unresolved_grid():
    # at dt = 1e-3 the grid misses every revival here: N came out 0, where
    # dt = 1e-6 gives 1997.68; the rule refuses and names the largest dt
    params = ModelParams(v=3141.6, delta=0.0)
    largest = RESOLUTION / abs(splitting(params).imag)
    with pytest.raises(ValueError, match=f"^dt must be < {largest:.6g} "):
        nm_measure(params)
    assert nm_measure(dataclasses.replace(params, t_max=0.01),
                      0.999 * largest).n_value > 0.0


def test_measure_inside_the_resolution_bound_matches_a_finer_grid():
    # |Im d| dt = 1.56, just inside the bound, against dt / 100
    params = ModelParams(v=390.0, delta=0.0, t_max=1.0)
    assert abs(splitting(params).imag) * 1e-3 < RESOLUTION
    coarse, fine = nm_measure(params, 1e-3), nm_measure(params, 1e-5)
    assert coarse.n_value == pytest.approx(fine.n_value, rel=1e-11)
    assert len(coarse.revival_intervals) == len(fine.revival_intervals)


def test_is_nonmarkovian_threshold():
    def nonmarkovian(params):
        return nm_measure(params).n_value > 1e-10

    # just above the resonant threshold the first revival sits near
    # t = 15..19, so the horizon must reach past it
    assert nonmarkovian(ModelParams(v=0.3, delta=0.0, t_max=30.0))
    assert not nonmarkovian(ModelParams(v=0.3, delta=0.0))  # window too short
    assert not nonmarkovian(ModelParams(v=0.2, delta=0.0, t_max=300.0))
    # off resonance the boundary sits above V = gamma/2
    assert not nonmarkovian(ModelParams(v=0.5, delta=1.0, t_max=300.0))


def _boundary_grid():
    return time_grid(BOUNDARY_T_MAX, BOUNDARY_DT)


@pytest.mark.parametrize("v, delta, times, kind", [
    # V = gamma/4 at resonance: d = 0, the series limit holds everywhere
    (0.25, 0.0, _boundary_grid(), "zero"),
    # resonance above threshold: d purely imaginary
    (1.0, 0.0, _boundary_grid(), "imaginary"),
    (0.3, 0.0, _boundary_grid(), "imaginary"),
    # off resonance: d complex
    (0.53, 1.0, _boundary_grid(), "complex"),
    (0.6, 1.0, _boundary_grid(), "complex"),
    (1.5, -1.7, _boundary_grid(), "complex"),
    # samples below |d| t/4 = 1e-6, where 1 - u keeps its digits only
    # through expm1, come first, then the full grid
    (1.0, 0.5, np.concatenate([np.linspace(0.0, 4e-6, 41),
                               time_grid(20.0, 1e-3)[1:]]), "series"),
    # V = gamma/4 with a subnormal detuning: 0 < |d| < 1e-154, where
    # 1/d overflows
    (0.25, 1e-310, _boundary_grid(), "subnormal"),
    (0.25, 5e-324, _boundary_grid(), "subnormal"),
])
def test_sigma_positive_matches_sigma_values(v, delta, times, kind):
    params = ModelParams(v=v, delta=delta, t_max=float(times[-1]))
    d = splitting(params)
    pos = sigma_positive(params, times)
    assert pos.dtype == bool and pos.shape == times.shape
    assert_array_equal(pos, sigma_values(params, times) > 0.0)
    if kind in ("zero", "subnormal"):
        assert (d == 0) == (kind == "zero") and abs(d) < 1e-154
        assert not pos.any()
        assert math.isfinite(revival_free_after(params))
        assert nm_measure(params).n_value == 0.0
    else:
        assert pos.any()
        assert (d.real == 0) == (kind == "imaginary")
    if kind == "series":
        series = np.abs(d) * times / 4.0 < 1e-6
        assert 1 < series.sum() < times.size


def test_sigma_positive_keeps_its_sign_as_t_vanishes():
    # sigma ~ -2 V^2 t < 0 as t -> 0, where 1 - u must keep its digits
    times = np.logspace(-18, -6, 49)
    for v, delta in [(1.0, 0.5), (0.25 * (1.0 + 1e-9), 0.0), (3.0, -2.0)]:
        params = ModelParams(v=v, delta=delta)
        assert (sigma_values(params, times) < 0.0).all()
        assert not sigma_positive(params, times).any()


def test_sigma_positive_is_false_without_coupling():
    times = time_grid(30.0, 1e-2)
    assert not sigma_positive(ModelParams(v=0.0, delta=0.3), times).any()
    assert not sigma_positive(ModelParams(v=1.0, delta=0.0, c0_init=0.0),
                              times).any()


def _record_scans(monkeypatch):
    scanned = []
    signs = nonmarkov._signs

    def recording(rows, t):
        scanned.append(np.array(t))
        return signs(rows, t)

    monkeypatch.setattr(nonmarkov, "_signs", recording)
    return scanned


def test_revival_scan_covers_the_grid_once(monkeypatch):
    scanned, grid = _record_scans(monkeypatch), _boundary_grid()
    # (V, chunks read): no revival, so every chunk; an early revival,
    # decided by the first chunk; the first revival at sample 13637
    for v, calls in ((0.2, None), (1.0, 1), (0.251, 4)):
        scanned.clear()
        assert nonmarkov._has_revival(v, 0.0, 1.0, BOUNDARY_T_MAX,
                                      grid) == (calls is not None)
        assert all(t.size <= nonmarkov.SCAN_CHUNK for t in scanned)
        if calls is None:       # each sample exactly once, in order
            assert_array_equal(np.concatenate(scanned), grid)
        else:                   # through the revival's chunk, no further
            assert len(scanned) == calls
            assert_array_equal(np.concatenate(scanned),
                               grid[:calls * nonmarkov.SCAN_CHUNK])


@settings(max_examples=40)
@given(log_gamma=st.floats(-6.0, 3.0), v=st.floats(0.0, 1.2),
       delta=st.floats(0.0, 2.0), chunks=st.integers(0, 2),
       rest=st.integers(2, nonmarkov.SCAN_CHUNK - 1))
@example(log_gamma=0.0, v=0.0, delta=0.0, chunks=7, rest=1329)
@example(log_gamma=0.0, v=0.251, delta=0.0, chunks=7, rest=1329)
def test_revival_scan_is_the_plain_any(log_gamma, v, delta, chunks, rest):
    # the chunked read is sigma_positive's any() over the whole grid, of
    # chunks * SCAN_CHUNK + rest samples: 30001 in the examples, the
    # boundary's grid, where V = 0.251 gamma first revives at sample 13637
    gamma, size = 10.0 ** log_gamma, chunks * nonmarkov.SCAN_CHUNK + rest
    dt = BOUNDARY_DT / gamma
    grid = time_grid((size - 1) * dt, dt)
    assert grid.size == size
    params = ModelParams(v=v * gamma, delta=delta * gamma, gamma=gamma,
                         t_max=grid[-1])
    assert nonmarkov._has_revival(params.v, params.delta, gamma, grid[-1],
                                  grid) == sigma_positive(params, grid).any()


def _record_measure(monkeypatch):
    """nm_measure with the times at which it reads sigma's sign, as
    measure(params, dt) -> (result, reads); each read is ("stride", t)
    for the stride certificate's first samples, ("scan", t) for the sign
    test on grid samples, or ("halving", t) for a halving pass's
    midpoints, one per bracket."""
    seen = []
    signs, strides, halve = (nonmarkov._signs, nonmarkov._stride_signs,
                             nonmarkov._halve)
    kind = "scan"

    def recording_signs(rows, t):
        seen.append((kind, np.array(t)))
        return signs(rows, t)

    def recording_strides(columns, start, last):
        seen.append(("stride", start * columns[-1]))
        return strides(columns, start, last)

    def recording_halve(*args):
        nonlocal kind
        kind = "halving"
        try:
            return halve(*args)
        finally:
            kind = "scan"

    monkeypatch.setattr(nonmarkov, "_signs", recording_signs)
    monkeypatch.setattr(nonmarkov, "_stride_signs", recording_strides)
    monkeypatch.setattr(nonmarkov, "_halve", recording_halve)

    def measure(params, dt=1e-3):
        seen.clear()
        result = nm_measure(params, dt)
        return result, list(seen)

    return measure


def _read(reads, kind):
    return [t for k, t in reads if k == kind]


def test_measure_scans_through_the_first_sample_past_t_star(monkeypatch,
                                                            plain_measure):
    # the stride scan equals the plain scan to the bit, reads no sample
    # past the first grid sample after t*, and tiles the grid through it
    measure = _record_measure(monkeypatch)
    times = time_grid(14.0, 1e-3)

    def through(params):
        # the grid samples through the first one past t*
        k = np.searchsorted(times, revival_free_after(params), side="right")
        return times[:k + 1]

    # d = 0.6 real: t* = 2 ln(3/2) / 0.6, well inside the horizon
    params = ModelParams(v=0.2, delta=0.0)
    t_star = revival_free_after(params)
    assert t_star == pytest.approx(2.0 * math.log(1.5) / 0.6, rel=1e-8)
    result, reads = measure(params)
    assert repr(result) == repr(plain_measure(params, 1e-3))
    assert result.revival_intervals == []
    grid = through(params)
    assert grid[-2] <= t_star < grid[-1]
    (starts,) = _read(reads, "stride")
    assert_array_equal(starts, grid[::STRIDE])
    scanned = np.concatenate(_read(reads, "scan"))
    assert np.isin(scanned, grid).all()
    # the certificate holds past the first stride, where F(0) = 0
    assert scanned.size < grid.size / 4
    # revivals before t* = 11.3: the halvings read only nodes inside the
    # brackets, none past the scan's end
    params = ModelParams(v=2.0, delta=2.0)
    result, reads = measure(params)
    assert repr(result) == repr(plain_measure(params, 1e-3))
    assert len(result.revival_intervals) == 8
    grid = through(params)
    assert grid[-2] <= revival_free_after(params) < grid[-1]
    assert_array_equal(_read(reads, "stride")[0], grid[::STRIDE])
    assert np.isin(np.concatenate(_read(reads, "scan")), grid).all()
    assert max(t.max() for _, t in reads) <= grid[-1]
    # d imaginary: t* is infinite, and the strides tile the whole grid
    params = ModelParams(v=1.0, delta=0.0)
    assert revival_free_after(params) == math.inf
    result, reads = measure(params)
    assert repr(result) == repr(plain_measure(params, 1e-3))
    assert_array_equal(_read(reads, "stride")[0], times[::STRIDE])
    # no coupling: t* = 0, one stride, never sure as F(0) = 0, and the
    # scan reads the first two samples alone
    params = ModelParams(v=0.0, delta=0.3)
    assert revival_free_after(params) == 0.0
    result, reads = measure(params)
    assert repr(result) == repr(plain_measure(params, 1e-3))
    assert [k for k, _ in reads] == ["stride", "scan"]
    assert_array_equal(reads[0][1], [0.0])
    assert_array_equal(reads[1][1], times[:2])


@pytest.mark.parametrize("dt", [1e-3, 1e-2, 5e-4, 1e-4, 1e-3 / 0.3])
def test_measure_halves_every_bracket_one_count(dt, monkeypatch,
                                                plain_measure):
    # 17 halvings at every dt, each one sign pass over the midpoints of
    # the brackets that the halvings before it left
    params = ModelParams(v=2.0, delta=2.0, t_max=3.0)
    result, reads = _record_measure(monkeypatch)(params, dt)
    assert repr(result) == repr(plain_measure(params, dt))
    assert len(result.revival_intervals) == 2
    passes = _read(reads, "halving")
    assert len(passes) == 17
    # the brackets, one halving at a time, from the grid's one-step ones
    times = time_grid(params.t_max, dt)
    pos = sigma_positive(params, times)
    edges = np.flatnonzero(pos[1:] != pos[:-1])
    brackets = [(times[e], times[e + 1], pos[e + 1]) for e in edges]
    for mids in passes:
        assert_array_equal(mids, [0.5 * (lo + hi) for lo, hi, _ in brackets])
        brackets = [_halved(params, *bracket, 1) for bracket in brackets]
    ends = [0.5 * (lo + hi) for lo, hi, _ in brackets]
    assert result.revival_intervals == list(zip(ends[0::2], ends[1::2]))


def _halved(params, lo, hi, rising, count):
    # count one-by-one halvings of (lo, hi) toward sigma's sign change
    for _ in range(count):
        mid = 0.5 * (lo + hi)
        if bool(sigma_positive(params, mid)) == rising:
            hi = mid
        else:
            lo = mid
    return lo, hi, rising


@pytest.mark.parametrize("gamma", [1e-7, 1e-9, 1e-12])
def test_measure_ends_at_small_gamma(gamma, scaled_point):
    # past t ~ 4.5e7 the float spacing exceeded the old absolute endpoint
    # tolerance 1e-8, and a bisection that stopped on it never returned
    unit = nm_measure(ModelParams(v=1.0, delta=0.3))
    scaled = nm_measure(*scaled_point(1.0, 0.3, gamma))
    assert scaled.n_value == pytest.approx(unit.n_value, rel=1e-12)
    assert len(scaled.revival_intervals) == len(unit.revival_intervals)


@pytest.mark.parametrize("gamma", [1e-200, 1e-160, 1e160, 1e200])
def test_measure_at_extreme_gamma(gamma, scaled_point):
    # splitting squares V and g: 16 V^2 overflowed past gamma ~ 1e154,
    # and below 1e-154 the squares lost digits (N was 0 at 1e-200)
    params, dt = scaled_point(1.0, 0.3, gamma)
    unit = ModelParams(v=1.0, delta=0.3)
    assert splitting(params) / gamma == pytest.approx(splitting(unit),
                                                      rel=1e-15)
    scaled, ref = nm_measure(params, dt), nm_measure(unit)
    assert scaled.n_value == pytest.approx(ref.n_value, rel=1e-14)
    assert len(scaled.revival_intervals) == len(ref.revival_intervals)


@settings(max_examples=100)
@given(point=st.tuples(st.floats(0.0, 5.0), st.floats(-5.0, 5.0)),
       log_gamma=st.floats(-12.0, 9.0))
# the endpoints near 1.4e308: (lo + hi) / 2 overflowed, and N read NaN
@example(point=(1.0, 0.3), log_gamma=-307.0)
def test_measure_is_gamma_invariant(point, log_gamma, scaled_point):
    # the endpoints' halvings count in units of dt, so N is the same to
    # rounding at every scale (it drifted by 2.4e-7 at gamma >= 1e5 when
    # they counted down to an absolute time).  N telescopes populations
    # near 1, so where it is ~0 it is exact only to their rounding: at
    # V = 7.5e-187, delta = 3.75, gamma = 12.9 it reads 2.2e-16, not 0.
    unit = nm_measure(ModelParams(v=point[0], delta=point[1]))
    scaled = nm_measure(*scaled_point(*point, 10.0 ** log_gamma))
    assert scaled.n_value == pytest.approx(unit.n_value, rel=1e-9,
                                           abs=1e-14)


# (V, delta) in units of gamma: the whole drawn range, and a strip up
# to d = 0 (V = gamma/4 on resonance) that holds d = 0 itself
SCAN_POINTS = st.one_of(
    st.tuples(st.floats(0.0, 5.0), st.floats(-5.0, 5.0)),
    st.tuples(st.floats(-1e-2, 1e-2).map(lambda eps: 0.25 * (1.0 + eps)),
              st.floats(-1e-6, 1e-6)))


@settings(max_examples=300)
@given(point=SCAN_POINTS, gamma=st.floats(0.1, 10.0))
def test_three_term_form_decides_sigma_positive(point, gamma):
    # f = Re A - Re B |u|^2 + Re(Z u), with q = g/d, A = conj(1+q)/d,
    # B = conj(1-q)/d, Z = conj(B) - A and u = e^{-dt/2}, is F / |d|^2
    # for sigma_positive's F, found here by dividing by d; sigma > 0
    # exactly where f < 0, and only where f is within rounding of 0 may
    # the two forms disagree
    params = ModelParams(v=point[0] * gamma, delta=point[1] * gamma,
                         gamma=gamma)
    times = np.linspace(0.0, 30.0 / gamma, 30001)
    positive = sigma_positive(params, times)
    d = splitting(params)
    if d == 0 or params.v == 0:
        assert not positive.any()
        return
    q = (params.gamma + 2j * params.delta) / d
    a, b = (1.0 + q).conjugate() / d, (1.0 - q).conjugate() / d
    u = np.exp(-d * times / 2.0)
    with np.errstate(invalid="ignore"):     # A, B overflow as d -> 0
        f = a.real - b.real * np.abs(u) ** 2 + ((b.conjugate() - a) * u).real
    clear = np.abs(f) > 1e-9 * (abs(a) + abs(b))
    assert_array_equal(positive[clear], f[clear] < 0.0)


@settings(max_examples=200)
@given(point=SCAN_POINTS, log_gamma=st.floats(-12.0, 3.0))
def test_no_revival_past_t_star(point, log_gamma):
    gamma = 10.0 ** log_gamma
    v, delta = point[0] * gamma, point[1] * gamma
    params = ModelParams(v=v, delta=delta, gamma=gamma)
    t_star = revival_free_after(params)
    assert t_star >= 0.0
    if t_star == math.inf:
        return
    times = t_star + np.linspace(0.0, 400.0 / gamma, 4001)
    times[0] = math.nextafter(t_star, math.inf)
    assert not sigma_positive(params, times).any()


# the measure's steps and horizons, in units of 1/gamma
MEASURE_GRIDS = st.tuples(st.sampled_from([1e-3, 1e-2, 1e-3 / 0.3]),
                          st.sampled_from([3.0, 14.0]))


@settings(max_examples=150)
@given(point=SCAN_POINTS, log_gamma=st.floats(-12.0, 3.0),
       grid=MEASURE_GRIDS)
@example(point=(1.0, 0.3), log_gamma=-300.0, grid=(1e-3, 14.0))
@example(point=(2.0, 2.0), log_gamma=-200.0, grid=(1e-2, 14.0))
@example(point=(0.25, 0.0), log_gamma=200.0, grid=(1e-3, 3.0))
@example(point=(1.2, -1.5), log_gamma=300.0, grid=(1e-3 / 0.3, 14.0))
def test_measure_matches_the_plain_scan(point, log_gamma, grid,
                                        plain_measure):
    # the stride scan and the halving tree give the plain grid scan's
    # and the one-by-one halvings' endpoints and N to the bit
    gamma = 10.0 ** log_gamma
    params = ModelParams(v=point[0] * gamma, delta=point[1] * gamma,
                         gamma=gamma, t_max=grid[1] / gamma)
    dt = grid[0] / gamma
    result, plain = nm_measure(params, dt), plain_measure(params, dt)
    assert result.n_value == plain.n_value
    assert result.revival_intervals == plain.revival_intervals


@settings(max_examples=60)
@given(points=st.lists(st.tuples(SCAN_POINTS, st.floats(-12.0, 3.0),
                                 MEASURE_GRIDS), min_size=1, max_size=8))
# V = 0 between two points; scans shorter than 2 STRIDE samples, one
# with a revival still open at its t_max; a revival open at t_max = 14
# before another point; the float range's ends side by side
@example(points=[((1.0, 0.3), 0.0, (1e-3, 14.0)),
                 ((0.0, 0.3), 0.0, (1e-3, 14.0)),
                 ((2.0, 2.0), 0.0, (1e-3, 3.0))])
@example(points=[((2.0, 2.0), 0.0, (1e-2, 1.0)),
                 ((1.0, 0.3), 0.0, (1e-2, 0.5)),
                 ((0.5, 0.0), 0.0, (1e-3, 14.0))])
@example(points=[((0.5, 0.0), 0.0, (1e-3, 14.0)),
                 ((2.0, 2.0), 0.0, (1e-3, 14.0))])
@example(points=[((1.0, 0.3), -300.0, (1e-3, 14.0)),
                 ((1.2, -1.5), 300.0, (1e-3 / 0.3, 14.0))])
# a crossing inside a tested stride (sample 1861); one at a stride's
# first sample after a tested stride (256 = 4 STRIDE) and after a sure
# one (13696 = 214 STRIDE); scans that start False after a neighbour's
# last sample reads True
@example(points=[((1.0, 0.3), 0.0, (1e-3, 14.0))])
@example(points=[((0.05, -4.8), 0.0, (1e-2, 3.0))])
@example(points=[((1.3, 0.0), 0.0, (1e-3, 14.0))])
@example(points=[((1.3, 0.0), 0.0, (1e-3, 14.0)),
                 ((0.05, -4.0), 0.0, (1e-3, 3.0)),
                 ((1.0, 0.3), 0.0, (1e-3, 14.0))])
def test_batch_matches_the_plain_scan(points, plain_measure):
    # each point of a batch, whatever its neighbours, gets the plain grid
    # scan's brackets, endpoints and N to the bit: no crossing runs
    # across the seam between two points' scans
    plans, plain, changes = [], [], []
    for i, ((v, delta), log_gamma, (step, horizon)) in enumerate(points):
        gamma = 10.0 ** log_gamma
        params = ModelParams(v=v * gamma, delta=delta * gamma, gamma=gamma,
                             t_max=horizon / gamma)
        plans.append(nonmarkov.measure_plan(params, step / gamma))
        plain.append(plain_measure(params, step / gamma))
        dt = plans[-1].dt
        pos = sigma_positive(params, np.arange(plans[-1].last + 1) * dt)
        changes += [(i, k * dt, (k + 1) * dt, bool(pos[k + 1]))
                    for k in np.flatnonzero(pos[1:] != pos[:-1]).tolist()]
    brackets = nonmarkov._brackets(plans, nonmarkov._plan_rows(plans))
    assert list(zip(*(column.tolist() for column in brackets))) == changes
    batch = nonmarkov.measure_batch(plans)
    for result, ref in zip(batch, plain, strict=True):
        assert result.n_value == ref.n_value
        assert result.revival_intervals == ref.revival_intervals


@settings(max_examples=150)
@given(point=SCAN_POINTS, log_gamma=st.floats(-12.0, 3.0),
       grid=MEASURE_GRIDS)
@example(point=(1.0, 0.3), log_gamma=-300.0, grid=(1e-3, 14.0))
@example(point=(0.25, 1e-7), log_gamma=300.0, grid=(1e-2, 14.0))
def test_sure_strides_keep_their_sign(point, log_gamma, grid):
    # on every stride the certificate calls sure, sigma_positive at each
    # sample equals its sign at the stride's first sample.  The measure
    # certifies only where V > 0: at V = 0, t* = 0 and the scan ends at
    # dt, and sigma_positive is False where F's sign need not be.
    gamma = 10.0 ** log_gamma
    params = ModelParams(v=point[0] * gamma, delta=point[1] * gamma,
                         gamma=gamma)
    if params.v == 0:
        return
    dt, last = grid[0] / gamma, int(grid[1] / grid[0])
    plan = nonmarkov.MeasurePlan(params, dt, last, splitting(params), last)
    strides = last // STRIDE + 1
    positive, sure = nonmarkov._stride_signs(
        np.repeat(nonmarkov._plan_rows([plan]), strides, axis=1),
        np.arange(strides) * STRIDE, last)
    pos = sigma_positive(params, np.arange(last + 1) * dt)
    kept = np.logical_and.reduceat(
        pos == np.repeat(positive, STRIDE)[:last + 1],
        np.arange(0, last + 1, STRIDE))
    assert not sure[0]
    assert kept[sure].all()


@settings(max_examples=100)
@given(point=SCAN_POINTS, log_gamma=st.floats(-300.0, 300.0))
@example(point=(1.0, 0.3), log_gamma=-307.0)
@example(point=(0.25, 1e-7), log_gamma=300.0)
def test_every_reader_gives_one_sign(point, log_gamma):
    # sign_map's population map, the boundary's probe and sigma_positive
    # read sigma's sign from one row per point, so they agree at every
    # sample and scale
    gamma = 10.0 ** log_gamma
    v, delta, t_max = point[0] * gamma, point[1] * gamma, 14.0 / gamma
    smap = sign_map("v", delta, [v], t_max=t_max, dt=1e-2 / gamma,
                    gamma=gamma)
    params = ModelParams(v=v, delta=delta, gamma=gamma, t_max=t_max)
    assert_array_equal(smap.c_pos[0], sigma_positive(params, smap.times))
    grid = np.concatenate([[0.0], smap.times])
    assert nonmarkov._has_revival(v, delta, gamma, t_max,
                                  grid) == smap.c_pos[0].any()


def test_boundary_matches_full_grid_bisection():
    # reference: bisection on any(sigma_values > 0) over the whole grid
    times = _boundary_grid()
    v_lo, v_hi, tol_v = 0.05, 1.2, 1e-3

    def revives(v, delta):
        params = ModelParams(v=v, delta=delta, t_max=BOUNDARY_T_MAX)
        return bool(np.any(sigma_values(params, times) > 0.0))

    deltas = np.linspace(0.0, 2.0, 41)
    v_c, unbracketed = [], []
    for delta in deltas:
        nm_lo, nm_hi = revives(v_lo, delta), revives(v_hi, delta)
        if nm_lo == nm_hi:
            v_c.append(np.nan)
            unbracketed.append(
                (float(delta),
                 "all_nonmarkovian" if nm_lo else "all_markovian"))
            continue
        lo, hi = v_lo, v_hi
        while hi - lo > tol_v:
            mid = 0.5 * (lo + hi)
            if revives(mid, delta):
                hi = mid
            else:
                lo = mid
        v_c.append(0.5 * (lo + hi))

    curve = markovian_boundary(deltas)
    assert_array_equal(curve.v_c, np.array(v_c))
    assert curve.unbracketed == unbracketed


def _scalar_measure(params, dt):
    # reference: a Python loop over the grid, one scalar bisection per
    # crossing, and one scalar population per endpoint
    times = time_grid(params.t_max, dt)
    pos = sigma_values(params, times) > 0.0

    def refine(lo, hi, rising):
        for _ in range(17):
            mid = 0.5 * (lo + hi)
            if (float(sigma_values(params, mid)) > 0.0) == rising:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    intervals, start = [], None
    for k in range(1, times.size):
        if pos[k] and not pos[k - 1]:
            start = refine(times[k - 1], times[k], True)
        elif pos[k - 1] and not pos[k]:
            intervals.append((start, refine(times[k - 1], times[k], False)))
            start = None
    if start is not None:
        intervals.append((start, float(times[-1])))
    n_value = 0.0
    for t_start, t_end in intervals:
        n_value += (abs(amplitudes_analytic(params, t_end)[0]) ** 2
                    - abs(amplitudes_analytic(params, t_start)[0]) ** 2)
    return max(n_value, 0.0), intervals


@pytest.mark.parametrize("params, dt, open_end", [
    # strong coupling: many revivals
    (ModelParams(v=2.0, delta=2.0), 1e-3, False),
    # squaring the endpoints with numpy's abs changes the last bit here
    (ModelParams(v=1.2, delta=-1.5), 1e-3, False),
    # just above the resonant V_c = 1/4: tiny revivals on a long horizon
    (ModelParams(v=0.26, delta=0.0, t_max=300.0), 1e-2, False),
    (ModelParams(v=10.0, delta=5.0, gamma=10.0, t_max=1.4), 1e-4, False),
    # the last revival is still running at t_max
    (ModelParams(v=0.5, delta=0.0), 1e-3, True),
])
def test_measure_matches_scalar_bisection(params, dt, open_end):
    result = nm_measure(params, dt)
    n_value, intervals = _scalar_measure(params, dt)
    assert result.n_value == n_value
    assert result.revival_intervals == intervals
    assert n_value > 0.0 and len(intervals) >= 2
    assert (intervals[-1][1] == params.t_max) == open_end


def test_boundary_long_absolute_horizon_does_not_overflow():
    # at gamma = 10 a horizon of 300 is 3000/gamma: the old closed forms
    # overflowed cosh there and read NaN as "no revival"
    deltas = np.linspace(0.0, 20.0, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        curve = markovian_boundary(deltas, v_search=(0.5, 12.0), tol_v=1e-2,
                                   gamma=10.0, t_max=300.0, dt=1e-2)
    reference = markovian_boundary(deltas / 10.0, v_search=(0.05, 1.2))
    bracketed = np.isfinite(reference.v_c)
    assert bracketed.sum() >= 7
    assert np.all(np.isfinite(curve.v_c[bracketed]))
    # a longer horizon can only lower V_c, and only slightly here
    assert_allclose(curve.v_c[bracketed] / 10.0, reference.v_c[bracketed],
                    atol=2e-3)


@pytest.mark.parametrize("gamma", [0.1, 10.0])
def test_boundary_defaults_are_in_units_of_gamma(gamma):
    deltas = np.linspace(0.0, 2.0, 5)
    curve = markovian_boundary(deltas * gamma, gamma=gamma)
    reference = markovian_boundary(deltas)
    assert curve.v_search == (0.05 * gamma, 1.2 * gamma)
    assert curve.t_max == 300.0 / gamma
    assert curve.dt == 0.01 / gamma
    assert curve.tol_v == 1e-3 * gamma
    # the unbracketed columns, NaN in v_c, must match too
    assert [kind for _, kind in curve.unbracketed] == \
        [kind for _, kind in reference.unbracketed]
    assert_allclose(curve.v_c / gamma, reference.v_c, rtol=0,
                    atol=reference.tol_v)


@settings(max_examples=40)
@given(log_gamma=st.floats(-12.0, 3.0),
       deltas=st.lists(st.floats(0.0, 2.0), min_size=2, max_size=2))
def test_boundary_is_gamma_invariant(log_gamma, deltas):
    # every input scaled by gamma: V_c scales with it, to rounding, and
    # the same columns stay unbracketed, of the same kind
    gamma = 10.0 ** log_gamma
    deltas = np.array(deltas)
    curve = markovian_boundary(deltas * gamma, gamma=gamma, workers=1)
    reference = markovian_boundary(deltas, workers=1)
    assert [kind for _, kind in curve.unbracketed] == \
        [kind for _, kind in reference.unbracketed]
    assert_allclose(curve.v_c / gamma, reference.v_c, rtol=1e-14, atol=0)


def test_boundary_resonant():
    curve = markovian_boundary([0.0])
    assert curve.unbracketed == []
    assert curve.v_c[0] == pytest.approx(0.25, abs=0.005)


def test_boundary_off_resonance():
    curve = markovian_boundary([1.0])
    assert curve.v_c[0] == pytest.approx(0.5276, abs=5e-3)


def test_boundary_floor():
    # detuning only raises the critical coupling until the curve collapses
    curve = markovian_boundary([0.5, 1.0, 1.5, 1.7])
    assert curve.unbracketed == []
    assert np.all(curve.v_c >= 0.25 - curve.tol_v)


def test_boundary_unbracketed():
    # whole window already non-Markovian
    curve = markovian_boundary([0.0], v_search=(0.3, 1.0))
    assert np.isnan(curve.v_c[0])
    assert curve.unbracketed == [(0.0, "all_nonmarkovian")]
    # whole window still Markovian
    curve = markovian_boundary([0.0], v_search=(0.05, 0.2))
    assert curve.unbracketed == [(0.0, "all_markovian")]
    # far detuning: every coupling in the default window is non-Markovian
    curve = markovian_boundary([1.9])
    assert curve.unbracketed == [(1.9, "all_nonmarkovian")]


def test_boundary_validation():
    with pytest.raises(ValueError):
        markovian_boundary([0.0], v_search=(0.5, 0.2))
    with pytest.raises(ValueError):
        markovian_boundary([0.0], v_search=(-0.1, 0.5))
    with pytest.raises(ValueError):     # the defaults are in units of gamma
        markovian_boundary([0.0], gamma=0.0)


def test_boundary_csv(tmp_path):
    curve = BoundaryCurve(deltas=np.array([0.0, 1.9]),
                          v_c=np.array([0.25, np.nan]),
                          unbracketed=[(1.9, "all_nonmarkovian")],
                          v_search=(0.05, 1.2), tol_v=1e-3, gamma=1.0,
                          t_max=300.0, dt=1e-2)
    path = tmp_path / "boundary.csv"
    curve.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "delta,v_c"
    assert lines[1] == "0,0.25"
    assert lines[2] == "1.8999999999999999,"   # NaN row keeps an empty field
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert np.isnan(data["v_c"][1])


def test_resolve_workers(monkeypatch):
    monkeypatch.delenv("NM_WORKERS", raising=False)
    assert resolve_workers() == 1
    assert resolve_workers(workers=4) == 4
    monkeypatch.setenv("NM_WORKERS", "2")
    assert resolve_workers() == 2
    assert resolve_workers(workers=5) == 5   # explicit count wins
    assert resolve_workers(workers=0) == 1   # clamped to at least one
    monkeypatch.setenv("NM_WORKERS", "")     # empty counts as unset
    assert resolve_workers() == 1
    assert resolve_workers(workers=-3) == 1
    monkeypatch.setenv("NM_WORKERS", "abc")  # a count names its source
    with pytest.raises(ValueError, match="NM_WORKERS must be an integer"):
        resolve_workers()
    monkeypatch.setenv("NM_WORKERS", "2.5")
    with pytest.raises(ValueError, match="NM_WORKERS must be an integer"):
        resolve_workers()
    with pytest.raises(ValueError, match="workers must be an integer"):
        resolve_workers(workers=2.5)


def test_boundary_pool_matches_one_worker():
    # 17 detunings fill three chunks of 8, so two workers start a pool
    deltas = np.linspace(0.0, 2.0, 17)
    pooled = markovian_boundary(deltas, t_max=20.0, workers=2)
    serial = markovian_boundary(deltas, t_max=20.0, workers=1)
    assert_array_equal(pooled.v_c, serial.v_c)
    assert pooled.unbracketed == serial.unbracketed


def test_parallel_map_keeps_one_chunk_in_process():
    # a lambda cannot be pickled, so this passes only without a pool: a
    # sweep of one delta column or a boundary of few detunings is one chunk
    assert parallel_map(lambda t: 2 * t, [1, 2, 3], 4,
                        chunksize=3) == [2, 4, 6]


def test_sign_map_validation():
    with pytest.raises(ValueError):
        sign_map("x", 1.0, [0.0, 1.0])


def test_sign_map_zero_coupling_row():
    smap = sign_map("delta", 0.0, [0.0, 0.5, 1.0], t_max=5.0)
    assert not smap.c_pos.any()
    assert not smap.b_pos.any()


@pytest.mark.parametrize("gamma", [1e-200, 1e-180])
def test_sign_map_near_d_zero_at_a_small_scale(gamma):
    # V = gamma/4 with the least subnormal detuning: |d| is 4.4e-162
    # gamma at gamma = 1, the d = 0 limit, and 4.4e-62 gamma at gamma =
    # 1e-200, where 2 Re(conj(d) s) in units of 1/time underflowed and
    # b_pos read False over 9.8% of the flux's rise, t < 4/gamma
    def rows(g):
        smap = sign_map("v", 5e-324, [g / 4.0], t_max=14.0 / g,
                        dt=1e-2 / g, gamma=g)
        return smap.c_pos[0], smap.b_pos[0]

    ref, got = rows(1.0), rows(gamma)
    assert ref[1][:399].all() and not ref[1][399:].any()
    assert_array_equal(got[0], ref[0])
    assert_array_equal(got[1], ref[1])


def test_sign_map_flux_rises_first():
    # the flux grows from zero, so B > 0 in the first time column
    smap = sign_map("v", 1.0, np.linspace(0.05, 1.2, 12), t_max=5.0)
    assert smap.times[0] == pytest.approx(1e-2)
    assert smap.b_pos[:, 0].all()


def test_sign_map_flux_oscillates_below_population_revival():
    # at (delta, V) = (1, 0.5) the flux derivative changes sign although
    # the population never revives
    smap = sign_map("v", 1.0, [0.5], t_max=14.0)
    assert not smap.c_pos[0].any()
    assert len(_runs(smap.b_pos[0])) >= 2


@pytest.mark.parametrize("axis,fixed,values,gamma,t_max,dt", [
    ("delta", 1.0, np.linspace(0.0, 2.0, 21), 1.0, 14.0, 2e-2),
    ("v", 1.0, np.linspace(0.05, 1.2, 21), 1.0, 14.0, 2e-2),
    # e^{-gamma t/2} underflows near t = 149 while the 4768 revivals run
    # on to the horizon; B from the amplitudes read 0 there
    ("v", 0.0, [50.0], 10.0, 300.0, 1e-3),
], ids=["delta-1.0-values0", "v-1.0-values1", "v-0.0-gamma10"])
def test_population_gain_precedes_flux_gain(axis, fixed, values, gamma,
                                            t_max, dt):
    # whatever the population takes back, the mode re-emits afterwards:
    # every completed C > 0 run is followed by a B > 0 sample
    smap = sign_map(axis, fixed, values, t_max=t_max, dt=dt, gamma=gamma)
    n_cols = smap.times.size
    checked = 0
    for i in range(len(values)):
        last_rise = np.flatnonzero(smap.b_pos[i])[-1:]
        for start, end in _runs(smap.c_pos[i]):
            if end < n_cols - 1:
                assert last_rise.size and last_rise[0] > end
                checked += 1
    assert checked > 0


def test_sign_map_csv(tmp_path):
    smap = sign_map("delta", 1.0, [0.0, 1.0], t_max=0.1, dt=0.05)
    path = tmp_path / "sign_map.csv"
    smap.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,delta,c_pos,b_pos"
    assert len(lines) == 1 + 2 * smap.times.size
    assert set(line.split(",")[2] for line in lines[1:]) <= {"0", "1"}
