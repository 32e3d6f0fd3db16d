"""Unit tests for ``cavityflux.spectrum``."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from cavityflux import dynamics, nonmarkov, spectrum
from cavityflux.dynamics import (DEFAULT_DT, DEFAULT_T_MAX, FluxSeries,
                                 ModelParams, amplitudes_analytic,
                                 photon_flux_analytic, splitting, time_grid)
from cavityflux.nonmarkov import markovian_boundary, nm_measure
from cavityflux.spectrum import (
    NYQUIST,
    SHOULDER_FLOOR,
    EmptyRegion,
    NoSignal,
    SpectrumResult,
    analytic_spectrum,
    classify,
    coherent_frequency,
    detrend,
    dft,
    dominant_peak,
    threshold_frequency,
)
from cavityflux.trajectories import estimate_flux

# the four spectral showcase points (delta, v) and their frozen analytic
# peak locations and prominences at T = 14, dt = 1e-3
SHOWCASE = {
    (2.0, 2.0): (4.367715317483424, 0.13893462960022532),
    (0.0, 0.9): (0.5447903873459334, 0.18848144571838718),
    (1.0, 0.7): (0.5375509146727204, 0.19454215241813272),
    (1.7, 0.3): (1.6986165200958128, 0.1581121495507907),
}


def _flux_spectrum(v, delta):
    flux = photon_flux_analytic(ModelParams(v=v, delta=delta))
    return dft(detrend(flux), flux.dt)


def test_detrend_removes_mean():
    flux = photon_flux_analytic(ModelParams(v=1.0, delta=0.0), dt=1e-2)
    r = detrend(flux)
    assert abs(r.mean()) < 1e-15
    const = FluxSeries(times=np.arange(10) * 0.1, values=np.full(10, 3.7))
    assert_allclose(detrend(const), np.zeros(10), rtol=0.0, atol=1e-15)


def test_dft_validation():
    with pytest.raises(ValueError):
        dft(np.array([1.0]), 0.1)


def test_dft_grid():
    spec = dft(np.zeros(100), 0.05)
    assert spec.omega.size == 51
    assert spec.omega[0] == 0.0
    assert_allclose(spec.bin_width, 2.0 * np.pi / (100 * 0.05))
    assert_allclose(np.diff(spec.omega), spec.bin_width)


def test_pure_cosine_concentrates_in_one_bin():
    n, dt, k = 1000, 0.01, 50
    t = np.arange(n) * dt
    spec = dft(np.cos(2.0 * np.pi * k * t / (n * dt)), dt)
    assert_allclose(spec.power[k], (n / 2.0) ** 2, rtol=1e-12)
    others = np.delete(spec.power, k)
    assert np.max(others) < 1e-20 * spec.power[k]


def test_parseval():
    # sum over all N bins of |S_k|^2 equals N sum r^2, odd and even N
    rng = np.random.default_rng(23)
    for n in (16, 17, 200, 201):
        r = rng.standard_normal(n)
        spec = dft(r, 0.1)
        assert_allclose(spec.total_power(), n * np.sum(r ** 2), rtol=1e-10)
        full = np.sum(np.abs(np.fft.fft(r)) ** 2)
        assert_allclose(spec.total_power(), full, rtol=1e-10)


def test_wiener_khinchin():
    # inverse transform of the power equals the circular autocorrelation
    rng = np.random.default_rng(29)
    for n in (64, 101):
        r = rng.standard_normal(n)
        spec = dft(r, 0.1)
        via_fft = np.fft.irfft(spec.power, n=n)
        brute = np.array([np.dot(r, np.roll(r, -lag)) for lag in range(n)])
        assert_allclose(via_fft, brute, rtol=0.0,
                        atol=1e-10 * np.abs(brute[0]))


def test_coherent_frequency_values():
    assert coherent_frequency(2.0, 2.0) == pytest.approx(np.sqrt(20.0))
    assert coherent_frequency(1.0, 0.0) == pytest.approx(2.0)
    assert coherent_frequency(0.0, 1.3) == pytest.approx(1.3)
    assert coherent_frequency(0.5, -1.0) == coherent_frequency(0.5, 1.0)


def test_dominant_peak_pure_cosine():
    n, dt, k = 1000, 0.01, 50
    t = np.arange(n) * dt
    spec = dft(np.cos(2.0 * np.pi * k * t / (n * dt)), dt)
    peak = dominant_peak(spec)
    assert peak.k_peak == k
    assert peak.omega_peak == pytest.approx(k * spec.bin_width, rel=1e-12)
    # with the shoulder excluded a pure tone keeps prominence one half
    assert peak.prominence == pytest.approx(0.5, rel=1e-9)


def test_dominant_peak_off_bin():
    # sub-bin interpolation beats the half-bin rounding error
    n, dt = 1000, 0.01
    t = np.arange(n) * dt
    bw = 2.0 * np.pi / (n * dt)
    for frac in (50.3, 50.5, 37.77):
        omega = frac * bw
        r = np.cos(omega * t)
        peak = dominant_peak(dft(r - r.mean(), dt))
        assert abs(peak.omega_peak - omega) < 0.35 * bw


def _loop_valley(p):
    # reference: the bin-by-bin shoulder walk, then the bare-shoulder reset
    kmax = p.size - 1
    k1 = 1
    while k1 + 1 <= kmax and p[k1 + 1] < p[k1]:
        k1 += 1
    if k1 >= kmax:
        return 1
    kp = k1 + int(np.argmax(p[k1:]))
    return 1 if p[kp] < SHOULDER_FLOOR * p[1] else k1


def _power_spectrum(power):
    power = np.asarray(power, dtype=float)
    n = 2 * (power.size - 1)
    return SpectrumResult(power=power, n_samples=n, dt=1.0)


@pytest.mark.parametrize("spec, k_valley", [
    # monotone: the walk reaches kmax, so bin 1 is reported
    (_power_spectrum(1.0 / (1.0 + np.arange(101.0) ** 2)), 1),
    # equal neighbours end the descent
    (_power_spectrum([10.0, 8.0, 6.0, 6.0, 5.0, 9.0, 2.0, 1.0]), 2),
    (dft(detrend(photon_flux_analytic(ModelParams(v=2.0, delta=2.0))), 1e-3),
     6),
], ids=["monotone", "equal", "flux"])
def test_shoulder_walk_matches_loop(spec, k_valley):
    assert _loop_valley(spec.power) == k_valley
    assert dominant_peak(spec).k_valley == k_valley


@pytest.mark.parametrize("power", [
    # a NaN bin after the shoulder's valley, and at it: the walk used to
    # run on and report a NaN omega_peak or a prominence of 0
    [10.0, 8.0, 6.0, np.nan, 5.0, 9.0, 2.0, 1.0],
    [10.0, 8.0, np.nan, 5.0, 4.0, 9.0, 2.0, 1.0],
    # a total that overflows
    [10.0, 8.0, 1e308, 5.0, 4.0, 9.0, 2.0, 1.0],
], ids=["nan-after", "nan-at", "overflow"])
def test_dominant_peak_refuses_a_non_finite_total(power):
    with pytest.raises(FloatingPointError, match="total power is (nan|inf)"):
        dominant_peak(_power_spectrum(power))


def test_white_noise_has_no_prominent_line():
    noise = np.random.default_rng(0).standard_normal(14001)
    peak = dominant_peak(dft(noise - noise.mean(), 1e-3))
    assert peak.prominence < 0.05


# ids: point<i>-expected<i> on the grid + rfft path, and
# closed-form-point<i>-expected<i> on analytic_spectrum
@pytest.mark.parametrize("spectrum,point,expected", [
    pytest.param(spectrum, point, expected, id=f"{prefix}point{i}-expected{i}")
    for prefix, spectrum in (
        ("", _flux_spectrum),
        ("closed-form-",
         lambda v, delta: analytic_spectrum(ModelParams(v=v, delta=delta))))
    for i, (point, expected) in enumerate(sorted(SHOWCASE.items()))])
def test_flux_peaks_frozen(spectrum, point, expected):
    delta, v = point
    peak = dominant_peak(spectrum(v, delta))
    omega_ref, prom_ref = expected
    assert peak.omega_peak == pytest.approx(omega_ref, rel=1e-9)
    assert peak.prominence == pytest.approx(prom_ref, rel=1e-9)


def test_strong_point_peak_near_coherent_frequency():
    spec = _flux_spectrum(2.0, 2.0)
    peak = dominant_peak(spec)
    assert abs(peak.omega_peak - np.sqrt(20.0)) <= spec.bin_width


# (V, delta) in units of gamma: the whole drawn range, and a strip from
# 1e-9 to 1e-2 relative of d = 0 (V = gamma/4 on resonance)
SPECTRUM_POINTS = st.one_of(
    st.tuples(st.floats(0.01, 5.0), st.floats(-5.0, 5.0)),
    st.tuples(st.tuples(st.floats(1e-9, 1e-2), st.sampled_from((-1.0, 1.0)))
              .map(lambda e: 0.25 * (1.0 + e[0] * e[1])),
              st.floats(-1e-6, 1e-6)))


@settings(max_examples=100)
@example(point=(0.25, 0.0), gamma=1.0)      # d = 0
@given(point=SPECTRUM_POINTS, gamma=st.floats(0.1, 10.0))
def test_closed_form_matches_the_grid_transform(point, gamma):
    params = ModelParams(v=point[0] * gamma, delta=point[1] * gamma,
                         gamma=gamma, t_max=DEFAULT_T_MAX / gamma)
    dt = DEFAULT_DT / gamma
    closed = analytic_spectrum(params, dt)
    grid = dft(detrend(photon_flux_analytic(params, dt)), dt)
    assert_array_equal(closed.omega, grid.omega)
    assert closed.n_samples == grid.n_samples
    assert (np.max(np.abs(closed.power - grid.power))
            <= 1e-11 * np.max(grid.power))
    got, ref = dominant_peak(closed), dominant_peak(grid)
    assert (got.k_peak, got.k_valley) == (ref.k_peak, ref.k_valley)
    assert got.omega_peak == pytest.approx(ref.omega_peak, rel=1e-11)
    assert got.prominence == pytest.approx(ref.prominence, rel=1e-11)


def test_spectrum_refuses_an_aliased_line():
    # Omega = 3200 lies past the Nyquist frequency pi / dt = 3141.6 at
    # dt = 1e-3, and the folded line showed up at omega_peak = 3083
    params = ModelParams(v=1600.0, delta=0.0)
    largest = NYQUIST / abs(splitting(params).imag)
    for call in (lambda: analytic_spectrum(params),
                 lambda: classify(params, 1.0)):
        with pytest.raises(ValueError, match=f"^dt must be < {largest:.6g} "):
            call()
    # below Nyquist the line sits at Omega = 3000
    peak = dominant_peak(analytic_spectrum(ModelParams(v=1500.0, delta=0.0)))
    assert peak.omega_peak == pytest.approx(3000.0, abs=0.5)


def test_peak_tracks_coherent_frequency():
    # in the deep non-Markovian regime the line sits at Omega(V, delta)
    for v, delta in [(1.5, 0.0), (2.0, 1.0), (1.2, 2.0), (2.5, 2.5)]:
        spec = _flux_spectrum(v, delta)
        peak = dominant_peak(spec)
        omega = coherent_frequency(v, delta)
        assert abs(peak.omega_peak - omega) <= spec.bin_width + 0.05 * omega


def test_no_signal():
    zero = photon_flux_analytic(ModelParams(v=0.0, delta=0.0))
    with pytest.raises(NoSignal):
        dominant_peak(dft(detrend(zero), zero.dt))
    const = FluxSeries(times=np.arange(50) * 0.1, values=np.full(50, 2.0))
    with pytest.raises(NoSignal):
        dominant_peak(dft(detrend(const), 0.1))


def test_spectrum_csv(tmp_path):
    spec = _flux_spectrum(1.0, 0.0)
    path = tmp_path / "spectrum.csv"
    spec.to_csv(path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert data.dtype.names == ("omega", "power")
    assert_array_equal(data["omega"], spec.omega)
    assert_array_equal(data["power"], spec.power)


def test_threshold_frequency_resonant_column():
    curve = markovian_boundary([0.0])
    thr = threshold_frequency(curve)
    # Omega at the resonant critical coupling is 2 V_c = 0.5
    assert thr.omega_m == pytest.approx(0.5, abs=2e-3)
    assert thr.delta_star == 0.0
    assert thr.v_star == pytest.approx(0.25, abs=1e-3)


def test_threshold_frequency_grows_with_domain():
    small = threshold_frequency(markovian_boundary([0.0]))
    larger = threshold_frequency(markovian_boundary([0.0, 0.5, 1.0]))
    assert larger.omega_m > small.omega_m
    assert larger.delta_star == 1.0


def test_threshold_frequency_with_grid():
    curve = markovian_boundary([0.0])
    thr = threshold_frequency(curve, v_grid=[0.1, 0.2, 0.24])
    assert thr.v_star == pytest.approx(0.24)
    assert thr.omega_m == pytest.approx(0.48)
    with pytest.raises(EmptyRegion):
        threshold_frequency(curve, v_grid=[0.3, 0.5])
    with pytest.raises(EmptyRegion):        # no grid point at all
        threshold_frequency(curve, v_grid=[])


def test_threshold_frequency_all_markovian_column():
    curve = markovian_boundary([0.0], v_search=(0.05, 0.2))
    thr = threshold_frequency(curve)
    assert thr.v_star == pytest.approx(0.2)
    assert thr.omega_m == pytest.approx(0.4)


def test_threshold_frequency_empty_region():
    curve = markovian_boundary([1.9])   # whole window non-Markovian
    with pytest.raises(EmptyRegion):
        threshold_frequency(curve)


def test_threshold_frequency_in_units_of_gamma():
    # detunings and the coupling grid scaled by gamma, the boundary's
    # defaults in units of gamma: Omega_M and its argmax scale with gamma
    deltas = np.linspace(0.0, 2.0, 9)
    vs = np.linspace(0.05, 1.2, 50)

    def run(gamma):
        curve = markovian_boundary(deltas * gamma, gamma=gamma)
        return threshold_frequency(curve, v_grid=vs * gamma)

    reference = run(1.0)
    assert reference.delta_star == 1.75
    for gamma in (0.1, 10.0):
        thr = run(gamma)
        assert thr.omega_m / gamma == pytest.approx(reference.omega_m,
                                                    rel=1e-12, abs=0.0)
        assert thr.v_star / gamma == pytest.approx(reference.v_star,
                                                   rel=1e-12, abs=0.0)
        assert thr.delta_star / gamma == pytest.approx(reference.delta_star,
                                                       rel=1e-12, abs=0.0)


OMEGA_M = 1.8170


def test_classify_quartet():
    detected = classify(ModelParams(v=2.0, delta=2.0), OMEGA_M,
                        ground_truth=True)
    assert detected.label == "NonMarkovianDetected"
    assert detected.n_value > 1e-10

    for v, delta in [(0.9, 0.0), (0.7, 1.0)]:
        verdict = classify(ModelParams(v=v, delta=delta), OMEGA_M,
                           ground_truth=True)
        assert verdict.label == "NonMarkovianUndetectable"

    # weak-flux point: the detector alone keeps it MarkovianConsistent
    weak = classify(ModelParams(v=0.3, delta=1.7), OMEGA_M)
    assert weak.label == "MarkovianConsistent"
    assert weak.n_value is None
    # although the exact measure knows it is (barely) non-Markovian
    refined = classify(ModelParams(v=0.3, delta=1.7), OMEGA_M,
                       ground_truth=True)
    assert refined.label == "NonMarkovianUndetectable"
    assert 0.0 < refined.n_value < 1e-3


def test_classify_markovian_point():
    verdict = classify(ModelParams(v=0.2, delta=0.0), OMEGA_M,
                       ground_truth=True)
    assert verdict.label == "Markovian"
    assert verdict.n_value == 0.0


def test_classify_prominence_gate():
    verdict = classify(ModelParams(v=2.0, delta=2.0), OMEGA_M,
                       min_prominence=0.99)
    assert verdict.label == "MarkovianConsistent"


def test_classify_zero_flux():
    verdict = classify(ModelParams(v=0.0, delta=0.0), OMEGA_M)
    assert verdict.label == "MarkovianConsistent"
    assert verdict.note == "zero flux"
    assert verdict.omega_peak is None
    refined = classify(ModelParams(v=0.0, delta=0.0), OMEGA_M,
                       ground_truth=True)
    assert refined.label == "Markovian"
    assert refined.note == "zero flux"


def test_classify_accepts_estimated_flux():
    params = ModelParams(v=2.0, delta=2.0)
    est = estimate_flux(params, 20000, bin_width=0.1, master_seed=42)
    verdict = classify(params, OMEGA_M, flux=est)
    assert verdict.label == "NonMarkovianDetected"


def test_classify_makes_no_full_grid_kernel_pass(monkeypatch):
    # the analytic flux's spectrum is in closed form, and the measure
    # scans the sign of sigma and evaluates only revival endpoints
    params = ModelParams(v=1.0, delta=0.5)
    grid = time_grid(params.t_max, DEFAULT_DT)
    full_grid_calls = []

    def counting(p, t):
        if np.shape(t) == grid.shape and np.array_equal(t, grid):
            full_grid_calls.append(p)
        return amplitudes_analytic(p, t)

    for mod in (dynamics, nonmarkov):
        monkeypatch.setattr(mod, "amplitudes_analytic", counting)
    verdict = classify(params, OMEGA_M, ground_truth=True)
    assert len(full_grid_calls) == 0
    assert verdict.n_value == nm_measure(params).n_value > 0.0


@pytest.mark.parametrize("params", [
    ModelParams(v=0.0, delta=0.3),
    ModelParams(v=1.0, delta=0.0, c0_init=0.0),
    ModelParams(v=1.0, delta=0.0, gamma=0.0),
], ids=["v", "c0", "gamma"])
def test_zero_flux_has_a_zero_spectrum(params):
    # gamma V c0 = 0 is a flux that is zero throughout, decided exactly
    assert not analytic_spectrum(params).power.any()
    verdict = classify(params, OMEGA_M)
    assert verdict.label == "MarkovianConsistent"
    assert verdict.note == "zero flux"
    assert verdict.omega_peak is None


def test_weak_flux_is_not_zero_flux():
    # only a flux that is zero throughout has no line: one of order
    # 1e-18, and one watched for only 1e-8, keep theirs, as on the grid
    for params, dt in [(ModelParams(v=1e-6, delta=0.0), DEFAULT_DT),
                       (ModelParams(v=1e-9, delta=0.0), DEFAULT_DT),
                       (ModelParams(v=1.0, delta=0.0, t_max=1e-8), 1e-11)]:
        verdict = classify(params, OMEGA_M, dt=dt)
        assert verdict.note is None
        grid = dominant_peak(dft(detrend(photon_flux_analytic(params, dt)),
                                 dt))
        assert verdict.omega_peak == pytest.approx(grid.omega_peak, rel=1e-9)


@pytest.mark.parametrize("gamma", [1e-150, 1e-100, 1e100, 1e150, 1e152])
def test_closed_form_spectrum_at_extreme_gamma(scaled_point, gamma):
    # every factor of the closed form stays in float range from gamma =
    # 1e-152 upwards; the power grows as gamma^2 and overflows past 1e150,
    # but classify searches it free of that scale
    def run(g):
        params, dt = scaled_point(2.0, 2.0, g)
        return classify(params, 1.817 * g, dt=dt)

    ref, got = run(1.0), run(gamma)
    assert got.label == ref.label
    assert got.omega_peak / gamma == pytest.approx(ref.omega_peak, rel=1e-12)
    assert got.prominence == pytest.approx(ref.prominence, rel=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("gamma", [1e-155, 1e152])
def test_spectrum_out_of_float_range_raises(scaled_point, gamma):
    # below, f's t^2 overflows to NaN, and classify refuses too; above,
    # the total power overflows, which classify's scale-free search does
    # not reach (its row is in test_closed_form_spectrum_at_extreme_gamma)
    params, dt = scaled_point(2.0, 2.0, gamma)
    with pytest.raises(ArithmeticError):
        dominant_peak(analytic_spectrum(params, dt))
    if gamma < 1.0:
        with pytest.raises(FloatingPointError):
            classify(params, 1.817 * gamma, dt=dt)


@pytest.mark.parametrize("gamma", [1.0, 1e-4, 0.1, 10.0])
def test_classify_at_a_subnormal_power(scaled_point, gamma):
    # at V = 9.95e-81 gamma the flux power is near 1e-315 gamma^2, below
    # the normal range: searched at that scale, gamma = 1e-4 read
    # MarkovianConsistent with omega_peak 1.79507 gamma
    def run(g):
        params, dt = scaled_point(9.95e-81, 2.0, g)
        return classify(params, 1.817 * g, dt=dt)

    ref, got = run(1.0), run(gamma)
    assert ref.label == "NonMarkovianDetected"
    assert got.label == ref.label
    assert got.omega_peak / gamma == pytest.approx(ref.omega_peak, rel=1e-11)
    assert got.prominence == pytest.approx(ref.prominence, rel=1e-11)


@settings(max_examples=150)
@example(point=(0.25, 0.0), horizon=(14.0, 1e-3))       # d = 0
@given(point=SPECTRUM_POINTS,
       horizon=st.sampled_from([(14.0, 1e-3), (0.5, 1e-3), (300.0, 1e-2)]))
def test_lazy_peak_matches_every_bin(point, horizon):
    # classify reads a prefix of the bins, the closed-form total and a
    # bound on the bins it skips; dominant_peak reads every bin
    params = ModelParams(v=point[0], delta=point[1], t_max=horizon[0])
    lazy = spectrum._analytic_peak(params, horizon[1])
    full = dominant_peak(analytic_spectrum(params, horizon[1]))
    assert (lazy.k_peak, lazy.k_valley) == (full.k_peak, full.k_valley)
    assert lazy.omega_peak == pytest.approx(full.omega_peak, rel=1e-12)
    assert lazy.prominence == pytest.approx(full.prominence, rel=1e-11)


@settings(max_examples=100)
@given(point=SPECTRUM_POINTS,
       horizon=st.sampled_from([(14.0, 1e-3), (0.5, 1e-3), (300.0, 1e-2)]),
       start=st.floats(0.0, 1.0))
def test_tail_bound_covers_the_bins_left(point, horizon, start):
    # the certificate classify stops on: no bin from k0 on exceeds
    # tail(k0)
    params = ModelParams(v=point[0], delta=point[1], t_max=horizon[0])
    n = round(horizon[0] / horizon[1]) + 1
    bins, tail = spectrum._shape_dft(params, splitting(params), n,
                                     horizon[1])
    size = np.abs(bins(np.arange(1, n // 2 + 1)))
    k0 = 1 + round(start * (n // 2 - 1))
    assert tail(k0) >= size[k0 - 1:].max()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("v, c0, gamma, error", [
    (0.0, 1.0, 1.0, NoSignal),
    (1.0, 0.0, 1.0, NoSignal),
    (2.0e-155, 1.0, 1e-155, FloatingPointError),
], ids=["v", "c0", "nan"])
def test_lazy_peak_refuses_as_every_bin_does(v, c0, gamma, error):
    params = ModelParams(v=v, delta=2.0 * gamma, gamma=gamma, c0_init=c0,
                         t_max=DEFAULT_T_MAX / gamma)
    dt = DEFAULT_DT / gamma
    with pytest.raises(error):
        spectrum._analytic_peak(params, dt)
    with pytest.raises(error):
        dominant_peak(analytic_spectrum(params, dt))


def test_verdict_serialization():
    verdict = classify(ModelParams(v=0.9, delta=0.0), OMEGA_M)
    blob = verdict.to_dict()
    assert blob["label"] == "MarkovianConsistent"
    assert blob["params"]["v"] == 0.9
    assert "omega_peak" in verdict.to_json()


@settings(max_examples=150)
@given(v=st.floats(0.0, 5.0), delta=st.floats(-5.0, 5.0),
       log_gamma=st.floats(-12.0, 3.0))
def test_gamma_invariance(v, delta, log_gamma, scaled_point):
    # rates scaled by gamma and times by 1/gamma: the label, the measure,
    # omega_peak / gamma and the prominence must not change
    def run(g):
        params, dt = scaled_point(v, delta, g)
        return classify(params, 1.817 * g, ground_truth=True, dt=dt)

    gamma = 10.0 ** log_gamma
    ref, got = run(1.0), run(gamma)
    assert got.label == ref.label
    assert got.n_value == pytest.approx(ref.n_value, rel=1e-9, abs=1e-12)
    if ref.omega_peak is None:      # zero flux at V = 0
        assert got.omega_peak is None
    else:
        assert got.omega_peak / gamma == pytest.approx(ref.omega_peak,
                                                       rel=1e-11)
    assert got.prominence == pytest.approx(ref.prominence, rel=1e-11)
