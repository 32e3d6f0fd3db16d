"""Power spectrum of the photon flux and the spectral detector.

The detrended flux r(t) = R(t) - mean(R) is transformed by a plain DFT
(S_k = sum_m r_m e^{-2 pi i m k / N}, angular bins omega_k = 2 pi k /
(N dt)), and the dominant oscillation line is located with sub-bin
parabolic interpolation.  The analytic flux is a sum of four
exponentials, so analytic_spectrum sums its DFT's geometric series in
closed form, with no samples and no FFT; dft serves sampled fluxes.
classify needs only the line, so for the analytic flux it evaluates the
closed form bin by bin in doubling blocks from bin 1, stops once a bound
on the bins left certifies the line, and takes the total power from
Parseval's sum in closed form; where either is not certain it reads
every bin, as analytic_spectrum does.

The decaying envelope of R(t) contributes a non-oscillatory low-pass
shoulder that always dominates the first bins.  The peak search walks
down that shoulder to its first valley and looks for the line beyond
it; the prominence denominator likewise excludes the shoulder bins, so
a flux that is pure decay scores low and an oscillatory flux scores
high, independent of how much envelope power it carries.

A coherent line at Omega(V, delta) = sqrt(4 V^2 + delta^2) faster than
the largest Omega attainable in the Markovian region certifies
non-Markovian dynamics.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (DEFAULT_DT, FluxSeries, ModelParams, grid_steps,
                       require_finite, require_reals, require_resolved)
from .files import write_csv
from .nonmarkov import EPS_N, BoundaryCurve, nm_measure

DEFAULT_MIN_PROMINENCE = 0.1
SHOULDER_FLOOR = 1e-6       # beyond-valley peak must exceed this x bin-1 power
# |Im d| dt at which the flux line Omega = |Im d| / 2 reaches the
# Nyquist frequency pi / dt and folds back
NYQUIST = 2.0 * np.pi


class NoSignal(ValueError):
    """Detrended signal carries no power: its spectrum is zero."""


class EmptyRegion(ValueError):
    """No Markovian parameter points in the requested domain."""


def _finite_flux(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"flux samples must be finite, got "
                         f"{values[bad[0]]} at sample {bad[0]}")
    return values


def detrend(flux: FluxSeries) -> np.ndarray:
    """r = R - mean(R), the discrete version of subtracting the time
    average over the observation window.  A non-finite sample raises
    ValueError."""
    values = _finite_flux(flux.values)
    return values - values.mean()


@dataclass(frozen=True)
class SpectrumResult:
    """Power |S_k|^2 of the DFT of a real signal, over k = 0 .. N // 2."""

    power: np.ndarray
    n_samples: int
    dt: float

    @property
    def omega(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.rfftfreq(self.n_samples, self.dt)

    @property
    def bin_width(self) -> float:
        return 2.0 * np.pi / (self.n_samples * self.dt)

    def total_power(self) -> float:
        """Sum of |S_k|^2 over all N bins, via Hermitian symmetry."""
        total = self.power[0] + 2.0 * float(np.sum(self.power[1:]))
        if self.n_samples % 2 == 0:
            total -= self.power[-1]    # Nyquist bin has no mirror
        return total

    def to_csv(self, path):
        write_csv(path, "omega,power", self.omega, self.power)


def dft(r, dt: float) -> SpectrumResult:
    """Discrete Fourier transform of the detrended flux.

    No window: the flux decays to ~0 within the horizon, so leakage is
    already limited.  A non-finite sample raises ValueError: its
    spectrum would be NaN in every bin.
    """
    require_finite("dt", dt, 0, strict=True)
    r = _finite_flux(r)
    n = r.size
    if n < 2:
        raise ValueError("need at least 2 samples")
    return SpectrumResult(power=np.abs(np.fft.rfft(r)) ** 2, n_samples=n,
                          dt=float(dt))


def _shape_dft(gamma: float, d: complex, n: int, dt: float):
    """The n-point DFT S_k of f(t) = e^{-gamma t/2} (cosh(xt) - cos(yt)) /
    (x^2 + y^2), x + iy = w = d/2, d the splitting at decay rate gamma,
    in closed form, as two functions:
    bins(k), S at an array of bin numbers k in 1 .. n//2, elementwise, so
    a block of bins costs its own size; and tail(k0), an upper bound on
    |S_k| over every k0 <= k <= n//2.

    With p = e^{-gamma dt/2 - 2 pi i k/n}, T = n dt and C = cosh(sqrt(s) t),
    the DFT of e^{-gamma t/2} C is the geometric sum h = num / den, num =
    1 - p C(dt) - p^n C(T) + p^{n+1} C(T - dt), den = 1 + p^2 - 2 p C(dt).
    f's DFT is h's divided difference at s = x^2, -y^2, (num[.] - h(-y^2)
    den[.]) / den(x^2), where each C[.] is e^{gamma t/2} f(t): nothing is
    divided by |w|^2, so the form holds through d = 0.

    In rho = e^{-2 pi i k/n}, S is a sum of three terms, one with a pole
    at each of e^{(-gamma/2 +- iy) dt}, over two factors with poles at
    e^{(-gamma/2 +- x) dt}.  Each 1 / |1 - z rho| falls with the angle
    between rho and 1/z, so over k0 .. n//2 it is largest at the bin
    nearest its pole, or at an end; tail takes each term and factor
    there, and adds 1e-9 for rounding.
    """
    w, t_end = d / 2.0, n * dt

    def f(t):   # from expm1(u) / u, u = -w t: no digit is lost as w -> 0
        u = -w * t
        rel = np.expm1(u) / u if u else 1.0
        return t * t / 2.0 * abs(np.exp((w - gamma / 2.0) * t / 2.0)
                                 * rel) ** 2

    f_dt, f_end = f(dt), f(t_end)
    lead = np.exp(-gamma * dt) * f(t_end - dt) - f_dt

    def one_minus_p(lam, one_minus_rot):   # 1 - p e^{lam dt}, with its digits
        log_c = (lam - gamma / 2.0) * dt
        return -np.expm1(log_c) + np.exp(log_c) * one_minus_rot

    def geometric(lam, one_minus_rot):     # sum of p^m e^{lam m dt}, m < n
        return (-np.expm1((lam - gamma / 2.0) * t_end)
                / one_minus_p(lam, one_minus_rot))

    def bins(k):
        one_minus_rot = -np.expm1(-2j * np.pi * k / n)
        rot = 1.0 - one_minus_rot
        cos_sum = (geometric(1j * w.imag, one_minus_rot)
                   + geometric(-1j * w.imag, one_minus_rot))    # 2 h(-y^2)
        return ((rot * lead - f_end + rot * f_dt * cos_sum)
                / (one_minus_p(w.real, one_minus_rot)
                   * one_minus_p(-w.real, one_minus_rot)))

    def tail(k0):
        ends = (2.0 * np.pi * k0 / n, 2.0 * np.pi * (n // 2) / n)

        def least(re, im):     # min of |1 - p e^{lam dt}| over k0 .. n//2
            # |1 - r e^{i phi}|^2 = (1 - r)^2 + 4 r sin^2(phi / 2)
            closest = min(max(im * dt, ends[0]), ends[1])
            s2 = min(math.sin((im * dt - a) / 2.0) ** 2
                     for a in (*ends, closest))
            log_r = (re - gamma / 2.0) * dt
            return math.sqrt(math.expm1(log_r) ** 2
                             + 4.0 * math.exp(log_r) * s2)

        x, y = w.real, w.imag
        # |geometric(+-iy)| <= |1 - e^{(+-iy - gamma/2) T}| / least(0, +-y)
        log_r = -gamma * t_end / 2.0
        cos_size = math.sqrt(math.expm1(log_r) ** 2 + 4.0 * math.exp(log_r)
                             * math.sin(y * t_end / 2.0) ** 2)
        poles = cos_size * (1.0 / least(0.0, y) + 1.0 / least(0.0, -y))
        near, far = least(x, 0.0), least(-x, 0.0)
        # rho lead - f_end = lead - f_end - (1 - rho) lead, and
        # |1 - rho| <= |1 - z rho| + |1 - z| at z = e^{(x - gamma/2) dt}
        jump = abs(math.expm1((x - gamma / 2.0) * dt))
        return (1.0 + 1e-9) * ((abs(lead - f_end) + f_dt * poles)
                               / (near * far)
                               + abs(lead) * (1.0 + jump / near) / far)

    return bins, tail


def _parseval_total(gamma: float, d: complex, n: int, dt: float):
    """Sum over all n bins of |gamma^2 S_k|^2 (S of _shape_dft), or None
    where its rounding could reach 1e-13 of it.

    By Parseval it is n sum_m r_m^2, r = f - mean(f) over f's n samples,
    (gamma / |w|)^4 (n B2 - B1^2) with B1 = |w|^2 sum f and B2 = |w|^4
    sum f^2.  f^2 = e^{-gamma t} ((cosh 2xt + cos 2yt)/2 + 1 - 2 Re
    cosh(wt)) / |w|^4, so both are sums of geometric series.  Near d = 0
    (and on horizons short against 1/|w|) their terms cancel; there the
    caller sums the bins.
    """
    w = d / 2.0
    x, y = w.real, w.imag

    def geo(lam):                   # sum of e^{lam m dt}, m < n
        return n if lam == 0 else np.expm1(lam * n * dt) / np.expm1(lam * dt)

    t1 = (geo(x - gamma / 2.0) / 2.0, geo(-x - gamma / 2.0) / 2.0,
          -geo(1j * y - gamma / 2.0).real)
    t2 = (geo(2.0 * x - gamma) / 4.0, geo(-2.0 * x - gamma) / 4.0,
          geo(2j * y - gamma).real / 2.0, geo(-gamma),
          -geo(w - gamma).real, -geo(-w - gamma).real)
    b1, b2 = sum(t1), sum(t2)
    var = n * b2 - b1 * b1
    size = n * sum(map(abs, t2)) + 2.0 * abs(b1) * sum(map(abs, t1))
    if not 1e-13 * var > np.finfo(float).eps * size:
        return None
    scale = (gamma / abs(w)) ** 2
    return float(scale * scale * var)


def analytic_spectrum(params: ModelParams, dt: float = DEFAULT_DT) -> SpectrumResult:
    """Closed-form power of the DFT of the detrended analytic flux R =
    2 gamma V^2 |c0|^2 f (f of _shape_dft) on time_grid's samples: S_0 =
    0, and S = 0 when gamma, V or c0 is 0.  A dt that aliases the flux
    line (|Im d| dt >= NYQUIST) raises ValueError.  On a grid in units
    of 1/gamma, S grows as gamma; its factors stay in float range for
    gamma in 1e-152 .. 1e150.  Below that f's t^2 overflows to NaN,
    which raises FloatingPointError; above it the power overflows to
    inf.  Neither warns."""
    n = grid_steps(params.t_max, dt) + 1
    d = require_resolved(params, dt, NYQUIST)
    gamma, c2 = params.gamma, abs(complex(params.c0_init)) ** 2
    power = np.zeros(n // 2 + 1)
    if gamma and params.v and c2:
        scale = 2.0 * c2 * (params.v / gamma) ** 2 * gamma * gamma
        with np.errstate(all="ignore"):
            bins, _ = _shape_dft(gamma, d, n, dt)
            shape = bins(np.arange(1, n // 2 + 1))
            power[1:] = np.abs(scale * (gamma * shape)) ** 2
        if np.isnan(power).any():
            raise FloatingPointError(f"spectrum is NaN at gamma={gamma:g}")
    return SpectrumResult(power=power, n_samples=n, dt=float(dt))


def coherent_frequency(v: float, delta: float) -> float:
    """Oscillation frequency Omega = sqrt(4 V^2 + delta^2)."""
    return float(np.hypot(2.0 * v, delta))


def _parabolic_offset(pm: float, p0: float, pp: float) -> float:
    # vertex of the parabola through three power bins; 0 when the
    # stencil is not locally concave
    denom = pm - 2.0 * p0 + pp
    if denom >= 0.0:
        return 0.0
    off = 0.5 * (pm - pp) / denom
    return float(np.clip(off, -0.5, 0.5))


@dataclass(frozen=True)
class PeakEstimate:
    omega_peak: float
    prominence: float
    k_peak: int
    k_valley: int


def dominant_peak(spectrum: SpectrumResult) -> PeakEstimate:
    """Dominant oscillation line of the flux spectrum.

    Walks down the low-frequency decay shoulder from bin 1 to its first
    valley k1, takes the power argmax beyond it, and refines with
    parabolic interpolation on the power stencil.  If nothing beyond
    the valley rises above SHOULDER_FLOOR of bin 1 (or the descent
    reaches the end), the spectrum is a bare shoulder and bin 1 itself
    is reported.  prominence = peak-bin power / total power with the
    shoulder bins 1..k1-1 (and mirrors) excluded from the total, so a
    pure cosine still scores 1/2.  No prominence gating happens here.
    Zero total power raises NoSignal; an overflowed one, or a NaN one
    from a NaN bin, FloatingPointError.
    """
    p = spectrum.power
    return _peak(p, spectrum.total_power(), p.size - 1, spectrum.bin_width)


def _peak(p, total: float, kmax: int, bin_width: float, tail=None):
    """dominant_peak's walk and stencil on bins 0 .. K of a power
    spectrum with bins 0 .. kmax.  On a prefix (K < kmax) tail(k0) bounds
    the power of bins k0 .. kmax, and the result is None unless those
    bins cannot change it: the valley is found, and they lie below the
    best bin beyond it, whose stencil is in the prefix."""
    if kmax < 1:
        raise NoSignal("spectrum has no nonzero-frequency bins")
    if not total < np.inf:
        raise FloatingPointError(f"spectrum's total power is {total}")
    if total == 0.0:
        raise NoSignal("detrended signal carries no power")
    top = p.size - 1

    # first k >= 1 where p[k+1] < p[k] fails
    stops = np.flatnonzero(p[2:] >= p[1:-1])
    if stops.size:
        k1 = int(stops[0]) + 1
        kp = k1 + int(np.argmax(p[k1:]))
        best = p[kp]
    else:                   # the descent runs through every bin seen
        k1, kp, best = kmax, 1, 0.0
    # bins past a prefix change nothing if they lie below the best bin
    # beyond the valley, or below the floor, so the shoulder stays bare
    floor = SHOULDER_FLOOR * p[1]
    if top < kmax and not (kp < top and tail(top + 1) < max(best, floor)):
        return None
    if k1 >= kmax or best < floor:
        kp, k1 = 1 + int(np.argmax(p[1:])), 1

    denom = total - 2.0 * float(np.sum(p[1:k1]))
    prominence = float(p[kp] / denom) if denom > 0 else 0.0

    if 1 <= kp < kmax:
        off = _parabolic_offset(p[kp - 1], p[kp], p[kp + 1])
    else:
        off = 0.0
    omega_peak = (kp + off) * bin_width
    return PeakEstimate(omega_peak=float(omega_peak), prominence=prominence,
                        k_peak=int(kp), k_valley=int(k1))


def _analytic_peak(params: ModelParams, dt: float) -> PeakEstimate:
    """dominant_peak of analytic_spectrum, from the bins it needs.

    The power is searched as |S_k|^2 in units of gamma (gamma = 1, d /
    gamma, dt gamma), free of the flux's scale 2 gamma V^2 |c0|^2, which
    cancels from the prominence, and omega_peak is scaled back by gamma:
    so no power underflows at a small coupling or leaves float range at
    any gamma > 0, and the answer does not change when every input is
    rescaled by gamma.  Bins are evaluated in blocks, 1 .. 64 first, and
    the prefix doubles until the shoulder's valley is found and
    _shape_dft's tail bound over the bins left is below the best bin
    beyond it; the total power is _parseval_total's.
    Where either fails, every bin is evaluated and dominant_peak runs on
    them.  A zero flux (gamma, V or c0 is 0) raises NoSignal.  splitting
    runs once per call.
    """
    n = grid_steps(params.t_max, dt) + 1
    d = require_resolved(params, dt, NYQUIST)
    gamma, kmax = params.gamma, n // 2
    if not (gamma and params.v and complex(params.c0_init)):
        raise NoSignal("the flux is zero throughout")
    d, dt = d / gamma, dt * gamma
    bins, tail = _shape_dft(1.0, d, n, dt)
    total = _parseval_total(1.0, d, n, dt)
    power, top, peak = np.zeros(1), 0, None   # S_0 = 0: detrended flux
    while peak is None and top < kmax:
        top = kmax if total is None else min(max(2 * top, 64), kmax)
        shape = bins(np.arange(power.size, top + 1))
        power = np.concatenate([power, np.abs(shape) ** 2])
        if np.isnan(power).any():
            raise FloatingPointError(f"spectrum is NaN at gamma={gamma:g}")
        if top < kmax:
            peak = _peak(power, total, kmax, 2.0 * np.pi / (n * dt),
                         lambda k0: tail(k0) ** 2)
    if peak is None:
        peak = dominant_peak(SpectrumResult(power=power, n_samples=n,
                                            dt=float(dt)))
    return dataclasses.replace(peak, omega_peak=peak.omega_peak * gamma)


@dataclass(frozen=True)
class ThresholdFrequency:
    """Largest Omega attainable in the Markovian region, with argmax."""

    omega_m: float
    v_star: float
    delta_star: float


def threshold_frequency(boundary: BoundaryCurve,
                        v_grid=None) -> ThresholdFrequency:
    """Threshold frequency Omega_M over the Markovian region.

    Omega is increasing in both V and delta, so each detuning column
    contributes Omega at its largest Markovian coupling: the critical
    V_c where bracketed, the top of the search window where the whole
    column is Markovian, nothing where the whole column is already
    non-Markovian.  With v_grid given, the largest grid point strictly
    below the column limit is used (max over Markovian grid points);
    without it the boundary curve itself is the limit.  A v_grid that
    is not a finite 1-D array of numbers >= 0 raises ValueError.
    """
    v_lo, v_hi = boundary.v_search
    unbracketed = {d: kind for d, kind in boundary.unbracketed}
    grid = None if v_grid is None else require_reals("v_grid", v_grid)
    if grid is not None and (grid.ndim != 1
                             or not (np.isfinite(grid) & (grid >= 0)).all()):
        raise ValueError(f"v_grid must be 1-D, finite and >= 0, got {v_grid}")

    best = None
    for delta, vc in zip(boundary.deltas, boundary.v_c):
        # an all-Markovian column includes its limit v_hi; V_c does not
        markov_column = np.isnan(vc)
        if markov_column and unbracketed.get(float(delta)) != "all_markovian":
            continue
        v_m = v_hi if markov_column else float(vc)
        if grid is not None:
            below = grid[grid <= v_m] if markov_column else grid[grid < v_m]
            if below.size == 0:
                continue
            v_m = float(below.max())
        cand = (coherent_frequency(v_m, float(delta)), v_m, float(delta))
        if best is None or cand > best:
            best = cand
    if best is None:
        raise EmptyRegion("no Markovian points in the requested domain")
    return ThresholdFrequency(omega_m=best[0], v_star=best[1],
                              delta_star=best[2])


@dataclass(frozen=True)
class RegionVerdict:
    """Classification of one parameter point.

    Without ground truth the labels are NonMarkovianDetected /
    MarkovianConsistent (what the detector alone can say).  With ground
    truth the undetected side refines to NonMarkovianUndetectable /
    Markovian.
    """

    label: str
    omega_peak: float | None
    omega_threshold: float
    prominence: float
    params: ModelParams
    n_value: float | None = None
    note: str | None = None

    def with_ground_truth(self, n_value: float,
                          eps_n: float) -> RegionVerdict:
        """This verdict with the measure's n_value: an undetected point
        is NonMarkovianUndetectable where n_value > eps_n, else
        Markovian."""
        label = self.label
        if label != "NonMarkovianDetected":
            label = ("NonMarkovianUndetectable" if n_value > eps_n
                     else "Markovian")
        return dataclasses.replace(self, label=label, n_value=n_value)

    def to_dict(self) -> dict:
        p = self.params
        return {
            "label": self.label,
            "omega_peak": self.omega_peak,
            "omega_threshold": self.omega_threshold,
            "prominence": self.prominence,
            "params": {"gamma": p.gamma, "v": p.v, "delta": p.delta,
                       "t_max": p.t_max},
            "n_value": self.n_value,
            "note": self.note,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def classify(params: ModelParams, omega_threshold: float,
             min_prominence: float = DEFAULT_MIN_PROMINENCE,
             flux: FluxSeries | None = None, ground_truth: bool = False,
             dt: float = DEFAULT_DT, eps_n: float = EPS_N) -> RegionVerdict:
    """Spectral non-Markovianity verdict for one parameter point.

    Detection requires the dominant line above omega_threshold with at
    least min_prominence.  flux defaults to the analytic R(t), whose
    line is read from analytic_spectrum's closed form, evaluated only at
    the bins the peak needs and free of the flux's scale (_analytic_peak);
    a sampled flux, such as estimate_flux's, goes through dft unchanged.  With ground_truth
    the measure is evaluated to refine undetected points into Markovian
    vs NonMarkovianUndetectable.  A flux step that aliases the flux line
    (|Im d| dt >= NYQUIST), or with ground_truth one the measure refuses,
    raises ValueError, and a spectrum out of float range ArithmeticError.
    """
    require_finite("omega_threshold", omega_threshold, 0)
    require_finite("min_prominence", min_prominence)
    require_finite("eps_n", eps_n)
    if flux is not None:
        require_resolved(params, flux.dt, NYQUIST)
        spec = dft(detrend(flux), flux.dt)
    note = None
    try:
        peak = (_analytic_peak(params, dt) if flux is None
                else dominant_peak(spec))
        omega_peak: float | None = peak.omega_peak
        prominence = peak.prominence
        detected = (peak.omega_peak > omega_threshold
                    and peak.prominence >= min_prominence)
    except NoSignal:
        omega_peak, prominence, detected = None, 0.0, False
        note = "zero flux"

    verdict = RegionVerdict(
        label="NonMarkovianDetected" if detected else "MarkovianConsistent",
        omega_peak=omega_peak, omega_threshold=float(omega_threshold),
        prominence=prominence, params=params, note=note)
    if ground_truth:
        return verdict.with_ground_truth(nm_measure(params, dt).n_value,
                                         eps_n)
    return verdict
