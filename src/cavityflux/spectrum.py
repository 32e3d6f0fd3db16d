"""Power spectrum of the photon flux and the spectral detector.

The detrended flux r(t) = R(t) - mean(R) is transformed by a plain DFT
(S_k = sum_m r_m e^{-2 pi i m k / N}, angular bins omega_k = 2 pi k /
(N dt)), and the dominant oscillation line is located with sub-bin
parabolic interpolation.

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

import json
from dataclasses import dataclass

import numpy as np

from .dynamics import DEFAULT_DT, FluxSeries, ModelParams, photon_flux_analytic
from .nonmarkov import BoundaryCurve, nm_measure

DEFAULT_MIN_PROMINENCE = 0.1
NO_SIGNAL_REL = 1e-30       # of signal-scale squared
SHOULDER_FLOOR = 1e-6       # beyond-valley peak must exceed this x bin-1 power


class NoSignal(ValueError):
    """Detrended signal carries no power to analyze."""


class EmptyRegion(ValueError):
    """No Markovian parameter points in the requested domain."""


def detrend(flux: FluxSeries) -> np.ndarray:
    """r = R - mean(R), the discrete version of subtracting the time
    average over the observation window."""
    values = np.asarray(flux.values, dtype=float)
    return values - values.mean()


@dataclass(frozen=True)
class SpectrumResult:
    """DFT of a real signal, stored over k = 0 .. floor(N/2)."""

    omega: np.ndarray
    s_values: np.ndarray
    power: np.ndarray
    n_samples: int
    dt: float
    signal_scale: float

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
        np.savetxt(path, np.column_stack([self.omega, self.power]),
                   fmt="%.17g", delimiter=",", header="omega,power",
                   comments="")


def dft(r, dt: float, window: str | None = None) -> SpectrumResult:
    """Discrete Fourier transform of the detrended flux.

    No window by default: the flux decays to ~0 within the horizon, so
    leakage is already limited.  window="hann" is available but off for
    reproduction runs.
    """
    r = np.asarray(r, dtype=float)
    n = r.size
    if n < 2:
        raise ValueError("need at least 2 samples")
    scale = float(np.max(np.abs(r)))
    if window == "hann":
        r = r * np.hanning(n)
    elif window is not None:
        raise ValueError(f"unknown window {window!r}")
    s = np.fft.rfft(r)
    omega = 2.0 * np.pi * np.fft.rfftfreq(n, dt)
    return SpectrumResult(omega=omega, s_values=s, power=np.abs(s) ** 2,
                          n_samples=n, dt=float(dt), signal_scale=scale)


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


def dominant_peak(spectrum: SpectrumResult,
                  min_prominence: float = DEFAULT_MIN_PROMINENCE) -> PeakEstimate:
    """Dominant oscillation line of the flux spectrum.

    Walks down the low-frequency decay shoulder from bin 1 to its first
    valley k1, takes the power argmax beyond it, and refines with
    parabolic interpolation on the power stencil.  If nothing beyond
    the valley rises above SHOULDER_FLOOR of bin 1 (or the descent
    reaches the end), the spectrum is a bare shoulder and bin 1 itself
    is reported.  prominence = peak-bin power / total power with the
    shoulder bins 1..k1-1 (and mirrors) excluded from the total, so a
    pure cosine still scores 1/2.

    min_prominence is echoed to callers for thresholding; no gating
    happens here.
    """
    p = spectrum.power
    kmax = p.size - 1
    if kmax < 1:
        raise NoSignal("spectrum has no nonzero-frequency bins")
    total = spectrum.total_power()
    scale = spectrum.signal_scale
    if total / spectrum.n_samples <= NO_SIGNAL_REL * scale * scale:
        raise NoSignal("detrended signal power below noise floor")

    k1 = 1
    while k1 + 1 <= kmax and p[k1 + 1] < p[k1]:
        k1 += 1
    if k1 >= kmax:
        kp, k1 = 1, 1
    else:
        kp = k1 + int(np.argmax(p[k1:]))
        if p[kp] < SHOULDER_FLOOR * p[1]:
            kp, k1 = 1 + int(np.argmax(p[1:])), 1

    denom = total - 2.0 * float(np.sum(p[1:k1]))
    prominence = float(p[kp] / denom) if denom > 0 else 0.0

    if 1 <= kp < kmax:
        off = _parabolic_offset(p[kp - 1], p[kp], p[kp + 1])
    else:
        off = 0.0
    omega_peak = (kp + off) * spectrum.bin_width
    return PeakEstimate(omega_peak=float(omega_peak), prominence=prominence,
                        k_peak=int(kp), k_valley=int(k1))


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
    without it the boundary curve itself is the limit.
    """
    v_lo, v_hi = boundary.v_search
    unbracketed = {d: kind for d, kind in boundary.unbracketed}
    grid = None if v_grid is None else np.asarray(v_grid, dtype=float)

    best = None
    for delta, vc in zip(boundary.deltas, boundary.v_c):
        if np.isnan(vc):
            kind = unbracketed.get(float(delta))
            if kind != "all_markovian":
                continue
            v_m = v_hi
            if grid is not None:
                below = grid[grid <= v_hi]
                if below.size == 0:
                    continue
                v_m = float(below.max())
        else:
            v_m = float(vc)
            if grid is not None:
                below = grid[grid < vc]
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
             dt: float = DEFAULT_DT, eps_n: float = 1e-10,
             n_value: float | None = None) -> RegionVerdict:
    """Spectral non-Markovianity verdict for one parameter point.

    Detection requires the dominant line above omega_threshold with at
    least min_prominence.  flux defaults to the analytic R(t); an
    mcwf-estimate FluxSeries is accepted unchanged.  With ground_truth
    the measure is evaluated (or taken from n_value if precomputed) to
    refine undetected points into Markovian vs NonMarkovianUndetectable.
    """
    if flux is None:
        flux = photon_flux_analytic(params, dt)
    note = None
    try:
        spec = dft(detrend(flux), flux.dt)
        peak = dominant_peak(spec, min_prominence)
        omega_peak: float | None = peak.omega_peak
        prominence = peak.prominence
        detected = (peak.omega_peak > omega_threshold
                    and peak.prominence >= min_prominence)
    except NoSignal:
        omega_peak, prominence, detected = None, 0.0, False
        note = "zero flux"

    if ground_truth and n_value is None:
        n_value = nm_measure(params, dt).n_value

    if detected:
        label = "NonMarkovianDetected"
    elif ground_truth:
        label = ("NonMarkovianUndetectable" if n_value > eps_n
                 else "Markovian")
    else:
        label = "MarkovianConsistent"
    return RegionVerdict(label=label, omega_peak=omega_peak,
                         omega_threshold=float(omega_threshold),
                         prominence=prominence, params=params,
                         n_value=n_value, note=note)
