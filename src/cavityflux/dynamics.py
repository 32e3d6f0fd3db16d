"""Amplitude dynamics of a two-level atom coupled to a damped cavity mode.

Single-excitation sector: the unnormalised state is

    |psi(t)> = c0_ground |0,0> + c(t) |1,0> + b(t) |0,1>

with the coupled amplitude equations (interaction picture)

    dc/dt = -i V exp(-i delta t) b(t)
    db/dt = -(gamma/2) b(t) - i V exp(+i delta t) c(t)

from c(0) = c0_init, b(0) = 0.  The ground amplitude is constant.  The
photon flux into the unmonitored external modes is R(t) = gamma |b(t)|^2.

Closed forms come from the Laplace-transform solution with splitting
parameter d = sqrt(-16 V^2 + (gamma + 2i delta)^2); the sign of b(t) is
fixed so that db/dt(0) = -i V c(0) holds.  The kernel factors out the
slower decaying exponential e^{(d-g)t/4}, so it stays finite at any
horizon; near d = 0 the sinh(x)/x factors are replaced by their series
limit.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .files import write_csv

# below |d| t / 4 = SERIES_SWITCH the closed forms switch to the d -> 0
# series limit; relative error of the switch is O(SERIES_SWITCH^2)
SERIES_SWITCH = 1e-6

DEFAULT_T_MAX = 14.0
DEFAULT_DT = 1e-3


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the atom-mode pair.

    Parameters
    ----------
    v : float
        Coupling strength V >= 0.
    delta : float
        Detuning of the mode from the atom (may be negative).
    gamma : float
        Mode decay rate, >= 0.  Sets the unit of frequency.
    c0_init : complex
        Initial excited-state amplitude c(0), |c(0)| <= 1.
    t_max : float
        Observation horizon T > 0.
    """

    v: float
    delta: float
    gamma: float = 1.0
    c0_init: complex = 1.0 + 0.0j
    t_max: float = DEFAULT_T_MAX

    def __post_init__(self):
        # gamma = 0 is allowed for lossless closed-form checks; the CLI
        # requires gamma > 0 since it rescales into units of gamma
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.v < 0:
            raise ValueError(f"v must be >= 0, got {self.v}")
        if not self.t_max > 0:
            raise ValueError(f"t_max must be > 0, got {self.t_max}")
        if abs(complex(self.c0_init)) > 1.0 + 1e-12:
            raise ValueError(f"|c0_init| must be <= 1, got {self.c0_init}")

    @property
    def c0_ground(self) -> float:
        """Constant ground-state amplitude, fixed by normalisation."""
        return float(np.sqrt(max(0.0, 1.0 - abs(complex(self.c0_init)) ** 2)))


def time_grid(t_max: float, dt: float) -> np.ndarray:
    """Uniform grid 0, dt, 2 dt, ... covering [0, t_max]."""
    n = int(round(t_max / dt))
    if n < 1:
        raise ValueError(f"dt={dt} too coarse for t_max={t_max}")
    return np.arange(n + 1) * dt


def splitting(params: ModelParams) -> complex:
    """Splitting parameter d = sqrt(-16 V^2 + (gamma + 2i delta)^2).

    Principal branch; all downstream amplitudes are invariant under
    d -> -d, so the branch choice is free.
    """
    g = params.gamma + 2j * params.delta
    return cmath.sqrt(-16.0 * params.v ** 2 + g * g)


def amplitudes_analytic(params: ModelParams, t):
    """Closed-form amplitudes (c(t), b(t)) at time(s) t >= 0.

    Accepts a scalar or an array of times; returns complex values of
    matching shape.  The cosh and sinh of x = dt/4 under the envelope
    e^{-gt/4} are E (1 + u)/2 and E (1 - u)/2, with E = e^{(d-g)t/4} and
    u = e^{-dt/2}, so

        c = c0 E (1 + (1 - g/d)(u - 1)/2)
        b = 2i V c0 e^{i delta t} E (u - 1)/d

    Uses the series limit where |d| t / 4 < 1e-6.
    """
    c0 = complex(params.c0_init)
    g = params.gamma + 2j * params.delta
    d = splitting(params)
    tt = np.asarray(t, dtype=float)
    scalar = tt.ndim == 0
    tt = np.atleast_1d(tt)

    # Re d lies in [0, gamma], so |E|, |u| <= 1 and nothing overflows at
    # any horizon; expm1 keeps the digits of u - 1 as d -> 0
    env = np.exp((d - g) * tt / 4.0)
    um1 = np.expm1(-d * tt / 2.0)
    phase = np.exp(1j * params.delta * tt)

    d_safe = d if d != 0 else 1.0
    c = c0 * env * (1.0 + (1.0 - g / d_safe) * um1 / 2.0)
    b = 2j * params.v * c0 * phase * env * um1 / d_safe

    small = np.abs(d) * tt / 4.0 < SERIES_SWITCH
    if small.any():     # the series limit, only where it applies
        ec = np.exp(-g * tt[small] / 4.0)
        c[small] = ec * c0 * (1.0 + g * tt[small] / 4.0)
        b[small] = -1j * params.v * c0 * tt[small] * ec * phase[small]
    if scalar:
        return complex(c[0]), complex(b[0])
    return c, b


def amplitude_derivatives(params: ModelParams, t, c=None, b=None):
    """Time derivatives (dc/dt, db/dt) from the equations of motion.

    Exact given the closed-form amplitudes, so no finite differences are
    involved.  Pass precomputed (c, b) to avoid re-evaluation.
    """
    if c is None or b is None:
        c, b = amplitudes_analytic(params, t)
    phase = np.exp(-1j * params.delta * np.asarray(t, dtype=float))
    dc = -1j * params.v * phase * b
    db = -0.5 * params.gamma * b - 1j * params.v * np.conj(phase) * c
    return dc, db


@dataclass(frozen=True)
class AmplitudeSeries:
    """Amplitudes on a uniform time grid."""

    times: np.ndarray
    c_values: np.ndarray
    b_values: np.ndarray
    c0_ground: float

    def population(self) -> np.ndarray:
        """Atomic excited-state population |c(t)|^2."""
        return np.abs(self.c_values) ** 2

    def mode_population(self) -> np.ndarray:
        return np.abs(self.b_values) ** 2

    def flux(self, gamma: float) -> FluxSeries:
        """Analytic photon flux R(t) = gamma |b(t)|^2 on the same grid."""
        return FluxSeries(times=self.times,
                          values=gamma * self.mode_population(),
                          kind="analytic")

    def survival(self) -> np.ndarray:
        """Squared norm of the unnormalised state (no-jump probability)."""
        return (np.abs(self.c_values) ** 2 + np.abs(self.b_values) ** 2
                + self.c0_ground ** 2)

    def to_csv(self, path):
        write_csv(path, "t,re_c,im_c,re_b,im_b", self.times,
                  self.c_values.real, self.c_values.imag,
                  self.b_values.real, self.b_values.imag)


@dataclass(frozen=True)
class FluxSeries:
    """Photon flux R(t) on a uniform grid.

    kind is "analytic" for gamma |b(t)|^2 evaluated from closed forms,
    "mcwf-estimate" for a time-binned trajectory estimate (then counts,
    n_traj and bin_width are set and times are bin centers).
    """

    times: np.ndarray
    values: np.ndarray
    kind: str
    counts: np.ndarray | None = None
    n_traj: int | None = None
    bin_width: float | None = None

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def to_csv(self, path):
        write_csv(path, "t,flux", self.times, self.values)


def amplitude_series(params: ModelParams, dt: float = DEFAULT_DT) -> AmplitudeSeries:
    """Closed-form amplitudes evaluated on the default uniform grid."""
    times = time_grid(params.t_max, dt)
    c, b = amplitudes_analytic(params, times)
    return AmplitudeSeries(times=times, c_values=c, b_values=b,
                           c0_ground=params.c0_ground)


def photon_flux_analytic(params: ModelParams, dt: float = DEFAULT_DT) -> FluxSeries:
    """Deterministic photon flux R(t) = gamma |b(t)|^2 on a uniform grid."""
    return amplitude_series(params, dt).flux(params.gamma)


def flux_at(params: ModelParams, t) -> np.ndarray:
    """R(t) = gamma |b(t)|^2 at arbitrary time(s)."""
    _, b = amplitudes_analytic(params, np.asarray(t, dtype=float))
    return params.gamma * np.abs(b) ** 2
