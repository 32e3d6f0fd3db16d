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
horizon, and takes u - 1 = e^{-dt/2} - 1 from expm1, so it keeps its
digits as d t -> 0.  One closed form serves every d != 0; only d = 0
itself (V = gamma/4 on resonance) takes the limit of that form.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .files import write_csv

DEFAULT_T_MAX = 14.0
DEFAULT_DT = 1e-3


def require_finite(name: str, value, low=None, strict: bool = False,
                   integer: bool = False):
    """The one input rule: value, if it is a finite number >= low (> low
    when strict); otherwise a ValueError that names the field.

    A bool, a string or a complex is never a number.  A field marked
    integer takes only an int or a NumPy integer (2.0 is not one).  A
    Python int is finite however large, so it skips the float test,
    which would overflow past 2**1024 (a master seed may be that long).
    """
    if isinstance(value, bool) or not isinstance(
            value, (int, np.integer) if integer else numbers.Real):
        kind = "an integer" if integer else "a number"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    if ((isinstance(value, int) or math.isfinite(value))
            and (low is None or (value > low if strict else value >= low))):
        return value
    bound = "" if low is None else f" and {'>' if strict else '>='} {low}"
    raise ValueError(f"{name} must be finite{bound}, got {value}")


def require_reals(name: str, values) -> np.ndarray:
    """values as a float array, if each element is a real number and not
    a bool, NumPy's included; otherwise a ValueError naming the field."""
    if any(isinstance(x, (bool, np.bool_)) or not isinstance(x, numbers.Real)
           for x in np.asarray(values, dtype=object).ravel()):
        raise ValueError(f"{name} must be numbers, got {values}")
    return np.asarray(values, dtype=float)


class Unresolved(ValueError):
    """The resolution rule's refusal; its args (V, delta, largest dt, dt,
    name of dt) let a caller that works in units of gamma restate it."""

    def __str__(self):
        v, delta, largest, dt, name = self.args
        return (f"{name} must be < {largest:g} to resolve the oscillation "
                f"at V = {v:g}, delta = {delta:g}, got {dt:g}")


def require_resolved(params: ModelParams, dt: float, limit: float):
    """The resolution rule: d = splitting(params), if |Im d| dt < limit,
    so the grid resolves the amplitudes' oscillation at angular frequency
    |Im d| / 2; otherwise Unresolved, a ValueError that names dt and the
    largest dt allowed."""
    d = splitting(params)
    rate = abs(d.imag)
    if rate * dt < limit:
        return d
    raise Unresolved(params.v, params.delta, limit / rate, dt, "dt")


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
        require_finite("gamma", self.gamma, 0)
        require_finite("v", self.v, 0)
        require_finite("delta", self.delta)
        require_finite("t_max", self.t_max, 0, strict=True)
        c0 = self.c0_init
        if (isinstance(c0, bool) or not isinstance(c0, numbers.Number)
                or not (cmath.isfinite(c0) and abs(c0) <= 1.0 + 1e-12)):
            raise ValueError(f"c0_init must be a finite number with "
                             f"|c0_init| <= 1, got {c0!r}")

    @property
    def c0_ground(self) -> float:
        """Constant ground-state amplitude, fixed by normalisation."""
        return float(np.sqrt(max(0.0, 1.0 - abs(complex(self.c0_init)) ** 2)))


def grid_steps(t_max: float, dt: float) -> int:
    """n of time_grid's samples 0, dt, ..., n dt: the grid's size, for
    callers that need no grid."""
    require_finite("t_max", t_max, 0, strict=True)
    require_finite("dt", dt, 0, strict=True)
    n = int(round(t_max / dt))
    if n < 1:
        raise ValueError(f"dt={dt} too coarse for t_max={t_max}")
    return n


def time_grid(t_max: float, dt: float) -> np.ndarray:
    """Uniform grid 0, dt, 2 dt, ... covering [0, t_max]."""
    return np.arange(grid_steps(t_max, dt) + 1) * dt


def splitting(params: ModelParams) -> complex:
    """Splitting parameter d = sqrt(-16 V^2 + (gamma + 2i delta)^2).

    Principal branch; all downstream amplitudes are invariant under
    d -> -d, so the branch choice is free.  Where max(V, |g|) lies
    outside [2^-500, 2^500], V and g are scaled by a power of two before
    squaring and d scaled back, so the squares neither overflow nor lose
    digits below the normal range; inside it d is computed unscaled.  A d
    beyond float range at gamma > 0 raises an OverflowError naming |d|/gamma.
    """
    g = params.gamma + 2j * params.delta
    size = max(params.v, abs(g))
    if 2.0 ** -500 <= size <= 2.0 ** 500:
        return cmath.sqrt(-16.0 * params.v ** 2 + g * g)
    k = math.frexp(size)[1]
    v, g = math.ldexp(params.v, -k), complex(math.ldexp(g.real, -k),
                                             math.ldexp(g.imag, -k))
    d = cmath.sqrt(-16.0 * v ** 2 + g * g)
    try:
        return complex(math.ldexp(d.real, k), math.ldexp(d.imag, k))
    except OverflowError:
        if not g.real:
            raise
        ratio = abs(d) / g.real
        raise OverflowError(
            f"the splitting d is beyond float range: |d|/gamma = {ratio:.4g} "
            f"at gamma = {params.gamma:g}; lower --gamma (gamma) below about "
            f"{np.finfo(float).max / ratio:.4g}") from None


def amplitudes_analytic(params: ModelParams, t):
    """Closed-form amplitudes (c(t), b(t)) at time(s) t >= 0.

    Accepts a scalar or an array of times; returns complex values of
    matching shape.  The cosh and sinh of x = dt/4 under the envelope
    e^{-gt/4} are E (1 + u)/2 and E (1 - u)/2, with E = e^{(d-g)t/4} and
    u = e^{-dt/2}, so for d != 0

        c = c0 E (1 + (1 - g/d)(u - 1)/2)
        b = 2i V c0 e^{i delta t} E (u - 1)/d

    and at d = 0 their limit, c = c0 e^{-gt/4} (1 + gt/4) and
    b = -i V c0 t e^{-gt/4} e^{i delta t}.
    """
    c0 = complex(params.c0_init)
    g = params.gamma + 2j * params.delta
    d = splitting(params)
    tt = np.asarray(t, dtype=float)
    scalar = tt.ndim == 0
    tt = np.atleast_1d(tt)
    phase = np.exp(1j * params.delta * tt)

    if d == 0:
        ec = np.exp(-g * tt / 4.0)
        c = ec * c0 * (1.0 + g * tt / 4.0)
        b = -1j * params.v * c0 * tt * ec * phase
    else:
        # Re d lies in [0, gamma], so |E|, |u| <= 1 and nothing overflows
        # at any horizon
        env = np.exp((d - g) * tt / 4.0)
        um1 = np.expm1(-d * tt / 2.0)
        c = c0 * env * (1.0 + (1.0 - g / d) * um1 / 2.0)
        b = 2j * params.v * c0 * phase * env * um1 / d
    if scalar:
        return complex(c[0]), complex(b[0])
    return c, b


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
                          values=gamma * self.mode_population())

    def to_csv(self, path):
        write_csv(path, "t,re_c,im_c,re_b,im_b", self.times,
                  self.c_values.real, self.c_values.imag,
                  self.b_values.real, self.b_values.imag)


@dataclass(frozen=True)
class FluxSeries:
    """Photon flux R(t) on a uniform grid.

    A time-binned trajectory estimate also sets counts, n_traj and
    bin_width, and its times are bin centers.
    """

    times: np.ndarray
    values: np.ndarray
    counts: np.ndarray | None = None
    n_traj: int | None = None
    bin_width: float | None = None

    @property
    def dt(self) -> float:
        if self.times.size < 2:
            raise ValueError(
                f"flux needs at least 2 samples, got {self.times.size}")
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
