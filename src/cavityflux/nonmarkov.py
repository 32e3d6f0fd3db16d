"""Trace-distance non-Markovianity measure and the Markovian boundary.

For the optimal orthogonal state pair the trace distance reduces to the
excited-state population |c(t)|^2, so the measure is the summed size of
its revivals:

    N = sum over intervals where sigma(t) = d|c|^2/dt > 0
        of |c(t_end)|^2 - |c(t_start)|^2

evaluated by telescoping over exactly located interval endpoints, which
removes quadrature error.  Revival detection on the grid uses the strict
sign of sigma: near the boundary revivals are exponentially small in
Gamma t but keep a clean floating-point sign, while any absolute cutoff
would swallow them and bias the boundary location.

The measure and the Markovian boundary take that sign from
sigma_positive, a form in d and gamma that drops the decaying envelopes
and divides by nothing: it cannot overflow at any horizon or coupling,
d = 0 included, and revivals keep their sign after the envelope
underflows, so revival intervals run to the horizon.  sign_map takes
both the population's and the flux's slope sign from the same terms,
so its flux map runs to the horizon too.  Past the revival-free time t*
of revival_free_after no revival occurs, so the measure scans the grid
once, through its first sample past t*, and the whole grid only when t*
is infinite; each endpoint found is then refined by the same 17 halvings
of its one-step bracket, a count in units of dt, so N does not change
when every input is rescaled by gamma.  Each boundary probe scans the
first SCAN_HEAD samples first and stops at a revival there; only probes
without one scan the rest of the grid.
"""

from __future__ import annotations

import math
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dynamics import (DEFAULT_DT, DEFAULT_T_MAX, ModelParams,
                       amplitudes_analytic, grid_steps, require_finite,
                       require_resolved, splitting, time_grid)
from .files import write_csv

EPS_N = 1e-10         # a measure above this counts as non-Markovian
# largest |Im d| dt the measure accepts: 8 grid samples per period of
# sigma's sign, whose angular frequency is |Im d| / 2
RESOLUTION = math.pi / 2

# boundary defaults, in units of gamma
BOUNDARY_V_SEARCH = (0.05, 1.2)
BOUNDARY_T_MAX = 300.0
BOUNDARY_DT = 1e-2
BOUNDARY_TOL_V = 1e-3

# samples of the boundary's revival scan checked before the rest of the
# grid; revivals above threshold show up early, so most probes stop here
SCAN_HEAD = 2048


class UnsupportedInitialState(ValueError):
    """The measure's optimal pair requires c(0) = 1."""


def sigma_values(params: ModelParams, t):
    """sigma(t) = d|c(t)|^2/dt = 2 Re(conj(c) dc/dt), analytic, with
    dc/dt = -i V e^{-i delta t} b from the equation of motion."""
    c, b = amplitudes_analytic(params, t)
    phase = np.exp(-1j * params.delta * np.asarray(t, dtype=float))
    dc = -1j * params.v * phase * b
    return 2.0 * np.real(np.conj(c) * dc)


def _sign_terms(params: ModelParams, t, unit: float = 1.0):
    """(d, 2 Re(conj(d) s), |s|^2), with s = 1 - e^{-d t/2} and d in
    units of unit: the signs of sigma and of the flux slope are each one
    comparison of the last two.

    s is taken in real parts from expm1, sin and cos (-d t/2 = y + 2ih,
    s = -expm1(y) - 2i e^y sin(h) e^{ih}): it keeps its digits as d t -> 0.
    """
    d = splitting(params)
    em, h = np.expm1(-0.5 * d.real * t), -0.25 * d.imag * t
    sh = np.sin(h)
    esh = (2.0 + 2.0 * em) * sh
    re, im = esh * sh - em, esh * np.cos(h)     # s = re - i im
    d /= unit
    return d, 2.0 * d.real * re - 2.0 * d.imag * im, re * re + im * im


def sigma_positive(params: ModelParams, t):
    """Boolean sigma(t) > 0, from sigma's sign alone.

    With x = d t / 4 and chat = cosh x + (g/d) sinh x,
    sigma = -8 V^2 |c0|^2 e^{-gamma t/2} Re(conj(chat) sinh(x) / d).
    Dividing out the positive factors e^{-gamma t/2} |e^x|^2 / 4 and
    multiplying by |d|^2 leaves, with u = e^{-d t/2} and s = 1 - u,

        sigma > 0  <=>  F = 2 Re(conj(d) s) - (Re d - gamma) |s|^2 < 0,

    which divides by nothing.  At d = 0, F = 0 and sigma is its limit
    -2 V^2 |c0|^2 t e^{-gamma t/2} (1 + gamma t/4) <= 0.  Re d >= 0
    keeps |u| <= 1, so nothing overflows at any horizon or coupling.
    """
    tt = np.asarray(t, dtype=float)
    if params.v == 0 or complex(params.c0_init) == 0:
        return np.zeros(tt.shape, dtype=bool)
    d, a, q = _sign_terms(params, tt)
    return a < (d.real - params.gamma) * q


def revival_free_after(params: ModelParams) -> float:
    """Time t* past which sigma_positive is False: no revival starts later.

    In u, sigma_positive's F = (gamma + Re d) + (gamma - Re d) r^2 +
    Re((2i Im d - 2 gamma) u), r = |u| <= 1, is at least gamma + Re d
    - K r, K = |gamma - Re d| + 2 hypot(gamma, Im d) >= gamma + Re d,
    whatever the phase of u.  So F > tau = 1e-9 (|d + g| + |d - g|)
    for t past t* = 2 ln(K / (gamma + Re d - tau)) / Re d > 0 if
    Re d > 0 and gamma + Re d > tau; else t* is infinite.  t* = 0 where
    sigma_positive is never True (d = 0, V = 0 or c0 = 0).

    tau covers the rounding of both forms.  Each of F's three terms is
    at most 4 (|d + g| + |d - g|) in size (|s| <= 2, 2 |d| <=
    |d + g| + |d - g|, |Re d - gamma| <= |d - g|), from parts of s
    exact to a few ulps, so F is off by ~50 eps (|d + g| + |d - g|).
    Rounding K, gamma + Re d - tau and t* moves gamma + Re d - K r by
    ~eps (|d + g| + |d - g|) (1 + |ln r|), with |ln r| < 746.  Both
    stay below tau / 50, eps being 2.2e-16.  1e-9 (gamma + Re d) would
    not do: it is ~gamma / 8V of |d + g| + |d - g| for V >> gamma.
    """
    d = splitting(params)
    if d == 0 or params.v == 0 or complex(params.c0_init) == 0:
        return 0.0
    gamma, g = params.gamma, params.gamma + 2j * params.delta
    floor = gamma + d.real - 1e-9 * (abs(d + g) + abs(d - g))
    if d.real > 0 and floor > 0:
        k = abs(gamma - d.real) + 2.0 * math.hypot(gamma, d.imag)
        return 2.0 * math.log(k / floor) / d.real
    return math.inf


@dataclass(frozen=True)
class NMResult:
    """Non-Markovianity measure with the revival intervals found."""

    n_value: float
    revival_intervals: list
    t_max: float
    dt: float


def _require_unit_c0(params):
    if complex(params.c0_init) != 1.0 + 0.0j:
        raise UnsupportedInitialState(
            f"measure requires c(0) = 1, got {params.c0_init}")


def nm_measure(params: ModelParams, dt: float = DEFAULT_DT) -> NMResult:
    """Non-Markovianity measure over [0, params.t_max].

    Revival windows found by the strict sign of sigma on the grid, then
    all endpoints refined together by 17 halvings of their one-step
    brackets, to dt / 2^17 whatever dt and gamma; contributions
    telescoped from the closed-form population at the endpoints.
    Windows narrower than dt are below the grid resolution and not
    counted, and a dt with |Im d| dt >= RESOLUTION, which would miss
    whole revivals, raises ValueError.
    """
    _require_unit_c0(params)
    n = grid_steps(params.t_max, dt)
    require_resolved(params, dt, RESOLUTION)
    # one scan, through the first sample past t*: no revival starts later.
    # Only that prefix of time_grid is built.  int(t* / dt) - 1 is not
    # past t*, as the quotient rounds by less than a step.
    t_star, last = revival_free_after(params), n
    if t_star < n * dt:
        last = int(t_star / dt)
        while last * dt <= t_star:
            last += 1
    times = np.arange(last + 1) * dt
    pos = sigma_positive(params, times)
    # sigma(0) = 0, so crossings alternate rising, falling, ...  Every
    # bracket is one step wide, and 17 halvings, one sign pass each,
    # refine all to dt / 2^17 at any dt and scale: 7.6e-9 / gamma at the
    # default dt = 1e-3 / gamma.  Past float spacing a halving is a no-op.
    edges = np.flatnonzero(pos[1:] != pos[:-1])
    lo, hi = times[edges], times[edges + 1]
    rising = pos[edges + 1]
    for _ in range(17 if edges.size else 0):
        mid = 0.5 * (lo + hi)
        up = sigma_positive(params, mid) == rising
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    ends = (0.5 * (lo + hi)).tolist()
    if len(ends) % 2:
        # revival still running at the horizon: truncate at t_max
        ends.append(n * dt)
    intervals = list(zip(ends[0::2], ends[1::2]))

    n_value = 0.0
    if ends:
        c, _ = amplitudes_analytic(params, np.array(ends))
        # Python's abs, not numpy's, which differs in the last bit
        for k in range(0, len(ends), 2):
            n_value += abs(complex(c[k + 1])) ** 2 - abs(complex(c[k])) ** 2
    return NMResult(n_value=max(n_value, 0.0), revival_intervals=intervals,
                    t_max=params.t_max, dt=dt)


def _has_revival(v, delta, gamma, t_max, times):
    # grid-sign detector without endpoint refinement; any strictly
    # positive sigma sample counts (infimum semantics for the boundary).
    # The head of the grid is scanned first and the rest only without a
    # revival there: the same any() over the same grid.
    params = ModelParams(v=v, delta=delta, gamma=gamma, t_max=t_max)
    return bool(sigma_positive(params, times[:SCAN_HEAD]).any()
                or sigma_positive(params, times[SCAN_HEAD:]).any())


@dataclass(frozen=True)
class BoundaryCurve:
    """Critical coupling V_c per detuning, NaN where unbracketed."""

    deltas: np.ndarray
    v_c: np.ndarray
    unbracketed: list          # (delta, "all_markovian" | "all_nonmarkovian")
    v_search: tuple
    tol_v: float
    gamma: float
    t_max: float
    dt: float

    def to_csv(self, path):
        write_csv(path, "delta,v_c", self.deltas, self.v_c)


def _boundary_column(args):
    delta, v_lo, v_hi, tol_v, gamma, t_max, dt = args
    times = time_grid(t_max, dt)      # one grid for every probe
    nm_lo = _has_revival(v_lo, delta, gamma, t_max, times)
    nm_hi = _has_revival(v_hi, delta, gamma, t_max, times)
    if nm_lo == nm_hi:
        kind = "all_nonmarkovian" if nm_lo else "all_markovian"
        return np.nan, kind
    lo, hi = v_lo, v_hi
    mid = 0.5 * (lo + hi)
    # the second test ends a tol_v finer than the float spacing at V_c
    while hi - lo > tol_v and lo < mid < hi:
        if _has_revival(mid, delta, gamma, t_max, times):
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return mid, None


def resolve_workers(workers=None) -> int:
    """Explicit count wins, then the NM_WORKERS env var, then 1.

    An empty NM_WORKERS counts as unset; counts clamp to at least one.
    A count that is not an integer raises a ValueError naming its source.
    """
    name = "workers"
    if workers is None:
        name, workers = "NM_WORKERS", os.environ.get("NM_WORKERS") or "1"
    try:
        count = (int(workers) if isinstance(workers, str)
                 else operator.index(workers))
    except (TypeError, ValueError):
        raise ValueError(
            f"{name} must be an integer, got {workers!r}") from None
    return max(1, count)


def parallel_map(fn, tasks, n_workers: int, chunksize: int) -> list:
    """[fn(t) for t in tasks], over a process pool when n_workers > 1
    and the tasks fill more than one chunk.

    Results keep the order of tasks whatever the worker count.
    """
    if n_workers > 1 and len(tasks) > chunksize:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            return list(pool.map(fn, tasks, chunksize=chunksize))
    return [fn(t) for t in tasks]


def markovian_boundary(delta_values, v_search=None,
                       tol_v: float | None = None, gamma: float = 1.0,
                       t_max: float | None = None, dt: float | None = None,
                       workers=None) -> BoundaryCurve:
    """Critical coupling V_c(delta) by bisection at each detuning.

    V_c is the infimum of couplings with any population revival within
    the horizon, so the detector is the strict sign of sigma rather than
    a thresholded measure value.  The defaults are in units of gamma:
    v_search (0.05, 1.2) gamma, tol_v 1e-3 gamma, t_max 300/gamma and
    dt 0.01/gamma.  The horizon is long because near threshold the first
    revival appears arbitrarily late, and the 14/Gamma measure window
    would overestimate V_c (by ~4% at delta=0).

    Detunings whose search window does not bracket the transition are
    reported in unbracketed, not raised.  Non-finite or out-of-range
    inputs raise ValueError.
    """
    require_finite("gamma", gamma, 0, strict=True)
    v_lo, v_hi = (v_search if v_search is not None
                  else [v * gamma for v in BOUNDARY_V_SEARCH])
    require_finite("v_search[0]", v_lo, 0)
    require_finite("v_search[1]", v_hi, v_lo, strict=True)
    tol_v = BOUNDARY_TOL_V * gamma if tol_v is None else tol_v
    t_max = BOUNDARY_T_MAX / gamma if t_max is None else t_max
    dt = BOUNDARY_DT / gamma if dt is None else dt
    for name, value in (("tol_v", tol_v), ("t_max", t_max), ("dt", dt)):
        require_finite(name, value, 0, strict=True)
    deltas = np.asarray(delta_values, dtype=float)
    if deltas.ndim != 1 or deltas.size == 0 or not np.isfinite(deltas).all():
        raise ValueError(
            f"deltas must be a non-empty, finite 1-D array, got {deltas}")
    tasks = [(d, v_lo, v_hi, tol_v, gamma, t_max, dt) for d in deltas]

    results = parallel_map(_boundary_column, tasks,
                           resolve_workers(workers), chunksize=8)

    v_c = np.array([r[0] for r in results])
    unbracketed = [(float(d), r[1]) for d, r in zip(deltas, results)
                   if r[1] is not None]
    return BoundaryCurve(deltas=deltas, v_c=v_c, unbracketed=unbracketed,
                         v_search=(v_lo, v_hi), tol_v=tol_v, gamma=gamma,
                         t_max=t_max, dt=dt)


@dataclass(frozen=True)
class SignMap:
    """Boolean maps of C(t) > 0 and B(t) > 0 over (t, parameter).

    axis is "delta" (rows scan detuning at fixed V) or "v" (rows scan
    coupling at fixed delta).  The time grid starts at dt: both C and B
    vanish identically at t = 0.
    """

    axis: str
    fixed_value: float
    times: np.ndarray
    param_values: np.ndarray
    c_pos: np.ndarray
    b_pos: np.ndarray

    def to_csv(self, path):
        name = "delta" if self.axis == "delta" else "v"
        # rows run over times within each parameter value
        n_p, n_t = self.c_pos.shape
        write_csv(path, f"t,{name},c_pos,b_pos", np.tile(self.times, n_p),
                  np.repeat(self.param_values, n_t), self.c_pos.ravel(),
                  self.b_pos.ravel())


def sign_map(axis: str, fixed_value: float, param_values,
             t_max: float = DEFAULT_T_MAX, dt: float = 1e-2,
             gamma: float = 1.0) -> SignMap:
    """Sign maps of the population and flux derivatives.

    axis="delta" fixes V = fixed_value and scans detuning; axis="v"
    fixes delta = fixed_value and scans coupling.  Each row is one pass
    of sigma_positive's terms, with no amplitude kernel: c_pos is
    sigma_positive's test, and as the flux R = gamma |b|^2 is
    4 gamma V^2 e^{(Re d - gamma) t/2} |s|^2 / |d|^2,

        dR/dt > 0  <=>  2 Re(conj(d) s) > (Re d + gamma) |s|^2.

    Both are taken with d and gamma in units of the power of two nearest
    above gamma + |delta|, so neither side underflows at a small scale.
    Where |s|^2 would, |d| <= 1e-150 (gamma + |delta|), b_pos is the
    d = 0 limit t (4 - gamma t) > 0.  Neither map carries the decaying
    envelope, so both run to any horizon.
    """
    if axis not in ("delta", "v"):
        raise ValueError(f"axis must be 'delta' or 'v', got {axis!r}")
    param_values = np.asarray(param_values, dtype=float)
    times = time_grid(t_max, dt)[1:]
    c_pos = np.zeros((param_values.size, times.size), dtype=bool)
    b_pos = np.zeros_like(c_pos)
    for i, p in enumerate(param_values):
        v, delta = (fixed_value, p) if axis == "delta" else (p, fixed_value)
        params = ModelParams(v=v, delta=delta, gamma=gamma, t_max=t_max)
        if v == 0:
            continue        # no coupling: c stays 1 and no photon leaves
        unit = math.ldexp(1.0, math.frexp(gamma + abs(delta))[1])
        d, a, q = _sign_terms(params, times, unit)
        g = gamma / unit
        c_pos[i] = a < (d.real - g) * q
        b_pos[i] = (times * (4.0 - gamma * times) > 0.0
                    if abs(d) <= 1e-150 * (g + abs(delta) / unit)
                    else a > (d.real + g) * q)
    return SignMap(axis=axis, fixed_value=fixed_value, times=times,
                   param_values=param_values, c_pos=c_pos, b_pos=b_pos)
