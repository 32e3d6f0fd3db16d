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

The Markovian boundary needs only that sign, so its bisection probes
scan sigma_positive, which drops the decaying envelopes and cannot
overflow at any horizon.  Each probe scans the first SCAN_HEAD samples
first and stops at a revival there; only probes without one scan the
rest of the grid.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dynamics import (DEFAULT_DT, DEFAULT_T_MAX, SERIES_SWITCH, ModelParams,
                       amplitude_derivatives, amplitudes_analytic, splitting,
                       time_grid)

ENDPOINT_TOL = 1e-8   # time tolerance of revival endpoint bisection

BOUNDARY_T_MAX = 300.0
BOUNDARY_DT = 1e-2
BOUNDARY_TOL_V = 1e-3

# samples of the boundary's revival scan checked before the rest of the
# grid; revivals above threshold show up early, so most probes stop here
SCAN_HEAD = 2048


class UnsupportedInitialState(ValueError):
    """The measure's optimal pair requires c(0) = 1."""


def sigma_values(params: ModelParams, t):
    """sigma(t) = d|c(t)|^2/dt = 2 Re(conj(c) dc/dt), analytic."""
    c, b = amplitudes_analytic(params, t)
    dc, _ = amplitude_derivatives(params, t, c=c, b=b)
    return 2.0 * np.real(np.conj(c) * dc)


def sigma_positive(params: ModelParams, t):
    """Boolean sigma(t) > 0, from sigma's sign alone.

    With x = d t / 4 and chat = cosh x + (g/d) sinh x,
    sigma = -8 V^2 |c0|^2 e^{-gamma t/2} Re(conj(chat) sinh(x) / d).
    Dividing out the positive factors e^{-gamma t/2} and |e^x|^2 / 4
    leaves, with u = e^{-d t/2},

        sigma > 0  <=>  Re(conj((1+u) + (g/d)(1-u)) (1-u) / d) < 0.

    Re d >= 0 keeps |u| <= 1, so no horizon or decay rate overflows.
    In the series branch (|d| t/4 < SERIES_SWITCH, and everywhere at
    d = 0) sigma = -2 V^2 |c0|^2 t e^{-gamma t/2} (1 + gamma t/4) <= 0.
    """
    tt = np.asarray(t, dtype=float)
    d = splitting(params)
    if d == 0 or params.v == 0 or complex(params.c0_init) == 0:
        return np.zeros(tt.shape, dtype=bool)
    g = params.gamma + 2j * params.delta
    u = np.exp(-0.5 * d * tt)
    s = 1.0 - u
    pos = np.real(np.conj((1.0 + u) + (g / d) * s) * s / d) < 0.0
    return pos & (np.abs(d) * tt / 4.0 >= SERIES_SWITCH)


def mode_gain_values(params: ModelParams, t):
    """B(t) = d(gamma |b(t)|^2)/dt, the flux time derivative."""
    c, b = amplitudes_analytic(params, t)
    _, db = amplitude_derivatives(params, t, c=c, b=b)
    return 2.0 * params.gamma * np.real(np.conj(b) * db)


@dataclass(frozen=True)
class NMResult:
    """Non-Markovianity measure with the revival intervals found."""

    n_value: float
    revival_intervals: list
    t_max: float
    dt: float


def _sigma_scalar(params, t):
    return float(sigma_values(params, np.asarray(t, dtype=float)))


def _refine_crossing(params, lo, hi, rising):
    # bisection on the sign of sigma; at a rising edge sigma(lo) <= 0 <
    # sigma(hi), at a falling edge the converse
    while hi - lo > ENDPOINT_TOL:
        mid = 0.5 * (lo + hi)
        pos = _sigma_scalar(params, mid) > 0.0
        if pos == rising:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _require_unit_c0(params):
    if complex(params.c0_init) != 1.0 + 0.0j:
        raise UnsupportedInitialState(
            f"measure requires c(0) = 1, got {params.c0_init}")


def nm_measure(params: ModelParams, dt: float = DEFAULT_DT) -> NMResult:
    """Non-Markovianity measure over [0, params.t_max].

    Revival windows found by the strict sign of sigma on the grid, then
    endpoints refined by bisection; contributions telescoped from the
    closed-form population at the endpoints.  Windows narrower than dt
    are below the grid resolution and not counted.
    """
    _require_unit_c0(params)
    times = time_grid(params.t_max, dt)
    pos = sigma_values(params, times) > 0.0   # sigma(0) = 0 exactly

    intervals = []
    open_start = None
    for k in range(1, times.size):
        if pos[k] and not pos[k - 1]:
            open_start = _refine_crossing(params, times[k - 1], times[k], True)
        elif pos[k - 1] and not pos[k]:
            t_end = _refine_crossing(params, times[k - 1], times[k], False)
            intervals.append((open_start, t_end))
            open_start = None
    if open_start is not None:
        # revival still running at the horizon: truncate at t_max
        intervals.append((open_start, float(times[-1])))

    n_value = 0.0
    for t_start, t_end in intervals:
        c_start, _ = amplitudes_analytic(params, t_start)
        c_end, _ = amplitudes_analytic(params, t_end)
        n_value += abs(c_end) ** 2 - abs(c_start) ** 2
    return NMResult(n_value=max(n_value, 0.0), revival_intervals=intervals,
                    t_max=params.t_max, dt=dt)


def is_nonmarkovian(params: ModelParams, eps_n: float = 1e-10,
                    dt: float = DEFAULT_DT) -> bool:
    """True iff the measure exceeds eps_n on the params horizon."""
    if not eps_n > 0:
        raise ValueError(f"eps_n must be > 0, got {eps_n}")
    return nm_measure(params, dt).n_value > eps_n


def _has_revival(v, delta, gamma, t_max, dt):
    # grid-sign detector without endpoint refinement; any strictly
    # positive sigma sample counts (infimum semantics for the boundary).
    # The head of the grid is scanned first and the rest only without a
    # revival there: the same any() over the same grid.
    params = ModelParams(v=v, delta=delta, gamma=gamma, t_max=t_max)
    times = time_grid(t_max, dt)
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
        with open(path, "w") as fh:
            fh.write("delta,v_c\n")
            for d, v in zip(self.deltas, self.v_c):
                vtxt = "" if np.isnan(v) else f"{v:.17g}"
                fh.write(f"{d:.17g},{vtxt}\n")


def _boundary_column(args):
    delta, v_lo, v_hi, tol_v, gamma, t_max, dt = args
    nm_lo = _has_revival(v_lo, delta, gamma, t_max, dt)
    nm_hi = _has_revival(v_hi, delta, gamma, t_max, dt)
    if nm_lo == nm_hi:
        kind = "all_nonmarkovian" if nm_lo else "all_markovian"
        return np.nan, kind
    lo, hi = v_lo, v_hi
    while hi - lo > tol_v:
        mid = 0.5 * (lo + hi)
        if _has_revival(mid, delta, gamma, t_max, dt):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), None


def resolve_workers(workers=None, default: int = 1) -> int:
    """Explicit count wins, then the NM_WORKERS env var, then default."""
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("NM_WORKERS", "")
    if env:
        return max(1, int(env))
    return max(1, default)


def markovian_boundary(delta_values, v_search=(0.05, 1.2),
                       tol_v: float = BOUNDARY_TOL_V, gamma: float = 1.0,
                       t_max: float = BOUNDARY_T_MAX,
                       dt: float = BOUNDARY_DT,
                       workers=None) -> BoundaryCurve:
    """Critical coupling V_c(delta) by bisection at each detuning.

    V_c is the infimum of couplings with any population revival within
    the horizon, so the detector is the strict sign of sigma rather than
    a thresholded measure value.  The horizon defaults to 300/Gamma:
    near threshold the first revival appears arbitrarily late, and the
    14/Gamma measure window would overestimate V_c (by ~4% at delta=0).

    Detunings whose search window does not bracket the transition are
    reported in unbracketed, not raised.
    """
    v_lo, v_hi = v_search
    if not 0 <= v_lo < v_hi:
        raise ValueError(f"invalid v_search {v_search}")
    deltas = np.asarray(delta_values, dtype=float)
    tasks = [(d, v_lo, v_hi, tol_v, gamma, t_max, dt) for d in deltas]

    n_workers = resolve_workers(workers)
    if n_workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(_boundary_column, tasks, chunksize=8))
    else:
        results = [_boundary_column(t) for t in tasks]

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
        with open(path, "w") as fh:
            fh.write(f"t,{name},c_pos,b_pos\n")
            for i, p in enumerate(self.param_values):
                for j, t in enumerate(self.times):
                    fh.write(f"{t:.17g},{p:.17g},"
                             f"{int(self.c_pos[i, j])},{int(self.b_pos[i, j])}\n")


def sign_map(axis: str, fixed_value: float, param_values,
             t_max: float = DEFAULT_T_MAX, dt: float = 1e-2,
             gamma: float = 1.0) -> SignMap:
    """Sign maps of the population and flux derivatives.

    axis="delta" fixes V = fixed_value and scans detuning; axis="v"
    fixes delta = fixed_value and scans coupling.
    """
    if axis not in ("delta", "v"):
        raise ValueError(f"axis must be 'delta' or 'v', got {axis!r}")
    param_values = np.asarray(param_values, dtype=float)
    times = time_grid(t_max, dt)[1:]
    c_pos = np.empty((param_values.size, times.size), dtype=bool)
    b_pos = np.empty_like(c_pos)
    for i, p in enumerate(param_values):
        if axis == "delta":
            params = ModelParams(v=fixed_value, delta=p, gamma=gamma,
                                 t_max=t_max)
        else:
            params = ModelParams(v=p, delta=fixed_value, gamma=gamma,
                                 t_max=t_max)
        c_pos[i] = sigma_values(params, times) > 0.0
        b_pos[i] = mode_gain_values(params, times) > 0.0
    return SignMap(axis=axis, fixed_value=fixed_value, times=times,
                   param_values=param_values, c_pos=c_pos, b_pos=b_pos)
