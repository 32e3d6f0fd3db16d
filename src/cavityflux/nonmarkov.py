"""Trace-distance non-Markovianity measure and the Markovian boundary.

For the optimal orthogonal state pair the trace distance reduces to the
excited-state population |c(t)|^2, so the measure is the summed size of
its revivals:

    N = sum over intervals where sigma(t) = d|c|^2/dt > 0
        of |c(t_end)|^2 - |c(t_start)|^2

telescoped over located interval endpoints, with no quadrature error.
Revivals are found by the strict sign of sigma: near the boundary they
are exponentially small in Gamma t but keep a clean floating-point
sign, while any absolute cutoff would swallow them and bias the
boundary.  The measure, the boundary and sign_map all take that sign
from one row of sigma_positive's terms per point (_row), which overflow
at no horizon or coupling, so revival intervals and sign maps run to
the horizon.  The measure counts its scan and halvings in units of dt,
so N does not change when every input is rescaled by gamma.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import (DEFAULT_DT, DEFAULT_T_MAX, ModelParams,
                       amplitudes_analytic, grid_steps, require_finite,
                       require_reals, require_resolved, splitting, time_grid)
from .files import write_csv

EPS_N = 1e-10         # a measure above this counts as non-Markovian
# largest |Im d| dt the measure accepts: 8 grid samples per period of
# sigma's sign, whose angular frequency is |Im d| / 2
RESOLUTION = math.pi / 2
# samples per stride of the measure's sign scan, whose first sample and
# a bound on the slope of sigma's sign form certify one sign for all
STRIDE = 64
# halvings of each revival endpoint's one-step bracket: dt / 2^17
HALVINGS = 17

# boundary defaults, in units of gamma
BOUNDARY_V_SEARCH = (0.05, 1.2)
BOUNDARY_T_MAX = 300.0
BOUNDARY_DT = 1e-2
BOUNDARY_TOL_V = 1e-3

# samples per chunk of the boundary's revival scan: a chunk's temporaries
# stay in cache, and a revival above threshold ends the scan early
SCAN_CHUNK = 4096


class UnsupportedInitialState(ValueError):
    """The measure's optimal pair requires c(0) = 1."""


def sigma_values(params: ModelParams, t):
    """sigma(t) = d|c(t)|^2/dt = 2 Re(conj(c) dc/dt), analytic, with
    dc/dt = -i V e^{-i delta t} b from the equation of motion."""
    c, b = amplitudes_analytic(params, t)
    phase = np.exp(-1j * params.delta * np.asarray(t, dtype=float))
    dc = -1j * params.v * phase * b
    return 2.0 * np.real(np.conj(c) * dc)


def _row(params: ModelParams, d: complex):
    """(unit, du, row) at the splitting d, in the sign readers' unit: the
    power of two above gamma + |delta| + |d|, in which no term of their
    tests leaves float range at any scale, and which keeps each of their
    comparisons in the normal range.  du = d / unit, and row is
    sigma_positive's test at one point, (-Re d / 2, -Im d / 4, 2 Re du,
    2 Im du, Re du - gamma / unit): _sign_terms' factors, then _signs'.
    At V = 0 or c0 = 0 the row is zeros, whose test 0 < 0 is False."""
    unit = math.ldexp(1.0, math.frexp(params.gamma + abs(params.delta)
                                      + abs(d))[1])
    du = d / unit
    if params.v == 0 or complex(params.c0_init) == 0:
        return unit, du, (0.0,) * 5
    return unit, du, (-0.5 * d.real, -0.25 * d.imag, 2.0 * du.real,
                      2.0 * du.imag, du.real - params.gamma / unit)


def _sign_terms(factors, t):
    """(2 Re(conj(du) s), |s|^2) at the times t, with s = 1 - e^{-d t/2},
    from the first four numbers of a _row (scalars, or arrays that
    broadcast against t, one row per point): the signs of sigma and of
    the flux slope are each one comparison of the two.

    s is taken in real parts from expm1, sin and cos (-d t/2 = y + 2ih,
    s = -expm1(y) - 2i e^y sin(h) e^{ih}): it keeps its digits as d t -> 0.
    """
    half, quarter, two_re, two_im = factors
    em, h = np.expm1(half * t), quarter * t
    sh = np.sin(h)
    esh = (2.0 + 2.0 * em) * sh
    re, im = esh * sh - em, esh * np.cos(h)     # s = re - i im
    return two_re * re - two_im * im, re * re + im * im


def _signs(rows, t):
    """sigma_positive's test a < (Re d - gamma) |s|^2 at the times t, for
    the rows of _row (scalars, or arrays that broadcast against t)."""
    a, q = _sign_terms(rows[:4], t)
    return a < rows[4] * q


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
    Without coupling (V = 0 or c0 = 0) _row's zeros read False.
    """
    return _signs(_row(params, splitting(params))[2],
                  np.asarray(t, dtype=float))


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
    return _revival_free_after(params, splitting(params))


def _revival_free_after(params: ModelParams, d: complex) -> float:
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


class MeasurePlan(NamedTuple):
    """One point of a measure batch, checked: its step dt, the size n of
    its grid 0, dt, ..., n dt, its splitting d, and the last sample of
    its scan, the first past t*."""

    params: ModelParams
    dt: float
    n: int
    d: complex
    last: int


def measure_plan(params: ModelParams, dt: float) -> MeasurePlan:
    """nm_measure's checks and scan length at one point: each refusal
    raises here, before any sign is read."""
    if complex(params.c0_init) != 1.0 + 0.0j:
        raise UnsupportedInitialState(
            f"measure requires c(0) = 1, got {params.c0_init}")
    n = grid_steps(params.t_max, dt)
    d = require_resolved(params, dt, RESOLUTION)
    # one scan, through the first sample past t*: no revival starts later.
    # int(t* / dt) - 1 is not past t*, as the quotient rounds by less
    # than a step.
    t_star, last = _revival_free_after(params, d), n
    if t_star < n * dt:
        last = int(t_star / dt)
        while last * dt <= t_star:
            last += 1
    return MeasurePlan(params, dt, n, d, last)


def _plan_rows(plans):
    """Each plan's _row and its stride certificate's factors, one column
    per plan: the row's five numbers, L's two coefficients, 2 tau, the
    unit and dt (see _stride_signs)."""
    columns = []
    for plan in plans:
        gamma, delta = plan.params.gamma, plan.params.delta
        unit, du, row = _row(plan.params, plan.d)
        gu, gg = gamma / unit, (gamma + 2j * delta) / unit
        tau = 1e-9 * (abs(du + gg) + abs(du - gg))
        columns.append((*row, du.real * abs(gu - du.real),
                        abs(2j * du.imag - 2.0 * gu) * abs(du) * 0.5,
                        2.0 * tau, unit, plan.dt))
    return np.array(columns).T


def _stride_signs(columns, start, last):
    """(positive, sure) per stride of STRIDE samples of a scan k dt,
    k = 0 .. last, that starts at sample start: F's sign test (below) at
    the stride's first sample, and whether that sign holds at every
    sample of the stride.  columns holds the _plan_rows column of each
    stride's plan.  The test is sigma_positive's; at V = 0 the scan is
    one stride through dt, which is never sure.

    F = (gamma + Re d) + (gamma - Re d) r^2 + Re((2i Im d - 2 gamma) u),
    sigma_positive's form in u = e^{-d t/2}, r = |u|, has |F'| <= L =
    Re d |gamma - Re d| r^2 + |2i Im d - 2 gamma| |d| r / 2, and r
    decreases, so L at a stride's first sample t_s bounds |F'| over the
    stride.  Where |F(t_s)| > L (t_e - t_s)(1 + 1e-6) + 2 tau, tau being
    revival_free_after's rounding bound, F keeps its sign, and the
    sign's computed test with it, through the stride's last sample t_e.
    F(0) = 0 and tau > 0, so the first stride is never sure, nor are
    strides near d = 0, where F is tiny.  F is taken with sigma_positive's
    float operations, and the bound with d, gamma and g in _row's unit,
    so none of its terms leaves float range at any scale.
    """
    *row, l_r2, l_r, slack, unit, dt = columns
    t_s = start * dt
    a, q = _sign_terms(row[:4], t_s)
    b = row[4] * q
    r = np.exp(row[0] * t_s)
    slope = l_r2 * r * r + l_r * r
    span = (np.minimum(start + (STRIDE - 1), last) * dt - t_s) * unit
    return a < b, np.abs(a - b) > slope * span * (1.0 + 1e-6) + slack


def _brackets(plans, rows):
    """(point, lo, hi, rising) for every sign change of sigma_positive
    between neighbouring samples lo = k dt and hi = (k + 1) dt of a
    plan's scan, sorted by point and k: rising where it turns True.
    rows holds each plan's _plan_rows column.

    The scans are read as one list of entries in sample order: a sure
    stride (_stride_signs) is one entry, its first sample with its
    certified sign, and each sample of the other strides is one, tested
    in one sign pass.  A sure stride's sign holds through its last
    sample, so a change between neighbouring entries is the step into
    the later one's sample, and one comparison finds every crossing; one
    into a scan's sample 0 comes from the previous scan.  So each scan's
    crossings are the plain grid scan's.
    """
    last = np.array([plan.last for plan in plans])
    strides = last // STRIDE + 1
    point = np.repeat(np.arange(len(plans)), strides)
    start = STRIDE * (np.arange(point.size)
                      - np.repeat(np.cumsum(strides) - strides, strides))
    last = last[point]
    first, sure = _stride_signs(np.repeat(rows, strides, axis=1), start, last)
    # one entry per sure stride, and one per sample of every other stride
    unsure = ~sure
    count = np.where(sure, 1, np.minimum(STRIDE, last + 1 - start))
    at = np.cumsum(count) - count
    n = count[unsure]
    k = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n - start[unsure], n)
    samples = np.bincount(point[unsure], n, len(plans)).astype(int)
    signs = np.repeat(first, count)
    signs[np.repeat(unsure, count)] = _signs(
        np.repeat(rows[:5], samples, axis=1), k * np.repeat(rows[-1], samples))
    cross = 1 + np.flatnonzero(signs[1:] != signs[:-1])
    stride = np.searchsorted(at, cross, side="right") - 1
    right = cross - at[stride] + start[stride]
    keep = right > 0            # not from the previous scan
    owner, right = point[stride[keep]], right[keep]
    step = rows[-1, owner]
    return owner, (right - 1) * step, right * step, signs[cross[keep]]


def _halve(rows, lo, hi, rising):
    """HALVINGS halvings of each bracket (lo, hi) toward the sign change
    of sigma_positive, rising where it turns True; rows holds each
    bracket's _row.  Each halving is one sign pass over the midpoints of
    all brackets, so every bracket takes the float operations of its
    one-by-one halvings.  Inside a grid step hi - lo is exact (Sterbenz),
    so lo + (hi - lo) / 2 is (lo + hi) / 2, which it keeps from overflow."""
    for _ in range(HALVINGS):
        mid = lo + 0.5 * (hi - lo)
        up = _signs(rows, mid) == rising
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    return lo, hi


def measure_batch(plans) -> list:
    """nm_measure at every planned point, as a list of NMResult: one
    stride pass, one sign pass over the samples left, and HALVINGS
    halving passes for all the points together, each point's d and gamma
    given per row.  Every row takes the float operations of the point
    measured alone, so each result is that point's nm_measure to the
    bit."""
    if not plans:
        return []
    rows = _plan_rows(plans)
    point, lo, hi, rising = _brackets(plans, rows)
    ends = []
    if point.size:
        # sigma(0) = 0, so crossings alternate rising, falling, ...  Every
        # bracket is one step wide, and HALVINGS halvings refine all to
        # dt / 2^17 at any dt and scale: 7.6e-9 / gamma at the default
        # dt = 1e-3 / gamma.  Past float spacing a halving is a no-op.
        lo, hi = _halve(rows[:5, point], lo, hi, rising)
        ends = (lo + 0.5 * (hi - lo)).tolist()
    bounds = np.cumsum(np.bincount(point, minlength=len(plans))).tolist()
    return [_result(plan, ends[a:b])
            for plan, a, b in zip(plans, [0] + bounds, bounds)]


def _result(plan: MeasurePlan, ends: list) -> NMResult:
    # the revival endpoints' populations, telescoped
    params, n, dt = plan.params, plan.n, plan.dt
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


def nm_measure(params: ModelParams, dt: float = DEFAULT_DT) -> NMResult:
    """Non-Markovianity measure over [0, params.t_max].

    Revival windows found by the strict sign of sigma on the grid, then
    all endpoints refined together by 17 halvings of their one-step
    brackets, to dt / 2^17 whatever dt and gamma; contributions
    telescoped from the closed-form population at the endpoints.
    Windows narrower than dt are below the grid resolution and not
    counted, and a dt with |Im d| dt >= RESOLUTION, which would miss
    whole revivals, raises ValueError.

    The grid is read as one list of signs, STRIDE samples at a time: a
    stride whose first sample and a bound on the slope of sigma's sign
    form certify one sign is one entry, and each sample of every other
    stride is tested and is one entry.  One comparison of neighbouring
    entries finds every crossing (_brackets), which gives the plain grid
    scan's result to the bit.  Each halving is one sign pass over the
    midpoints of all brackets (_halve).  nm_measure is the batch of one
    point, measure_batch([measure_plan(params, dt)]).
    """
    return measure_batch([measure_plan(params, dt)])[0]


def _has_revival(v, delta, gamma, t_max, times):
    """Whether sigma_positive is True at any sample of times (infimum
    semantics for the boundary), read in chunks of SCAN_CHUNK samples up
    to the first that has one, from one _row.  The test is elementwise,
    so this is sigma_positive(params, times).any() to the bit."""
    if v == 0:
        return False        # no coupling: no revival, and no scan
    params = ModelParams(v=v, delta=delta, gamma=gamma, t_max=t_max)
    row = _row(params, splitting(params))[2]
    return any(_signs(row, times[a:a + SCAN_CHUNK]).any()
               for a in range(0, times.size, SCAN_CHUNK))


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
    if workers is not None:
        return max(1, int(require_finite("workers", workers, integer=True)))
    workers = os.environ.get("NM_WORKERS") or "1"
    try:
        return max(1, int(workers))
    except ValueError:
        raise ValueError(
            f"NM_WORKERS must be an integer, got {workers!r}") from None


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
    would overestimate V_c (by ~4% at delta=0).  Each probe reads its
    detuning's grid SCAN_CHUNK samples at a time (_has_revival).

    Detunings whose search window does not bracket the transition are
    reported in unbracketed, not raised.  Non-finite or out-of-range
    inputs, and detunings that are not numbers, raise ValueError.
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
    deltas = require_reals("deltas", delta_values)
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

    Both are taken with d and gamma in units of the power of two above
    gamma + |delta| + |d| (_row), so neither side underflows at a small
    scale.  Where |s|^2 would, |d| <= 1e-150 (gamma + |delta|),
    b_pos is the d = 0 limit t (4 - gamma t) > 0.  Neither map carries
    the decaying envelope, so both run to any horizon.
    """
    if axis not in ("delta", "v"):
        raise ValueError(f"axis must be 'delta' or 'v', got {axis!r}")
    param_values = require_reals("param_values", param_values)
    times = time_grid(t_max, dt)[1:]
    c_pos = np.zeros((param_values.size, times.size), dtype=bool)
    b_pos = np.zeros_like(c_pos)
    for i, p in enumerate(param_values):
        v, delta = (fixed_value, p) if axis == "delta" else (p, fixed_value)
        params = ModelParams(v=v, delta=delta, gamma=gamma, t_max=t_max)
        unit, d, row = _row(params, splitting(params))
        a, q = _sign_terms(row[:4], times)
        g = gamma / unit
        c_pos[i] = a < row[4] * q
        b_pos[i] = (times * (4.0 - gamma * times) > 0.0
                    if abs(d) <= 1e-150 * (g + abs(delta) / unit)
                    else a > (d.real + g) * q)
    return SignMap(axis=axis, fixed_value=fixed_value, times=times,
                   param_values=param_values, c_pos=c_pos, b_pos=b_pos)
