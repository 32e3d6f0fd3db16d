"""Shared fixtures: acceptance-criterion reporting, the RK4 reference,
the amplitude derivatives, the reference jump-time bisection, the plain
reference measure, the gamma-scaled point and the row-by-row CSV
reference; the one hypothesis profile of the property tests; and the
import path of the CLI tests' child interpreters."""

import cmath
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from cavityflux.dynamics import (ModelParams, amplitudes_analytic,
                                 grid_steps, require_resolved)
from cavityflux.nonmarkov import (RESOLUTION, NMResult, revival_free_after,
                                  sigma_positive)
from cavityflux.trajectories import survival_at

# the CLI tests' child interpreters import the package from src, as
# pytest's pythonpath setting lets this one do without an install
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(Path(__file__).resolve().parents[1] / "src"),
     *filter(None, [os.environ.get("PYTHONPATH")])])

# property tests draw the same examples on every run and keep no state
settings.register_profile("cavityflux", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("cavityflux")

ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def criterion_report():
    """Record and print one PASS/FAIL line per acceptance criterion."""

    def _report(num: int, description: str, ok: bool, detail: str = ""):
        status = "PASS" if ok else "FAIL"
        line = f"[criterion {num:02d}] {status}: {description}"
        if detail:
            line += f" ({detail})"
        ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line

    return _report


def _rk4_reference(v, delta, gamma, t_max, dt):
    """Test-local Runge-Kutta integration of the amplitude equations.

    Written independently of the package's closed forms so they are
    checked against a second implementation.  Returns (c, b) on the grid
    0, dt, ..., t_max from c(0) = 1, b(0) = 0.
    """
    n = int(round(t_max / dt))
    c, b = 1.0 + 0.0j, 0.0 + 0.0j
    cs = np.empty(n + 1, dtype=complex)
    bs = np.empty(n + 1, dtype=complex)
    cs[0], bs[0] = c, b

    def f(t, cc, bb):
        ph = cmath.exp(-1j * delta * t)
        return (-1j * v * ph * bb,
                -0.5 * gamma * bb - 1j * v * cc / ph)

    for k in range(n):
        t = k * dt
        k1c, k1b = f(t, c, b)
        k2c, k2b = f(t + dt / 2, c + dt / 2 * k1c, b + dt / 2 * k1b)
        k3c, k3b = f(t + dt / 2, c + dt / 2 * k2c, b + dt / 2 * k2b)
        k4c, k4b = f(t + dt, c + dt * k3c, b + dt * k3b)
        c += dt / 6 * (k1c + 2 * k2c + 2 * k3c + k4c)
        b += dt / 6 * (k1b + 2 * k2b + 2 * k3b + k4b)
        cs[k + 1], bs[k + 1] = c, b
    return cs, bs


@pytest.fixture(scope="session")
def rk4_reference():
    """The independent RK4 integrator, as rk4_reference(v, delta, gamma,
    t_max, dt) -> (c, b)."""
    return _rk4_reference


def _amplitude_derivatives(params, t):
    """Test-local (dc/dt, db/dt) from the equations of motion, evaluated
    on the closed-form amplitudes, so no finite differences enter."""
    c, b = amplitudes_analytic(params, t)
    phase = np.exp(-1j * params.delta * np.asarray(t, dtype=float))
    dc = -1j * params.v * phase * b
    db = -0.5 * params.gamma * b - 1j * params.v * np.conj(phase) * c
    return dc, db


@pytest.fixture(scope="session")
def amplitude_derivatives():
    """The amplitude time derivatives, as amplitude_derivatives(params, t)
    -> (dc, db)."""
    return _amplitude_derivatives


def _bisection_reference(params, times, n2, us, tol):
    """Test-local jump times by plain bisection of N^2(t) = u.

    Brackets each firing draw on the grid survival n2, then halves the
    bracket against the analytic survival until it is below tol, keeping
    the left half where N^2(mid) >= u.  NaN where no jump occurs.
    """
    jump_times = np.full(us.shape, np.nan)
    firing = us >= n2[-1]
    if params.v == 0 or n2[-1] >= 1.0 or not firing.any():
        return jump_times
    u = us[firing]
    idx = np.clip(np.searchsorted(-n2, -u, side="right"), 1, times.size - 1)
    lo, hi = times[idx - 1], times[idx]
    while np.max(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        ge = survival_at(params, mid) >= u
        lo, hi = np.where(ge, mid, lo), np.where(ge, hi, mid)
    jump_times[firing] = 0.5 * (lo + hi)
    return jump_times


@pytest.fixture(scope="session")
def bisection_reference():
    """Jump times by plain bisection, as bisection_reference(params,
    times, n2, us, tol)."""
    return _bisection_reference


def _plain_measure(params, dt):
    """Test-local measure by the plain grid scan: sigma_positive over
    every sample 0, dt, ..., through the first sample past t*, then 17
    one-by-one halvings of every one-step bracket, one sign pass each,
    and the populations telescoped at the endpoints."""
    assert complex(params.c0_init) == 1.0
    n = grid_steps(params.t_max, dt)
    require_resolved(params, dt, RESOLUTION)
    t_star, last = revival_free_after(params), n
    if t_star < n * dt:
        last = int(t_star / dt)
        while last * dt <= t_star:
            last += 1
    times = np.arange(last + 1) * dt
    pos = sigma_positive(params, times)
    edges = np.flatnonzero(pos[1:] != pos[:-1])
    lo, hi, rising = times[edges], times[edges + 1], pos[edges + 1]
    for _ in range(17 if edges.size else 0):
        mid = 0.5 * (lo + hi)
        up = sigma_positive(params, mid) == rising
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    ends = (0.5 * (lo + hi)).tolist()
    if len(ends) % 2:
        ends.append(n * dt)
    n_value = 0.0
    if ends:
        c, _ = amplitudes_analytic(params, np.array(ends))
        for k in range(0, len(ends), 2):
            n_value += abs(complex(c[k + 1])) ** 2 - abs(complex(c[k])) ** 2
    return NMResult(n_value=max(n_value, 0.0),
                    revival_intervals=list(zip(ends[0::2], ends[1::2])),
                    t_max=params.t_max, dt=dt)


@pytest.fixture(scope="session")
def plain_measure():
    """The measure by the plain grid scan and one-by-one halvings, as
    plain_measure(params, dt) -> NMResult."""
    return _plain_measure


def _scaled_point(v, delta, gamma):
    return (ModelParams(v=v * gamma, delta=delta * gamma, gamma=gamma,
                        t_max=14.0 / gamma), 1e-3 / gamma)


@pytest.fixture(scope="session")
def scaled_point():
    """The point (V, delta) in units of gamma, on the default horizon
    14/gamma, with its default step 1e-3/gamma, as scaled_point(v,
    delta, gamma) -> (params, dt)."""
    return _scaled_point


def _csv_reference(header, *columns):
    def fields(column):
        kind = np.asarray(column).dtype.kind
        cells = (column.tolist() if isinstance(column, np.ndarray)
                 else list(column))
        if kind in "biu":
            return ["%d" % x for x in cells]
        if kind == "U":
            return [x.replace(",", ";") for x in cells]
        return ["" if x is None or x != x else "%.17g" % x for x in cells]

    rows = zip(*map(fields, columns))
    text = header + "\n" + "".join(",".join(row) + "\n" for row in rows)
    return text.encode()


@pytest.fixture(scope="session")
def csv_reference():
    """The one CSV format, formatted cell by cell with Python's %: the
    UTF-8 bytes csv_reference(header, *columns) that write_csv must
    write.  Integer and boolean columns print as %d, text with "," as
    ";", and every other column as %.17g, None and NaN empty."""
    return _csv_reference


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
