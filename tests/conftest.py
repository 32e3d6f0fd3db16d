"""Shared fixtures: acceptance-criterion reporting, the RK4 reference,
the amplitude derivatives, the reference jump-time bisection and the
gamma-scaled point; the one hypothesis profile of the property tests;
and the import path of the CLI tests' child interpreters."""

import cmath
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from cavityflux.dynamics import ModelParams, amplitudes_analytic
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


def _scaled_point(v, delta, gamma):
    return (ModelParams(v=v * gamma, delta=delta * gamma, gamma=gamma,
                        t_max=14.0 / gamma), 1e-3 / gamma)


@pytest.fixture(scope="session")
def scaled_point():
    """The point (V, delta) in units of gamma, on the default horizon
    14/gamma, with its default step 1e-3/gamma, as scaled_point(v,
    delta, gamma) -> (params, dt)."""
    return _scaled_point


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
