"""Output checks of the benchmark workloads.

Each check returns the number of failed items; it never raises on a
wrong output.  The physics is re-derived here rather than taken from
cavityflux, so a defect in the program's kernel cannot also hide in its
own check.  With c(0) = 1, g = gamma + 2i delta and
d = sqrt(g^2 - 16 V^2), the closed forms factor as

    c(t) = e^{-g t/4} chat(t),   chat = cosh(x) + (g/d) sinh(x)
    b(t) = -4iV e^{-conj(g) t/4} s(t),   s = sinh(x)/d,   x = d t/4

so that dc/dt = -iV e^{-i delta t} b = -4V^2 e^{-g t/4} s and

    d|c|^2/dt = -8 V^2 e^{-gamma t/2} Re(conj(chat) s)
    N^2(t)   = e^{-gamma t/2} (|chat|^2 + 16 V^2 |s|^2).

The sign of d|c|^2/dt needs no envelope at all.
"""

from __future__ import annotations

import cmath

import numpy as np

# criterion 4: Omega_M = 1.8 within 15%
OMEGA_M_BAND = (1.8 * 0.85, 1.8 * 1.15)
# criterion 8: at least 95% of flux bins within 3 sigma
MIN_FRAC_3SIGMA = 0.95
# Dvoretzky-Kiefer-Wolfowitz level of the jump-time CDF check.  Every
# seed draws a fresh ensemble, so criterion 8's per-ensemble 0.01 would
# flag about one seed in a hundred by chance; the inequality is the same.
DKW_ALPHA = 1e-4
# |N^2(t_jump) - u|: the program bisects t_jump to 1e-10 with |dN^2/dt| <= 1
SURVIVAL_TOL = 1e-8


def _chat_s(v: float, delta: float, t, gamma: float = 1.0):
    g = gamma + 2j * delta
    d = cmath.sqrt(g * g - 16.0 * v * v)
    t = np.asarray(t, dtype=float)
    if d == 0:                       # sinh(x)/d -> t/4
        return 1.0 + g * t / 4.0, t / 4.0 + 0j
    x = d * t / 4.0
    sinh = np.sinh(x)
    return np.cosh(x) + (g / d) * sinh, sinh / d


def revives(v: float, delta: float, t_max: float, dt: float,
            gamma: float = 1.0) -> bool:
    """True iff d|c|^2/dt > 0 at some grid point of [0, t_max]."""
    t = np.arange(int(round(t_max / dt)) + 1) * dt
    chat, s = _chat_s(v, delta, t, gamma)
    return bool(np.any(np.real(np.conj(chat) * s) < 0.0))


def survival(v: float, delta: float, t, gamma: float = 1.0):
    """No-jump probability N^2(t) for c(0) = 1."""
    chat, s = _chat_s(v, delta, t, gamma)
    envelope = np.exp(-0.5 * gamma * np.asarray(t, dtype=float))
    return envelope * (np.abs(chat) ** 2 + 16.0 * v * v * np.abs(s) ** 2)


def check_boundary(curve, omega_m: float) -> int:
    """Failed detunings of one Markovian-boundary result.

    A bracketed V_c must have no revival at V_c - tol_v and a revival at
    V_c + tol_v; an unbracketed detuning must show its reported kind at
    the edge of the search window.  Omega_M outside criterion 4's band
    fails every detuning.
    """
    if not OMEGA_M_BAND[0] <= omega_m <= OMEGA_M_BAND[1]:
        return int(curve.deltas.size)
    kinds = {d: kind for d, kind in curve.unbracketed}
    v_lo, v_hi = curve.v_search

    def probe(v, delta):
        return revives(v, delta, curve.t_max, curve.dt, curve.gamma)

    failed = 0
    for delta, v_c in zip(curve.deltas.tolist(), curve.v_c):
        kind = kinds.get(delta)
        if np.isnan(v_c):
            ok = ((kind == "all_markovian" and not probe(v_hi, delta))
                  or (kind == "all_nonmarkovian" and probe(v_lo, delta)))
        else:
            ok = (kind is None and not probe(v_c - curve.tol_v, delta)
                  and probe(v_c + curve.tol_v, delta))
        failed += not ok
    return failed


def check_sweep(cells, eps_n: float) -> int:
    """Failed cells: Error(...) verdicts and criterion-7 false positives."""
    failed = 0
    for cell in cells:
        verdict = cell["verdict"]
        error = cell["error"] is not None or verdict.startswith("Error")
        false_positive = (cell["n_value"] <= eps_n
                          and verdict == "NonMarkovianDetected")
        failed += error or false_positive
    return failed


def trajectory_uniform(master_seed: int, index: int) -> float:
    """numpy's own draw for one trajectory, mapped into (0, 1]."""
    seed = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return 1.0 - np.random.Generator(np.random.Philox(seed)).random()


def check_mcwf(record, stats, indices) -> int:
    """Failed trajectories of one emission record: all or none.

    The ensemble must pass criterion 8's 3-sigma fraction and DKW tests,
    and at each sampled index the jump time must invert N^2 at numpy's
    own per-trajectory draw (no jump iff N^2(T) lies above the draw).
    """
    p = record.params
    n = record.n_traj
    jt = record.jump_times
    if jt.shape != (n,) or stats.frac_within[3] < MIN_FRAC_3SIGMA:
        return n
    t_grid = np.linspace(0.0, p.t_max, 141)
    fired = np.sort(jt[~np.isnan(jt)])
    emp = np.searchsorted(fired, t_grid, side="right") / n
    model = 1.0 - survival(p.v, p.delta, t_grid, p.gamma)
    dkw = np.sqrt(np.log(2.0 / DKW_ALPHA) / (2 * n))
    if np.max(np.abs(emp - model)) > dkw:
        return n
    for i in indices:
        u = trajectory_uniform(record.master_seed, int(i))
        if np.isnan(jt[i]):
            ok = survival(p.v, p.delta, p.t_max, p.gamma) > u - SURVIVAL_TOL
        else:
            n2 = survival(p.v, p.delta, jt[i], p.gamma)
            ok = abs(n2 - u) <= SURVIVAL_TOL
        if not ok:
            return n
    return 0
