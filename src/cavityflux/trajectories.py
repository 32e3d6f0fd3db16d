"""Monte Carlo wave-function trajectories of the monitored emission.

In the single-excitation sector a trajectory holds at most one quantum
jump; after the photon is detected the state is the absorbing ground
state.  The no-jump survival probability is the squared norm of the
unnormalised state,

    N^2(t) = |c(t)|^2 + |b(t)|^2 + c0_ground^2,

with c, b the deterministic closed-form amplitudes, so the jump time is
sampled exactly by inverse transform: draw u uniform in (0, 1], fire at
the unique t* with N^2(t*) = u, no jump if N^2(T) > u.  This removes
the time-step bias of per-step Bernoulli sampling.  t* is found by
safeguarded Newton steps inside its bracket on the survival grid; the
derivative dN^2/dt = -gamma |b|^2 comes from the same survival pass,
a closed form of N^2 and |b|^2 with no phase (one expm1, one sin/cos pair
and one exp per time).  Started at the grid's cubic Hermite inverse, one
pass usually reaches JUMP_TOL / gamma: 1e5 draws at (1, 0) take 1.0e5
survival samples.

Per-trajectory generators are Philox streams keyed by (master_seed,
trajectory index), so records are reproducible regardless of execution
order or worker count.  The streams are numpy's
``Philox(trajectory_seed(master_seed, index))``, unchanged, but the
first draws of a block of JUMP_BLOCK trajectories are computed together:
numpy's SeedSequence mixes the master seed once, and the spawn-index mix,
the state hash and the Philox4x64-10 block are uint32/uint64 array
arithmetic over the block's indices, bit for bit equal to numpy's own
draw.  The counter is the same for every trajectory, so Philox round 0
multiplies Python integers and only its key XORs are arrays.  Draws and
inversion run one block at a time, so working memory stays flat in the
ensemble size.  A block's draws are inverted in sorted order and the
times scattered back to their indices: each draw's iteration is
elementwise, so the order changes no bit, while sorted keys make the
bracket search and the survival passes faster.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass

import numpy as np

from . import __version__
from .dynamics import (DEFAULT_DT, FluxSeries, ModelParams,
                       amplitudes_analytic, flux_at, require_finite,
                       splitting, time_grid)
from .files import mulhilo, write_csv, write_json

# jump-time tolerance in units of 1/gamma: a draw's Newton iteration
# stops once its step or its bracket is below JUMP_TOL / gamma;
# MAX_JUMP_STEPS bounds the passes
JUMP_TOL = 1e-10
MAX_JUMP_STEPS = 100
# trajectories drawn and inverted together by sample_jump_times
JUMP_BLOCK = 2 ** 14
DEFAULT_BIN_WIDTH = 0.1


class InvalidBinning(ValueError):
    """bin_width must be positive and no larger than the horizon."""


class GridMismatch(ValueError):
    """Estimate and analytic flux are on incommensurate grids."""


class PartialBinWarning(UserWarning):
    """The horizon is not an integer number of bins; tail dropped."""


# trajectory indices are single-word spawn keys of the SeedSequence hash
MAX_TRAJECTORIES = 2 ** 32

# numpy's SeedSequence hash (after O'Neill's seed_seq), all mod 2^32
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# Philox4x64-10 (Salmon, Moraes, Dror & Shaw, SC'11): round multipliers
# and the Weyl increments of the key schedule
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10


def trajectory_seed(master_seed: int, index: int) -> np.random.SeedSequence:
    """Deterministic per-trajectory seed, independent of scheduling."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))


class _HashMix:
    """numpy's ``hashmix`` on uint32 arrays, with its running multiplier."""

    def __init__(self, init: int, mult: int):
        self.const, self.mult = init, mult

    def __call__(self, value):
        value = value ^ self.const
        self.const = self.const * self.mult & _MASK32
        value = value * self.const
        return value ^ (value >> 16)


def _mix(x, y):
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> 16)


def _philox_keys(master_seed: int, indices: np.ndarray):
    """Philox keys of ``trajectory_seed(master_seed, i)`` for uint32 indices.

    Returns the two uint64 key words that
    ``trajectory_seed(master_seed, i).generate_state(2, np.uint64)``
    gives, for every i at once: numpy mixes the master seed's words into
    its pool, then the spawn index, then ``generate_state`` hashes the
    pool.  Only the last two steps depend on i.
    """
    master_seed = operator.index(master_seed)
    pool = np.random.SeedSequence(master_seed).pool
    # numpy's mix_entropy makes one hashmix call per pool word (filling
    # missing words with hashmix(0), which is exactly what spawn-key
    # padding feeds in), 12 for the cross mix and 4 per word past the
    # pool: k = 4 * max(4, n_words) calls precede the spawn index
    k = 4 * max(_POOL_SIZE, -(-master_seed.bit_length() // 32))
    hashmix = _HashMix(_INIT_A * pow(_MULT_A, k, 2 ** 32) & _MASK32, _MULT_A)
    pool = [_mix(p, hashmix(indices)) for p in pool[:, None]]
    hashout = _HashMix(_INIT_B, _MULT_B)
    state = [hashout(p).astype(np.uint64) for p in pool]
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def _philox4x64(counter, key):
    """Philox4x64-10 output block of a 4-word counter under uint64 keys.

    The counter is the same for every key, so round 0's products are
    Python integers and only its key XORs are arrays.
    """
    k0, k1 = key
    c0, c1, c2, c3 = map(int, counter)
    hi0, lo0 = divmod(c0 * _PHILOX_M[0], 2 ** 64)
    hi1, lo1 = divmod(c2 * _PHILOX_M[1], 2 ** 64)
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
            hi0, lo0 = mulhilo(c0, _PHILOX_M[0])
            hi1, lo1 = mulhilo(c2, _PHILOX_M[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0, c1, c2, c3


def trajectory_uniforms(master_seed: int, n_traj: int,
                        start: int = 0) -> np.ndarray:
    """Each trajectory's draw u in (0, 1], for indices start ..
    start + n_traj - 1.

    u[i] equals ``1 - Generator(Philox(trajectory_seed(master_seed, i)))
    .random()``: a fresh Philox steps its counter to (1, 0, 0, 0) and
    ``random()`` maps output word 0 to (x >> 11) * 2**-53.
    """
    indices = np.arange(start, start + n_traj, dtype=np.uint32)
    key = _philox_keys(master_seed, indices)
    x = _philox4x64((1, 0, 0, 0), key)[0]
    return 1.0 - (x >> 11) * 2.0 ** -53


def _survival_and_mode(params: ModelParams, t):
    """N^2(t) and |b(t)|^2 without the amplitudes' phases.

    amplitudes_analytic's c = c0 E (1 + kappa (u - 1)), kappa =
    (1 - g/d)/2, and b = 2i V c0 e^{i delta t} E (u - 1)/d need only
    |E|^2 = e^{(Re d - gamma) t/2} and u - 1 = x + iy: with a = -Re(d) t/2
    and h = Im(d) t/4, x = expm1(a) - 2 e^a sin^2 h (no cancellation: both
    terms are <= 0) and y = -2 e^a sin h cos h.  kappa (u - 1) and
    |2V/d| (x, y) are formed before squaring, so nothing overflows as
    d -> 0; d = 0 itself takes the limit of the kernel's form.
    """
    gamma, d = params.gamma, splitting(params)
    c02 = abs(complex(params.c0_init)) ** 2
    if d == 0:
        decay = c02 * np.exp(-0.5 * gamma * t)
        atom2 = decay * (1.0 + 0.25 * gamma * t) ** 2
        mode2 = decay * (params.v * t) ** 2
    else:
        em, h = np.expm1(-0.5 * d.real * t), 0.25 * d.imag * t
        sin = np.sin(h)
        z = (1.0 + em) * sin
        x, y = em - 2.0 * z * sin, -2.0 * z * np.cos(h)
        kappa = 0.5 * (1.0 - (gamma + 2j * params.delta) / d)
        r = abs(2.0 * params.v / d)
        scale = c02 * np.exp(0.5 * (d.real - gamma) * t)
        mode2 = scale * ((r * x) ** 2 + (r * y) ** 2)
        atom2 = scale * ((1.0 + kappa.real * x - kappa.imag * y) ** 2
                         + (kappa.real * y + kappa.imag * x) ** 2)
    return atom2 + mode2 + params.c0_ground ** 2, mode2


def survival_at(params: ModelParams, t):
    """Squared norm N^2(t) of the unnormalised no-jump state."""
    c, b = amplitudes_analytic(params, t)
    return np.abs(c) ** 2 + np.abs(b) ** 2 + params.c0_ground ** 2


@dataclass(frozen=True)
class JumpRecord:
    """Emission-time record of an ensemble of trajectories.

    jump_times holds NaN where a trajectory produced no photon within
    the horizon.
    """

    jump_times: np.ndarray
    params: ModelParams
    master_seed: int
    n_traj: int

    @property
    def n_jumps(self) -> int:
        return int(np.sum(~np.isnan(self.jump_times)))

    def to_csv(self, path):
        write_csv(path, "trajectory_index,jump_time",
                  np.arange(self.jump_times.size), self.jump_times)

    def manifest(self, bin_width=None) -> dict:
        p = self.params
        return {
            "params": {"gamma": p.gamma, "v": p.v, "delta": p.delta,
                       "c0_init": [complex(p.c0_init).real,
                                   complex(p.c0_init).imag],
                       "t_max": p.t_max},
            "master_seed": self.master_seed,
            "n_traj": self.n_traj,
            "bin_width": bin_width,
            "engine_version": __version__,
        }

    def write_manifest(self, path, bin_width=None):
        write_json(path, self.manifest(bin_width))


def _survival_grid(params: ModelParams, times):
    """The survival grid, from one survival pass: (times, the monotone
    N^2 on them, -N^2 (ascending, for the bracket search), steps), with
    steps' rows per step k from times[k] to times[k + 1] its drop
    N^2(t_k) - N^2(t_{k+1}) and the cubic Hermite inverse's slopes
    d((t - t_k)/dt)/ds = drop / (gamma |b|^2 dt) at both ends."""
    n2, mode2 = _survival_and_mode(params, times)
    n2 = np.minimum.accumulate(n2)
    drop = n2[:-1] - n2[1:]
    with np.errstate(all="ignore"):
        slopes = drop / (params.gamma * np.stack([mode2[:-1], mode2[1:]])
                         * np.diff(times))
    return times, n2, -n2, np.vstack([drop, slopes])


def _invert_survival(params, grid, us):
    """Jump times for uniform draws us, NaN where no jump occurs.

    Each firing draw u is bracketed on the grid from _survival_grid and
    starts at the cubic Hermite inverse in u's linear fraction s of the
    bracket, with the grid's slopes (at s where an end has b = 0, at the
    midpoint where N^2 is flat).  Then Newton steps on f = N^2 - u,
    safeguarded by the bracket as in ``rtsafe`` of Numerical Recipes (3rd
    ed., sec. 9.4): one survival pass over the still-active draws gives f
    and f' = -gamma |b|^2.  The bracket first takes the step's time as its
    left end where f >= 0, else as its right end, so ties break toward
    earlier time.  A Newton step t - f/f' that is not finite or leaves the
    bracket is replaced by the bracket midpoint.  A draw stops once its
    step or its bracket is below JUMP_TOL / gamma, so the passes do not
    depend on the scale; as the start is typically within 1e-12 / gamma,
    one pass usually suffices.
    The firing draws are inverted in ascending order and each time is
    written back at its draw's index; every step above is elementwise, so
    the result does not depend on the order of us, bit for bit.
    sample_jump_times calls this once per block of JUMP_BLOCK draws.
    """
    jump_times = np.full(us.shape, np.nan)
    if params.v == 0 or params.gamma == 0 or abs(complex(params.c0_init)) == 0:
        return jump_times          # zero flux: no trajectory ever jumps
    times, n2, descent, steps = grid
    if n2[-1] >= 1.0:
        return jump_times
    firing = np.flatnonzero(us >= n2[-1])
    if not firing.size:
        return jump_times
    firing = firing[np.argsort(us[firing])]
    u = us[firing]

    # the bracket is step k, from lo = times[k] to hi = times[k + 1]
    k = np.clip(np.searchsorted(descent, -u, side="right"), 1,
                times.size - 1) - 1
    lo, hi, (drop, m0, m1) = times[k], times[k + 1], steps.take(k, axis=1)
    falls = drop > 0.0
    s = np.clip((n2[k] - u) / np.where(falls, drop, 1.0), 0.0, 1.0)
    with np.errstate(all="ignore"):
        hermite = s * (1 - s) * ((1 - s) * m0 - s * m1) + s * s * (3 - 2 * s)
    start = np.where(np.isfinite(hermite), np.clip(hermite, 0.0, 1.0), s)
    t = lo + (hi - lo) * np.where(falls, start, 0.5)
    tol = JUMP_TOL / params.gamma
    active = np.arange(u.size)
    for _ in range(MAX_JUMP_STEPS):
        ta = t[active]
        f, b2 = _survival_and_mode(params, ta)
        f -= u[active]
        left = f >= 0.0
        lo_a = np.where(left, ta, lo[active])
        hi_a = np.where(left, hi[active], ta)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = ta + f / (params.gamma * b2)
        inside = (lo_a <= newton) & (newton <= hi_a)
        t_new = np.where(inside, newton, lo_a + 0.5 * (hi_a - lo_a))
        step = np.abs(t_new - ta)
        t[active], lo[active], hi[active] = t_new, lo_a, hi_a
        active = active[(step >= tol) & (hi_a - lo_a >= tol)]
        if not active.size:
            break
    jump_times[firing] = t
    return jump_times


def sample_jump_times(params: ModelParams, n_traj: int, master_seed: int,
                      dt: float = DEFAULT_DT) -> JumpRecord:
    """Emission-time record for n_traj independent trajectories.

    Trajectories are drawn and inverted JUMP_BLOCK indices at a time,
    so the working memory does not grow with n_traj; each draw depends
    on its index alone, so the record does not depend on the blocking.
    """
    require_finite("n_traj", n_traj, 1, integer=True)
    if n_traj > MAX_TRAJECTORIES:
        raise ValueError(
            f"n_traj must be <= {MAX_TRAJECTORIES}, got {n_traj}")
    if require_finite("master_seed", master_seed, integer=True) < 0:
        raise ValueError(
            f"master_seed must be a non-negative integer, got {master_seed}")
    grid = _survival_grid(params, time_grid(params.t_max, dt))
    jump_times = np.empty(n_traj)
    for start in range(0, n_traj, JUMP_BLOCK):
        stop = min(start + JUMP_BLOCK, n_traj)
        us = trajectory_uniforms(master_seed, stop - start, start)
        jump_times[start:stop] = _invert_survival(params, grid, us)
    return JumpRecord(jump_times=jump_times, params=params,
                      master_seed=int(master_seed), n_traj=int(n_traj))


def estimate_flux(params: ModelParams, n_traj: int,
                  bin_width: float = DEFAULT_BIN_WIDTH,
                  master_seed: int = 0, dt: float = DEFAULT_DT,
                  record: JumpRecord | None = None) -> FluxSeries:
    """Time-binned flux estimate from emission counts.

    values[k] = count_k / (n_traj * bin_width) over bins covering
    [0, T]; a trailing partial bin is dropped with a warning.  Pass a
    precomputed record to bin an existing ensemble.
    """
    if not 0 < require_finite("bin_width", bin_width) <= params.t_max:
        raise InvalidBinning(
            f"bin_width must be in (0, t_max], got {bin_width}")
    if record is None:
        record = sample_jump_times(params, n_traj, master_seed, dt)
    else:
        n_traj = record.n_traj

    n_bins = int(np.floor(params.t_max / bin_width + 1e-9))
    covered = n_bins * bin_width
    if params.t_max - covered > 1e-9 * params.t_max:
        warnings.warn(
            f"horizon {params.t_max} is not a multiple of bin_width "
            f"{bin_width}; dropping the partial bin beyond {covered:g}",
            PartialBinWarning, stacklevel=2)

    jt = record.jump_times[~np.isnan(record.jump_times)]
    counts, _ = np.histogram(jt, bins=n_bins, range=(0.0, covered))
    centers = (np.arange(n_bins) + 0.5) * bin_width
    values = counts / (n_traj * bin_width)
    return FluxSeries(times=centers, values=values, counts=counts,
                      n_traj=n_traj, bin_width=bin_width)


def analytic_flux_at_bins(params: ModelParams,
                          estimate: FluxSeries) -> FluxSeries:
    """Analytic flux evaluated at the estimate's bin centers."""
    return FluxSeries(times=estimate.times.copy(),
                      values=flux_at(params, estimate.times))


@dataclass(frozen=True)
class ResidualStats:
    """Estimate-vs-analytic residual summary.

    z-scores use the Poisson error model sigma_k = sqrt(max(count_k, 1))
    / (n_traj * bin_width); they are None when the estimate carries no
    counts.
    """

    rms: float
    max_abs_z: float | None
    frac_within: dict | None

    def summary(self) -> str:
        if self.max_abs_z is None:
            return f"rms={self.rms:.4g}"
        frac = ", ".join(f"|z|<={k}: {v:.3f}"
                         for k, v in sorted(self.frac_within.items()))
        return f"rms={self.rms:.4g}, max|z|={self.max_abs_z:.3g}, {frac}"


def flux_residual_stats(estimate: FluxSeries,
                        analytic: FluxSeries) -> ResidualStats:
    """Residual summary of a flux estimate against the analytic flux.

    The two must share a grid: times more than 1e-8 of the estimate's
    grid step apart, at any scale, raise GridMismatch.
    """
    step = estimate.bin_width or estimate.dt
    if (estimate.times.size != analytic.times.size
            or not np.allclose(estimate.times, analytic.times,
                               rtol=0.0, atol=1e-8 * step)):
        raise GridMismatch("estimate and analytic grids differ")
    resid = estimate.values - analytic.values
    rms = float(np.sqrt(np.mean(resid ** 2)))
    if estimate.counts is None or not estimate.n_traj or not estimate.bin_width:
        return ResidualStats(rms=rms, max_abs_z=None, frac_within=None)
    sigma = np.sqrt(np.maximum(estimate.counts, 1)) / (
        estimate.n_traj * estimate.bin_width)
    z = resid / sigma
    frac = {k: float(np.mean(np.abs(z) <= k)) for k in (1, 2, 3)}
    return ResidualStats(rms=rms, max_abs_z=float(np.max(np.abs(z))),
                         frac_within=frac)
