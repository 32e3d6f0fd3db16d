"""Span tracer and the rebinding that puts it around cavityflux's layers.

Spans are kept aggregated in memory, one entry per span name, and are
only written out when the benchmark ends.  A span's self time is its
duration minus the time its child spans cover; calls within one thread
nest, so the children of a span never overlap and their durations add.

The instrumentation never edits the package's source: it rebinds each
traced public function in every ``cavityflux`` module namespace that
holds it (``nonmarkov.amplitudes_analytic`` and
``trajectories.survival_at`` as well as ``dynamics.*``), and wraps the
traced methods on their classes.  ``Instrumentation.restore`` puts the
original objects back.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

import numpy as np

# work done inside a hook is booked under this span, so counting what a
# call returned does not inflate the self time of the call or its parent
HOOK_SPAN = "trace.hook"
_NO_SPAN = (0, 0.0, 0.0)


class Tracer:
    """Aggregated spans (calls, total and self seconds) plus counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = {}          # name -> [calls, total_s, self_s]
        self.counts = Counter()
        self._stack = []         # open spans: [name, start, child_s]

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> float:
        name, start, child_s = self._stack.pop()
        duration = self.clock() - start
        agg = self.spans.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def count(self, key: str, n=1) -> None:
        self.counts[key] += n

    def calls(self, name: str) -> int:
        return self.spans.get(name, _NO_SPAN)[0]

    def total_s(self, name: str) -> float:
        return self.spans.get(name, _NO_SPAN)[1]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, _NO_SPAN)[2]

    def as_dict(self) -> dict:
        return {"spans": {name: {"calls": c, "total_s": t, "self_s": s}
                          for name, (c, t, s) in sorted(self.spans.items())},
                "counts": dict(sorted(self.counts.items()))}


def _wrap(fn, span: str, tracer: Tracer, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(span)
        try:
            result = fn(*args, **kwargs)
            if hook is not None:
                tracer.enter(HOOK_SPAN)
                try:
                    hook(tracer, args, kwargs, result)
                finally:
                    tracer.exit()
            return result
        finally:
            tracer.exit()
    return traced


# -- hooks: counts taken where the work happens -----------------------------

def _time_arg(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["t"]


def _kernel_hook(tracer, args, kwargs, result):
    c, b = result
    n = int(np.size(_time_arg(args, kwargs)))
    tracer.count("dynamics.kernel.samples", n)
    bad = ~(np.isfinite(c) & np.isfinite(b))
    tracer.count("dynamics.kernel.nonfinite", int(np.count_nonzero(bad)))


def _sigma_hook(tracer, args, kwargs, result):
    n = int(np.size(_time_arg(args, kwargs)))
    tracer.count("nonmarkov.sigma.samples", n)
    if tracer.inside("nonmarkov.boundary"):
        tracer.count("nonmarkov.boundary.probes")
        tracer.count("nonmarkov.boundary.probe_samples", n)
    elif tracer.inside("nonmarkov.measure") and n == 1:
        tracer.count("nonmarkov.measure.endpoint_probes")


def _measure_hook(tracer, args, kwargs, result):
    tracer.count("nonmarkov.measure.intervals", len(result.revival_intervals))


def _boundary_hook(tracer, args, kwargs, result):
    tracer.count("nonmarkov.boundary.detunings", int(result.deltas.size))
    tracer.count("nonmarkov.boundary.unbracketed", len(result.unbracketed))


def _survival_hook(tracer, args, kwargs, result):
    tracer.count("trajectories.survival.samples",
                 int(np.size(_time_arg(args, kwargs))))


def _sample_hook(tracer, args, kwargs, result):
    tracer.count("trajectories.jumps", result.n_jumps)
    tracer.count("trajectories.trajectories", result.n_traj)


def _sweep_hook(tracer, args, kwargs, result):
    tracer.count("sweep.cells", int(result.deltas.size * result.vs.size))
    tracer.count("sweep.error_cells", len(result.errors))


def _bytes_hook(key):
    def hook(tracer, args, kwargs, result):
        # file writers take (self, path, ...); RegionMap.write returns paths
        paths = result if isinstance(result, list) else [args[1]]
        tracer.count(key, sum(os.path.getsize(p) for p in paths))
    return hook


# (module, attribute, span, hook); "Class.method" names a method
TRACED = (
    ("dynamics", "amplitudes_analytic", "dynamics.kernel", _kernel_hook),
    ("dynamics", "photon_flux_analytic", "dynamics.flux", None),
    ("dynamics", "flux_at", "dynamics.flux", None),
    ("nonmarkov", "sigma_values", "nonmarkov.sigma", _sigma_hook),
    ("nonmarkov", "nm_measure", "nonmarkov.measure", _measure_hook),
    ("nonmarkov", "markovian_boundary", "nonmarkov.boundary", _boundary_hook),
    ("nonmarkov", "BoundaryCurve.to_csv", "nonmarkov.write",
     _bytes_hook("nonmarkov.write_bytes")),
    ("spectrum", "dft", "spectrum.dft", None),
    ("spectrum", "dominant_peak", "spectrum.peak", None),
    ("spectrum", "classify", "spectrum.classify", None),
    ("spectrum", "threshold_frequency", "spectrum.threshold", None),
    ("trajectories", "trajectory_seed", "trajectories.seed", None),
    ("trajectories", "sample_jump_times", "trajectories.sample", _sample_hook),
    ("trajectories", "survival_at", "trajectories.survival", _survival_hook),
    ("trajectories", "estimate_flux", "trajectories.estimate", None),
    ("trajectories", "JumpRecord.to_csv", "trajectories.write",
     _bytes_hook("trajectories.write_bytes")),
    ("trajectories", "JumpRecord.write_manifest", "trajectories.write",
     _bytes_hook("trajectories.write_bytes")),
    ("sweep", "run_sweep", "sweep.run", _sweep_hook),
    ("sweep", "RegionMap.write", "sweep.write",
     _bytes_hook("sweep.write_bytes")),
)


def package_modules() -> list:
    """Every imported cavityflux module, the package itself included."""
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "cavityflux" or name.startswith("cavityflux.")]


class Instrumentation:
    """Wrappers installed by ``instrument``; ``restore`` removes them."""

    def __init__(self):
        self.rebound = []        # (namespace object, attribute, original)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.rebound):
            setattr(owner, attr, original)
        self.rebound.clear()


def instrument(tracer: Tracer) -> Instrumentation:
    """Wrap each traced function wherever a cavityflux module binds it."""
    modules = package_modules()
    by_name = {mod.__name__.rpartition(".")[2]: mod for mod in modules}
    inst = Instrumentation()
    try:
        for mod_name, attr, span, hook in TRACED:
            owner = by_name[mod_name]
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, _wrap(original, span, tracer, hook))
                inst.rebound.append((cls, method, original))
                continue
            original = getattr(owner, attr)
            wrapper = _wrap(original, span, tracer, hook)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        inst.rebound.append((mod, name, original))
    except BaseException:
        inst.restore()
        raise
    return inst


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics of one traced workload body, by metric name."""
    c = tr.counts
    sweep_cells = c["sweep.cells"]
    return {
        "dynamics.kernel.calls": tr.calls("dynamics.kernel"),
        "dynamics.kernel.samples": c["dynamics.kernel.samples"],
        "dynamics.kernel.self_s": tr.self_s("dynamics.kernel"),
        "dynamics.kernel.ns_per_sample": 1e9 * _ratio(
            tr.self_s("dynamics.kernel"), c["dynamics.kernel.samples"]),
        "dynamics.kernel.nonfinite": c["dynamics.kernel.nonfinite"],
        "dynamics.flux.self_s": tr.self_s("dynamics.flux"),
        "nonmarkov.sigma.calls": tr.calls("nonmarkov.sigma"),
        "nonmarkov.sigma.samples": c["nonmarkov.sigma.samples"],
        "nonmarkov.sigma.self_s": tr.self_s("nonmarkov.sigma"),
        "nonmarkov.boundary.self_s": tr.self_s("nonmarkov.boundary"),
        "nonmarkov.boundary.probes_per_detuning": _ratio(
            c["nonmarkov.boundary.probes"], c["nonmarkov.boundary.detunings"]),
        "nonmarkov.boundary.samples_per_probe": _ratio(
            c["nonmarkov.boundary.probe_samples"],
            c["nonmarkov.boundary.probes"]),
        "nonmarkov.boundary.unbracketed": c["nonmarkov.boundary.unbracketed"],
        "nonmarkov.measure.calls": tr.calls("nonmarkov.measure"),
        "nonmarkov.measure.self_s": tr.self_s("nonmarkov.measure"),
        "nonmarkov.measure.probes_per_endpoint": _ratio(
            c["nonmarkov.measure.endpoint_probes"],
            2 * c["nonmarkov.measure.intervals"]),
        "nonmarkov.write_s": tr.total_s("nonmarkov.write"),
        "spectrum.dft.calls": tr.calls("spectrum.dft"),
        "spectrum.dft.us_per_call": 1e6 * _ratio(
            tr.total_s("spectrum.dft"), tr.calls("spectrum.dft")),
        "spectrum.peak.us_per_call": 1e6 * _ratio(
            tr.total_s("spectrum.peak"), tr.calls("spectrum.peak")),
        "spectrum.classify.self_s": tr.self_s("spectrum.classify"),
        "spectrum.threshold.self_s": tr.self_s("spectrum.threshold"),
        "trajectories.seed.calls": tr.calls("trajectories.seed"),
        "trajectories.seed.self_s": tr.self_s("trajectories.seed"),
        "trajectories.sample.self_s": tr.self_s("trajectories.sample"),
        "trajectories.survival.calls": tr.calls("trajectories.survival"),
        "trajectories.survival.samples": c["trajectories.survival.samples"],
        "trajectories.survival.self_s": tr.self_s("trajectories.survival"),
        "trajectories.jump_fraction": _ratio(
            c["trajectories.jumps"], c["trajectories.trajectories"]),
        "trajectories.estimate.self_s": tr.self_s("trajectories.estimate"),
        "trajectories.write_s": tr.total_s("trajectories.write"),
        "trajectories.write_bytes": c["trajectories.write_bytes"],
        "sweep.run.self_s": tr.self_s("sweep.run"),
        "sweep.cell_ms": 1e3 * _ratio(
            tr.total_s("sweep.run") - tr.total_s("sweep.write"), sweep_cells),
        "sweep.error_cells": c["sweep.error_cells"],
        "sweep.write_s": tr.total_s("sweep.write"),
        "sweep.write_bytes": c["sweep.write_bytes"],
    }


# per-layer metrics that are counts (or ratios of counts): they must
# repeat exactly between traced bodies and between traced runs
COUNT_METRICS = frozenset((
    "dynamics.kernel.calls", "dynamics.kernel.samples",
    "dynamics.kernel.nonfinite", "nonmarkov.sigma.calls",
    "nonmarkov.sigma.samples", "nonmarkov.boundary.probes_per_detuning",
    "nonmarkov.boundary.samples_per_probe", "nonmarkov.boundary.unbracketed",
    "nonmarkov.measure.calls", "nonmarkov.measure.probes_per_endpoint",
    "spectrum.dft.calls", "trajectories.seed.calls",
    "trajectories.survival.calls", "trajectories.survival.samples",
    "trajectories.jump_fraction", "trajectories.write_bytes",
    "sweep.error_cells", "sweep.write_bytes",
))
