"""cavityflux benchmark: one workload, one process, one worker.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  After a set-up phase (fresh interpreters importing
``cavityflux.cli`` and generating the inputs), one untimed warm-up body
runs, then timed bodies repeat until ``--seconds`` have passed.  Every
body's output is checked outside the timed region.  While a body runs, a
speed probe samples how fast the host runs a fixed loop, and the body's
cost is reported in units of that loop (see SpeedProbe).

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced bodies and reports the per-layer metrics, with the tracing
overhead.  Human-readable lines come first; the last line of standard
output is one JSON object with keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 7
MIN_TIMED_BODIES = 3      # per kind: untraced, and traced under --trace 1
PROBE_INTERVAL_S = 0.02
PROBE_LOOP = 3000         # additions: about 0.15 ms on a quiet host
PROBE_TABLE = 1 << 20     # floats: far past a core's own caches
PROBE_READS = 300         # random reads from it: about 0.1 ms


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, failed set-up)."""


def load_program():
    """Import cavityflux.cli from the checkout's src/, nowhere else."""
    if not (SRC / "cavityflux" / "__init__.py").is_file():
        raise BenchError(f"no cavityflux package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cavityflux.cli  # noqa: F401  (the import every CLI call pays)
    import cavityflux
    if Path(cavityflux.__file__).resolve().parent != SRC / "cavityflux":
        raise BenchError(f"imported cavityflux from {cavityflux.__file__}")


def measure_setup(name: str, seed: int) -> list:
    """Seconds from process start to inputs ready, per fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise BenchError(f"set-up probe failed ({proc.returncode})")
        times.append(elapsed)
    return times


class SpeedProbe:
    """Samples the host's speed while a body runs, traced or not.

    On a shared host a CPU's speed drifts by up to 1.8x within seconds,
    and CPU time grows with wall time, so neither tells the program's cost
    apart from the host's load.  Inside the probe an interval timer
    interrupts the body every PROBE_INTERVAL_S, and the handler times a
    fixed loop on the same CPU: interpreter arithmetic, then random reads
    from a table too large for the core's caches, which a neighbour on the
    host slows as it slows the program.  A body's cost (`loop_cost`) is
    its wall time, less the time spent in the handler, over the mean loop
    time: its time in units of the loop, at whatever speed the host ran
    meanwhile.  The loop calls nothing in cavityflux, so the program
    cannot move it; its table adds a fixed 40 MB or so to the
    process's resident memory.
    """

    def __init__(self):
        rng = random.Random(0)
        self.table = [float(k) for k in range(PROBE_TABLE)]
        self.reads = [rng.randrange(PROBE_TABLE) for _ in range(PROBE_READS)]
        self.loops = []
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        total = 0
        for k in range(PROBE_LOOP):
            total += k
        for k in self.reads:
            total += self.table[k]
        self.loops.append(time.perf_counter() - start)

    def __enter__(self):
        self.loops = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def loop_cost(wall: float, loops) -> float:
    """A body's wall seconds (less the probe's time) in probe-loop units."""
    return wall / statistics.fmean(loops)


def fingerprint(out_dir: Path, names) -> str:
    digest = hashlib.sha256()
    for name in names:
        digest.update((out_dir / name).read_bytes())
    return digest.hexdigest()


class Runner:
    """Runs and checks bodies of one workload; counts attempted/failed."""

    def __init__(self, workload, inputs, out_dir: Path):
        self.workload = workload
        self.inputs = inputs
        self.out_dir = out_dir
        self.items = workload.count_items(inputs)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reference = None      # output-file digest of the first body
        self.probe = SpeedProbe()

    def run(self, tracer=None):
        """One body under the speed probe.  Returns its wall seconds, less
        the probe's time, and the probe's loop times.  Errors are counted."""
        inst = tracing.instrument(tracer) if tracer is not None else None
        output = None
        try:
            with self.probe:
                start = time.perf_counter()
                try:
                    output = self.workload.body(self.inputs, self.out_dir)
                except Exception as exc:   # counted as failed, never raised
                    self.errors.append(f"body: {type(exc).__name__}: {exc}")
                elapsed = time.perf_counter() - start
                loops = self.probe.loops
        finally:
            if inst is not None:
                inst.restore()
        self.attempted += self.items
        self.failed += self.items if output is None else self._check(output)
        return elapsed - sum(loops), loops

    def _check(self, output) -> int:
        try:
            failed = self.workload.check(self.inputs, output)
            digest = fingerprint(self.out_dir, self.workload.output_files)
        except Exception as exc:
            self.errors.append(f"check: {type(exc).__name__}: {exc}")
            return self.items
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            self.errors.append("outputs differ from the first body's")
            return self.items
        if failed:
            self.errors.append(f"{failed} of {self.items} items failed checks")
        return failed


def timed_loop(runner: Runner, seconds: float, trace: bool):
    """Untimed warm-up, then bodies until `seconds` pass (alternating
    untraced and traced bodies under trace).  Returns the untraced bodies'
    wall seconds (less the probe's time) and costs in probe loops, the
    traced bodies' costs, and their tracers."""
    runner.run()
    plain, costs, traced, tracers = [], [], [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(plain) < MIN_TIMED_BODIES
           or (trace and len(traced) < MIN_TIMED_BODIES)):
        if trace and len(traced) < len(plain):
            tracers.append(tracing.Tracer())
            traced.append(loop_cost(*runner.run(tracers[-1])))
        else:
            wall, loops = runner.run()
            plain.append(wall)
            costs.append(loop_cost(wall, loops))
    return plain, costs, traced, tracers


def end_to_end(setup, costs, items, attempted, failed) -> dict:
    cost = statistics.median(costs)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_loops": (cost, "loops"),
        "items_per_kloop": (1000.0 * items / cost, "1/kloop"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "ok_rate": ((attempted - failed) / attempted, "fraction"),
    }


def layer_unit(name: str) -> str:
    if name in tracing.COUNT_METRICS:
        return ("B" if name.endswith("_bytes") else
                "fraction" if name.endswith("_fraction") else "count")
    return ("ns" if name.endswith("ns_per_sample") else
            "us" if name.endswith("us_per_call") else
            "ms" if name.endswith("_ms") else "s")


def per_layer(plain, costs, traced, tracers) -> dict:
    bodies = [tracing.layer_metrics(tr) for tr in tracers]
    metrics = {}
    for name in bodies[0]:
        values = [body[name] for body in bodies]
        if name not in tracing.COUNT_METRICS:
            value = statistics.median(values)
        else:
            value = values[0]
            if len(set(values)) > 1:
                print(f"warning: count {name} differs between traced "
                      f"bodies: {values}", file=sys.stderr)
        metrics[name] = (value, layer_unit(name))
    # traced minus untraced cost, in seconds at the untraced bodies' speed
    seconds_per_loop = statistics.median(plain) / statistics.median(costs)
    metrics["trace.overhead_s"] = (
        (statistics.median(traced) - statistics.median(costs))
        * seconds_per_loop, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # the execution is pinned by the benchmark: no worker count from outside
    os.environ.pop("NM_WORKERS", None)
    try:
        load_program()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    inputs = workloads.make_inputs(args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    try:
        setup = [] if args.trace else measure_setup(args.workload, args.seed)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(workloads.WORKLOADS[args.workload], inputs, out_dir)
    plain, costs, traced, tracers = timed_loop(runner, args.seconds,
                                               bool(args.trace))

    host = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "nproc": os.cpu_count(), "workers": 1,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "items_per_body": runner.items,
            "item": runner.workload.items,
            "setup_s": setup, "body_s": plain, "body_loops": costs,
            "traced_body_loops": traced}
    print(json.dumps(host))
    for name, values in (("wall_s", plain), ("wall_loops", costs)):
        q1, q2, q3 = statistics.quantiles(values, n=4)
        print(f"body {name}: median {q2:.4f}, quartiles {q1:.4f}..{q3:.4f} "
              f"over {len(values)} untraced bodies")
    print(f"error_rate = {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} {runner.workload.items})")
    for error in runner.errors:
        print(f"error: {error}")

    if args.trace:
        metrics = per_layer(plain, costs, traced, tracers)
        (out_dir / "trace.json").write_text(json.dumps(
            [tr.as_dict() for tr in tracers], indent=1) + "\n")
    else:
        metrics = end_to_end(setup, costs, runner.items, runner.attempted,
                             runner.failed)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
