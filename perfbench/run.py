"""Benchmark of the semigraded workbench.

    python3 perfbench/run.py --workload codim-modular --seed 1 --seconds 40 --trace 0

Sets up one workload (workloads.py), then runs its whole task list again
and again in this interpreter, as many times as fit in --seconds, checking
every output against reference values.  Set-up is timed separately, in
fresh interpreters.  Times are brought to the reference clock of clock.py.
The last line of standard output is one JSON object with the end-to-end
metrics (--trace 0) or, from traced passes that alternate with untraced
ones, the per-layer metrics of tracing.py (--trace 1).
"""

from __future__ import annotations

import os

# one thread per process: numpy must not start a BLAS pool of its own
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from clock import SpeedProbe
from tracing import PER_LAYER, Tracer, layer_metrics
from workloads import BATTERY_CHECKS, WORKLOADS, SourceMissing, setup

HERE = Path(__file__).resolve().parent
# fresh interpreters timed for setup_s, half before the passes and half
# after, so that they see more than one state of a shared machine
SETUP_PROBES = 8
# no new pass starts once the next one would likely end after this, so a
# run ends well within the three minutes it is given
HARD_LIMIT_S = 140.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
RUN_LAYER = (
    [(f"verify.{c}_s", "s") for c in BATTERY_CHECKS]
    + [("setup.import_s", "s"), ("gralgebra.catalog_s", "s"),
       ("run.wall_raw_s", "s"), ("run.clock_factor", "ratio"),
       ("run.cpu_s", "s"), ("run.cpu_util", "ratio"), ("run.trace_overhead_frac", "ratio")]
)


@dataclass
class Pass:
    wall: float
    cpu: float
    factor: float  # reference seconds per measured second, from clock.SpeedProbe
    outcomes: list
    layers: dict = field(default_factory=dict)


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_at_start": os.getloadavg(),
    }


def probe_setup(workload, count):
    """(import seconds, catalog seconds, clock factor) from `count` fresh
    interpreters."""
    records = []
    for _ in range(count):
        out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload.name],
                             capture_output=True, text=True, timeout=60, check=True)
        rec = json.loads(out.stdout.strip().splitlines()[-1])
        records.append((rec["import_s"], rec["catalog_s"], rec["factor"]))
    return records


def one_pass(workload, algebras, seed, traced):
    tracer = Tracer() if traced else None
    c0, t0 = time.process_time(), time.perf_counter()
    with SpeedProbe() as probe, tracer or nullcontext():
        outcomes = workload.run_pass(algebras, seed)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    layers = layer_metrics(tracer.spans, tracer.absent) if tracer else {}
    return Pass(wall, cpu, probe.factor(), outcomes, layers)


def measure(workload, algebras, seed, seconds, trace):
    """Rounds of one untraced pass (followed by a traced one when trace is
    set) while the next round is expected to end within `seconds`; at
    least one round."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(one_pass(workload, algebras, seed, traced=False))
        if trace:
            traced.append(one_pass(workload, algebras, seed, traced=True))
        elapsed = time.perf_counter() - start
        next_end = elapsed * (len(plain) + 1) / len(plain)
        if next_end > seconds or next_end > HARD_LIMIT_S:
            return plain, traced


def median_of(passes, key):
    return statistics.median(key(p) for p in passes)


def task_medians(passes):
    """{task: median over the passes of its reference-clock seconds}."""
    by_task = {}
    for p in passes:
        for o in p.outcomes:
            by_task.setdefault(o.task, []).append(o.seconds * p.factor)
    return {task: statistics.median(secs) for task, secs in by_task.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    env = environment()
    try:
        algebras, _, _ = setup(workload)
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(env))
    if not workload.uses_seed:
        print(f"seed {args.seed}: not used, {workload.name} has fixed inputs")

    probes = probe_setup(workload, SETUP_PROBES // 2)
    plain, traced = measure(workload, algebras, args.seed, args.seconds, args.trace)
    probes += probe_setup(workload, SETUP_PROBES - SETUP_PROBES // 2)

    outcomes = [o for p in plain + traced for o in p.outcomes]
    failed = [o for o in outcomes if o.error is not None]
    for i, p in enumerate(plain + traced):
        kind = "traced" if i >= len(plain) else "plain"
        print(f"pass {i + 1} ({kind}): {p.wall:.3f} s wall, {p.cpu:.3f} s cpu, "
              f"clock factor {p.factor:.3f}, "
              f"{sum(o.error is not None for o in p.outcomes)}/{len(p.outcomes)} failed")
    for o in failed:
        print(f"FAIL {o.task}: {o.error}")
    print(f"fail_frac {len(failed) / len(outcomes):.6g} ({len(failed)}/{len(outcomes)} tasks)")

    # a pass's time as the sum over tasks of each task's median, so that a
    # burst of machine speed that covers one task in one pass is outvoted
    per_task = task_medians(plain)
    wall = sum(per_task.values())
    if args.trace:
        values = {name: statistics.median(p.layers[name] for p in traced)
                  for name in traced[0].layers}
        values.update({f"verify.{c}_s": per_task.get(c, 0.0) for c in BATTERY_CHECKS})
        values.update({
            "setup.import_s": statistics.median(i * f for i, _, f in probes),
            "gralgebra.catalog_s": statistics.median(c * f for _, c, f in probes),
            "run.wall_raw_s": median_of(plain, lambda p: p.wall),
            "run.clock_factor": median_of(plain, lambda p: p.factor),
            "run.cpu_s": median_of(plain, lambda p: p.cpu),
            "run.cpu_util": median_of(plain, lambda p: p.cpu / p.wall),
            "run.trace_overhead_frac": (sum(task_medians(traced).values()) - wall) / wall,
        })
        missing = [name for name, _, _ in PER_LAYER if name not in values]
        if missing:
            print("absent (probe found nothing to wrap, reported as 0): " + ", ".join(missing))
        units = [(name, unit) for name, unit, _ in PER_LAYER] + RUN_LAYER
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units}
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median((i + c) * f for i, c, f in probes),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(outcomes),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
