"""Benchmark runner for topogallery.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ./src.

--trace 0: sets up the workload seven times (fresh import each time; the
median is setup_s), then repeats the timed job until the next repetition
would overrun --seconds (at least once) and reports per-repetition medians
of the end-to-end metrics named in BENCHMARK.json.  A speed probe
(speed.py) runs throughout; timings and --seconds are in seconds at the
probe's reference host speed.

--trace 1: three repetitions, each after a fresh import and set-up: untraced,
traced (the per-layer wrappers from tracing.py are installed between import
and set-up, so set-up is traced too), untraced.  Reports the per-layer
metrics of BENCHMARK.json and the traced repetition's overhead against the
mean of the untraced ones.  Spans are written to perfbench/out/.

Human-readable lines (machine facts, every stage timing, failed_frac, any
failures) come first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import tracing
from speed import SpeedProbe
from workloads import WORKLOADS, Ledger

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 7


def import_package():
    """Import topogallery from ./src afresh, dropping any earlier import."""
    for name in [m for m in sys.modules
                 if m == "topogallery" or m.startswith("topogallery.")]:
        del sys.modules[name]
    tg = importlib.import_module("topogallery")
    importlib.import_module("topogallery.cli")  # also imports files
    return tg


def setup(workload, seed, workdir, trace=False):
    """Import plus fixtures; with trace, the wrappers go in between."""
    tg = import_package()
    tracer = tracing.install(tg) if trace else None
    return tg, tracer, workload.build(tg, seed, workdir)


def repetition(workload, tg, fx, tracer=None, clock=time.perf_counter):
    ledger = Ledger(clock)
    t0 = clock()
    res = workload.job(tg, fx, ledger)
    wall = clock() - t0
    if tracer is not None:
        tracer.active = False
    workload.check(tg, fx, res, ledger)
    return wall, ledger, res


def machine_facts() -> str:
    load = os.getloadavg()
    return (f"machine: python {platform.python_version()}, nproc "
            f"{os.cpu_count()}, load average {load[0]:.2f} {load[1]:.2f} "
            f"{load[2]:.2f}")


def report(attempted, failed, metrics, units, errors):
    for line in errors[:20]:
        print(f"FAILED {line}")
    print(f"failed_frac = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))


def run_untraced(workload, seed, seconds, workdir, bench):
    setups, walls, ledgers = [], [], []
    stages = {s: [] for s in workload.stages}
    with SpeedProbe() as probe:
        for _ in range(SETUP_REPEATS):
            t0 = probe.clock()
            tg, _, fx = setup(workload, seed, workdir)
            setups.append(probe.clock() - t0)
        # --seconds counts reference-speed seconds, so a slow spell of the
        # host does not change how many repetitions a run makes
        start = probe.clock()
        while True:
            wall, ledger, res = repetition(workload, tg, fx, clock=probe.clock)
            if not walls:
                gallery_bytes, bits = workload.sizes(tg, fx, res)
            del res  # one repetition's galleries alive at a time
            walls.append(wall)
            ledgers.append(ledger)
            for s in workload.stages:
                stages[s].append(ledger.stage[s])
            elapsed = (probe.clock() - start) / probe.factor()
            if elapsed + elapsed / len(walls) > seconds:
                break
        factor = probe.factor()
    print(f"host speed factor {factor:.4f} (median of {len(probe.samples)} "
          f"reference-loop samples); timings below are raw seconds / factor")
    for s in workload.stages:
        print(f"{s} = {statistics.median(stages[s]) / factor:.6g} s "
              f"(median of {len(walls)} repetitions)")
    print(f"raw setup_s samples: {' '.join(f'{v:.4f}' for v in setups)}")
    print(f"raw wall_s samples: {' '.join(f'{v:.4f}' for v in walls)}")
    values = {
        "setup_s": statistics.median(setups) / factor,
        "wall_s": statistics.median(walls) / factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "gallery_bytes": gallery_bytes,
        "max_coord_bits": bits,
    }
    return values, ledgers, bench["end_to_end"]


def run_traced(workload, seed, workdir, bench):
    # untraced, traced, untraced: the traced repetition is compared with the
    # mean of its neighbours, so a process's first (slower) repetition and
    # slow drift of the host do not land on one side
    plain, ledgers = [], []
    for trace in (False, True, False):
        tg, tr, fx = setup(workload, seed, workdir, trace)
        wall, ledger, _ = repetition(workload, tg, fx, tr)
        ledgers.append(ledger)
        if tr is None:
            plain.append(wall)
        else:
            tracer, traced_wall = tr, wall
    values = tracer.metrics()
    values["trace.overhead"] = traced_wall / statistics.mean(plain) - 1
    print(f"untraced repetitions {plain[0]:.4f} s and {plain[1]:.4f} s, traced "
          f"repetition {traced_wall:.4f} s, {len(tracer.names)} spans")
    spans = OUT / f"spans-{workload.name}-seed{seed}.tsv"
    tracer.write_spans(spans)
    print(f"spans written to {spans.relative_to(ROOT)}")
    return values, ledgers, bench["per_layer"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "topogallery" / "__init__.py").is_file():
        print(f"no topogallery sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print(machine_facts())
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
    try:
        if args.trace:
            values, ledgers, declared = run_traced(workload, args.seed, workdir, bench)
        else:
            values, ledgers, declared = run_untraced(
                workload, args.seed, args.seconds, workdir, bench)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in declared}
    # layers a workload never enters report zero; every end-to-end metric
    # must have been measured
    metrics = {name: float(values[name] if not args.trace else values.get(name, 0))
               for name in units}
    attempted = sum(l.attempted for l in ledgers)
    failed = sum(len(l.failed) for l in ledgers)
    report(attempted, failed, metrics, units,
           [e for l in ledgers for e in l.errors])
    return 0


if __name__ == "__main__":
    sys.exit(main())
