"""Benchmark for specklenav: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up is timed three times and its median reported.  The timed work then
runs in whole rounds until ``--seconds`` have passed (at least one round),
every round's outputs are checked, and the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the last set-up is traced, the rounds are split between untraced and traced
halves, and the metrics are the per-layer ones (traced set-up plus one traced
round, median over the traced rounds) and the tracing overhead.
Everything else goes to the lines before it, each ``name value unit``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
STAGES = ("plan", "calibration", "solve", "gate", "scene", "fusion", "breathing",
          "sweep")
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import specklenav; "
                "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Time ``import specklenav`` in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def run_rounds(workload, inputs, seconds: float, tracer=None):
    """Whole rounds until ``seconds`` have passed; each round is checked."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        if tracer is None:
            out = workload.run_round(inputs)
        else:
            tracer.reset()
            with tracer.patched():
                out = workload.run_round(inputs)
            out["layers"] = tracing.layer_metrics(tracer.spans, tracer.range_clamp_warnings)
        out["problems"] = workload.check(inputs, out)
        rounds.append(out)
    return rounds


def blas_threads():
    """OpenBLAS thread count of the numpy in use, or None if not found."""
    import ctypes
    import glob

    import numpy
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                      "numpy.libs", "*openblas*")):
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            getter = getattr(ctypes.CDLL(lib), fn, None)
            if getter is not None:
                return int(getter())
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("default_run", "detect_stream", "breath_monitor",
                                 "calib_solve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "specklenav" / "__init__.py").is_file():
        print(f"error: no specklenav package under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import specklenav
    if Path(specklenav.__file__).resolve().parent != SRC / "specklenav":
        print(f"error: imported {specklenav.__file__}, not the checkout's", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]()

    # The traced run also traces the last set-up, so that work done there
    # (the cloud rendering of detect_stream) shows in the per-layer figures.
    tracer = tracing.Tracer() if args.trace else None
    setups, inputs = [], None
    for i in range(SETUP_REPEATS):
        # Free the previous inputs first, so that peak memory holds one set.
        inputs = None
        gc.collect()
        imported = import_seconds()
        t0 = time.perf_counter()
        if tracer is not None and i == SETUP_REPEATS - 1:
            with tracer.patched():
                inputs = workload.setup(args.seed)
            tracer.keep_as_base()
        else:
            inputs = workload.setup(args.seed)
        setups.append(imported + time.perf_counter() - t0)
    if workload.warm_up:
        workload.run_round(inputs)

    print(f"# workload {args.workload} seed {args.seed} cpus {os.cpu_count()} "
          f"python {sys.version.split()[0]} numpy {numpy.__version__} "
          f"scipy {scipy.__version__} blas_threads {blas_threads()}")
    if args.trace:
        plain = run_rounds(workload, inputs, args.seconds / 2.0)
        rounds = run_rounds(workload, inputs, args.seconds / 2.0, tracer)
        spans_path = (workloads.OUT_DIR / "spans"
                      / f"{args.workload}-seed{args.seed}.json")
        tracer.write(spans_path)
        print(f"# spans of the traced set-up and last traced round in {spans_path}")
        all_rounds = plain + rounds
    else:
        rounds = all_rounds = run_rounds(workload, inputs, args.seconds)

    walls = [r["wall_s"] for r in rounds]
    figures = {workload.wall_name: (walls, "s")}
    for r in rounds:
        for name, (values, unit) in r["figures"].items():
            figures.setdefault(name, ([], unit))[0].extend(values)
    for name, (values, unit) in figures.items():
        print(f"{name} {statistics.median(values):.6g} {unit} "
              f"(median of {len(values)})")

    if args.trace:
        metrics = {}
        for name in rounds[0]["layers"]:
            value = statistics.median(r["layers"][name] for r in rounds)
            unit = ("s" if name.endswith("_s") else "B" if name.endswith(".bytes")
                    else "ratio" if name.endswith("_ratio") else "count")
            metrics[name] = {"value": value, "unit": unit}
        # Stage times come from timing.csv; only default_run writes one.
        for stage in STAGES:
            metrics[f"harness.stage.{stage}_s"] = {"value": statistics.median(
                r.get("stage_s", {}).get(stage, 0.0) for r in rounds), "unit": "s"}
        overhead = statistics.median(walls) - statistics.median(
            r["wall_s"] for r in plain)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")

    problems = [p for r in all_rounds for p in r["problems"]]
    for p in problems:
        print(f"# CHECK FAILED: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in all_rounds),
        "failed": sum(r["failed"] for r in all_rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
