"""The cesaro benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {continuation,discrete,averaging}
                             --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, never from an installed copy.  One process runs
one workload on one thread, with the BLAS pools pinned to one thread.

``--trace 0`` runs whole passes over the workload's cases until ``--seconds``
have gone by and prints the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then traced passes until the time is up, and prints the
per-layer metrics (see ``tracer.py``).  Every output is checked against an
oracle computed apart from ``cesaro`` (see ``cases.py``).  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the full record, with the run environment, goes to
``perfbench/runs/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:                 # before numpy is first imported
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cases
import tracer as tracer_mod
from setup_probe import warm_up

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "runs"
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "case_p50_s": "s",
    "peak_rss_mb": "MB",
    "digits_min": "digits",
}

PER_LAYER = {
    "seqfun.psum_s": "s",
    "seqfun.psum_terms": "count",
    "seqfun.term_array_s": "s",
    "seqfun.materialize_s": "s",
    "seqfun.cells": "count",
    "operators.apply_P_s": "s",
    "operators.apply_P_passes": "count",
    "operators.cells": "count",
    "tailfit.fit_s": "s",
    "tailfit.fit_calls": "count",
    "tailfit.variation_s": "s",
    "climits.driver_s": "s",
    "climits.gate_calls": "count",
    "climits.escalations": "count",
    "climits.discrete_s": "s",
    "climits.discrete_exact_s": "s",
    "asymptotics.expansion_s": "s",
    "zeta.entry_s": "s",
    "zeta.route_a_s": "s",
    "zeta.route_b_mp_s": "s",
    "zeta.route_b_s": "s",
    "zeta.route_b_agree_digits": "digits",
    "zeta.ext_mp_s": "s",
    "zeta.corrected_exact_s": "s",
    "zeta.exact_pass_cells": "count",
    "zeta.corrected_mp_s": "s",
    "integrals.entry_s": "s",
    "integrals.quad_s": "s",
    "integrals.quad_pieces": "count",
    "integrals.endpoint_fit_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_cesaro():
    """Import cesaro from this checkout's src/, refusing any other copy."""
    if not (SRC / "cesaro" / "__init__.py").is_file():
        fail(f"no cesaro sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import cesaro
    import cesaro.cli
    if SRC not in Path(cesaro.__file__).resolve().parents:
        fail(f"imported cesaro from {cesaro.__file__}, not from {SRC}")
    return cesaro, cesaro.cli


def environment(seed) -> dict:
    import mpmath
    import numpy
    import scipy
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": affinity or os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
        "seed": seed,
    }


def measure_setup(workload: str) -> list:
    """Seconds to import cesaro and warm up, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload,
             str(SRC)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}", 1)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_case(case) -> dict:
    """Time one operation, then check it.

    Garbage from the previous case is collected first, outside the timed
    span: averaged functions reference each other in cycles, and when the
    collector happens to run would otherwise move peak memory by tens of MB.
    """
    gc.collect()
    t0 = time.perf_counter()
    try:
        result = case.call()
        error = None
    except Exception as exc:        # a failed operation is a counted outcome
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    verdict = (cases.Verdict(False, None, error) if error
               else case.check(result))
    return {"case": case.name, "seconds": seconds, "ok": verdict.ok,
            "digits": verdict.digits, "detail": verdict.detail,
            "known_fault": case.known_fault}


def run_pass(workload) -> dict:
    """One pass; its wall time is the time spent inside the operations."""
    records = [run_case(c) for c in workload]
    return {"wall_s": sum(r["seconds"] for r in records), "cases": records}


def layer_metrics(tracer, wall: float) -> dict:
    values = {}
    for name in PER_LAYER:
        if name in tracer.missing:
            values[name] = None
        elif name in tracer.mins:
            values[name] = tracer.mins[name]
        elif name == "zeta.route_b_agree_digits":
            values[name] = 15.0         # no cross-checked evaluation: the cap
        elif name.endswith("_s"):
            values[name] = tracer.times.get(name, 0.0)
        else:
            values[name] = tracer.counts.get(name, 0)
    values["trace.coverage"] = tracer.traced_self_time() / wall
    return values


def median_or_none(xs):
    xs = [x for x in xs if x is not None]
    return statistics.median(xs) if xs else None


def summarize(passes) -> tuple:
    records = [r for p in passes for r in p["cases"]]
    attempted = len(records)
    failed = sum(1 for r in records if not r["ok"])
    correct = all(r["ok"] for r in records if not r["known_fault"])
    return correct, attempted, failed


def run_workload(args, api, cli) -> dict:
    setup = measure_setup(args.workload)
    warm_up(args.workload, api, cli)
    workload = cases.WORKLOADS[args.workload](
        cli if args.workload == "averaging" else api,
        random.Random(args.seed))

    untraced, traced, layers = [], [], []
    missing = set()
    t_start = time.perf_counter()
    deadline = t_start + args.seconds
    if not args.trace:
        while True:
            untraced.append(run_pass(workload))
            if time.perf_counter() >= deadline:
                break
    else:
        untraced.append(run_pass(workload))
        while True:
            tr = tracer_mod.install(tracer_mod.Tracer())
            try:
                p = run_pass(workload)
            finally:
                tr.uninstall()
            traced.append(p)
            layers.append(layer_metrics(tr, p["wall_s"]))
            missing |= tr.missing
            if time.perf_counter() >= deadline:
                break
    passes = untraced + traced
    correct, attempted, failed = summarize(passes)

    if args.trace:
        metrics = {name: median_or_none([lm[name] for lm in layers])
                   for name in PER_LAYER}
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced)
            - statistics.median(p["wall_s"] for p in untraced))
        units = PER_LAYER
    else:
        walls = [p["wall_s"] for p in untraced]
        case_times = [r["seconds"] for p in untraced for r in p["cases"]]
        digit_vals = [r["digits"] for p in untraced for r in p["cases"]
                      if r["ok"] and r["digits"] is not None]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "case_p50_s": statistics.median(case_times),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "digits_min": min(digit_vals) if digit_vals else 0.0,
        }
        units = END_TO_END
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "record": {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "setup_samples_s": setup,
            "untraced_pass_walls_s": [p["wall_s"] for p in untraced],
            "traced_pass_walls_s": [p["wall_s"] for p in traced],
            "per_pass_layers": layers,
            "not_measured": sorted(missing),
            "cases": untraced[0]["cases"],
        },
    }


def run_smoke(args, api, cli) -> dict:
    """One cheap case per workload, checked; a quick end-to-end sanity run."""
    records = []
    for name, build in cases.WORKLOADS.items():
        target = cli if name == "averaging" else api
        case = next(c for c in build(target, random.Random(args.seed))
                    if c.smoke)
        rec = run_case(case)
        rec["workload"] = name
        records.append(rec)
    return {
        "correct": all(r["ok"] for r in records),
        "attempted": len(records),
        "failed": sum(1 for r in records if not r["ok"]),
        "metrics": {},
        "record": {"smoke": True, "seed": args.seed, "cases": records},
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=tuple(cases.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one cheap case per workload, for a quick check")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required unless --smoke is given")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    api, cli = import_cesaro()
    if args.smoke:
        result = run_smoke(args, api, cli)
        out_name = f"smoke-seed{args.seed}.json"
    else:
        result = run_workload(args, api, cli)
        out_name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = result.pop("record")
    record["environment"] = environment(args.seed)
    record["result"] = result
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / out_name).write_text(json.dumps(record, indent=1, default=str))
    for name, m in result["metrics"].items():
        print(f"{name:28s} {m['value']!r} {m['unit']}")
    for r in record["cases"]:
        if not r["ok"]:
            print(f"failed: {r['case']}: {r['detail']}"
                  + (f" [known fault: {r['known_fault']}]"
                     if r.get("known_fault") else ""))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
