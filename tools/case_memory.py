"""The memory each benchmark case takes, for one checkout or two.

    python3 tools/case_memory.py CHECKOUT [--workloads W] [--seeds 7,11]
    python3 tools/case_memory.py CHECKOUT --against OTHER [--seeds 7,11]

Builds the cases as tools/case_outputs.py does, with the BLAS pools on
one thread as the benchmark pins them, and calls each once, in order, with
tracemalloc on and the garbage collector run before each case, as a
benchmark pass runs it.  Each checkout, workload and seed runs in a
process of its own, as each benchmark run does.  Per case it prints the
tracemalloc peak above what the process held before the case, and the
process's ru_maxrss after it, both in MB; ru_maxrss includes tracemalloc's
own records.  Then, per checkout, workload and seed, the case with the
largest peak and the case after which ru_maxrss reached its highest value.
A case that raises is measured all the same.
"""

from __future__ import annotations

import gc
import json
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

from case_outputs import each_case

MB = 1e6


def measure(checkout: Path, seed: int, workload: str) -> list:
    """[case name, tracemalloc peak above the start of the case, ru_maxrss
    after it] for each case of one workload at one seed, in MB."""
    rows = []
    tracemalloc.start()
    for _, _, case in each_case(checkout, [seed], [workload]):
        gc.collect()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        try:
            case.call()
        except Exception:           # a failing case is measured too
            pass
        peak = tracemalloc.get_traced_memory()[1] - before
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rows.append([case.name, peak / MB, rss])
    tracemalloc.stop()
    return rows


def _measure_in_subprocess(checkout: Path, seed: int, workload: str) -> list:
    proc = subprocess.run([sys.executable, __file__, str(checkout),
                           "--child", str(seed), "--workloads", workload],
                          capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{checkout}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def _workloads(checkout: Path, names: str) -> list:
    """The workloads asked for, or every one CHECKOUT's benchmark has."""
    if names:
        return [w for w in names.split(",") if w]
    sys.path.insert(0, str(checkout / "perfbench"))
    import cases                        # imports mpmath, not cesaro
    return list(cases.WORKLOADS)


def report(checkouts, seeds, workloads: str) -> None:
    """Print a row per case with each checkout's peak and ru_maxrss, then
    each checkout's largest peak and highest ru_maxrss per workload."""
    for i, checkout in enumerate(checkouts):
        print(f"# checkout {i}: {checkout}")
    print("\t".join(["workload", "seed", "case", *(
        f"{what}:{i}" for i in range(len(checkouts))
        for what in ("peak_mb", "maxrss_mb"))]))
    tops = []
    for workload in _workloads(checkouts[0], workloads):
        for seed in seeds:
            runs = [_measure_in_subprocess(c, seed, workload)
                    for c in checkouts]
            for cells in zip(*runs):
                print("\t".join([workload, str(seed), cells[0][0], *(
                    f"{v:.2f}" for _, peak, rss in cells for v in (peak, rss))]))
            for i, run in enumerate(runs):
                peak = max(run, key=lambda row: row[1])
                rss = max(run, key=lambda row: row[2])   # the first to reach it
                tops.append(f"# checkout {i}, {workload} seed {seed}: largest "
                            f"peak {peak[1]:.2f} MB at {peak[0]!r}; ru_maxrss "
                            f"{rss[2]:.2f} MB, reached at {rss[0]!r}")
    print("\n".join(tops))


def main(argv=None):
    import argparse
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("checkout", type=Path,
                   help="root of a source checkout (holds src/, perfbench/)")
    p.add_argument("--seeds", default="7,11",
                   help="comma-separated workload seeds")
    p.add_argument("--workloads", default="",
                   help="comma-separated workloads to run (default: all)")
    p.add_argument("--against", type=Path, default=None,
                   help="root of a second checkout to measure beside it")
    p.add_argument("--child", type=int, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child is not None:
        print(json.dumps(measure(args.checkout, args.child, args.workloads)))
        return
    checkouts = [args.checkout.resolve()]
    if args.against is not None:
        checkouts.append(args.against.resolve())
    report(checkouts, [int(s) for s in args.seeds.split(",")],
           args.workloads)


if __name__ == "__main__":
    main()
