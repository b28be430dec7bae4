"""How each benchmark workload's tail fits reach their factors.

    python3 tools/fit_traffic.py [CHECKOUT] [--seeds 3,7,11,29] [--passes 3]
                                 [--workloads averaging,discrete]

For each workload and seed, a fresh interpreter imports CHECKOUT/src/cesaro
and CHECKOUT/perfbench/cases.py, runs the workload's warm-up as the
benchmark does, then calls every case once per pass.  Each
tailfit.TailDesign.factor call is counted as one of:

  hits    a factor the design kept (a kept window's, after its first use)
  window  a factor built on a kept window: a driver window that
          tailfit._tail_window keeps, or a route (b) design that
          zeta._route_b_design keeps
  plain   a factor built on a design made for one fit from plain arrays
  prefix  of the builds, those that share leading terms with a factor the
          design kept, which a path extending kept factors could serve

and the plain builds are listed by their row count.  One line is printed
per workload, seed and pass; nothing is timed, so it runs in seconds.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:   # as the benchmark pins them, before numpy loads
    os.environ[_var] = "1"

import argparse
import json
import random
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

COUNTS = ("hits", "window", "plain", "prefix")


def census(checkout: Path, workload: str, seed: int, passes: int) -> list:
    """[(pass label, counts, plain rows)] for one workload and seed."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import cases
    import cesaro
    import cesaro.cli
    import cesaro.tailfit as tailfit
    from setup_probe import warm_up

    windows, tally = weakref.WeakSet(), {}
    factor = tailfit.TailDesign.factor

    def counting(kept):
        def window(*key):
            design = kept(*key)
            windows.add(design)
            return design
        return window

    def counting_factor(design, terms):
        key = tuple((complex(e), m) for e, m in terms)
        if key in design._factors:
            tally["hits"] += 1
            return factor(design, terms)
        if design in windows:
            tally["window"] += 1
        else:
            tally["plain"] += 1
            tally["rows"][len(design.xs)] += 1
        complex_ = any(e.imag for e, _m in key)
        for have in design._factors:
            shared = next((i for i, (a, b) in enumerate(zip(have, key))
                           if a != b), min(len(have), len(key)))
            if 0 < shared < len(key) and complex_ == any(
                    e.imag for e, _m in have):
                tally["prefix"] += 1
                break
        return factor(design, terms)

    for module, name in ((tailfit, "_tail_window"),
                         (sys.modules["cesaro.zeta"], "_route_b_design")):
        setattr(module, name, counting(getattr(module, name)))
    tailfit.TailDesign.factor = counting_factor
    api = cesaro.cli if workload == "averaging" else cesaro
    out = []

    def run(label, body):
        tally.clear()
        tally.update({name: 0 for name in COUNTS}, rows=Counter())
        body()
        out.append((label, [tally[name] for name in COUNTS],
                    sorted(tally["rows"].items())))

    run("warm-up", lambda: warm_up(workload, cesaro, cesaro.cli))
    built = cases.WORKLOADS[workload](api, random.Random(seed))

    def one_pass():
        for case in built:
            try:
                case.call()
            except Exception:   # a failing case still made its fits
                pass

    for p in range(1, passes + 1):
        run(f"pass {p}", one_pass)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("checkout", type=Path, nargs="?",
                   default=Path(__file__).resolve().parent.parent,
                   help="root of a source checkout (default: this one)")
    p.add_argument("--seeds", default="3,7,11,29",
                   help="comma-separated workload seeds")
    p.add_argument("--passes", type=int, default=3,
                   help="passes over the cases after the warm-up")
    p.add_argument("--workloads", default="continuation,discrete,averaging",
                   help="comma-separated workloads")
    p.add_argument("--child", default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    checkout = args.checkout.resolve()
    if not (checkout / "src" / "cesaro" / "__init__.py").is_file():
        raise SystemExit(f"no cesaro sources under {checkout / 'src'}")
    if args.child:
        workload, seed = args.child.split(":")
        json.dump(census(checkout, workload, int(seed), args.passes),
                  sys.stdout)
        return
    print("\t".join(["workload", "seed", "pass", *COUNTS, "plain rows"]))
    for workload in args.workloads.split(","):
        for seed in args.seeds.split(","):
            proc = subprocess.run(
                [sys.executable, __file__, str(checkout), "--passes",
                 str(args.passes), "--child", f"{workload}:{seed}"],
                capture_output=True, text=True)
            if proc.returncode:
                raise SystemExit(f"{workload} seed {seed}: "
                                 f"{proc.stderr.strip()}")
            for label, counts, rows in json.loads(proc.stdout):
                plain = ", ".join(f"{k}x{n}" for n, k in rows) or "-"
                print("\t".join([workload, seed, label, *map(str, counts),
                                 plain]))


if __name__ == "__main__":
    main()
