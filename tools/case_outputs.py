"""Every benchmark case's returned output, as JSON, for one checkout.

    python3 tools/case_outputs.py CHECKOUT --seeds 7,11 [--out FILE]

Imports CHECKOUT/src/cesaro and CHECKOUT/perfbench/cases.py, builds the
cases of every workload at each seed, calls each case once and writes what
it returned.  Nothing is timed or checked: two checkouts' files differ
exactly where their outputs do, so "outputs unchanged" is one ``diff``.
A case that raises is written as its exception type and message.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:   # as the benchmark pins them, before numpy loads
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import random
import sys
from fractions import Fraction
from pathlib import Path


def jsonable(value):
    """value as plain JSON data that keeps every digit of every number."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {"type": type(value).__name__,
                **{f.name: jsonable(getattr(value, f.name))
                   for f in dataclasses.fields(value)}}
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, Fraction):
        return f"Fraction({value})"
    if hasattr(value, "item"):          # numpy scalars
        return jsonable(value.item())
    return repr(value)                  # mpmath numbers and the like


def case_outputs(checkout: Path, seeds) -> dict:
    src, bench = checkout / "src", checkout / "perfbench"
    if not (src / "cesaro" / "__init__.py").is_file():
        raise SystemExit(f"no cesaro sources under {src}")
    sys.path[:0] = [str(src), str(bench)]
    import cases
    import cesaro
    import cesaro.cli

    out = {}
    for workload, build in cases.WORKLOADS.items():
        target = cesaro.cli if workload == "averaging" else cesaro
        for seed in seeds:
            results = out.setdefault(workload, {})[f"seed {seed}"] = {}
            for case in build(target, random.Random(seed)):
                try:
                    results[case.name] = jsonable(case.call())
                except Exception as exc:   # a failing case is an output too
                    results[case.name] = {"raised": type(exc).__name__,
                                          "message": str(exc)}
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("checkout", type=Path,
                   help="root of a source checkout (holds src/, perfbench/)")
    p.add_argument("--seeds", default="7,11",
                   help="comma-separated workload seeds")
    p.add_argument("--out", type=Path, default=None,
                   help="write here instead of stdout")
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    text = json.dumps(case_outputs(args.checkout.resolve(), seeds),
                      indent=1, sort_keys=True)
    if args.out is None:
        print(text)
    else:
        args.out.write_text(text + "\n")


if __name__ == "__main__":
    main()
