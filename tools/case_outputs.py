"""Every benchmark case's returned output, as JSON, for one checkout.

    python3 tools/case_outputs.py CHECKOUT --seeds 7,11 [--out FILE]
    python3 tools/case_outputs.py CHECKOUT --against OTHER [--seeds 7,11]

Imports CHECKOUT/src/cesaro and CHECKOUT/perfbench/cases.py, builds the
cases of every workload (or of those --workloads names, a comma list) at
each seed, calls each case once and writes what
it returned.  Nothing is timed or checked: two checkouts' files differ
exactly where their outputs do.  A case that raises is written as its
exception type and message.

With --against, each checkout runs in its own subprocess; the workload,
seed, case and key of every output that differs are printed, followed by
|a - b| / max(|a|, |b|) where both outputs are numbers (a complex value is
compared whole), and the exit status is 1 if any differ.
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
import subprocess
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


def case_outputs(checkout: Path, seeds, workloads=None) -> dict:
    src, bench = checkout / "src", checkout / "perfbench"
    if not (src / "cesaro" / "__init__.py").is_file():
        raise SystemExit(f"no cesaro sources under {src}")
    sys.path[:0] = [str(src), str(bench)]
    import cases
    import cesaro
    import cesaro.cli

    out = {}
    unknown = set(workloads or ()) - set(cases.WORKLOADS)
    if unknown:
        raise SystemExit(f"unknown workload(s): {', '.join(sorted(unknown))}")
    for workload, build in cases.WORKLOADS.items():
        if workloads and workload not in workloads:
            continue
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


def number(value):
    """A written output as a number: an int or float, a {"re", "im"} pair
    or a "Fraction(p/q)" string; None for anything else."""
    if isinstance(value, dict) and set(value) == {"re", "im"}:
        return complex(value["re"], value["im"])
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and value.startswith("Fraction("):
        return Fraction(value[len("Fraction("):-1])
    return None


def relative_difference(a, b):
    """|a - b| / max(|a|, |b|) for two written numbers, else None."""
    x, y = number(a), number(b)
    if x is None or y is None:
        return None
    scale = max(abs(x), abs(y))
    return float(abs(x - y) / scale) if scale else 0.0


def differences(a, b, path=()):
    """(key path, a value, b value) wherever two JSON documents differ; a
    complex {"re", "im"} pair is one value, and a missing one reads None."""
    if not (isinstance(a, dict) and isinstance(b, dict)) or (
            number(a) is not None and number(b) is not None):
        if a != b:
            yield path, a, b
        return
    for key in sorted(set(a) | set(b)):
        if key in a and key in b:
            yield from differences(a[key], b[key], path + (key,))
        else:
            yield path + (key,), a.get(key), b.get(key)


def _outputs_in_subprocess(checkout: Path, seeds: str, workloads: str) -> dict:
    proc = subprocess.run([sys.executable, __file__, str(checkout),
                           "--seeds", seeds, "--workloads", workloads],
                          capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{checkout}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def compare(checkout: Path, other: Path, seeds: str, workloads: str) -> int:
    """Print each (workload, seed, case, key) whose output differs, and the
    relative size of the difference where both outputs are numbers."""
    found = list(differences(_outputs_in_subprocess(checkout, seeds, workloads),
                             _outputs_in_subprocess(other, seeds, workloads)))
    for path, a, b in found:
        rel = relative_difference(a, b)
        print("\t".join([*path[:3], ".".join(path[3:]),
                         "" if rel is None else f"{rel:.1e}"]).rstrip())
    print(f"{len(found)} differing output(s)", file=sys.stderr)
    return 1 if found else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("checkout", type=Path,
                   help="root of a source checkout (holds src/, perfbench/)")
    p.add_argument("--seeds", default="7,11",
                   help="comma-separated workload seeds")
    p.add_argument("--workloads", default="",
                   help="comma-separated workloads to run (default: all)")
    p.add_argument("--out", type=Path, default=None,
                   help="write here instead of stdout")
    p.add_argument("--against", type=Path, default=None,
                   help="root of a second checkout to compare outputs with")
    args = p.parse_args(argv)
    if args.against is not None:
        sys.exit(compare(args.checkout.resolve(), args.against.resolve(),
                         args.seeds, args.workloads))
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = [w for w in args.workloads.split(",") if w]
    text = json.dumps(case_outputs(args.checkout.resolve(), seeds, workloads),
                      indent=1, sort_keys=True)
    if args.out is None:
        print(text)
    else:
        args.out.write_text(text + "\n")


if __name__ == "__main__":
    main()
