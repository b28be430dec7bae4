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
|a - b| / max(|a|, |b|) and |a - b| where both outputs are numbers (a
complex value is compared whole), and the exit status is 1 if any differ.
A CLI case's stdout is compared field by field: its JSON document, or
the cells of its CSV rows.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:   # as the benchmark pins them, before numpy loads
    os.environ[_var] = "1"

import argparse
import csv
import dataclasses
import io
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


def each_case(checkout: Path, seeds, workloads=None):
    """(workload, seed, case) for every case of CHECKOUT's benchmark, in
    its order, with CHECKOUT/src and CHECKOUT/perfbench first on sys.path;
    each case is built, with its oracle, when it is reached."""
    src, bench = checkout / "src", checkout / "perfbench"
    if not (src / "cesaro" / "__init__.py").is_file():
        raise SystemExit(f"no cesaro sources under {src}")
    sys.path[:0] = [str(src), str(bench)]
    import cases
    import cesaro
    import cesaro.cli

    unknown = set(workloads or ()) - set(cases.WORKLOADS)
    if unknown:
        raise SystemExit(f"unknown workload(s): {', '.join(sorted(unknown))}")
    for workload, build in cases.WORKLOADS.items():
        if workloads and workload not in workloads:
            continue
        target = cesaro.cli if workload == "averaging" else cesaro
        for seed in seeds:
            for case in build(target, random.Random(seed)):
                yield workload, seed, case


def case_outputs(checkout: Path, seeds, workloads=None) -> dict:
    out = {}
    for workload, seed, case in each_case(checkout, seeds, workloads):
        results = out.setdefault(workload, {}).setdefault(f"seed {seed}", {})
        try:
            results[case.name] = jsonable(case.call())
        except Exception as exc:       # a failing case is an output too
            results[case.name] = {"raised": type(exc).__name__,
                                  "message": str(exc)}
    return out


def number(value):
    """A written output as a number: an int, float or Fraction, a {"re",
    "im"} pair, or a string that reads as a rational or decimal, bare or as
    "Fraction(p/q)"; None for anything else."""
    if isinstance(value, dict) and set(value) == {"re", "im"}:
        return complex(value["re"], value["im"])
    if isinstance(value, (int, float, Fraction)) and not isinstance(
            value, bool):
        return value
    if isinstance(value, str):
        if value.startswith("Fraction(") and value.endswith(")"):
            value = value[len("Fraction("):-1]
        try:
            return Fraction(value)
        except ValueError:
            return None
    return None


def decoded(value):
    """A CLI stdout string as data: its JSON document, or for CSV a list
    of rows keyed by column; anything else unchanged."""
    if not isinstance(value, str):
        return value
    try:
        return json.loads(value)
    except ValueError:
        pass
    rows = list(csv.reader(io.StringIO(value)))
    if len(rows) < 2 or len(rows[0]) < 2 or any(
            len(row) != len(rows[0]) for row in rows):
        return value
    return [dict(zip(rows[0], row)) for row in rows[1:]]


def sizes(a, b):
    """(|a - b| / max(|a|, |b|), |a - b|) for two written numbers, else
    None: a limit of 0 makes the relative size meaningless alone."""
    x, y = number(a), number(b)
    if x is None or y is None:
        return None
    diff = abs(x - y)
    scale = max(abs(x), abs(y))
    return float(diff / scale) if scale else 0.0, float(diff)


def differences(a, b, path=()):
    """(key path, a value, b value) wherever two JSON documents differ.

    CLI stdout is decoded first, so a JSON or CSV output differs by its
    fields; list items are keyed by index, a complex {"re", "im"} pair is
    one value, and a missing one reads None.  Containers that differ only
    in their text are reported whole."""
    if a == b:
        return
    x, y = decoded(a), decoded(b)
    if isinstance(x, (dict, list)) and type(x) is type(y) and (
            number(x) is None or number(y) is None):
        if isinstance(x, list):
            x, y = dict(enumerate(x)), dict(enumerate(y))
        found = []
        for key in sorted(set(x) | set(y), key=str):
            here = path + (str(key),)
            found += (differences(x[key], y[key], here)
                      if key in x and key in y
                      else [(here, x.get(key), y.get(key))])
        if found:
            yield from found
            return
    yield path, x, y


def _outputs_in_subprocess(checkout: Path, seeds: str, workloads: str) -> dict:
    proc = subprocess.run([sys.executable, __file__, str(checkout),
                           "--seeds", seeds, "--workloads", workloads],
                          capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{checkout}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def compare(checkout: Path, other: Path, seeds: str, workloads: str) -> int:
    """Print each (workload, seed, case, key) whose output differs, and the
    relative and absolute size of the difference where both outputs are
    numbers."""
    found = list(differences(_outputs_in_subprocess(checkout, seeds, workloads),
                             _outputs_in_subprocess(other, seeds, workloads)))
    for path, a, b in found:
        size = sizes(a, b)
        cols = [] if size is None else [f"{size[0]:.1e}", f"abs {size[1]:.1e}"]
        print("\t".join([*path[:3], ".".join(path[3:]), *cols]))
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
