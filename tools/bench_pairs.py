"""Alternating benchmark pairs of two trees, summarized into one JSON file.

    python3 tools/bench_pairs.py PARENT [--against .] --workloads W
        --seeds S --pairs N --seconds T [--traced 1] --out BENCH_<pr>.json

PARENT and --against name a git revision, or a directory of this
repository, whose working tree (uncommitted and untracked files too, as
`git add -A` would stage them, into a scratch index) is taken.  Each is
copied with `git archive` into a fresh directory, and
`perfbench/run.py --trace 0` runs there for every workload (a comma list)
and seed: N pairs per workload and seed, the parent first in even pairs and
the change first in odd ones, each run T seconds long.

For each workload, seed and end-to-end metric the file gives both trees'
median and quartiles and the change's wins out of N: a pair it won reads
better in the direction BENCHMARK.json gives the metric.  It also gives
each tree's failed and attempted operations, its lowest per-case digits
with the case, each case's median seconds in the first timed pass of a
run (the pass the run's record keeps), and every run's metrics and case
seconds, so that the summary can be recomputed.  With --traced 1 each
tree also makes one `--trace 1` run per workload and seed, whose
per-layer metrics are written as they are.

The file records the Python, numpy, scipy and mpmath versions and the
processor count the runs saw, both commits, the seeds, T and N, and
whether PYTHONDONTWRITEBYTECODE is set: without bytecode on disk every
benchmark process compiles every module, which moves peak_rss_mb.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("parent", "change")


def git(*args, cwd: Path = ROOT, env=None) -> str:
    return subprocess.run(["git", *args], cwd=cwd, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def resolve(ref: str) -> dict:
    """The tree to benchmark for ref, with the commit it stands on: a
    revision's own tree, or a directory's working tree as `git add -A`
    would stage it."""
    path = Path(ref)
    if not path.is_dir():
        return {"ref": ref, "commit": git("rev-parse", f"{ref}^{{commit}}"),
                "tree": git("rev-parse", f"{ref}^{{tree}}")}
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git("add", "-A", cwd=path, env=env)
        tree = git("write-tree", cwd=path, env=env)
    commit = git("rev-parse", "HEAD", cwd=path)
    return {"ref": ref, "commit": commit, "tree": tree,
            "uncommitted": tree != git("rev-parse", "HEAD^{tree}", cwd=path)}


def archive(tree: str, dest: Path) -> Path:
    """A copy of tree in dest, by git archive."""
    tar = subprocess.run(["git", "archive", "--format=tar", tree], cwd=ROOT,
                         check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest)
    return dest


def run_once(copy: Path, workload: str, seed: int, seconds: int,
             trace: int) -> dict:
    """One perfbench run in copy: its metrics, each case's seconds in the
    first timed pass, failures, lowest per-case digits and environment,
    from the run's last output line and record."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=copy, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{copy}: perfbench failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    name = f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads((copy / "perfbench" / "runs" / name).read_text())
    scored = [c for c in record["cases"]
              if c["ok"] and c["digits"] is not None]
    lowest = min(scored, key=lambda c: c["digits"], default=None)
    return {"metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "case_seconds": {c["case"]: c["seconds"] for c in record["cases"]},
            "failed": result["failed"], "attempted": result["attempted"],
            "lowest_digits": None if lowest is None else {
                "digits": lowest["digits"], "case": lowest["case"]},
            "environment": record["environment"]}


def directions() -> dict:
    """better ("lower" or "higher") per metric, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def spread(xs) -> dict:
    """Median and quartiles (statistics.quantiles, inclusive method)."""
    q1, median, q3 = (statistics.quantiles(xs, n=4, method="inclusive")
                      if len(xs) > 1 else xs * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list, better: dict) -> dict:
    """The summary of one workload and seed from its runs, each a dict
    with "pair", "tree" ("parent" or "change"), "metrics", "case_seconds",
    "failed", "attempted" and "lowest_digits" as run_once gives them."""
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["tree"]] = run
    pairs = [by_pair[i] for i in sorted(by_pair) if len(by_pair[i]) == 2]
    metrics = {}
    for name in pairs[0]["parent"]["metrics"] if pairs else ():
        values = {t: [p[t]["metrics"][name] for p in pairs] for t in TREES}
        sign = -1 if better.get(name, "lower") == "lower" else 1
        metrics[name] = {
            "better": better.get(name, "lower"),
            **{t: spread(values[t]) for t in TREES},
            "change_wins": sum(sign * (c - p) > 0 for p, c in
                               zip(values["parent"], values["change"])),
            "pairs": len(pairs)}
    cases = pairs[0]["parent"]["case_seconds"] if pairs else ()
    out = {"metrics": metrics, "case_seconds": {
        case: {t: statistics.median(p[t]["case_seconds"][case] for p in pairs)
               for t in TREES} for case in cases}}
    for key in ("failed", "attempted"):
        out[key] = {t: sum(p[t][key] for p in pairs) for t in TREES}
    out["lowest_digits"] = {
        t: min((p[t]["lowest_digits"] for p in pairs if p[t]["lowest_digits"]),
               key=lambda d: d["digits"], default=None) for t in TREES}
    return out


def bench(trees: dict, workloads, seeds, pairs: int, seconds: int,
          traced: bool, workdir: Path) -> dict:
    copies = {t: archive(trees[t]["tree"], workdir / t) for t in TREES}
    better, environment, out = directions(), None, {}
    for workload in workloads:
        for seed in seeds:
            runs = []
            for i in range(pairs):
                for tree in TREES if i % 2 == 0 else TREES[::-1]:
                    run = run_once(copies[tree], workload, seed, seconds, 0)
                    seen = run.pop("environment")
                    environment = environment or seen
                    runs.append({"pair": i, "tree": tree, **run})
                    print(f"{workload} seed {seed} pair {i} {tree}: "
                          f"wall_s {run['metrics']['wall_s']:.4f}",
                          file=sys.stderr)
            summary = summarize(runs, better)
            if traced:
                summary["layers"] = {
                    t: run_once(copies[t], workload, seed, seconds,
                                1)["metrics"] for t in TREES}
            summary["runs"] = runs
            out.setdefault(workload, {})[f"seed {seed}"] = summary
    return {"environment": environment, "workloads": out}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="git revision or directory of the parent")
    p.add_argument("--against", default=".",
                   help="git revision or directory of the change")
    p.add_argument("--workloads", default="continuation,discrete,averaging")
    p.add_argument("--seeds", default="7,11")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--traced", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path, default=None,
                   help="where the copies go (default: a temporary folder)")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    trees = {"parent": resolve(args.parent), "change": resolve(args.against)}
    workloads = [w for w in args.workloads.split(",") if w]
    seeds = [int(s) for s in args.seeds.split(",")]
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        result = bench(trees, workloads, seeds, args.pairs, args.seconds,
                       bool(args.traced), Path(tmp))
    env = result.pop("environment") or {}
    doc = {"parent": trees["parent"], "change": trees["change"],
           "seeds": seeds, "pairs": args.pairs, "seconds": args.seconds,
           "environment": {
               **{k: env.get(k) for k in ("python", "numpy", "scipy",
                                          "mpmath", "nproc", "platform")},
               "PYTHONDONTWRITEBYTECODE": os.environ.get(
                   "PYTHONDONTWRITEBYTECODE")},
           **result}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
