"""Checks of the benchmark itself (not collected by the package's suite).

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))


def _run(args, cwd, timeout=120):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def test_smoke_checks_one_case_per_workload_and_records_environment():
    proc = _run(["--smoke", "--seed", "3"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (3, 0)
    record = json.loads((BENCH / "runs" / "smoke-seed3.json").read_text())
    env = record["environment"]
    for key in ("python", "numpy", "scipy", "mpmath", "nproc",
                "blas_threads", "seed"):
        assert key in env
    assert env["seed"] == 3
    assert set(env["blas_threads"].values()) == {"1"}


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(["--workload", "averaging", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_inputs_follow_the_seed():
    import cases

    class Api:                   # builds cases without calling cesaro
        pass

    def names(workload, seed):
        target = Api()
        return [c.name for c in
                cases.WORKLOADS[workload](target, random.Random(seed))]

    for workload in cases.WORKLOADS:
        assert names(workload, 5) == names(workload, 5)
        assert names(workload, 5) != names(workload, 6)


def test_tracer_restores_every_patched_name():
    sys.path.insert(0, str(ROOT / "src"))
    import cesaro
    import cesaro.cli
    import tracer

    def snapshot():
        mods = [m for n, m in sys.modules.items()
                if n == "cesaro" or n.startswith("cesaro.")]
        return {(id(m), k): v for m in mods for k, v in vars(m).items()
                if callable(v)}

    before = snapshot()
    before_cls = dict(vars(cesaro.seqfun.PiecewiseFn))
    t = tracer.install(tracer.Tracer())
    assert cesaro.tailfit.fit_limit_array is not before[
        (id(cesaro.tailfit), "fit_limit_array")]
    assert cesaro.climits.fit_limit_array is cesaro.tailfit.fit_limit_array
    assert not t.missing
    cesaro.cli.run(["table", "--max-delta", "1", "--max-r", "1"])
    t.uninstall()
    assert snapshot() == before
    assert dict(vars(cesaro.seqfun.PiecewiseFn)) == before_cls
