"""The summary of tools/bench_pairs.py, fed canned run records."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(pair, tree, wall, digits, failed=0, case="c"):
    return {"pair": pair, "tree": tree,
            "metrics": {"wall_s": wall, "digits_min": digits},
            "case_seconds": {"a": wall / 4, "b": 3 * wall / 4},
            "failed": failed, "attempted": 10,
            "lowest_digits": {"digits": digits, "case": case}}


def test_the_summary_gives_medians_quartiles_and_wins_per_metric():
    runs = [_run(0, "parent", 0.050, 15.0), _run(0, "change", 0.040, 15.0),
            _run(1, "change", 0.041, 14.0, case="low"),
            _run(1, "parent", 0.049, 15.0),
            _run(2, "parent", 0.040, 15.0, failed=1),
            _run(2, "change", 0.045, 15.0),
            _run(3, "parent", 0.060, 15.0),
            _run(3, "change", 0.037, 16.0),
            _run(4, "parent", 1.0, 1.0)]         # a pair left unfinished
    out = bench_pairs.summarize(runs, {"wall_s": "lower",
                                       "digits_min": "higher"})
    wall = out["metrics"]["wall_s"]
    assert wall["pairs"] == 4 and wall["better"] == "lower"
    assert wall["parent"] == pytest.approx(
        {"median": 0.0495, "q1": 0.04675, "q3": 0.0525})
    assert wall["change"] == pytest.approx(
        {"median": 0.0405, "q1": 0.03925, "q3": 0.042})
    assert wall["change_wins"] == 3
    digits = out["metrics"]["digits_min"]
    assert digits["better"] == "higher" and digits["change_wins"] == 1
    assert digits["change"]["median"] == 15.0
    assert out["failed"] == {"parent": 1, "change": 0}
    assert out["attempted"] == {"parent": 40, "change": 40}
    assert out["lowest_digits"] == {
        "parent": {"digits": 15.0, "case": "c"},
        "change": {"digits": 14.0, "case": "low"}}


def test_each_case_has_its_median_seconds_per_tree():
    runs = [_run(0, "parent", 0.040, 15.0), _run(0, "change", 0.020, 15.0),
            _run(1, "change", 0.030, 15.0), _run(1, "parent", 0.048, 15.0),
            _run(2, "parent", 0.044, 15.0), _run(2, "change", 0.028, 15.0),
            _run(3, "parent", 1.0, 1.0)]         # a pair left unfinished
    runs[0]["case_seconds"]["a"] = 0.5           # the median resists it
    out = bench_pairs.summarize(runs, {"wall_s": "lower"})
    assert list(out["case_seconds"]) == ["a", "b"]
    assert out["case_seconds"]["a"] == pytest.approx(
        {"parent": 0.012, "change": 0.007})
    assert out["case_seconds"]["b"] == pytest.approx(
        {"parent": 0.033, "change": 0.021})


def test_no_finished_pair_gives_no_case_seconds():
    out = bench_pairs.summarize([_run(0, "parent", 0.5, 15.0)],
                                {"wall_s": "lower"})
    assert out["metrics"] == {} and out["case_seconds"] == {}


def test_one_pair_has_its_value_for_median_and_quartiles():
    out = bench_pairs.summarize(
        [_run(0, "change", 0.5, 15.0), _run(0, "parent", 0.5, 15.0)],
        {"wall_s": "lower"})
    wall = out["metrics"]["wall_s"]
    assert wall["parent"] == {"median": 0.5, "q1": 0.5, "q3": 0.5}
    assert wall["change_wins"] == 0                  # a tie is no win
    assert out["metrics"]["digits_min"]["better"] == "lower"   # unlisted


def test_directions_come_from_the_benchmark_declaration():
    better = bench_pairs.directions()
    assert better["wall_s"] == better["peak_rss_mb"] == "lower"
    assert better["digits_min"] == better["trace.coverage"] == "higher"
