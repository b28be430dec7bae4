"""Command-line interface: verbs, exit codes, output formats."""

import cmath
import csv
import io
import json
import math

import pytest

import cesaro.cli
from cesaro.cli import parse_scalar, parse_series, run
from cesaro.errors import CrossCheckMismatchError


def _json_out(capsys, argv, expect_code=0):
    code = run(argv + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == expect_code, out
    return json.loads(out)


def _value(doc):
    v = doc["value"]
    if isinstance(v, dict):
        return complex(v["re"], v["im"])
    if isinstance(v, str):  # exact rational
        return v
    return v


# -- series grammar --------------------------------------------------------

def test_parse_series_names():
    for text in ("ones", "alt_ones", "n", "alt_n", "n_pow(-0.5)",
                 "n_pow(0.3,0.4)", "zero_padded(alt_ones,1,0,1)",
                 "zero_padded(zero_padded(ones,1,0),1,1,0)"):
        terms, _ = parse_series(text)
        assert terms.term_array(10).shape == (10,)


def test_parse_series_rejects_garbage():
    for text in ("fibonacci", "zero_padded(ones)", "zero_padded(ones,2,0)",
                 "n_pow()", "zero_padded(ones,)"):
        with pytest.raises(ValueError):
            parse_series(text)


def test_series_dirichlet_exponent():
    assert parse_series("ones")[1] == 0.0
    assert parse_series("n")[1] == -1.0
    assert parse_series("n_pow(-0.5)")[1] == 0.5
    assert parse_series("alt_ones")[1] is None
    assert parse_series("zero_padded(ones,1,0)")[1] is None


def test_parse_scalar():
    assert parse_scalar("2.5") == 2.5
    assert parse_scalar("-1,0") == -1.0
    assert parse_scalar("0.3,0.4") == complex(0.3, 0.4)
    with pytest.raises(ValueError):
        parse_scalar("1,2,3")


# -- sum and limit ---------------------------------------------------------

def test_sum_alternating_ones(capsys):
    doc = _json_out(capsys, ["sum", "alt_ones"])
    assert _value(doc) == pytest.approx(0.5, abs=1e-8)
    assert doc["mechanism"] == "strong(1)"


def test_sum_alternating_naturals(capsys):
    doc = _json_out(capsys, ["sum", "alt_n"])
    assert _value(doc) == pytest.approx(0.25, abs=1e-7)
    assert doc["mechanism"] == "strong(2)"


def test_sum_zero_padded(capsys):
    doc = _json_out(capsys, ["sum", "zero_padded(alt_ones,1,0,1)"])
    assert _value(doc) == pytest.approx(2.0 / 3.0, abs=1e-7)


def test_sum_naturals_routes_through_continuation(capsys):
    doc = _json_out(capsys, ["sum", "n"])
    assert _value(doc) == pytest.approx(-1.0 / 12.0, abs=1e-9)


def test_sum_harmonic_is_a_pole(capsys):
    code = run(["sum", "n_pow(-1)", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert doc["status"] == "pole"


def test_sum_of_a_convergent_power_series_is_its_zeta_value(capsys):
    doc = _json_out(capsys, ["sum", "n_pow(-2)"])
    assert _value(doc) == pytest.approx(math.pi ** 2 / 6, abs=1e-15)
    assert doc["mechanism"] == "classical-sum"


def test_sum_exact_mode(capsys):
    doc = _json_out(capsys, ["sum", "alt_ones", "--exact"])
    assert _value(doc) == "1/2"


def test_limit_decaying_power(capsys):
    doc = _json_out(capsys, ["limit", "n_pow(-0.5)"])
    assert abs(_value(doc)) < 1e-8


def test_limit_constant_series(capsys):
    doc = _json_out(capsys, ["limit", "ones"])
    assert _value(doc) == pytest.approx(1.0, abs=1e-8)


def test_limit_complex_terms_behind_a_zero_slot(capsys):
    # every other term is a padded 0; the series is still complex.  Its
    # limit is 0, but its terms decay only like n^{-1/2}, which averaging
    # does not speed up, so the driver reports a failure, not a wrong value
    code = run(["limit", "zero_padded(n_pow(-0.5,1),0,1)"])
    captured = capsys.readouterr()
    assert code == 1
    assert "failed:" in captured.err + captured.out
    assert "Traceback" not in captured.err + captured.out
    # n^{-3/2} decays fast enough for the same path to reach its limit 0
    doc = _json_out(capsys, ["limit", "zero_padded(n_pow(-1.5,1),0,1)"])
    assert abs(_value(doc)) < 1e-6


# -- zeta / eta ------------------------------------------------------------

def test_zeta_value_with_fused_flag(capsys):
    # "--s -1,0" must survive argparse's dislike of dash-leading values
    doc = _json_out(capsys, ["zeta", "--s", "-1,0"])
    assert _value(doc) == pytest.approx(-1.0 / 12.0, abs=1e-9)


def test_zeta_complex_argument(capsys):
    doc = _json_out(capsys, ["zeta", "--s", "0.3,0.4"])
    want = complex(-0.552296663502482, -0.583761333344439)
    assert _value(doc) == pytest.approx(want, abs=1e-8)


def test_zeta_pole_exit_code(capsys):
    code = run(["zeta", "--s", "1,0", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert doc["status"] == "pole"
    assert doc["residue"] == pytest.approx(1.0, abs=1e-6)


def _routes_disagree(s, cfg):
    raise CrossCheckMismatchError(f"routes disagree at s = {s}")


def test_zeta_cross_check_failure_exits_one(capsys, monkeypatch):
    # a typed library error is a failed query (exit 1), not a traceback
    monkeypatch.setattr(cesaro.cli, "zeta", _routes_disagree)
    assert run(["zeta", "--s", "-5.8"]) == 1
    assert capsys.readouterr().err.startswith("failed: ")


def test_zeta_discrete_pole_record_matches_the_continuous_one(capsys):
    want = _json_out(capsys, ["zeta", "--s", "1"], expect_code=3)
    got = _json_out(capsys, ["zeta", "--s", "1", "--discrete"], expect_code=3)
    assert got == {**want, "detail": "pole at s = 1"}
    assert got["log_power"] == 1


def test_zeta_discrete_anomaly(capsys):
    doc = _json_out(capsys, ["zeta", "--s", "-1,0", "--discrete"])
    assert _value(doc) == pytest.approx(1.0, abs=1e-6)
    assert doc["anomaly"] is True


def test_zeta_corrected_exact(capsys):
    doc = _json_out(capsys, ["zeta", "--s", "-3,0", "--corrected",
                             "--exact"])
    assert _value(doc) == "1/120"


def test_zeta_corrected_exact_without_a_rational_fails(capsys):
    # the fit at -6 gives 2.66e-5 where zeta(-6) = 0: no value, exit 1
    assert run(["zeta", "--s", "-6", "--corrected", "--exact"]) == 1
    assert capsys.readouterr().err.startswith("failed: ")


@pytest.mark.parametrize("s", ["0.4", "-2.6", "-1,2", "1"])
def test_zeta_corrected_needs_an_integer_s_at_most_zero(capsys, s):
    # rounding s would print the value at another point
    assert run(["zeta", "--s", s, "--corrected"]) == 2
    assert capsys.readouterr().err.startswith("usage error: ")


def test_eta_value(capsys):
    doc = _json_out(capsys, ["eta", "--s", "0"])
    assert _value(doc) == pytest.approx(0.5, abs=1e-8)


# -- integral / mellin -----------------------------------------------------

def test_integral_exponential(capsys):
    doc = _json_out(capsys, ["integral", "--f", "exp", "--spec", "[]"])
    assert _value(doc) == pytest.approx(1.0, abs=1e-8)
    assert doc["cutoff_variables"] == 1


def test_integral_log_pole(capsys):
    spec = json.dumps([{"kind": "zero"}, {"kind": "infinity"}])
    code = run(["integral", "--f", "one_over_x", "--spec", spec,
                "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert set(doc["log_flags"].split(",")) == {"zero", "infinity"}


@pytest.mark.parametrize("s", ["0.5", "-0.5", "0.5,0.2"])
def test_integral_of_the_mellin_integrand_uses_its_expansions(capsys, s):
    # the zero and infinity cutoffs carry non-integer powers that only the
    # integrand's known expansions remove
    spec = json.dumps([{"kind": "zero"}, {"kind": "infinity"}])
    doc = _json_out(capsys, ["integral", "--f", f"mellin({s})",
                             "--spec", spec])
    sc = parse_scalar(s)
    assert complex(_value(doc)) == pytest.approx(
        math.pi / cmath.sin(math.pi * sc), abs=1e-8)


def test_integral_unknown_function(capsys):
    code = run(["integral", "--f", "nope", "--spec", "[]"])
    assert code == 2


def test_integral_bad_spec_json(capsys):
    code = run(["integral", "--f", "exp", "--spec", "{not json"])
    assert code == 2


@pytest.mark.parametrize("spec", ['[{}]', '["zero"]', '{"kind": "zero"}'])
def test_integral_spec_not_a_list_of_kinds(capsys, spec):
    # a point without a kind, a bare kind and a bare object are usage
    # errors, not tracebacks
    assert run(["integral", "--f", "exp", "--spec", spec]) == 2
    assert '"kind"' in capsys.readouterr().err


def test_mellin_value_and_pole(capsys):
    doc = _json_out(capsys, ["mellin", "--s", "0.5"])
    assert _value(doc) == pytest.approx(3.14159265358979, abs=1e-6)
    code = run(["mellin", "--s", "1", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert doc["residue"] == pytest.approx(-1.0, abs=1e-6)


# -- sweep / table ---------------------------------------------------------

def test_sweep_zeta_values(capsys):
    doc = _json_out(capsys, ["sweep", "zeta", "--start", "-2", "--stop", "0",
                             "--count", "3"])
    rows = doc["rows"]
    assert [r["status"] for r in rows] == ["ok"] * 3
    got = [r["value_re"] for r in rows]
    assert got == pytest.approx([0.0, -1.0 / 12.0, -0.5], abs=1e-9)


def test_sweep_crosses_pole_without_aborting(capsys):
    doc = _json_out(capsys, ["sweep", "zeta", "--start", "0.5",
                             "--stop", "1.5", "--count", "3"])
    rows = doc["rows"]
    assert rows[1]["status"] == "pole"
    assert rows[1]["value_re"] is None
    assert rows[0]["status"] == "ok" and rows[2]["status"] == "ok"


def test_sweep_records_library_errors_without_aborting(capsys, monkeypatch):
    monkeypatch.setattr(cesaro.cli, "zeta", _routes_disagree)
    doc = _json_out(capsys, ["sweep", "zeta", "--start", "-5.9",
                             "--stop", "-5.7", "--count", "3"])
    rows = doc["rows"]
    assert len(rows) == 3
    assert all(r["status"].startswith("error: routes disagree")
               for r in rows)
    assert all(r["value_re"] is None for r in rows)


def test_sweep_empty_grid_is_usage_error(capsys):
    assert run(["sweep", "zeta", "--start", "0", "--stop", "1",
                "--count", "0"]) == 2


def test_sweep_is_deterministic(capsys):
    argv = ["sweep", "eta", "--start", "-1", "--stop", "1", "--count", "5",
            "--format", "csv"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_sweep_csv_parses(capsys):
    argv = ["sweep", "mellin", "--start", "0.2", "--stop", "0.8",
            "--count", "4", "--format", "csv"]
    assert run(argv) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["s", "value_re", "value_im", "path", "removed",
                       "status"]
    assert len(rows) == 5


def test_table_verb_exact_entries(capsys):
    doc = _json_out(capsys, ["table", "--kind", "k", "--max-delta", "2",
                             "--max-r", "1"])
    by_key = {(r["delta"], r["r"]): r["limit"] for r in doc["rows"]}
    assert by_key[(0, 0)] == "1"
    assert by_key[(1, 0)] == "-1/2"
    assert by_key[(2, 1)] == "1/4"


# -- one outcome path: the same exit code and fields in every format -------

FORMAT_QUERIES = [
    (["sum", "alt_ones"], 0),
    (["sum", "n_pow(-1)"], 3),
    (["limit", "ones"], 0),
    (["zeta", "--s", "-1,0"], 0),
    (["zeta", "--s", "1,0"], 3),
    (["zeta", "--s", "1", "--discrete"], 3),
    (["eta", "--s", "0.3,1"], 0),
    (["mellin", "--s", "0.5"], 0),
    (["mellin", "--s", "1"], 3),
    (["integral", "--f", "exp", "--spec", "[]"], 0),
    (["integral", "--f", "one_over_x", "--spec",
      '[{"kind":"zero"},{"kind":"infinity"}]'], 3),
    (["sweep", "zeta", "--start", "-2", "--stop", "0", "--count", "3"], 0),
    (["table", "--max-delta", "1", "--max-r", "1"], 0),
]


def _csv_cell_matches(text, value):
    if value is None:
        return text == ""
    if isinstance(value, dict):
        return complex(text) == complex(value["re"], value["im"])
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(text) == value
    return text == str(value)


@pytest.mark.parametrize("argv, code", FORMAT_QUERIES,
                         ids=[" ".join(q[:4]) for q, _ in FORMAT_QUERIES])
def test_every_format_carries_the_same_outcome(capsys, argv, code):
    outs = {}
    for fmt in ("table", "csv", "json"):
        assert run(argv + ["--format", fmt]) == code, fmt
        outs[fmt] = capsys.readouterr().out
    doc = json.loads(outs["json"])
    docs = doc["rows"] if "rows" in doc else [doc]
    csv_rows = list(csv.DictReader(io.StringIO(outs["csv"])))
    assert len(csv_rows) == len(docs)
    for row, d in zip(csv_rows, docs):
        assert list(row) == list(d)
        for key in d:
            assert _csv_cell_matches(row[key], d[key]), (key, row[key], d[key])
    lines = outs["table"].splitlines()
    if "rows" in doc:
        assert lines[0].split() == list(docs[0])
        assert len(lines) == 1 + len(docs)
    else:
        assert [ln.split()[0] for ln in lines] == list(doc)


# -- dispatch and exit codes -----------------------------------------------

def test_unknown_verb_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2


def test_missing_required_flag_is_usage_error(capsys):
    assert run(["zeta"]) == 2


def test_bad_series_is_usage_error(capsys):
    assert run(["sum", "fibonacci"]) == 2


def test_help_exits_clean(capsys):
    assert run(["--help"]) == 0


def test_cli_matches_library(capsys):
    from cesaro.config import DEFAULT_CONFIG
    from cesaro.zeta import zeta
    doc = _json_out(capsys, ["zeta", "--s", "-1.5,0"])
    lib = complex(zeta(-1.5, DEFAULT_CONFIG).value).real
    assert _value(doc) == pytest.approx(lib, abs=1e-12)
