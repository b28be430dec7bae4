"""Command-line front end.

Every value printed here is produced by the library API with the same
configuration.  Each verb only parses its arguments and returns its
outcome: a record, a pole record, or the header and rows of a table.
``run`` alone builds the configuration, prints the outcome, and maps
outcomes onto exit codes:

  0  success (including sweeps that contain pole rows)
  1  the library raised a CesaroError: no convergence, a failed fit or
     cross-check, an illegal cancellation, ...
  2  usage error
  3  a point query landed exactly on a pole
"""

from __future__ import annotations

import argparse
import csv as csv_mod
import functools
import json
import math
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np

from .climits import (CesaroResult, _near_nonneg_int, cesaro_limit,
                      cesaro_limit_discrete, clim_k_alpha, clim_x_alpha)
from .config import DEFAULT_CONFIG, LimitConfig
from .errors import CesaroError, PoleSignal, SAtPoleError, is_pole
from .integrals import (DomainSpec, SingularPoint, _mellin_expansions,
                        cesaro_integral, mellin_1_over_1px, mellin_integrand)
from .seqfun import (alt_naturals, alt_ones, n_pow_minus_s, naturals, ones,
                     psum_function, zero_padded)
from .zeta import (DISCRETE_HORIZON, _fixed_power_limit, eta, zeta,
                   zeta_discrete_corrected, zeta_discrete_ext)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_POLE = 3


# ---------------------------------------------------------------------------
# Series grammar

def parse_series(text: str):
    """ones | alt_ones | n | alt_n | n_pow(re[,im]) | zero_padded(series,p,...)

    Returns the terms and the Dirichlet exponent s such that the terms are
    n^{-s}.  The exponent is None for the alternating and padded series,
    which are summed by pure averaging alone.
    """
    text = text.strip()
    if text == "ones":
        return ones(), 0.0
    if text == "alt_ones":
        return alt_ones(), None
    if text == "n":
        return naturals(), -1.0
    if text == "alt_n":
        return alt_naturals(), None
    if text.startswith("n_pow(") and text.endswith(")"):
        body = text[len("n_pow("):-1]
        parts = [p.strip() for p in body.split(",")]
        if len(parts) not in (1, 2):
            raise ValueError(f"n_pow takes (re) or (re,im), got {body!r}")
        re = float(parts[0])
        im = float(parts[1]) if len(parts) == 2 else 0.0
        return (n_pow_minus_s(-(re + 1j * im if im else re)),
                complex(-re, -im) if im else -re)
    if text.startswith("zero_padded(") and text.endswith(")"):
        body = text[len("zero_padded("):-1]
        depth = 0
        split_at = None
        for i, ch in enumerate(body):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                split_at = i
                break
        if split_at is None:
            raise ValueError("zero_padded needs a series and a 0/1 pattern")
        inner, _ = parse_series(body[:split_at])
        bits = [p.strip() for p in body[split_at + 1:].split(",")]
        if not bits or any(b not in ("0", "1") for b in bits):
            raise ValueError(f"pattern must be a comma list of 0/1, got "
                             f"{body[split_at + 1:]!r}")
        return zero_padded(inner, tuple(int(b) for b in bits)), None
    raise ValueError(f"unknown series {text!r}")


def parse_scalar(text: str):
    """'re' or 're,im' -> float or complex."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) == 1:
        return float(parts[0])
    if len(parts) == 2:
        re, im = float(parts[0]), float(parts[1])
        return complex(re, im) if im else re
    raise ValueError(f"scalar must be re or re,im, got {text!r}")


# ---------------------------------------------------------------------------
# Formatting

def format_scalar(v, digits: int) -> str:
    if isinstance(v, Fraction):
        return str(v)
    vc = complex(v)
    if vc.imag:
        return (f"{vc.real:.{digits}g}"
                + (f"+{vc.imag:.{digits}g}j" if vc.imag >= 0
                   else f"{vc.imag:.{digits}g}j"))
    return f"{vc.real:.{digits}g}"


def emit_record(record: dict, fmt: str, digits: int):
    out = sys.stdout
    if fmt == "json":
        def default(o):
            if isinstance(o, Fraction):
                return str(o)
            if isinstance(o, complex):
                return {"re": o.real, "im": o.imag}
            if isinstance(o, (np.floating, np.integer)):
                return float(o)
            return str(o)
        json.dump(record, out, default=default, indent=2)
        out.write("\n")
        return
    if fmt == "csv":
        writer = csv_mod.writer(out)
        writer.writerow(list(record))
        writer.writerow([repr(v) if isinstance(v, float) else str(v)
                         for v in record.values()])
        return
    width = max(len(k) for k in record)
    for k, v in record.items():
        if isinstance(v, (int, float, complex, Fraction)) \
                and not isinstance(v, bool):
            v = format_scalar(v, digits)
        out.write(f"{k:<{width}}  {v}\n")


def emit_rows(header, rows, fmt: str, digits: int):
    out = sys.stdout
    if fmt == "json":
        docs = [dict(zip(header, row)) for row in rows]
        emit_record({"rows": docs}, "json", digits)
        return
    if fmt == "csv":
        writer = csv_mod.writer(out)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None
                             else repr(v) if isinstance(v, float)
                             else str(v) for v in row])
        return
    cells = [["" if v is None
              else format_scalar(v, digits)
              if isinstance(v, (int, float, complex, Fraction))
              and not isinstance(v, bool) else str(v) for v in row]
             for row in rows]
    widths = [max(len(h), *(len(c[i]) for c in cells)) if cells else len(h)
              for i, h in enumerate(header)]
    out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)) + "\n")
    for c in cells:
        out.write("  ".join(v.ljust(w) for v, w in zip(c, widths)) + "\n")


# ---------------------------------------------------------------------------
# Configuration plumbing

def build_cfg(args) -> LimitConfig:
    cfg = DEFAULT_CONFIG
    overrides = {}
    if args.horizon is not None:
        overrides["horizon"] = args.horizon
    if args.max_power is not None:
        overrides["max_pure_power"] = args.max_power
    if args.exact:
        overrides["exact_mode"] = True
    return cfg.with_(**overrides) if overrides else cfg


def add_common(p: argparse.ArgumentParser):
    p.add_argument("--horizon", type=int, default=None,
                   help="tail horizon for limit extraction")
    p.add_argument("--max-power", type=int, default=None,
                   help="maximum averaging escalation depth")
    p.add_argument("--exact", action="store_true",
                   help="snap recognizable rationals and keep them exact")
    p.add_argument("--digits", type=int, default=12,
                   help="significant digits for table output")
    p.add_argument("--dump-expansion", action="store_true",
                   help="include removed terms and diagnostics in the output")
    p.add_argument("--format", choices=("table", "csv", "json"),
                   default="table")


# ---------------------------------------------------------------------------
# Verbs: each takes (args, cfg) and returns a record dict, which is a pole
# record when its status is "pole", or the (header, rows) of a table

def _record(value, **fields) -> dict:
    """{"value": value, **fields}, or the pole record if value is a pole."""
    if not is_pole(value):
        return {"value": value, **fields}
    rec = {"status": "pole", "log_power": value.log_power}
    if value.residue is not None:
        rec["residue"] = value.residue
    if value.detail:
        rec["detail"] = value.detail
    return rec


def cmd_sum(args, cfg: LimitConfig) -> dict:
    series, s_dir = parse_series(args.series)
    if s_dir is None:
        result = cesaro_limit(psum_function(series), None, cfg)
    else:
        # a power series sums to its zeta continuation, which carries its
        # own dual-route cross-check; averaging alone cannot reach it for
        # Re s < 1, where x^{1-s}/(1-s) is an eigenfunction of averaging
        ev = zeta(s_dir, cfg)
        result = CesaroResult(limit=ev.value, mechanism=ev.path,
                              q_used=ev.q_used, diagnostics=ev.diagnostics)
    dump = {}
    if args.dump_expansion:
        dump = {"removed_terms": repr(result.removed_terms),
                "q": result.q_used.describe() if result.q_used else "",
                "diagnostics": repr(result.diagnostics)}
    return _record(result.limit, mechanism=result.mechanism, **dump)


def cmd_limit(args, cfg: LimitConfig) -> dict:
    series, s_dir = parse_series(args.series)
    if s_dir is None:
        terms = series.term_array(min(cfg.horizon, 10 ** 5))
        if np.all(np.abs(terms.imag) < 1e-15):
            terms = terms.real
        result = cesaro_limit_discrete(terms, [], cfg)
    else:
        # a pure power sequence is its own (known-coefficient) divergent
        # content, peeled in the fixed point its table is built in
        result = _fixed_power_limit(s_dir, min(cfg.horizon, DISCRETE_HORIZON),
                                    cfg)
    dump = {}
    if args.dump_expansion:
        dump = {"removed_terms": repr(result.removed_terms),
                "diagnostics": repr(result.diagnostics)}
    return _record(result.limit, mechanism=result.mechanism, **dump)


def cmd_zeta(args, cfg: LimitConfig) -> dict:
    s = parse_scalar(args.s)
    if args.corrected:
        n = _near_nonneg_int(-complex(s))
        if n is None or complex(s).imag:
            raise ValueError(f"--corrected needs an integer s <= 0, got "
                             f"{args.s!r}")
        return {"value": zeta_discrete_corrected(-n, cfg),
                "path": "discrete-corrected"}
    try:
        ev = (zeta_discrete_ext if args.discrete else zeta)(s, cfg)
    except SAtPoleError:
        return _record(PoleSignal(origin="dirichlet-series", log_power=1,
                                  residue=1, detail="pole at s = 1"))
    rec = {"path": ev.path}
    if args.discrete:
        rec["anomaly"] = ev.anomaly
    if args.dump_expansion:
        rec["q"] = ev.q_used.describe() if ev.q_used else ""
        rec["diagnostics"] = repr(ev.diagnostics)
    return _record(ev.value, **rec)


def cmd_eta(args, cfg: LimitConfig) -> dict:
    return {"value": eta(parse_scalar(args.s), cfg)}


FUNCTION_REGISTRY = {
    "exp": (lambda x: math.exp(-x), "e^-x"),
    "gauss": (lambda x: math.exp(-x * x), "e^-x^2"),
    "one_over_x": (lambda x: 1.0 / x, "1/x"),
}


def _registry_fn(name: str):
    """A builtin integrand and its known endpoint expansions by kind."""
    if name in FUNCTION_REGISTRY:
        return FUNCTION_REGISTRY[name][0], {}
    if name.startswith("mellin(") and name.endswith(")"):
        s = parse_scalar(name[len("mellin("):-1])
        e0, einf = _mellin_expansions(complex(s))
        return mellin_integrand(s), {"zero": e0, "infinity": einf}
    raise ValueError(f"unknown builtin function {name!r}; have "
                     + ", ".join(sorted(FUNCTION_REGISTRY)) + ", mellin(s)")


def _spec_from_json(doc, expansions) -> DomainSpec:
    """The spec's points; a kind with a known expansion is given it."""
    if not isinstance(doc, list) or not all(
            isinstance(entry, dict) and "kind" in entry for entry in doc):
        raise ValueError('--spec must be a JSON list of objects, each with '
                         'a "kind"')
    points = []
    for entry in doc:
        point = SingularPoint(
            kind=entry["kind"],
            z0=entry.get("z0"),
            fit_exponents=tuple(entry.get("fit_exponents", ())))
        points.append(replace(point,
                              expansion=expansions.get(point.kind, "fit")))
    return DomainSpec(points=tuple(points))


def cmd_integral(args, cfg: LimitConfig) -> dict:
    f, expansions = _registry_fn(args.f)
    spec = _spec_from_json(json.loads(args.spec), expansions)
    out = cesaro_integral(f, spec, cfg, strict_cutoffs=args.strict_cutoffs)
    if is_pole(out.value):
        return {**_record(out.value), "log_flags": ",".join(out.log_flags)}
    rec = {"value": out.value, "cutoff_variables": out.cutoff_variables}
    if args.dump_expansion:
        rec["per_endpoint"] = repr(out.per_endpoint)
    return rec


def cmd_mellin(args, cfg: LimitConfig) -> dict:
    return _record(mellin_1_over_1px(parse_scalar(args.s), cfg))


def _ev_row(ev, removed: bool = False):
    return ev.value, ev.path, ev.q_used.degree if removed and ev.q_used else 0


#: sweep target -> (s, cfg) -> (value, path, removed); the lambdas look the
#: library functions up at call time
SWEEP_TARGETS = {
    "zeta": lambda s, cfg: _ev_row(zeta(s, cfg), removed=True),
    "zeta-discrete": lambda s, cfg: _ev_row(zeta_discrete_ext(s, cfg)),
    "eta": lambda s, cfg: (eta(s, cfg), "", 0),
    "mellin": lambda s, cfg: (mellin_1_over_1px(s, cfg), "", 0),
}


def cmd_sweep(args, cfg: LimitConfig):
    if args.count < 1:
        raise ValueError("sweep needs a nonempty grid (count >= 1)")
    if args.count == 1:
        grid = [args.start]
    else:
        step = (args.stop - args.start) / (args.count - 1)
        grid = [args.start + i * step for i in range(args.count)]
    rows = []
    for s in grid:
        value, path, removed, status = None, "", 0, "ok"
        try:
            value, path, removed = SWEEP_TARGETS[args.target](s, cfg)
        except SAtPoleError:
            status = "pole"
        except CesaroError as exc:
            status = f"error: {exc}"
        if is_pole(value):
            status, value = "pole", None
        if value is None:
            rows.append((s, None, None, path, removed, status))
        else:
            vc = complex(value)
            rows.append((s, vc.real, vc.imag, path, removed, status))
    return ("s", "value_re", "value_im", "path", "removed", "status"), rows


def cmd_table(args, cfg: LimitConfig):
    clim = clim_k_alpha if args.kind == "k" else clim_x_alpha
    rows = [(delta, r, clim(delta, r)) for delta in range(args.max_delta + 1)
            for r in range(args.max_r + 1)]
    return ("delta", "r", "limit"), rows


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cesaro",
        description="Generalised Cesaro limits, zeta/eta continuation, and "
                    "regularized integrals.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("sum", help="generalised value of a series")
    p.add_argument("series", help="ones | alt_ones | n | alt_n | "
                                  "n_pow(re[,im]) | zero_padded(series,p,...)")
    add_common(p)
    p.set_defaults(fn=cmd_sum)

    p = sub.add_parser("limit", help="generalised limit of a sequence")
    p.add_argument("series")
    add_common(p)
    p.set_defaults(fn=cmd_limit)

    p = sub.add_parser("zeta", help="zeta continuation at s")
    p.add_argument("--s", required=True, help="re or re,im")
    p.add_argument("--discrete", action="store_true",
                   help="discrete-operator evaluation (anomalous at "
                        "nonpositive integers)")
    p.add_argument("--corrected", action="store_true",
                   help="anomaly-corrected discrete value at integer s")
    add_common(p)
    p.set_defaults(fn=cmd_zeta)

    p = sub.add_parser("eta", help="alternating zeta at s")
    p.add_argument("--s", required=True)
    add_common(p)
    p.set_defaults(fn=cmd_eta)

    p = sub.add_parser("integral", help="regularized integral of a builtin")
    p.add_argument("--f", required=True)
    p.add_argument("--spec", required=True,
                   help='JSON list of singular points, e.g. '
                        '[{"kind":"zero"},{"kind":"infinity"}]')
    p.add_argument("--strict-cutoffs", action="store_true")
    add_common(p)
    p.set_defaults(fn=cmd_integral)

    p = sub.add_parser("mellin", help="Mellin transform of 1/(1+x) at s")
    p.add_argument("--s", required=True)
    add_common(p)
    p.set_defaults(fn=cmd_mellin)

    p = sub.add_parser("sweep", help="evaluate over a real parameter grid")
    p.add_argument("target", choices=tuple(SWEEP_TARGETS))
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    add_common(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("table", help="closed-form mixed-coordinate limits")
    p.add_argument("--kind", choices=("k", "x"), default="k")
    p.add_argument("--max-delta", type=int, default=4)
    p.add_argument("--max-r", type=int, default=4)
    add_common(p)
    p.set_defaults(fn=cmd_table)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on the first run and reused by the next;
    parse_args keeps no state between calls."""
    return build_parser()


#: flags whose values are often negative numbers; fused with "=" before
#: parsing so argparse does not mistake "-1,0" for an option
_NUMERIC_FLAGS = ("--s", "--start", "--stop")


def _fuse_numeric_flags(argv):
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in _NUMERIC_FLAGS and i + 1 < len(argv) \
                and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def run(argv=None) -> int:
    """Parse, evaluate one verb, print its outcome; the exit code."""
    parser = _parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _fuse_numeric_flags(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        outcome = args.fn(args, build_cfg(args))
        if isinstance(outcome, dict):
            emit_record(outcome, args.format, args.digits)
            return EXIT_POLE if outcome.get("status") == "pole" else EXIT_OK
        emit_rows(*outcome, args.format, args.digits)
        return EXIT_OK
    except CesaroError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except ValueError as exc:       # json.JSONDecodeError included
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
