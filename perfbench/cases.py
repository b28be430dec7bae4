"""Seeded cases of the three workloads, each with its independent check.

A case is one operation a caller of ``cesaro`` would make.  Its inputs come
from the workload seed; its expected result is computed here, apart from
``cesaro`` (mpmath's zeta and altzeta, ``pi/sin(pi s)``, Bernoulli numbers,
direct partial sums), or is a property the method must have.  Oracles are
computed when the case is built, outside every timed region.

The s-grids are stratified: one seeded draw per stratum, each stratum chosen
so that the cost of a call hardly depends on where in it the draw lands
(same averaging depth, same precision route).  A pass therefore costs about
the same under any seed.  The README lists each stratum and each tolerance
with its reason.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import mpmath

ORACLE_DPS = 40
DIGITS_CAP = 15.0


@dataclass
class Verdict:
    ok: bool
    digits: Optional[float]      # None: a property check with no value
    detail: str = ""


@dataclass
class Case:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Verdict]
    known_fault: str = ""        # the documented fault this case exercises
    smoke: bool = False


def digits(value, ref) -> float:
    """Correct significant digits of value against ref, capped at 15.

    Relative error, or absolute error where the reference is 0.
    """
    err = abs(complex(value) - complex(ref))
    scale = abs(complex(ref))
    rel = err / scale if scale > 0 else err
    if rel == 0:
        return DIGITS_CAP
    return max(0.0, min(DIGITS_CAP, -math.log10(rel)))


def compare(value, ref, rel_tol, abs_tol=0.0) -> Verdict:
    try:
        err = abs(complex(value) - complex(ref))
    except (TypeError, ValueError):
        return Verdict(False, None, f"not a number: {value!r}")
    tol = max(abs_tol, rel_tol * abs(complex(ref)))
    if not math.isfinite(err) or err > tol:
        return Verdict(False, None,
                       f"got {value!r}, expected {complex(ref)!r}, "
                       f"error {err:.3g} > {tol:.3g}")
    return Verdict(True, digits(value, ref))


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _fmt(x: float) -> str:
    return f"{x:.6f}".rstrip("0").rstrip(".")


# ---------------------------------------------------------------------------
# Oracles, all outside cesaro

def zeta_ref(s) -> complex:
    with mpmath.workdps(ORACLE_DPS):
        return complex(mpmath.zeta(mpmath.mpmathify(s)))


def eta_ref(s) -> complex:
    with mpmath.workdps(ORACLE_DPS):
        return complex(mpmath.altzeta(mpmath.mpmathify(s)))


def zeta_at_nonpositive_int(n: int) -> Fraction:
    """zeta(-n) = (-1)^n B_{n+1} / (n+1), Bernoulli numbers from mpmath."""
    with mpmath.workdps(ORACLE_DPS):
        b = Fraction(str(mpmath.bernoulli(n + 1))).limit_denominator(10**6)
    return (-1) ** n * b / (n + 1)


def mellin_ref(s) -> complex:
    with mpmath.workdps(ORACLE_DPS):
        sm = mpmath.mpmathify(s)
        return complex(mpmath.pi / mpmath.sin(mpmath.pi * sm))


def padded_alt_ones_ref(mask) -> float:
    """Cesaro sum of alt_ones spread over the 1-slots of a 0/1 mask.

    The partial sums are periodic with a period dividing 2*len(mask), so
    their mean over that window is the (C,1) sum.
    """
    period = 2 * len(mask)
    live = 0
    acc = 0
    total = 0
    for n in range(period):
        if mask[n % len(mask)]:
            acc += 1 if live % 2 == 0 else -1
            live += 1
        total += acc
    return total / period


# ---------------------------------------------------------------------------
# Tolerances (see the README for the error model behind each)

ZETA_REL = 1e-12            # route (a) at 40 digits, one rounding to float
DEXT_REL = 1e-3             # discrete ladder: error not bounded by stderr
CORRECTED_ABS = 1e-5        # the function's own rational-snap window
TAIL_ABS = 1e-8             # LimitConfig.tail_tolerance
PADDED_ABS = 1e-6           # period-p residual of one averaging
LIMIT_ABS = 1e-6            # discrete driver on one decade of tail
MELLIN_REL = 1e-9           # quad at epsrel 1e-11 over a few pieces
RESIDUE_ABS = 1e-6          # central difference at delta 1e-4
INTEGRAL_REL = 1e-9


def eta_rel_tol(s) -> float:
    """Two decades of accuracy per unit strip below Re s = 0, from 1e-7,
    and never below 1e-5: for 0 < Re s < 1 the tail keeps an x^-s term the
    tail model has no column for (measured up to 1.2e-6 near s = 0.62)."""
    depth = max(0.0, -complex(s).real)
    return max(1e-5, 1e-7 * 100.0 ** depth)


# ---------------------------------------------------------------------------
# continuation: zeta(s) through both routes

#: one real draw per unit strip; strips are trimmed where the cross-check
#: between the routes raises (see CHANGES.md), and kept off the integers
REAL_STRATA = [(1.15, 1.85), (0.25, 0.85), (-0.85, -0.4), (-1.85, -1.15),
               (-2.85, -2.15), (-3.85, -3.15), (-4.8, -4.15), (-5.6, -5.1)]
#: (re range, im range): the float-route strip and the r=2 mp strip
COMPLEX_STRATA = [((0.15, 0.85), (0.2, 3.0)), ((-1.85, -1.15), (0.2, 3.0))]
INTEGERS = range(0, -7, -1)


def _zeta_check(ref, rel_tol):
    def check(ev) -> Verdict:
        return compare(ev.value, ref, rel_tol)
    return check


def continuation_cases(api, rng: random.Random) -> list:
    cases = []
    for i, (lo, hi) in enumerate(REAL_STRATA):
        s = _draw(rng, lo, hi)
        cases.append(Case(f"zeta({_fmt(s)})", lambda s=s: api.zeta(s),
                          _zeta_check(zeta_ref(s), ZETA_REL), smoke=i == 0))
    for (rlo, rhi), (ilo, ihi) in COMPLEX_STRATA:
        s = complex(_draw(rng, rlo, rhi), _draw(rng, ilo, ihi))
        cases.append(Case(f"zeta({s})", lambda s=s: api.zeta(s),
                          _zeta_check(zeta_ref(s), ZETA_REL)))
    for n in INTEGERS:
        ref = zeta_at_nonpositive_int(-n)
        cases.append(Case(f"zeta({n})", lambda n=n: api.zeta(n),
                          _zeta_check(ref, ZETA_REL)))
    return cases


# ---------------------------------------------------------------------------
# discrete: zeta_discrete_ext and zeta_discrete_corrected

#: float driver for Re s > -0.5, the mpmath ladder _ext_mp below.  The
#: strip (-2, -1) is left out: there the ladder's error swings between 1e-12
#: and 2e-2 from one draw to the next (see CHANGES.md)
DISCRETE_REAL_STRATA = [(0.15, 0.85), (-0.45, -0.05), (-0.95, -0.55),
                        (-2.45, -2.05)]
DISCRETE_COMPLEX_STRATA = [((0.15, 0.85), (0.2, 3.0)),
                           ((-0.95, -0.55), (0.2, 3.0))]
ANOMALY_INTEGERS = range(0, -4, -1)
CORRECTED_INTEGERS = range(0, -6, -1)
#: fixed input of the known fault: a wrong value, no error raised
DEXT_FAULT_S = -3.1


def _anomaly_check(ev) -> Verdict:
    if not ev.anomaly:
        return Verdict(False, None, "anomaly flag not set")
    if ev.value != 1:
        return Verdict(False, None, f"anomalous value {ev.value!r} is not 1")
    return Verdict(True, digits(ev.value, 1))


def discrete_cases(api, rng: random.Random) -> list:
    cases = []
    for n in ANOMALY_INTEGERS:
        cases.append(Case(f"zeta_discrete_ext({n})",
                          lambda n=n: api.zeta_discrete_ext(n),
                          _anomaly_check, smoke=n == 0))
    points = [_draw(rng, lo, hi) for lo, hi in DISCRETE_REAL_STRATA]
    points += [complex(_draw(rng, rlo, rhi), _draw(rng, ilo, ihi))
               for (rlo, rhi), (ilo, ihi) in DISCRETE_COMPLEX_STRATA]
    for s in points:
        cases.append(Case(f"zeta_discrete_ext({s})",
                          lambda s=s: api.zeta_discrete_ext(s),
                          _zeta_check(zeta_ref(s), DEXT_REL)))
    cases.append(Case(f"zeta_discrete_ext({DEXT_FAULT_S})",
                      lambda: api.zeta_discrete_ext(DEXT_FAULT_S),
                      _zeta_check(zeta_ref(DEXT_FAULT_S), DEXT_REL),
                      known_fault="zeta_discrete_ext(-3.1) returns 1.535"))
    for n in CORRECTED_INTEGERS:
        ref = zeta_at_nonpositive_int(-n)

        def check(value, ref=ref) -> Verdict:
            return compare(value, ref, 0.0, CORRECTED_ABS)

        cases.append(Case(f"zeta_discrete_corrected({n})",
                          lambda n=n: api.zeta_discrete_corrected(n), check))
    return cases


# ---------------------------------------------------------------------------
# averaging: the float64 stack through the command line

def run_cli(cli, argv):
    """cesaro.cli.run in process, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


def _json_value(v):
    """A number from the CLI's JSON, where complex is {"re": .., "im": ..}."""
    if isinstance(v, dict):
        return complex(v["re"], v["im"])
    return v


def _cli_value_check(ref, rel_tol, abs_tol=0.0, fmt="json"):
    def check(res) -> Verdict:
        code, out, err = res
        if code != 0:
            return Verdict(False, None, f"exit {code}: {err.strip()}")
        if fmt == "json":
            value = _json_value(json.loads(out)["value"])
        else:
            rows = list(csv.DictReader(io.StringIO(out)))
            value = float(rows[0]["value"])
        return compare(value, ref, rel_tol, abs_tol)
    return check


def _pole_check(expect_log_flags=None, residue=None):
    def check(res) -> Verdict:
        code, out, err = res
        if code != 3:
            return Verdict(False, None, f"exit {code}, expected 3 (pole)")
        doc = json.loads(out)
        if doc.get("status") != "pole" or doc.get("log_power") != 1:
            return Verdict(False, None, f"not a simple pole record: {doc}")
        if expect_log_flags is not None and \
                doc.get("log_flags") != expect_log_flags:
            return Verdict(False, None, f"log_flags {doc.get('log_flags')!r}")
        if residue is None:
            if "residue" in doc:
                return Verdict(False, None, "unexpected residue")
            return Verdict(True, None)
        if "residue" not in doc:
            return Verdict(False, None, "residue missing")
        return compare(_json_value(doc["residue"]), residue, 0.0, RESIDUE_ABS)
    return check


def _table_check(max_delta, max_r):
    def check(res) -> Verdict:
        code, out, err = res
        if code != 0:
            return Verdict(False, None, f"exit {code}")
        rows = list(csv.DictReader(io.StringIO(out)))
        if len(rows) != (max_delta + 1) * (max_r + 1):
            return Verdict(False, None, f"{len(rows)} rows")
        for row in rows:
            n, r = int(row["delta"]), int(row["r"])
            if Fraction(row["limit"]) != Fraction((-1) ** n, n + r + 1):
                return Verdict(False, None, f"clim_k_alpha({n},{r}) = "
                                            f"{row['limit']}")
        return Verdict(True, DIGITS_CAP)
    return check


def _sweep_check(grid, refs):
    def check(res) -> Verdict:
        code, out, err = res
        if code != 0:
            return Verdict(False, None, f"exit {code}")
        rows = list(csv.DictReader(io.StringIO(out)))
        if len(rows) != len(grid):
            return Verdict(False, None, f"{len(rows)} rows")
        worst = DIGITS_CAP
        for row, s, ref in zip(rows, grid, refs):
            if row["status"] != "ok" or abs(float(row["s"]) - s) > 1e-12:
                return Verdict(False, None, f"row {row}")
            value = complex(float(row["value_re"]), float(row["value_im"]))
            v = compare(value, ref, eta_rel_tol(s))
            if not v.ok:
                return Verdict(False, None, f"eta({s}): {v.detail}")
            worst = min(worst, v.digits)
        return Verdict(True, worst)
    return check


#: masks of length 3..5 with at least one live slot
MASK_LENGTHS = (3, 4, 5)
ETA_REAL_STRATA = [(0.15, 0.85), (-0.85, -0.15), (-1.85, -1.15)]
ETA_COMPLEX_STRATUM = ((-0.85, 0.85), (0.2, 3.0))
#: Dirichlet s of `sum n_pow(-s)`: both sides of 0 in the float strip
NPOW_STRATA = [(0.25, 0.85), (-0.25, -0.05)]
MELLIN_STRATA = [(0.1, 0.9), (-0.9, -0.1), (1.1, 1.9)]
MELLIN_POLES = (-1, 0, 1, 2)
#: fixed inputs: a deep eta that passes loosely, and the known fault
ETA_DEEP_S = -2.5
ETA_FAULT_S = -3.5


def averaging_cases(cli, rng: random.Random) -> list:
    cases = []

    def add(name, argv, check, **kw):
        cases.append(Case(name, lambda: run_cli(cli, argv), check, **kw))

    add("sum alt_ones", ["sum", "alt_ones", "--format", "json"],
        _cli_value_check(0.5, 0.0, TAIL_ABS), smoke=True)
    add("sum alt_n", ["sum", "alt_n", "--format", "json"],
        _cli_value_check(0.25, 0.0, TAIL_ABS))
    for length in (rng.choice(MASK_LENGTHS), rng.choice(MASK_LENGTHS)):
        mask = [0] * length
        while not any(mask):
            mask = [rng.randint(0, 1) for _ in range(length)]
        text = "zero_padded(alt_ones,%s)" % ",".join(map(str, mask))
        add(f"sum {text}", ["sum", text, "--format", "csv"],
            _cli_value_check(padded_alt_ones_ref(mask), 0.0, PADDED_ABS,
                             fmt="csv"))
    for lo, hi in NPOW_STRATA:
        s = _draw(rng, lo, hi)
        text = f"n_pow({_fmt(-s)})"
        add(f"sum {text}", ["sum", text, "--format", "json"],
            _cli_value_check(zeta_ref(s), ZETA_REL))
    add("limit alt_ones", ["limit", "alt_ones", "--format", "json"],
        _cli_value_check(0.0, 0.0, LIMIT_ABS))
    rho = _draw(rng, 0.15, 0.85)
    add(f"limit n_pow({_fmt(rho)})",
        ["limit", f"n_pow({_fmt(rho)})", "--format", "json"],
        _cli_value_check(0.0, 0.0, LIMIT_ABS))
    eta_points = [_draw(rng, lo, hi) for lo, hi in ETA_REAL_STRATA]
    (rlo, rhi), (ilo, ihi) = ETA_COMPLEX_STRATUM
    eta_points.append(complex(_draw(rng, rlo, rhi), _draw(rng, ilo, ihi)))
    eta_points.append(ETA_DEEP_S)
    for s in eta_points:
        arg = (f"{_fmt(s.real)},{_fmt(s.imag)}" if isinstance(s, complex)
               else _fmt(s))
        add(f"eta {arg}", ["eta", "--s", arg, "--format", "json"],
            _cli_value_check(eta_ref(s), eta_rel_tol(s)))
    add(f"eta {ETA_FAULT_S}", ["eta", "--s", str(ETA_FAULT_S), "--format",
                               "json"],
        _cli_value_check(eta_ref(ETA_FAULT_S), eta_rel_tol(ETA_FAULT_S)),
        known_fault="eta(-3.5): no classical limit within 6 averagings")
    for lo, hi in MELLIN_STRATA:
        s = _draw(rng, lo, hi)
        add(f"mellin {_fmt(s)}", ["mellin", "--s", _fmt(s), "--format",
                                  "json"],
            _cli_value_check(mellin_ref(s), MELLIN_REL))
    n = rng.choice(MELLIN_POLES)
    add(f"mellin {n}", ["mellin", "--s", str(n), "--format", "json"],
        _pole_check(residue=(-1) ** (n % 2)))
    add("integral exp", ["integral", "--f", "exp", "--spec", "[]",
                         "--format", "json"],
        _cli_value_check(1.0, INTEGRAL_REL))
    add("integral one_over_x",
        ["integral", "--f", "one_over_x", "--spec",
         '[{"kind":"zero"},{"kind":"infinity"}]', "--format", "json"],
        _pole_check(expect_log_flags="zero,infinity"))
    add("table k 4x4", ["table", "--kind", "k", "--max-delta", "4",
                        "--max-r", "4", "--format", "csv"],
        _table_check(4, 4))
    start = _draw(rng, -1.6, -1.2)
    stop = round(start + 1.5, 6)
    count = 4
    step = (stop - start) / (count - 1)
    grid = [start + i * step for i in range(count)]
    add(f"sweep eta {_fmt(start)}..{_fmt(stop)}",
        ["sweep", "eta", "--start", _fmt(start), "--stop", _fmt(stop),
         "--count", str(count), "--format", "csv"],
        _sweep_check(grid, [eta_ref(s) for s in grid]))
    return cases


WORKLOADS = {
    "continuation": continuation_cases,
    "discrete": discrete_cases,
    "averaging": averaging_cases,
}
