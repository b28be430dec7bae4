"""Scan zeta(s) and eta(s) over a fixed grid and report where their
cross-checks fail.

    python3 tools/zeta_scan.py CHECKOUT

Imports CHECKOUT/src/cesaro and calls zeta, then eta, at real s from -6 to
0.98 in steps of 0.02, and at Re s = -6, -5.5, ..., 0.5 with Im s = 2, 3,
5, 10, 15, 20 and 30: 448 points, 70 of them off the benchmark's box,
which stops at Im s = 3.  For each function prints each point that
raises, and the worst error of the value and of route (b) against 30-digit
mpmath (zeta and altzeta), relative to max(1, |zeta|) or max(1, |eta|).
Route (b) is zeta's diagnostics["route_b"], and for eta the averaged
limit of cesaro.zeta._route_b, which eta always checks its value on.  How
many points each check served is printed too: for zeta the
diagnostics["route_b_check"] that ran.

Two more lines judge route (b)'s stderr (zeta's
diagnostics["route_b_stderr"], _route_b's for eta).  The first gives the
median, 90th percentile and max of route (b)'s true error over its
stderr, and the share of points where that ratio is at most 10.  The
second counts the points where 30 stderr, not _route_b_tol(s), sets the
cross-check window max(_route_b_tol(s), 30 stderr, 10 trunc), read from
the arguments of each call of cesaro.zeta._cross_check, with the worst
30 stderr / _route_b_tol(s).  The exit status is 1 if any point raises.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

import numpy as np


def scan_points() -> list:
    real = [round(-6 + 0.02 * k, 2) for k in range(350)]
    off_axis = [complex(-6 + 0.5 * k, im) for im in (2, 3, 5, 10, 15, 20, 30)
                for k in range(14)]
    return real + off_axis


def scan(name: str, evaluate, oracle) -> int:
    """Print name's raises, worst errors and stderr honesty over
    scan_points(); evaluate(s) gives (value, route (b)'s value, its stderr,
    the name of the check that ran, the cross-check window's three terms
    (_route_b_tol, 30 stderr, 10 trunc)).  Returns the number of points
    that raise."""
    raised, checks, ratios, stderr_set = 0, Counter(), [], []
    worst = {"value": (0.0, None), "route (b)": (0.0, None)}
    for s in scan_points():
        try:
            value, route_b, stderr, check, window = evaluate(s)
        except Exception as exc:     # a raise is what the scan looks for
            raised += 1
            print(f"{name} raises at s={s}: {type(exc).__name__}: {exc}")
            continue
        want = oracle(s)
        scale = max(1.0, abs(want))
        checks[check] += 1
        for key, got in (("value", value), ("route (b)", route_b)):
            err = abs(complex(got) - want) / scale
            if err > worst[key][0]:
                worst[key] = (err, s)
        err_b = abs(complex(route_b) - want)    # exactly 0 at some integers
        ratios.append((err_b / stderr if err_b else 0.0, s))
        tol, by_stderr, by_trunc = window
        if by_stderr > max(tol, by_trunc):
            stderr_set.append((by_stderr / tol, s))
    print(f"{name}: {len(scan_points())} points, {raised} raised")
    for key, (err, s) in worst.items():
        where = "" if s is None else f" at s={s}"
        print(f"worst {key} error relative to max(1, |{name}|): {err:.2g}"
              + where)
    print("checks: " + ", ".join(f"{check} {n}"
                                 for check, n in sorted(checks.items())))
    if ratios:
        r = np.array([ratio for ratio, _s in ratios])
        top, at = max(ratios)
        print(f"route (b) error / stderr: median {np.median(r):.2g}, 90th "
              f"percentile {np.percentile(r, 90):.2g}, max {top:.3g} at "
              f"s={at}, share <= 10: {np.mean(r <= 10):.2f}")
    line = f"windows set by 30 stderr: {len(stderr_set)} of {len(ratios)}"
    if stderr_set:
        top, at = max(stderr_set)
        line += f", worst 30 stderr / _route_b_tol {top:.3g} at s={at}"
    print(line)
    return raised


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("checkout", type=Path,
                   help="root of a source checkout (holds src/)")
    args = p.parse_args(argv)
    src = args.checkout.resolve() / "src"
    if not (src / "cesaro" / "__init__.py").is_file():
        raise SystemExit(f"no cesaro sources under {src}")
    sys.path[:0] = [str(src)]
    import mpmath
    from cesaro.zeta import _route_b, eta, zeta
    zeta_module = sys.modules["cesaro.zeta"]
    cross_check, windows = zeta_module._cross_check, []

    def recording(s, value, trunc_err, check, check_stderr, what):
        windows.append((zeta_module._route_b_tol(s), 30 * check_stderr,
                        10 * trunc_err))
        return cross_check(s, value, trunc_err, check, check_stderr, what)

    zeta_module._cross_check = recording

    def zeta_routes(s):
        ev = zeta(s)
        return (ev.value, ev.diagnostics["route_b"],
                ev.diagnostics["route_b_stderr"],
                ev.diagnostics.get("route_b_check", "unnamed"), windows[-1])

    def eta_routes(s):
        value, fit = eta(s), _route_b(s)[0]
        return value, fit.limit, fit.stderr, "averaging", windows[-1]

    def oracle(f):
        def at(s):
            with mpmath.workdps(30):
                return complex(f(s))
        return at

    raised = scan("zeta", zeta_routes, oracle(mpmath.zeta))
    raised += scan("eta", eta_routes, oracle(mpmath.altzeta))
    sys.exit(1 if raised else 0)


if __name__ == "__main__":
    main()
