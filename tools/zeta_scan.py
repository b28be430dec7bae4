"""Scan zeta(s) over a fixed grid and report where its cross-check fails.

    python3 tools/zeta_scan.py CHECKOUT

Imports CHECKOUT/src/cesaro and calls zeta at real s from -6 to 0.98 in
steps of 0.02, and at Re s = -6, -5.5, ..., 0.5 with Im s = 2 and 3: 378
points.  Prints each point that raises, the worst error of the value and
of route (b) (diagnostics["route_b"]) against 30-digit mpmath.zeta,
relative to max(1, |zeta|), and how many points each check
(diagnostics["route_b_check"]) served.  The exit status is 1 if any point
raises.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path


def scan_points() -> list:
    real = [round(-6 + 0.02 * k, 2) for k in range(350)]
    off_axis = [complex(-6 + 0.5 * k, im) for im in (2, 3) for k in range(14)]
    return real + off_axis


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
    from cesaro.zeta import zeta

    raised, checks = 0, Counter()
    worst = {"value": (0.0, None), "route (b)": (0.0, None)}
    for s in scan_points():
        try:
            ev = zeta(s)
        except Exception as exc:     # a raise is what the scan looks for
            raised += 1
            print(f"raises at s={s}: {type(exc).__name__}: {exc}")
            continue
        with mpmath.workdps(30):
            want = complex(mpmath.zeta(s))
        scale = max(1.0, abs(want))
        checks[ev.diagnostics.get("route_b_check", "unnamed")] += 1
        for key, got in (("value", ev.value),
                         ("route (b)", ev.diagnostics["route_b"])):
            err = abs(complex(got) - want) / scale
            if err > worst[key][0]:
                worst[key] = (err, s)
    print(f"{len(scan_points())} points, {raised} raised")
    for key, (err, s) in worst.items():
        where = "" if s is None else f" at s={s}"
        print(f"worst {key} error relative to max(1, |zeta|): {err:.2g}"
              + where)
    print("checks: " + ", ".join(f"{name} {n}"
                                 for name, n in sorted(checks.items())))
    sys.exit(1 if raised else 0)


if __name__ == "__main__":
    main()
