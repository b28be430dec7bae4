"""Scan the Mellin transform of 1/(1+x) over a fixed grid and report its
raises and worst errors.

    python3 tools/mellin_scan.py CHECKOUT

Imports CHECKOUT/src/cesaro and scans two grids against pi/sin(pi s) at
30 digits (mpmath):

- mellin_1_over_1px at Re s = -2.9, -2.7, ..., 2.9 with Im s = 0, 1, 3
  and 8: 120 points, none of them a pole.  Prints each point that raises,
  then, for each Im s, the worst error relative to max(1, |pi/sin(pi s)|);
- cesaro_integral of mellin_integrand(s) with no declared point, at
  s = 0.02, 0.04, ..., 0.98: the classical integral, which is nearly
  non-integrable at 0 for s near 0 and at infinity for s near 1.  Prints
  the points that raise and the worst absolute error of the rest.

The exit status is 1 if a point of the first grid raises.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


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
    from cesaro.integrals import (DomainSpec, cesaro_integral,
                                  mellin_1_over_1px, mellin_integrand)

    def reference(s) -> complex:
        with mpmath.workdps(30):
            sm = mpmath.mpmathify(s)
            return complex(mpmath.pi / mpmath.sin(mpmath.pi * sm))

    raised = 0
    worst = {}
    for im in (0, 1, 3, 8):
        for k in range(30):
            re = round(-2.9 + 0.2 * k, 1)
            s = complex(re, im) if im else re
            try:
                got = complex(mellin_1_over_1px(s))
            except Exception as exc:     # a raise is what the scan looks for
                raised += 1
                print(f"mellin raises at s={s}: {type(exc).__name__}: {exc}")
                continue
            want = reference(s)
            err = abs(got - want) / max(1.0, abs(want))
            if err > worst.get(im, (-1.0, None))[0]:
                worst[im] = (err, s)
    print(f"mellin_1_over_1px: 120 points, {raised} raised")
    for im, (err, s) in worst.items():
        print(f"Im s = {im}: worst error relative to max(1, |ref|) "
              f"{err:.2g} at s={s}")

    undeclared_raises, top = [], (0.0, None)
    for k in range(1, 50):
        s = round(0.02 * k, 2)
        try:
            got = cesaro_integral(mellin_integrand(s),
                                  DomainSpec(points=())).value
        except Exception as exc:         # a raise is what the scan looks for
            undeclared_raises.append(s)
            print(f"undeclared raises at s={s}: {type(exc).__name__}: {exc}")
            continue
        err = abs(got - reference(s))
        if err > top[0]:
            top = (err, s)
    print(f"undeclared ends: 49 points, {len(undeclared_raises)} raised, "
          f"worst absolute error of the rest {top[0]:.2g} at s={top[1]}")
    sys.exit(1 if raised else 0)


if __name__ == "__main__":
    main()
