"""Evaluation configuration shared by the limit drivers."""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Exclusion radius around eigenvalue 1 for regular factors.  Factors whose
#: eigenvalue falls inside this radius signal poles instead of producing a
#: catastrophically normalized polynomial.
LAMBDA_EPS = 1e-9

#: Snap radius for special points (s = 1, s in Z<=0, near-integer exponents).
SNAP_RADIUS = 1e-9

#: Exponents closer than this are merged when building expansions.
EXPONENT_MERGE_TOL = 1e-12


@dataclass(frozen=True)
class LimitConfig:
    """Knobs for the limit drivers.

    horizon           evaluation horizon (number of unit intervals / sequence
                      length); the tail window is the last decade of it.
    tail_tolerance    accuracy target for extracted limits (fit diagnostics
                      are checked against it).
    detect_tolerance  relative tail-variation threshold used to *classify* a
                      function as classically convergent.  Divergences here
                      are power/log shaped, so a decade-scaled window test at
                      this coarser threshold is scale free; the value itself
                      is then refined by a tail-model fit.
    max_pure_power    escalation budget for pure averaging powers.
    exact_mode        prefer exact rational arithmetic where available and
                      snap clean rational limits.
    """

    horizon: int = 10**5
    tail_tolerance: float = 1e-8
    detect_tolerance: float = 1e-3
    max_pure_power: int = 6
    exact_mode: bool = False

    def __post_init__(self):
        if self.horizon < 10**2:
            raise ValueError("horizon must be at least 100")
        if self.tail_tolerance <= 0 or self.detect_tolerance <= 0:
            raise ValueError("tolerances must be positive")

    def with_(self, **kw) -> "LimitConfig":
        return replace(self, **kw)


DEFAULT_CONFIG = LimitConfig()
