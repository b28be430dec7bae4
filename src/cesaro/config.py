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

#: Decaying content below n^LEDGER_FLOOR is left to the tail fit; the
#: eigensequences' lower orders are carried down to it.
LEDGER_FLOOR = -6

#: Relative tail-variation threshold used to *classify* a function as
#: classically convergent.  Divergences here are power/log shaped, so a
#: decade-scaled window test at this coarser threshold is scale free; the
#: value itself is then refined by a tail-model fit.
DETECT_TOLERANCE = 1e-3

#: A tail swings persistently when the rms step between consecutive
#: samples over the last tenth of its window is at least SWING_PERSISTENCE
#: of that step over the first tenth; decaying content steps several times
#: less at the end of a decade (x^rho stays above 0.8 only for Re rho >
#: -0.12).  Such a swing above SWING_TOLERANCE of max(1, |limit|) is no
#: limit, however far below DETECT_TOLERANCE: the fit leaks a few parts in
#: 1e3 of it into the constant, and one averaging pass removes it instead.
SWING_PERSISTENCE = 0.8
SWING_TOLERANCE = 1e-7


@dataclass(frozen=True)
class LimitConfig:
    """Knobs for the limit drivers.

    horizon           evaluation horizon (number of unit intervals / sequence
                      length); the tail window is the last decade of it.
    max_pure_power    escalation budget for pure averaging powers.
    exact_mode        prefer exact rational arithmetic where available and
                      snap clean rational limits.
    """

    horizon: int = 10**5
    max_pure_power: int = 6
    exact_mode: bool = False

    def __post_init__(self):
        if self.horizon < 10**2:
            raise ValueError("horizon must be at least 100")
        if self.max_pure_power < 0:
            raise ValueError("max_pure_power must be nonnegative")

    def with_(self, **kw) -> "LimitConfig":
        return replace(self, **kw)


DEFAULT_CONFIG = LimitConfig()
