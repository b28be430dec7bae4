"""Generalised integrals over (0, inf) with divergent endpoints.

The regularized integral replaces each divergent endpoint with a cutoff,
expands the cutoff integral in the cutoff variable, and keeps only the
finite part; pure power divergences are discarded the way the averaging
operators would annihilate them, while a log divergence is a genuine pole
and is reported as one.  Each endpoint is analysed independently, so log
terms at distinct endpoints can never cancel against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import quad

from .asymptotics import AsymptoticExpansion, ExpansionTerm
from .config import DEFAULT_CONFIG, LimitConfig, SNAP_RADIUS
from .errors import (CesaroError, FitFailureError, IllegalCancellationError,
                     PoleSignal, QuadratureError)
from .tailfit import lstsq_columns, power_column

__all__ = [
    "SingularPoint",
    "DomainSpec",
    "RegularizedIntegral",
    "cesaro_integral",
    "mellin_1_over_1px",
    "fit_endpoint_expansion",
]

#: cutoff samples per endpoint, log-spaced over SAMPLE_DECADES decades
SAMPLE_COUNT = 14
SAMPLE_DECADES = 2.5
X_TOP = 2.0e4


@dataclass(frozen=True)
class SingularPoint:
    """One potentially-singular location of the integrand.

    kind is "zero", "infinity", or "interior" (with z0 set).  expansion is
    an AsymptoticExpansion of the cutoff integral in the cutoff variable X
    (X -> inf; the cutoff sits at 1/X from a finite location), or the
    string "fit" to request a numeric power fit with fit_exponents as the
    candidate divergent exponents.
    """

    kind: str
    z0: Optional[float] = None
    expansion: object = "fit"
    fit_exponents: tuple = ()

    def __post_init__(self):
        if self.kind not in ("zero", "infinity", "interior"):
            raise ValueError(f"unknown singular point kind {self.kind!r}")
        if self.kind == "interior":
            if self.z0 is None or not (0 < float(self.z0) < math.inf):
                raise ValueError("interior point needs 0 < z0 < inf")
        elif self.z0 is not None:
            raise ValueError("z0 is only meaningful for interior points")

    @property
    def label(self) -> str:
        return self.kind if self.kind != "interior" else f"interior({self.z0})"


@dataclass(frozen=True)
class DomainSpec:
    """Ordered singular structure of an integrand on (0, inf)."""

    points: tuple

    def __post_init__(self):
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        interiors = [p.z0 for p in pts if p.kind == "interior"]
        if any(b <= a for a, b in zip(interiors, interiors[1:])):
            raise ValueError("interior points must be strictly increasing")
        kinds = [p.kind for p in pts]
        if kinds.count("zero") > 1 or kinds.count("infinity") > 1:
            raise ValueError("at most one endpoint of each kind")
        if "zero" in kinds and kinds[0] != "zero":
            raise ValueError("the zero endpoint must come first")
        if "infinity" in kinds and kinds[-1] != "infinity":
            raise ValueError("the infinity endpoint must come last")


@dataclass(frozen=True)
class RegularizedIntegral:
    """Finite part of a cutoff integral plus per-endpoint bookkeeping."""

    value: object
    per_endpoint: tuple = ()          # (label, removed_terms, log_flag)
    cutoff_variables: int = 1

    @property
    def log_flags(self) -> tuple:
        return tuple(lbl for lbl, _, flag in self.per_endpoint if flag)


def _quad_piece(f, a: float, b: float, complex_valued: bool):
    if a == b:
        return 0.0
    opts = dict(limit=200, epsabs=1e-12, epsrel=1e-11)
    try:
        if complex_valued:
            re, _ = quad(lambda x: f(x).real, a, b, **opts)
            im, _ = quad(lambda x: f(x).imag, a, b, **opts)
            return re + 1j * im
        val, _ = quad(f, a, b, **opts)
        return val
    except Exception as exc:
        raise QuadratureError(f"quadrature failed on [{a}, {b}]: {exc}",
                              interval=(a, b)) from exc


def _sample_xs() -> np.ndarray:
    return np.geomspace(X_TOP / 10 ** SAMPLE_DECADES, X_TOP, SAMPLE_COUNT)


def _cutoff_path(point: SingularPoint, anchor: float, X: float):
    """Integration bounds from the anchor toward the cutoff at X."""
    if point.kind == "zero":
        return (1.0 / X, anchor)
    if point.kind == "infinity":
        return (anchor, X)
    z0 = float(point.z0)
    if anchor < z0:
        return (anchor, z0 - 1.0 / X)
    return (z0 + 1.0 / X, anchor)


def _endpoint_samples(f, point: SingularPoint, anchor: float,
                      complex_valued: bool):
    """G(X_i) = integral from the anchor out to the cutoff, incrementally."""
    xs = _sample_xs()
    a0, b0 = _cutoff_path(point, anchor, xs[0])
    total = _quad_piece(f, a0, b0, complex_valued)
    out = [total]
    moving_lower = (point.kind == "zero"
                    or (point.kind == "interior" and anchor > float(point.z0)))
    for x_prev, x_next in zip(xs, xs[1:]):
        ap, bp = _cutoff_path(point, anchor, x_prev)
        an, bn = _cutoff_path(point, anchor, x_next)
        if moving_lower:
            total = total + _quad_piece(f, an, ap, complex_valued)
        else:
            total = total + _quad_piece(f, bp, bn, complex_valued)
        out.append(total)
    return xs, np.asarray(out)


def _lstsq_fit(xs: np.ndarray, ys, powers, log_powers=()):
    """Least-squares endpoint model: a constant, X^e for each power,
    X^e ln^m X for each (e, m), and 1/X, 1/X^2, 1/X^3 decay columns.

    Returns the coefficients, a (kind, exponent, log power) name per
    column, and the residual rms.
    """
    names = ([("const", 0, 0)] + [("power", e, 0) for e in powers]
             + [("log", e, m) for e, m in log_powers]
             + [("decay", -k, 0) for k in (1, 2, 3)])
    cols = ([np.ones_like(xs)] + [power_column(xs, e) for e in powers]
            + [power_column(xs, e) * np.log(xs) ** m for e, m in log_powers]
            + [1.0 / xs ** k for k in (1, 2, 3)])
    coef, rms, _ = lstsq_columns(cols, np.asarray(ys))
    return coef, names, rms


def fit_endpoint_expansion(samples: Sequence, model_exponents: Sequence,
                           *, tol: float = 1e-8) -> AsymptoticExpansion:
    """Least-squares power model for endpoint samples (X_i, F(X_i)).

    Fits a constant plus X^rho for each supplied model exponent (entries
    may also be (rho, m) pairs for X^rho ln^m X), together with 1/X and
    1/X^2 decay columns so a resolved endpoint needs no explicit model.
    Rejects with FitFailure when the residual shows unmodeled behaviour,
    which is exactly what an absent log term looks like.
    """
    xs = np.asarray([float(x) for x, _ in samples])
    ys = np.asarray([v for _, v in samples])
    if len(xs) < 2 * (len(list(model_exponents)) + 1):
        raise ValueError("need at least twice as many samples as model terms")
    if np.max(xs) < 100 * np.min(xs):
        raise ValueError("samples must span at least two decades")
    powers, logs = [], []
    for entry in model_exponents:
        if isinstance(entry, tuple):
            e, m = entry
            if m:
                logs.append((e, m))
            else:
                powers.append(e)
        else:
            powers.append(entry)
    coef, names, rms = _lstsq_fit(xs, ys, powers, logs)
    scale = max(1.0, float(np.max(np.abs(ys))))
    if rms > tol * scale:
        raise FitFailureError(
            f"endpoint fit residual {rms:.3g} exceeds tolerance "
            f"{tol * scale:.3g}; the power model does not capture the data")
    constant = coef[0]
    terms = []
    for c, (kind, e, m) in zip(coef[1:], names[1:]):
        # significance is judged by the term's contribution over the window,
        # not the bare coefficient: a leading X^2 term can have a tiny
        # coefficient and still dominate the samples
        col = power_column(xs, e)
        if m:
            col = col * np.log(xs) ** m
        contrib = abs(complex(c)) * float(np.max(np.abs(col)))
        if contrib <= tol * scale:
            continue
        terms.append(ExpansionTerm(coeff=c, exponent=e, log_power=m,
                                   variable="X"))
    return AsymptoticExpansion(terms=tuple(terms), remainder_order=-2,
                               constant=constant, variable="X")


def _term_values(term: ExpansionTerm, xs: np.ndarray):
    vals = power_column(xs, term.exponent)
    if term.log_power:
        vals = vals * np.log(xs) ** term.log_power
    cc = complex(term.coeff)
    return (cc if cc.imag else cc.real) * vals


def _analyze_endpoint(f, point: SingularPoint, anchor: float, cfg: LimitConfig,
                      complex_valued: bool):
    """Finite part and removed divergences for one endpoint.

    Returns (finite_part, removed_terms, log_flag, log_coefficient).
    """
    xs, ys = _endpoint_samples(f, point, anchor, complex_valued)
    scale = max(1.0, float(np.max(np.abs(ys))))
    if isinstance(point.expansion, AsymptoticExpansion):
        removed = []
        log_coeff = 0.0
        resid = ys.astype(complex) if complex_valued else ys.copy()
        for t in point.expansion.terms:
            er = complex(t.exponent).real
            if er > SNAP_RADIUS or (abs(er) <= SNAP_RADIUS
                                    and t.log_power >= 1):
                if t.log_power >= 1 and abs(er) <= SNAP_RADIUS:
                    log_coeff = log_coeff + complex(t.coeff)
                removed.append((t.coeff, t.exponent, t.log_power))
            resid = resid - _term_values(t, xs)
        log_flag = abs(log_coeff) > cfg.tail_tolerance * scale
        if log_flag:
            return None, tuple(removed), True, log_coeff
        # what is left should settle to the finite part
        coef, _, rms = _lstsq_fit(xs, resid, [])
        if rms > max(cfg.tail_tolerance * scale, 1e-9):
            raise FitFailureError(
                f"endpoint {point.label}: residual {rms:.3g} after removing "
                f"the supplied expansion; expansion incomplete?")
        return coef[0], tuple(removed), False, 0.0
    if point.expansion != "fit":
        raise ValueError("expansion must be an AsymptoticExpansion or 'fit'")
    powers = [e for e in point.fit_exponents
              if abs(complex(e)) > SNAP_RADIUS]
    coef, names, rms = _lstsq_fit(xs, ys, powers)
    if rms <= max(cfg.tail_tolerance * scale, 1e-8):
        removed = tuple((c, e, 0) for c, (kind, e, _m)
                        in zip(coef[1:], names[1:])
                        if kind == "power" and complex(e).real > 0
                        and abs(complex(c)) > cfg.tail_tolerance * scale)
        return coef[0], removed, False, 0.0
    # power model failed; a log column deciding the residual means a pole
    coef2, names2, rms2 = _lstsq_fit(xs, ys, powers, [(0, 1)])
    if rms2 <= max(cfg.tail_tolerance * scale, 1e-8):
        idx = [i for i, (kind, _e, _m) in enumerate(names2)
               if kind == "log"][0]
        log_coeff = coef2[idx]
        # a physical log has an O(1) coefficient; quad noise does not
        if abs(complex(log_coeff)) > max(1e-6 * scale, 100 * rms2):
            removed = tuple((c, e, 0) for c, (kind, e, _m)
                            in zip(coef2[1:], names2[1:])
                            if kind == "power" and complex(e).real > 0
                            and abs(complex(c)) > cfg.tail_tolerance * scale)
            return None, removed + ((log_coeff, 0, 1),), True, log_coeff
    raise FitFailureError(
        f"endpoint {point.label}: neither the power model (rms {rms:.3g}) "
        f"nor a single log term (rms {rms2:.3g}) captures the cutoff "
        f"integral; supply an analytic expansion")


def cesaro_integral(f: Callable, spec: DomainSpec,
                    cfg: LimitConfig = DEFAULT_CONFIG, *,
                    strict_cutoffs: bool = False) -> RegularizedIntegral:
    """Finite part of integral_0^inf f, endpoint divergences discarded.

    Each singular point gets its own cutoff analysis; power divergences in
    the cutoff variable are removed and the finite parts are summed with
    the classical integrals over the interior pieces.  Any endpoint whose
    cutoff integral carries a genuine log term makes the value a
    PoleSignal; in strict (independent-cutoff) mode, log terms at distinct
    endpoints whose coefficients would cancel in a coupled cutoff raise
    IllegalCancellation instead of pretending the pole away.
    """
    points = spec.points
    try:
        probe = f(1.0)
    except Exception:
        probe = f(np.float64(1.0))
    complex_valued = isinstance(probe, complex)

    # anchors between consecutive singular locations
    locs = []
    for p in points:
        locs.append(0.0 if p.kind == "zero"
                    else math.inf if p.kind == "infinity" else float(p.z0))
    anchors = {}
    inner_pieces = []
    finite_locs = [l for l in locs if 0.0 < l < math.inf]

    def mid(a, b):
        if a == 0.0 and b == math.inf:
            return 1.0
        if a == 0.0:
            return b / 2
        if b == math.inf:
            return 2 * a
        return math.sqrt(a * b)

    bounds = [0.0] + finite_locs + [math.inf]
    mids = [mid(a, b) for a, b in zip(bounds, bounds[1:])]
    for i, p in enumerate(points):
        if p.kind == "zero":
            anchors[i] = (mids[0],)
        elif p.kind == "infinity":
            anchors[i] = (mids[-1],)
        else:
            k = finite_locs.index(float(p.z0))
            anchors[i] = (mids[k], mids[k + 1])

    per_endpoint = []
    total = 0.0 + 0.0j if complex_valued else 0.0
    log_entries = []
    max_log_power = 0
    for i, p in enumerate(points):
        for anchor in anchors[i]:
            fp, removed, flag, log_coeff = _analyze_endpoint(
                f, p, anchor, cfg, complex_valued)
            per_endpoint.append((p.label, removed, flag))
            if flag:
                log_entries.append((p.label, log_coeff))
                max_log_power = max(max_log_power,
                                    max((m for _c, _e, m in removed), default=1))
            else:
                total = total + fp
    # classical integrals over the pieces between anchors, skipping pieces
    # that butt against a singular location (those belong to the endpoints)
    cut = sorted(set(a for pts in anchors.values() for a in pts))
    if not cut:
        cut = [1.0]
        total = total + _quad_piece(f, 0.0, 1.0, complex_valued)
        total = total + _quad_piece(f, 1.0, np.inf, complex_valued)
    else:
        kinds = [p.kind for p in points]
        if "zero" not in kinds:
            total = total + _quad_piece(f, 0.0, cut[0], complex_valued)
        if "infinity" not in kinds:
            total = total + _quad_piece(f, cut[-1], np.inf, complex_valued)
    for a, b in zip(cut, cut[1:]):
        if any(a < l < b for l in finite_locs):
            continue
        total = total + _quad_piece(f, a, b, complex_valued)

    n_interior = sum(1 for p in points if p.kind == "interior")
    cutoffs = 1
    if strict_cutoffs or log_entries:
        cutoffs = 2 + 2 * n_interior

    if log_entries:
        coeff_sum = sum(c for _lbl, c in log_entries)
        mag = sum(abs(complex(c)) for _lbl, c in log_entries)
        if strict_cutoffs and len(log_entries) >= 2 and \
                abs(complex(coeff_sum)) <= 1e-6 * mag:
            raise IllegalCancellationError(
                "log divergences at "
                + ", ".join(lbl for lbl, _ in log_entries)
                + " would cancel only through a coupled cutoff; independent "
                  "cutoffs forbid that cancellation")
        value = PoleSignal(origin="cutoff-integral",
                           log_power=max(1, max_log_power),
                           detail="log divergence at "
                                  + ", ".join(lbl for lbl, _ in log_entries))
        return RegularizedIntegral(value=value, per_endpoint=tuple(per_endpoint),
                                   cutoff_variables=cutoffs)
    if complex_valued:
        value = complex(total)
    else:
        value = float(np.real(total))
    return RegularizedIntegral(value=value, per_endpoint=tuple(per_endpoint),
                               cutoff_variables=cutoffs)


# ---------------------------------------------------------------------------
# Mellin transform of 1/(1+x)

def _mellin_expansions(sc):
    """Registered cutoff expansions of the Mellin integrand x^{s-1}/(1+x).

    Near zero the geometric series 1 - x + x^2 - ... integrates term by
    term; the cutoff at 1/X contributes (-1)^{n+1} X^{-s-n} / (s+n), a log
    when s+n = 0.  Near infinity the series (1/x)(1 - 1/x + ...) gives
    (-1)^m X^{s-1-m} / (s-1-m), a log when s-1-m = 0.
    """
    is_c = bool(sc.imag)

    def scal(z):
        return z if is_c else z.real

    N = max(5, int(math.ceil(-sc.real)) + 5)
    terms0 = []
    for n in range(N + 1):
        d = sc + n
        if abs(d) <= SNAP_RADIUS:
            terms0.append(ExpansionTerm(coeff=scal(complex((-1) ** n)),
                                        exponent=0, log_power=1, variable="X"))
        else:
            terms0.append(ExpansionTerm(coeff=scal((-1) ** (n + 1) / d),
                                        exponent=scal(-d), variable="X"))
    M = max(5, int(math.ceil(sc.real)) + 5)
    terms_inf = []
    for m in range(M + 1):
        d = sc - 1 - m
        if abs(d) <= SNAP_RADIUS:
            terms_inf.append(ExpansionTerm(coeff=scal(complex((-1) ** m)),
                                           exponent=0, log_power=1,
                                           variable="X"))
        else:
            terms_inf.append(ExpansionTerm(coeff=scal((-1) ** m / d),
                                           exponent=scal(d), variable="X"))
    e0 = AsymptoticExpansion(terms=tuple(terms0),
                             remainder_order=-(sc.real + N + 1), variable="X")
    einf = AsymptoticExpansion(terms=tuple(terms_inf),
                               remainder_order=sc.real - 2 - M, variable="X")
    return e0, einf


def mellin_1_over_1px(s, cfg: LimitConfig = DEFAULT_CONFIG):
    """Generalised Mellin transform of 1/(1+x) at s.

    Agrees with the classical integral on the strip 0 < Re(s) < 1 and
    continues it elsewhere by discarding the endpoint power divergences.
    At integer s a log divergence survives at one endpoint: a simple pole,
    returned as a PoleSignal with a numerically estimated residue.
    """
    sc = complex(s)
    n0 = round(sc.real)
    if abs(sc - n0) <= SNAP_RADIUS:
        delta = 1e-4
        try:
            lo = mellin_1_over_1px(n0 - delta, cfg)
            hi = mellin_1_over_1px(n0 + delta, cfg)
            residue = complex(delta * (complex(hi) - complex(lo)) / 2)
            if abs(residue.imag) < 1e-6:
                residue = residue.real
        except CesaroError:
            residue = None
        return PoleSignal(origin="mellin-1/(1+x)", log_power=1,
                          residue=residue,
                          detail=f"simple pole of the Mellin transform "
                                 f"at s={n0}")
    e0, einf = _mellin_expansions(sc)
    if sc.imag:
        def f(x):
            return complex(x) ** (sc - 1) / (1 + x)
    else:
        sr = sc.real

        def f(x):
            return x ** (sr - 1) / (1 + x)
    spec = DomainSpec(points=(
        SingularPoint(kind="zero", expansion=e0),
        SingularPoint(kind="infinity", expansion=einf)))
    out = cesaro_integral(f, spec, cfg)
    return out.value
