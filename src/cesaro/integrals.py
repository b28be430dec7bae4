"""Generalised integrals over (0, inf) with divergent endpoints.

The regularized integral replaces each divergent endpoint with a cutoff,
expands the cutoff integral in the cutoff variable, and keeps only the
finite part; pure power divergences are discarded the way the averaging
operators would annihilate them, while a log divergence is a genuine pole
and is reported as one.  Each endpoint is analysed independently, so log
terms at distinct endpoints can never cancel against each other.  Every
classical piece goes through the tanh-sinh rule of _quad_piece.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .asymptotics import AsymptoticExpansion, ExpansionTerm
from .config import DEFAULT_CONFIG, LimitConfig, SNAP_RADIUS
from .errors import (CesaroError, FitFailureError, IllegalCancellationError,
                     PoleSignal, QuadratureError)
from .tailfit import fit_terms, term_column

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

#: tanh-sinh range |t| <= T_FINITE on a finite piece, where u >= 1e-275;
#: through x = 1/y on (a, inf), |t| <= T_INFINITE keeps x below 1e92 a
T_FINITE, T_INFINITE = 6.0, 4.9
QUAD_LEVELS, QUAD_EPSABS, QUAD_EPSREL = 10, 1e-12, 1e-11

#: relative bound on an endpoint fit's residual and on a kept or removed
#: term, in fit_endpoint_expansion and cesaro_integral
ENDPOINT_FIT_TOL = 1e-8


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


@functools.cache
def _level(k: int) -> tuple:
    """The nodes t >= 0 that level k of the tanh-sinh rule adds (0, 1, ...,
    T_FINITE at k = 0, the odd multiples of 2^-k after), ascending, each as
    (t, q, w): q = 1/(1 + e^{pi sinh t}) is the node's distance from the
    nearer end as a fraction of the piece, w = dx/dt = pi cosh t q (1 - q)."""
    h = 2.0 ** -k
    t = np.arange(h if k else 0.0, T_FINITE + h / 2, 2 * h if k else 1.0)
    q = 1.0 / (1.0 + np.exp(np.pi * np.sinh(t)))
    w = np.pi * np.cosh(t) * q * (1.0 - q)
    return tuple(zip(t.tolist(), q.tolist(), w.tolist()))


def _quad_piece(f, a: float, b: float, complex_valued: bool):
    """Integral of f over (a, b) by the tanh-sinh rule (Takahasi and Mori,
    1974): x = a + (b - a) u, u = 1/(1 + e^{-pi sinh t}), each node placed
    from its nearer end.  The step halves from 1 until two levels agree and
    the tail cut off at |t| = t_max is small, within QUAD_EPSABS or
    QUAD_EPSREL; (a, inf), a > 0, maps through x = 1/y onto (0, 1/a).  A
    rule that does not settle raises QuadratureError."""
    lo, hi, t_max, g = a, b, T_FINITE, f
    if b == math.inf:
        lo, hi, t_max = 0.0, 1.0 / a, T_INFINITE
        g = lambda y: f(1.0 / y) / (y * y)
    width, total = hi - lo, 0j if complex_valued else 0.0
    est = diff = edge = cut = math.nan
    try:
        for k in range(QUAD_LEVELS):
            for t, q, w in _level(k):
                x_lo, x_hi = lo + width * q, hi - width * q
                if t > t_max or (x_lo == lo and x_hi == hi):
                    break     # out of range, or both nodes round onto ends
                if x_lo != lo:
                    total += (edge := w * g(x_lo))
                if t and x_hi != hi:
                    total += w * g(x_hi)
            est, prev = width * total * 2.0 ** -k, est
            # at lo = 0, |t| <= t_max (not rounding) cuts off a tail
            diff, cut = abs(est - prev), width * abs(edge) if lo == 0 else 0.0
            if max(diff, cut) <= max(QUAD_EPSABS, QUAD_EPSREL * abs(est)):
                return est
    except (ArithmeticError, ValueError, TypeError) as exc:
        raise QuadratureError(f"quadrature failed on [{a}, {b}]: {exc}",
                              interval=(a, b)) from exc
    raise QuadratureError(
        f"quadrature did not converge on [{a}, {b}]: its last levels differ "
        f"by {diff:.3g} and cut off about {cut:.3g}; declare a singular or "
        f"slowly decaying end there as a singular point", interval=(a, b))


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


def _lstsq_fit(xs: np.ndarray, ys, terms=()):
    """Least-squares endpoint model: a constant, X^e ln^m X for each
    (e, m) term, and 1/X, 1/X^2, 1/X^3 decay columns."""
    return fit_terms(xs, np.asarray(ys),
                     [(0, 0), *terms, (-1, 0), (-2, 0), (-3, 0)])


def fit_endpoint_expansion(samples: Sequence,
                           model_exponents: Sequence) -> AsymptoticExpansion:
    """Least-squares power model for endpoint samples (X_i, F(X_i)).

    Fits a constant plus X^rho for each supplied model exponent (entries
    may also be (rho, m) pairs for X^rho ln^m X), together with 1/X, 1/X^2
    and 1/X^3 decay columns so a resolved endpoint needs no explicit model.
    Rejects with FitFailure when the residual shows unmodeled behaviour,
    which is exactly what an absent log term looks like.
    """
    xs = np.asarray([float(x) for x, _ in samples])
    ys = np.asarray([v for _, v in samples])
    if len(xs) < 2 * (len(list(model_exponents)) + 1):
        raise ValueError("need at least twice as many samples as model terms")
    if np.max(xs) < 100 * np.min(xs):
        raise ValueError("samples must span at least two decades")
    fit = _lstsq_fit(xs, ys, [e if isinstance(e, tuple) else (e, 0)
                              for e in model_exponents])
    tol = ENDPOINT_FIT_TOL * max(1.0, float(np.max(np.abs(ys))))
    if fit.residual_rms > tol:
        raise FitFailureError(
            f"endpoint fit residual {fit.residual_rms:.3g} exceeds tolerance "
            f"{tol:.3g}; the power model does not capture the data")
    (_, constant), *rest = fit.coefficients.items()
    terms = []
    for (e, m), c in rest:
        # significance is judged by the term's contribution over the window,
        # not the bare coefficient: a leading X^2 term can have a tiny
        # coefficient and still dominate the samples
        col = term_column(xs, e, m)
        contrib = abs(complex(c)) * float(np.max(np.abs(col)))
        if contrib <= tol:
            continue
        terms.append(ExpansionTerm(coeff=c, exponent=e, log_power=m,
                                   variable="X"))
    return AsymptoticExpansion(terms=tuple(terms), remainder_order=-2,
                               constant=constant, variable="X")


def _removed_powers(fit, threshold: float) -> tuple:
    """The fitted growing powers X^e, Re e > 0, above the threshold."""
    return tuple((c, e, 0) for (e, m), c in fit.coefficients.items()
                 if not m and complex(e).real > 0
                 and abs(complex(c)) > threshold)


def _analyze_endpoint(f, point: SingularPoint, anchor: float,
                      complex_valued: bool):
    """Finite part and removed divergences for one endpoint.

    Returns (finite_part, removed_terms, log_flag, log_coefficient).
    """
    xs, ys = _endpoint_samples(f, point, anchor, complex_valued)
    scale = max(1.0, float(np.max(np.abs(ys))))
    tol = ENDPOINT_FIT_TOL * scale
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
            cc = complex(t.coeff)
            resid = resid - (cc if cc.imag else cc.real) * term_column(
                xs, t.exponent, t.log_power)
        log_flag = abs(log_coeff) > tol
        if log_flag:
            return None, tuple(removed), True, log_coeff
        # what is left should settle to the finite part
        fit = _lstsq_fit(xs, resid)
        if fit.residual_rms > max(tol, 1e-9):
            raise FitFailureError(
                f"endpoint {point.label}: residual {fit.residual_rms:.3g} "
                f"after removing the supplied expansion; expansion "
                f"incomplete?")
        return fit.coefficients[0, 0], tuple(removed), False, 0.0
    if point.expansion != "fit":
        raise ValueError("expansion must be an AsymptoticExpansion or 'fit'")
    powers = [(e, 0) for e in point.fit_exponents
              if abs(complex(e)) > SNAP_RADIUS]
    fit = _lstsq_fit(xs, ys, powers)
    if fit.residual_rms <= max(tol, 1e-8):
        return fit.coefficients[0, 0], _removed_powers(fit, tol), False, 0.0
    # power model failed; a log column deciding the residual means a pole
    log_fit = _lstsq_fit(xs, ys, [*powers, (0, 1)])
    if log_fit.residual_rms <= max(tol, 1e-8):
        log_coeff = log_fit.coefficients[0, 1]
        # a physical log has an O(1) coefficient; quad noise does not
        if abs(complex(log_coeff)) > max(1e-6 * scale,
                                         100 * log_fit.residual_rms):
            return (None, _removed_powers(log_fit, tol) + ((log_coeff, 0, 1),),
                    True, log_coeff)
    raise FitFailureError(
        f"endpoint {point.label}: neither the power model (rms "
        f"{fit.residual_rms:.3g}) nor a single log term (rms "
        f"{log_fit.residual_rms:.3g}) captures the cutoff integral; supply "
        f"an analytic expansion")


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
    IllegalCancellation instead of pretending the pole away.  cfg is taken
    as every driver takes it; no field of it changes an integral, whose
    endpoint fits are held to ENDPOINT_FIT_TOL.
    """
    points = spec.points
    try:
        probe = f(1.0)
    except (TypeError, AttributeError):
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
    log_order = 0
    for i, p in enumerate(points):
        for anchor in anchors[i]:
            fp, removed, flag, log_coeff = _analyze_endpoint(
                f, p, anchor, complex_valued)
            per_endpoint.append((p.label, removed, flag))
            if flag:
                log_entries.append((p.label, log_coeff))
                log_order = max(log_order,
                                max((m for _c, _e, m in removed), default=1))
            else:
                total = total + fp
    # classical integrals out to a regular end of (0, inf); every piece
    # between two anchors holds a singular location and belongs to its
    # endpoint analyses
    cut = sorted(set(a for pts in anchors.values() for a in pts))
    if not cut:
        total = total + _quad_piece(f, 0.0, 1.0, complex_valued)
        total = total + _quad_piece(f, 1.0, np.inf, complex_valued)
    else:
        kinds = [p.kind for p in points]
        if "zero" not in kinds:
            total = total + _quad_piece(f, 0.0, cut[0], complex_valued)
        if "infinity" not in kinds:
            total = total + _quad_piece(f, cut[-1], np.inf, complex_valued)

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
                           log_power=max(1, log_order),
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


def mellin_integrand(s) -> Callable:
    """x^{s-1}/(1+x): complex-valued for complex s, float for real s."""
    sc = complex(s)
    if sc.imag:
        return lambda x: complex(x) ** (sc - 1) / (1 + x)
    sr = sc.real
    return lambda x: x ** (sr - 1) / (1 + x)


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
    spec = DomainSpec(points=(
        SingularPoint(kind="zero", expansion=e0),
        SingularPoint(kind="infinity", expansion=einf)))
    return cesaro_integral(mellin_integrand(s), spec, cfg).value
