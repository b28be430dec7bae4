"""Limit drivers: classical, strong (pure averaging), and generalised.

A generalised limit is the classical limit of q(A)[f] for a regular
polynomial q in the averaging operator.  The drivers here classify
convergence by a scale-free tail-variation test, refine values by the tail
model fit, and record which divergent terms were removed so callers can
distinguish strong from generalised convergence.

The closed-form limit tables for the mixed coordinates k^delta * alpha^r and
x^delta * alpha^r (k the integer part, alpha the fractional part) live here
too, together with the discrete driver built on the running-average
operator and its asymptotic eigensequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import mpmath
import numpy as np

from .config import DEFAULT_CONFIG, LimitConfig, SNAP_RADIUS
from .errors import NotConvergentError, is_pole
from .operators import (RegularPolynomial, apply_P, apply_P_D,
                        apply_regular_polynomial, build_regular_polynomial)
from .asymptotics import (AsymptoticExpansion, divergent_exponent,
                          eigensequence_lower_order, peel_ladder,
                          synthesize_annihilator)
from .seqfun import PiecewiseFn
from .tailfit import (decade_variation, fit_limit, fit_limit_array,
                      fit_limit_nodes, relative_spread, sequence_tail,
                      snap_to_rational)

__all__ = [
    "CesaroResult",
    "classical_limit",
    "strong_cesaro_limit",
    "cesaro_limit",
    "clim_k_alpha",
    "clim_x_alpha",
    "cdlim_power",
    "cesaro_limit_discrete",
]

#: snap tolerance used when exact mode promotes a fitted float to a rational
EXACT_SNAP_TOL = 1e-7


@dataclass(frozen=True)
class CesaroResult:
    """Outcome of a limit computation.

    mechanism is "classical", "strong(r)", "generalised", or "pole".
    removed_terms stays empty for classical and strong results: strong
    convergence means no divergences were removed, only pure averaging.
    """

    limit: object
    mechanism: str
    q_used: Optional[RegularPolynomial] = None
    removed_terms: tuple = ()
    diagnostics: dict = field(default_factory=dict)

    @property
    def is_pole(self) -> bool:
        return is_pole(self.limit)


def _maybe_snap(value, cfg: LimitConfig):
    if not cfg.exact_mode or is_pole(value):
        return value
    snapped = snap_to_rational(value, tol=EXACT_SNAP_TOL)
    return snapped if snapped is not None else value


def classical_limit(f: PiecewiseFn, cfg: LimitConfig = DEFAULT_CONFIG,
                    extra_exponents: Sequence[complex] = ()):
    """Classical limit at infinity, or NotConvergentError.

    Classification is the decade tail-variation test at detect_tolerance
    (scale free for the power/log divergences arising here); the returned
    value is then refined by the tail-model fit, which removes the known
    residual shapes left behind by averaging.
    """
    variation = decade_variation(f, cfg.horizon)
    if variation > cfg.detect_tolerance:
        raise NotConvergentError(
            "tail variation above threshold",
            diagnostics={"variation": variation, "horizon": cfg.horizon})
    fit = fit_limit(f, cfg.horizon, extra_exponents=extra_exponents)
    return _maybe_snap(fit.limit, cfg)


def _convergence_gate(g, cfg: LimitConfig, extras: Sequence[complex] = ()):
    """Tail-variation test, with the tail-model fit as a second chance.

    Slowly decaying o(1) content (x^rho with -1 < Re(rho) < 0) fails the
    raw variation test yet is amplified, not tamed, by further averaging;
    the fit recognizes it because every model column decays.  A genuine
    divergence is not in the model and leaves a large fit residual.
    """
    variation = decade_variation(g, cfg.horizon)
    fit = fit_limit(g, cfg.horizon, extra_exponents=extras)
    if variation <= cfg.detect_tolerance:
        return True, variation, fit
    scale = max(1.0, abs(complex(fit.limit)))
    if fit.residual_rms > cfg.detect_tolerance * scale:
        return False, variation, fit
    # cell means can stabilize while the function still swings inside each
    # interval (a growing oscillation has constant interval averages), so
    # acceptance additionally requires the raw node samples to fit the
    # same decaying model
    node_fit = fit_limit_nodes(g, cfg.horizon, extra_exponents=extras)
    if node_fit.residual_rms > cfg.detect_tolerance * scale:
        return False, variation, fit
    # the model columns all decay, so a large constant can hide a slowly
    # growing log inside the accepted residual; probe for one explicitly
    probe = fit_limit(g, cfg.horizon, extra_exponents=extras,
                      with_plain_log=True)
    if abs(probe.coefficients["log"]) > cfg.detect_tolerance * scale:
        return False, variation, fit
    return True, variation, fit


def strong_cesaro_limit(f: PiecewiseFn,
                        cfg: LimitConfig = DEFAULT_CONFIG) -> CesaroResult:
    """Escalate pure averaging powers until the result converges classically."""
    g = f
    for r in range(cfg.max_pure_power + 1):
        ok, variation, fit = _convergence_gate(g, cfg)
        if ok:
            mech = "classical" if r == 0 else f"strong({r})"
            return CesaroResult(
                limit=_maybe_snap(fit.limit, cfg), mechanism=mech,
                diagnostics={"horizon": cfg.horizon, "variation": variation,
                             "stderr": fit.stderr, "escalations": r})
        g = apply_P(g)
    raise NotConvergentError(
        f"no classical limit within {cfg.max_pure_power} averagings",
        diagnostics={"horizon": cfg.horizon})


def _residual_ladder(expansion: AsymptoticExpansion) -> list:
    """Decaying exponents expected in the residual after annihilation."""
    extras = []
    for t in expansion.terms:
        e = complex(t.exponent)
        j = 1
        while e.real - j > -3 and j <= 4:
            down = t.exponent - j
            if complex(down).real < -0.05:
                extras.append(down)
            j += 1
    return extras


def cesaro_limit(f: PiecewiseFn,
                 expansion: Optional[AsymptoticExpansion] = None,
                 cfg: LimitConfig = DEFAULT_CONFIG) -> CesaroResult:
    """Generalised limit: annihilate the expansion's divergences, then average.

    With no expansion this is the strong driver.  A pure-log or constant
    eigencomponent in the expansion yields a pole outcome rather than a
    value.  The known constant part of the expansion is genuine limit
    content and is not removed.
    """
    if expansion is None or not expansion.terms:
        return strong_cesaro_limit(f, cfg)
    if expansion.variable == "k":
        from .asymptotics import invert_to_x_expansion
        expansion = invert_to_x_expansion(expansion)
    q = synthesize_annihilator(expansion, 0)
    if is_pole(q):
        return CesaroResult(limit=q, mechanism="pole",
                            removed_terms=expansion.terms)
    g = apply_regular_polynomial(q, f)
    extras = _residual_ladder(expansion)
    for r in range(cfg.max_pure_power + 1):
        ok, variation, fit = _convergence_gate(g, cfg, extras)
        if ok:
            q_final = build_regular_polynomial(q.factors, q.pure_power + r)
            return CesaroResult(
                limit=_maybe_snap(fit.limit, cfg), mechanism="generalised",
                q_used=q_final, removed_terms=expansion.terms,
                diagnostics={"horizon": cfg.horizon, "variation": variation,
                             "stderr": fit.stderr, "escalations": r})
        g = apply_P(g)
    raise NotConvergentError(
        "annihilation plus escalation did not reach classical convergence",
        diagnostics={"horizon": cfg.horizon, "q": q.describe()})


def _near_nonneg_int(value, radius: float = SNAP_RADIUS) -> Optional[int]:
    v = complex(value)
    n = round(v.real)
    if n >= 0 and abs(v - n) <= radius:
        return int(n)
    return None


def clim_k_alpha(delta, r: int):
    """Scaled limit of k^delta * alpha^r: 0 unless delta is a nonnegative
    integer n, where the value is (-1)^n / (n + r + 1)."""
    if r < 0:
        raise ValueError("alpha power must be nonnegative")
    if complex(delta).real < 0:
        raise ValueError("table requires Re(delta) >= 0")
    n = _near_nonneg_int(delta)
    if n is None:
        return 0
    return Fraction((-1) ** n, n + r + 1)


def clim_x_alpha(delta, r: int):
    """Scaled limit of x^delta * alpha^r: 0 unless delta = 0, where the
    alpha moments give 1/(r+1)."""
    if r < 0:
        raise ValueError("alpha power must be nonnegative")
    if complex(delta).real < 0:
        raise ValueError("table requires Re(delta) >= 0")
    if abs(complex(delta)) <= SNAP_RADIUS:
        return Fraction(1, r + 1)
    return 0


def cdlim_power(rho):
    """Discrete limit of {n^rho}: 1 when rho is a nonnegative integer
    (within the snap radius), 0 otherwise."""
    if complex(rho).real < 0:
        raise ValueError("requires Re(rho) >= 0")
    return 1 if _near_nonneg_int(rho) is not None else 0


def _gamma_ratio_values(rho, n_max: int):
    """Gamma(n)/Gamma(n-rho), n = 1..n_max, in the arithmetic of rho.

    The exact eigensequence for exponent rho: its running average is
    itself/(rho+1) plus a boundary term proportional to 1/n that vanishes
    at integer rho.  An int rho gives the falling factorial exactly; an
    mpmath rho runs r_{n+1} = r_n n/(n-rho) from r_1 = 1/Gamma(1-rho);
    any other rho gives doubles from scipy, where that product would drift.
    """
    if isinstance(rho, int):
        return [math.perm(n - 1, rho) for n in range(1, n_max + 1)]
    if isinstance(rho, (mpmath.mpf, mpmath.mpc)):
        with mpmath.extraprec(16):      # for the rounding along the product
            out = [mpmath.rgamma(1 - rho)]
            for n in range(1, n_max):
                out.append(out[-1] * n / (n - rho))
        return out
    from scipy.special import loggamma, poch
    ns = np.arange(1, n_max + 1, dtype=float)
    rc = complex(rho)
    if rc.imag:
        return np.exp(loggamma(ns.astype(complex)) - loggamma(ns - rc))
    return poch(ns - rc.real, rc.real)


def _minus(arr, c, seq, kind: str):
    """arr - c*seq, with c and seq cast to the arithmetic of arr.  Object
    arrays (exact and mpmath entries) are updated in place, entry by entry,
    so that no second set of those numbers is alive at once."""
    if kind == "float":
        return arr - float(complex(c).real) * np.real(seq)
    if kind == "complex":
        return arr - complex(c) * seq.astype(complex)
    for i, g in enumerate(seq):
        arr[i] -= c * g
    return arr


def _discrete_exact(arr, removed, cfg: LimitConfig) -> Optional[CesaroResult]:
    """The limit of an exact residual whose last decade is one constant,
    as it is for polynomial input; None otherwise."""
    tail = arr[max(1, len(arr) // 10):]
    if any(v != tail[0] for v in tail):
        return None
    return CesaroResult(
        limit=tail[0] if cfg.exact_mode else float(tail[0]),
        mechanism="generalised" if removed else "classical",
        removed_terms=tuple(removed),
        diagnostics={"horizon": len(arr), "variation": 0.0, "exact": True})


def cesaro_limit_discrete(a, eigendecomposition: Sequence[tuple],
                          cfg: LimitConfig = DEFAULT_CONFIG) -> CesaroResult:
    """Discrete generalised limit of a sequence a_1, a_2, ...

    eigendecomposition lists (coeff, rho) for the divergent power content
    of a.  Working top exponent first, the matching eigensequence
    Gamma(n)/Gamma(n-rho) is subtracted and its lower-order terms are
    pushed back onto the pending ledger, so the bookkeeping is exact; the
    decaying content left on the ledger is subtracted outright.  Degree-zero
    content is deliberately left in place: a constant sequence is its own
    discrete limit, which is exactly how the integer-exponent anomalies
    show up.

    The subtraction runs in the arithmetic of the input: ints and Fractions
    with nonnegative integer exponents stay exact on at most 4000 entries,
    mpmath entries stay at the caller's working precision, anything else
    runs in doubles.  The residual is judged in doubles; if its tail fails
    the classical test, annihilating factors over the running-average
    operator are applied and escalated.
    """
    n_max = cfg.horizon
    if callable(a):
        vals = [a(n) for n in range(1, n_max + 1)]
    else:
        vals = list(a)[:n_max]
        n_max = len(vals)
    if n_max < 100:
        raise ValueError("need at least 100 sequence entries")
    pending = list(eigendecomposition)
    types = set(map(type, vals))
    if (all(issubclass(t, (int, Fraction)) for t in types)
            and all(isinstance(c, (int, Fraction))
                    and isinstance(e, (int, Fraction))
                    and Fraction(e).denominator == 1 and e >= 0
                    for c, e in pending)):
        kind, n_max = "exact", min(n_max, 4000)
        arr = np.array([Fraction(v) for v in vals[:n_max]], dtype=object)
        pending = [(Fraction(c), int(e)) for c, e in pending]
    elif any(issubclass(t, (mpmath.mpf, mpmath.mpc)) for t in types):
        kind, arr = "mp", np.array(vals, dtype=object)
        pending = [(mpmath.mpmathify(c), mpmath.mpmathify(e))
                   for c, e in pending]
    else:
        kind = "complex" if any(issubclass(t, complex) for t in types) else (
            "float")
        arr = np.asarray(vals, dtype=complex if kind == "complex" else float)
    del vals        # arr holds the entries now; keep one set of them alive

    removed, pending = peel_ladder(pending, divergent_exponent,
                                   eigensequence_lower_order)
    for c, e in removed:
        n_int = _near_nonneg_int(e)
        rho = e if n_int is None else n_int
        seq = _gamma_ratio_values(
            rho if kind in ("exact", "mp") else complex(rho), n_max)
        arr = _minus(arr, c, seq, kind)
    # decaying content left on the ledger has exactly known coefficients,
    # so subtract it outright: a slowly decaying power like n^{-1/2} is far
    # too collinear with the constant over one decade to be fitted instead
    ns = np.arange(1, n_max + 1, dtype=float)
    for c, e in pending:
        er = complex(e).real
        if -6 < er < -SNAP_RADIUS:
            if kind == "float":
                powers = ns ** er
            elif kind == "complex":
                powers = ns.astype(complex) ** complex(e)
            else:
                powers = (mpmath.power(n, e) for n in range(1, n_max + 1))
            arr = _minus(arr, c, powers, kind)

    factor_terms = removed
    if kind == "exact":
        closed = _discrete_exact(arr, removed, cfg)
        if closed is not None:
            return closed
        factor_terms = ()   # an exact subtraction leaves no eigencontent
    if arr.dtype == object:
        kind = "complex" if any(isinstance(v, mpmath.mpc) for v in arr) else (
            "float")
        arr = np.array([complex(v) if kind == "complex" else float(v)
                        for v in arr])

    q_factors = []
    applied_factors = False
    escalations = 0
    for stage in range(cfg.max_pure_power + 1):
        ns_tail, tail = sequence_tail(arr)
        variation = relative_spread(tail)
        fit = fit_limit_array(ns_tail, tail)
        scale = max(1.0, abs(complex(fit.limit)))
        if (variation <= cfg.detect_tolerance
                or fit.residual_rms <= cfg.detect_tolerance * scale):
            # the first failed stage sets applied_factors, so any escalated
            # result is reported generalised, pure averaging included
            mech = ("generalised" if (removed or applied_factors)
                    else "classical")
            q_used = (build_regular_polynomial(q_factors, escalations)
                      if (q_factors or escalations) else None)
            return CesaroResult(
                limit=_maybe_snap(fit.limit, cfg), mechanism=mech,
                q_used=q_used, removed_terms=tuple(removed),
                diagnostics={"horizon": n_max, "variation": variation,
                             "stderr": fit.stderr, "escalations": escalations})
        if not applied_factors:
            applied_factors = True
            for _, e in factor_terms:
                if abs(complex(e)) <= SNAP_RADIUS:
                    continue
                lam = 1 / (e + 1)
                if abs(complex(lam) - 1) <= SNAP_RADIUS:
                    continue
                q_factors.append((lam, 1))
                lam_n = complex(lam) if kind == "complex" else float(
                    complex(lam).real)
                arr = (apply_P_D(arr) - lam_n * arr) / (1 - lam_n)
            if q_factors:
                continue
        arr = apply_P_D(arr)
        escalations += 1
    raise NotConvergentError(
        "discrete escalation exhausted", diagnostics={"horizon": n_max})
