"""Limit drivers: classical, strong (pure averaging), and generalised.

A generalised limit is the classical limit of q(A)[f] for a regular
polynomial q in the averaging operator.  Every driver here accepts a
classical limit by one rule, _convergence_gate on tail samples, reads the
value off the tail-model fit, and records which divergent terms were
removed so callers can distinguish strong from generalised convergence.

The closed-form limit tables for the mixed coordinates k^delta * alpha^r and
x^delta * alpha^r (k the integer part, alpha the fractional part) live here
too, together with the discrete driver built on the running-average
operator and its asymptotic eigensequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import mpmath
import numpy as np

from .config import (DEFAULT_CONFIG, DETECT_TOLERANCE, LEDGER_FLOOR,
                     LimitConfig, SNAP_RADIUS, SWING_PERSISTENCE,
                     SWING_TOLERANCE)
from .errors import NotConvergentError, is_pole
from .operators import (RegularPolynomial, apply_P_D, apply_q_nodes,
                        average_pass, build_regular_polynomial)
from .asymptotics import (AsymptoticExpansion, divergent_exponent,
                          eigensequence_ladder, invert_to_x_expansion,
                          peel_ladder, synthesize_annihilator)
from .seqfun import PiecewiseFn
from .tailfit import (_window_means, _window_sequence, _window_values,
                      fit_limit_array, relative_spread, snap_to_rational)

__all__ = [
    "CesaroResult",
    "classical_limit",
    "strong_cesaro_limit",
    "cesaro_limit",
    "clim_k_alpha",
    "clim_x_alpha",
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
    diagnostics["gate"] is the _convergence_gate exit that accepted, or
    "exact" for a constant exact discrete residual, or None for a pole.
    """

    limit: object
    mechanism: str
    q_used: Optional[RegularPolynomial] = None
    removed_terms: tuple = ()
    diagnostics: dict = field(default_factory=dict)


def _maybe_snap(value, cfg: LimitConfig):
    if not cfg.exact_mode or is_pole(value):
        return value
    snapped = snap_to_rational(value, tol=EXACT_SNAP_TOL)
    return snapped if snapped is not None else value


def classical_limit(f: PiecewiseFn, cfg: LimitConfig = DEFAULT_CONFIG):
    """Classical limit at infinity, or NotConvergentError.

    Only the variation exit of _convergence_gate accepts here; its fit exit
    is a second chance for averaged functions.  The value is the gate's fit.
    """
    rows = f.node_values(cfg.horizon)
    gate, variation, fit = _convergence_gate(
        *_window_means(rows), _window_values(rows))
    if gate != "variation":
        raise NotConvergentError(
            "tail spread or swing above threshold",
            diagnostics={"variation": variation, "horizon": cfg.horizon})
    return _maybe_snap(fit.limit, cfg)


def _convergence_gate(xs, ys, nodes=None, extras: Sequence[tuple] = ()):
    """The one acceptance rule: (exit, variation, fit) for tail samples.

    (xs, ys), the fitted samples, are a function's cell means or a sequence
    over the last decade; nodes are a function's raw (xs, ys) there, and
    extras the (exponent, log power) terms the tail model adds.  Either xs
    may be a TailDesign, as the window helpers of tailfit give.  exit is
    "variation", "fit" or None.  A swing that has not decayed rejects
    (SWING_TOLERANCE).  The fit exit is a second chance for a spread the
    decaying model explains: a divergence leaves a residual, cell means can
    be steady while the nodes swing, and a ln x column probes for a log a
    large constant would hide.  x^rho content, -1 < Re rho < 0, passes it
    biased: over one decade the constant column absorbs part of it.
    """
    fit = fit_limit_array(xs, ys, extras)
    scale = max(1.0, abs(complex(fit.limit)))
    variation = relative_spread(ys if nodes is None else nodes[1])
    m = max(2, len(ys) // 10)           # a tenth of the window at each end
    early, late = (float(np.sqrt(np.mean(np.abs(np.diff(ys[part])) ** 2)))
                   for part in (slice(None, m), slice(-m, None)))
    if late >= SWING_PERSISTENCE * early and late > SWING_TOLERANCE * scale:
        return None, variation, fit
    if variation <= DETECT_TOLERANCE:
        return "variation", variation, fit
    tol = DETECT_TOLERANCE * scale
    if fit.residual_rms > tol or nodes is not None and fit_limit_array(
            *nodes, extras).residual_rms > tol:
        return None, variation, fit
    probe = fit_limit_array(xs, ys, [(0, 1), *extras])
    return ("fit" if abs(probe.coefficients[0, 1]) <= tol else None,
            variation, fit)


def strong_cesaro_limit(f: PiecewiseFn,
                        cfg: LimitConfig = DEFAULT_CONFIG) -> CesaroResult:
    """Escalate pure averaging powers until the result converges classically."""
    return cesaro_limit(f, None, cfg)


def _residual_ladder(expansion: AsymptoticExpansion) -> list:
    """Decaying (exponent, log power) terms expected in the residual after
    annihilation."""
    extras = []
    for t in expansion.terms:
        e = complex(t.exponent)
        j = 1
        while e.real - j > -3 and j <= 4:
            down = t.exponent - j
            if complex(down).real < -0.05:
                extras.append((down, 0))
            j += 1
    return extras


def cesaro_limit(f: PiecewiseFn,
                 expansion: Optional[AsymptoticExpansion] = None,
                 cfg: LimitConfig = DEFAULT_CONFIG) -> CesaroResult:
    """Generalised limit: annihilate the expansion's divergences, then average.

    With no expansion this is the strong driver.  A pure-log or constant
    eigencomponent in the expansion yields a pole outcome rather than a
    value.  The known constant part of the expansion is genuine limit
    content and is not removed.  Each level is one array of node rows; the
    first pass allocates it, so f's rows are never written, and each later
    level is averaged into it in place.
    """
    q, extras, removed = None, (), ()
    if expansion is not None and expansion.terms:
        if expansion.variable == "k":
            expansion = invert_to_x_expansion(expansion)
        q, removed = synthesize_annihilator(expansion), expansion.terms
        if is_pole(q):
            return CesaroResult(limit=q, mechanism="pole",
                                removed_terms=removed,
                                diagnostics={"gate": None})
        extras = _residual_ladder(expansion)
    rows, step = f.node_values(cfg.horizon), f.kind == "step"
    if q is not None and q.degree:
        rows, step = apply_q_nodes(q, rows, step), False
    for r in range(cfg.max_pure_power + 1):
        if r:
            rows, step = average_pass(
                rows, step, out=rows if r > 1 else None), False
        gate, variation, fit = _convergence_gate(
            *_window_means(rows), _window_values(rows), extras)
        if gate:
            strong = "classical" if r == 0 else f"strong({r})"
            return CesaroResult(
                limit=_maybe_snap(fit.limit, cfg),
                mechanism=strong if q is None else "generalised",
                q_used=None if q is None else build_regular_polynomial(
                    q.factors, q.pure_power + r),
                removed_terms=removed,
                diagnostics={"horizon": cfg.horizon, "variation": variation,
                             "stderr": fit.stderr, "escalations": r,
                             "gate": gate})
    if q is None:
        raise NotConvergentError(
            f"no classical limit within {cfg.max_pure_power} averagings",
            diagnostics={"horizon": cfg.horizon})
    raise NotConvergentError(
        "annihilation plus escalation did not reach classical convergence",
        diagnostics={"horizon": cfg.horizon, "q": q.describe()})


def _near_nonneg_int(value) -> Optional[int]:
    v = complex(value)
    n = round(v.real)
    if n >= 0 and abs(v - n) <= SNAP_RADIUS:
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


def _gamma_ratio_values(rho, n_max: int):
    """Gamma(n)/Gamma(n-rho), n = 1..n_max: the falling factorial exactly
    for an int rho, scipy's poch for a real double, and for a complex one
    the recurrence r_{n+1} = r_n n/(n-rho) from r_1 = 1/Gamma(1-rho), as a
    cumulative product.

    The exact eigensequence for exponent rho: its running average is
    itself/(rho+1) plus a boundary term proportional to 1/n that vanishes
    at integer rho.
    """
    if isinstance(rho, int):
        return [math.perm(n - 1, rho) for n in range(1, n_max + 1)]
    from scipy.special import poch, rgamma
    rc = complex(rho)
    if rc.imag:
        ns = np.arange(1, n_max, dtype=float)
        return np.cumprod(np.concatenate(([rgamma(1 - rc)], ns / (ns - rc))))
    return poch(np.arange(1, n_max + 1, dtype=float) - rc.real, rc.real)


#: bits of fixed-point input beyond the working precision
GUARD_BITS = 16


class Fixed(NamedTuple):
    """The sequence (re[k] + i im[k]) / 2^bits, re and im int sequences."""
    re: Sequence
    im: Sequence
    bits: int


def _fixed(x, bits: int) -> tuple:
    """x * 2^bits as (re, im) ints, floored; x any number mpmath takes."""
    x = mpmath.mpmathify(x)
    parts = x._mpc_ if isinstance(x, mpmath.mpc) else (x._mpf_,
                                                         mpmath.libmp.fzero)
    return tuple(mpmath.libmp.to_fixed(p, bits) for p in parts)


def _gamma_ratio_fixed(rho, n_max: int, bits: int) -> tuple:
    """Gamma(n)/Gamma(n-rho), n = 1..n_max, rho no nonnegative integer, as
    (re, im) object arrays of ints scaled by 2^bits: r_{n+1} = r_n n/(n-rho)
    from r_1 = 1/Gamma(1-rho) at the working precision, each step floored."""
    (r, r_im), (a, b) = _fixed(mpmath.rgamma(1 - rho), bits), _fixed(rho, bits)
    if not b and not r_im:
        out = [r] + [r := (r * n << bits) // ((n << bits) - a)
                     for n in range(1, n_max)]
        return np.array(out, dtype=object), np.zeros(n_max, dtype=object)
    out, bb = [(r, r_im)], b * b
    for n in range(1, n_max):
        d = (n << bits) - a             # n - rho = (d - i b) / 2^bits
        q = d * d + bb
        r, r_im = (((r * d - r_im * b) * n << bits) // q,
                   ((r * b + r_im * d) * n << bits) // q)
        out.append((r, r_im))
    return tuple(np.array(part, dtype=object) for part in zip(*out))


def _peel_fixed(re, im, removed, bits: int, scaled) -> tuple:
    """re + i im minus c Gamma(n)/Gamma(n-rho) for each removed (c, rho),
    on object arrays of ints; scaled(c) is c as (re, im) at their scale,
    and each g_rho is scaled by 2^bits.  As g_{rho-1} = g_rho/(n - rho),
    a unit-gap chain e_0, ..., e_m sums to g_{e_m} P(n), P = c_m +
    (n - e_{m-1})(... + (n - e_0) c_0): P's coefficients, at twice the
    precision and rounded once, give P(n) exactly by Horner's rule in n.
    A chain ending at a nonnegative integer runs on to rung 0, g_0 = 1,
    and stays exact; only other bottoms run _gamma_ratio_fixed."""
    chains = []
    for c, e in removed:
        if not chains or e != chains[-1][-1][1] - 1:
            chains.append([])
        chains[-1].append((c, e))
    n = np.arange(1, len(re) + 1, dtype=object)
    for chain in chains:
        bottom = chain[-1][1]
        if (k := _near_nonneg_int(bottom)) is not None:
            chain = [(c, k + len(chain) - 1 - i) for i, (c, _) in
                     enumerate(chain + [(0, 0)] * k)]
        with mpmath.extraprec(bits):
            poly = [chain[0][0]]        # highest power of n first
            for (c, _), (_, e) in zip(chain[1:], chain):
                poly = [x - e * y for x, y in zip(poly + [0], [0] + poly)]
                poly[-1] += c
        (h_re, h_im), *rest = [scaled(x) for x in poly]
        real = not complex(bottom).imag and not h_im and not any(
            x_im for _, x_im in rest)
        for x_re, x_im in rest:
            h_re, h_im = h_re * n + x_re, 0 if real else h_im * n + x_im
        if k is None:
            g_re, g_im = _gamma_ratio_fixed(bottom, len(re), bits)
            h_re, h_im = ((h_re * g_re >> bits, 0) if real else
                          (h_re * g_re - h_im * g_im >> bits,
                           h_re * g_im + h_im * g_re >> bits))
        re, im = re - h_re, im if real else im - h_im
    return re, im


def _minus(arr, c, seq, kind: str):
    """arr - c*seq in doubles, c and seq cast to the kind of arr."""
    if kind == "float":
        return arr - float(complex(c).real) * np.real(seq)
    return arr - complex(c) * seq.astype(complex)


def _discrete_exact(arr, scale: int, removed,
                    cfg: LimitConfig) -> Optional[CesaroResult]:
    """The limit of an exact residual, ints over scale, whose last decade
    is one constant, as it is for polynomial input; None otherwise."""
    tail = arr[max(1, len(arr) // 10):]
    if any(v != tail[0] for v in tail):
        return None
    limit = Fraction(tail[0], scale)
    return CesaroResult(
        limit=limit if cfg.exact_mode else float(limit),
        mechanism="generalised" if removed else "classical",
        removed_terms=tuple(removed),
        diagnostics={"horizon": len(arr), "variation": 0.0, "exact": True,
                     "gate": "exact"})


def cesaro_limit_discrete(a, eigendecomposition: Sequence[tuple],
                          cfg: LimitConfig = DEFAULT_CONFIG) -> CesaroResult:
    """Discrete generalised limit of a sequence a_1, a_2, ...

    eigendecomposition lists (coeff, rho) for the divergent power content
    of a.  Working top exponent first, the matching eigensequence
    Gamma(n)/Gamma(n-rho) is subtracted and its lower-order terms, which
    eigensequence_ladder takes from the rung above where it can, go back
    onto the pending ledger, so the bookkeeping is exact; the decaying
    content left on the ledger is subtracted outright.  Degree-zero content
    is left in place: a constant sequence is its own discrete limit, which
    is exactly how the integer-exponent anomalies show up.

    Exact and mpmath input is peeled by _peel_fixed, one Horner pass per
    unit-gap chain of rungs, in Python ints over a common scale.  Ints and
    Fractions with nonnegative integer exponents are tried exactly on at
    most 4000 entries, over the lcm of the entries' and coefficients'
    denominators; if the residual does not close there, the input runs as
    float input.  mpmath entries are scaled by 2^(mp.prec + GUARD_BITS),
    and a Fixed sequence comes scaled already; the peel runs at the
    working precision the cancellation needs, and its bounded residual is
    rounded once to doubles.  Float and complex input is peeled in
    doubles.  The decaying ledger is subtracted in doubles, and the
    residual is judged by _convergence_gate; if its tail fails,
    annihilating factors over the running-average operator are applied and
    escalated.
    """
    n_max = cfg.horizon
    if isinstance(a, Fixed):
        vals, types, n_max = None, {Fixed}, min(n_max, len(a.re))
    elif isinstance(a, np.ndarray) and a.dtype.kind in "fc":
        vals, types, n_max = a[:n_max], {a.dtype.type}, min(n_max, len(a))
    else:
        vals = ([a(n) for n in range(1, n_max + 1)] if callable(a)
                else list(a)[:n_max])
        n_max, types = len(vals), set(map(type, vals))
    if n_max < 100:
        raise ValueError("need at least 100 sequence entries")
    pending = list(eigendecomposition)
    if (all(issubclass(t, (int, Fraction)) for t in types)
            and all(isinstance(c, (int, Fraction))
                    and isinstance(e, (int, Fraction))
                    and Fraction(e).denominator == 1 and e >= 0
                    for c, e in pending)):
        removed, _ = peel_ladder([(Fraction(c), int(e)) for c, e in pending],
                                 divergent_exponent, eigensequence_ladder())
        cut = vals[:4000]
        scale = math.lcm(*(v.denominator for v in cut),
                         *(c.denominator for c, _ in removed))
        re, _ = _peel_fixed(
            np.array([v.numerator * (scale // v.denominator) for v in cut],
                     dtype=object),
            np.zeros(len(cut), dtype=object), removed, 0,
            lambda c: (int(c * scale), 0))
        return _discrete_exact(re, scale, removed, cfg) or (
            cesaro_limit_discrete([float(v) for v in vals],
                                  eigendecomposition, cfg))
    if any(issubclass(t, (mpmath.mpf, mpmath.mpc)) for t in types):
        bits = mpmath.mp.prec + GUARD_BITS
        a = Fixed(*zip(*(_fixed(v, bits) for v in vals)), bits)
    if isinstance(a, Fixed):
        removed, pending = peel_ladder(
            [(mpmath.mpmathify(c), mpmath.mpmathify(e)) for c, e in pending],
            divergent_exponent, eigensequence_ladder())
        re, im = (part / (1 << a.bits) for part in _peel_fixed(
            *(np.array(part[:n_max], dtype=object) for part in a[:2]),
            removed, a.bits, lambda c: _fixed(c, a.bits)))
        kind = "complex" if any(im) else "float"
        arr = (re + 1j * im if kind == "complex" else re).astype(kind)
        del a, vals, re, im     # keep one set of the entries alive
    else:
        kind = "complex" if any(issubclass(t, complex) for t in types) else (
            "float")
        arr = np.asarray(vals, dtype=complex if kind == "complex" else float)
        del vals
        removed, pending = peel_ladder(pending, divergent_exponent,
                                       eigensequence_ladder())
        for c, e in removed:
            n_int = _near_nonneg_int(e)
            arr = _minus(arr, c, _gamma_ratio_values(
                complex(e if n_int is None else n_int), n_max), kind)
    # decaying content left on the ledger has exactly known coefficients,
    # so subtract it outright: a slowly decaying power like n^{-1/2} is far
    # too collinear with the constant over one decade to be fitted instead
    ns = np.arange(1, n_max + 1, dtype=float)
    for c, e in pending:
        er = complex(e).real
        if LEDGER_FLOOR < er < -SNAP_RADIUS:
            powers = (ns ** er if kind == "float"
                      else ns.astype(complex) ** complex(e))
            arr = _minus(arr, c, powers, kind)

    q_factors, applied_factors, escalations = [], False, 0
    for stage in range(cfg.max_pure_power + 1):
        gate, variation, fit = _convergence_gate(*_window_sequence(arr))
        if gate:
            mech = ("generalised" if removed or q_factors else
                    f"strong({escalations})" if escalations else "classical")
            q_used = (build_regular_polynomial(q_factors, escalations)
                      if (q_factors or escalations) else None)
            return CesaroResult(
                limit=_maybe_snap(fit.limit, cfg), mechanism=mech,
                q_used=q_used, removed_terms=tuple(removed),
                diagnostics={"horizon": n_max, "variation": variation,
                             "stderr": fit.stderr, "escalations": escalations,
                             "gate": gate})
        if not applied_factors:
            applied_factors = True
            for _, e in removed:
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
