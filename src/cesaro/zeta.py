"""Constructive continuation of the zeta and eta Dirichlet series.

The p-sum of sum n^{-s} has the divergence model k^{1-s}/(1-s) + known
lower-order corrections plus an unknown constant; that constant IS the
continued value.  Two independent routes compute it:

  (a) constant extraction: subtract the truncated correction formula from
      the exact partial sums at moderate k (high-precision arithmetic, the
      truncation error is the first omitted correction term);
  (b) averaging: subtract the single divergent x-power analytically and
      drive the remainder with pure averaging on a fixed grid of cells,
      in double-double arithmetic (cesaro.dd), not in mpmath.

Route (a) is the precision workhorse, route (b) the structural validator;
they must agree or the evaluation raises, never guesses.

The discrete-operator variant hands the p-sums and their divergence model
to the one discrete driver, climits.cesaro_limit_discrete, which peels the
model's eigensequences in the arithmetic of the p-sums: exact integers at
nonpositive integer s, mpmath numbers of at least 30 digits below
Re(s) = -0.5, doubles elsewhere.  Once the divergences are peeled the
residual is a constant plus decaying terms, so an mpmath residual is
rounded once to doubles, where the decaying terms are subtracted and the
limit is fitted.  It goes anomalous at nonpositive integer s, where the
p-sum is a polynomial whose every power carries discrete limit 1; the
corrected evaluation recovers the true value by differentiating the
factored annihilator at the anomaly (a L'Hopital computation in s at fixed
index, then the limit in the index), in exact rationals and fixed-point
integers.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
import numpy as np

from . import dd
from .asymptotics import bernoulli, zeta_psum_expansion
from .climits import (cesaro_limit_discrete, strong_cesaro_limit,
                      _gamma_ratio_values, _near_nonneg_int)
from .config import DEFAULT_CONFIG, LimitConfig, SNAP_RADIUS
from .dd import DDArray
from .errors import (CrossCheckMismatchError, FitFailureError,
                     LambdaIsOneError, MissingDerivativeTermError,
                     NonIntegerRhoError, PoleSignal, SAtPoleError, is_pole)
from .operators import average_nodes, average_pass, build_regular_polynomial
from .seqfun import NODES, WEIGHTS, SeriesTerms, n_pow_minus_s, psum_function
from .tailfit import (fit_limit, fit_limit_array, sequence_tail,
                      snap_to_rational)

__all__ = [
    "ZetaEvaluation",
    "FaulhaberPoly",
    "zeta",
    "zeta_residue_at_1",
    "eta",
    "zeta_discrete_ext",
    "zeta_discrete_corrected",
    "faulhaber",
    "zeta_integral_rep",
    "discrete_eigensequence",
]


@dataclass(frozen=True)
class ZetaEvaluation:
    s: object
    value: object
    path: str
    q_used: object = None
    C_constant: object = None
    anomaly: bool = False
    diagnostics: dict = field(default_factory=dict)

    @property
    def is_pole(self) -> bool:
        return is_pole(self.value)


# ---------------------------------------------------------------------------
# Faulhaber polynomials and the integral representation

@dataclass(frozen=True)
class FaulhaberPoly:
    """p_m(k) = 1^m + 2^m + ... + k^m as exact rational coefficients.

    coefficients[j] multiplies k^j; coefficients[0] is always 0.
    """

    m: int
    coefficients: tuple

    def __call__(self, k):
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * k + c
        return acc

    def integral(self, a: Fraction, b: Fraction) -> Fraction:
        total = Fraction(0)
        for j, c in enumerate(self.coefficients):
            if c:
                total += Fraction(c, j + 1) * (b ** (j + 1) - a ** (j + 1))
        return total


_FAULHABER_CACHE: dict = {}


def faulhaber(m: int) -> FaulhaberPoly:
    """Exact power-sum polynomial via the Bernoulli closed form.

    Uses the B_1 = +1/2 sign variant (B_j -> (-1)^j B_j), which is the one
    matching forward summation from 1; the result is verified against
    direct summation on construction.
    """
    if m < 0 or m > 40:
        raise ValueError("supported range is 0 <= m <= 40")
    if m in _FAULHABER_CACHE:
        return _FAULHABER_CACHE[m]
    coeffs = [Fraction(0)] * (m + 2)
    for j in range(m + 1):
        bj = bernoulli(j) * (-1) ** j
        if bj == 0:
            continue
        coeffs[m + 1 - j] += Fraction(math.comb(m + 1, j), m + 1) * bj
    poly = FaulhaberPoly(m, tuple(coeffs))
    acc = Fraction(0)
    for k in range(1, 8):
        acc += Fraction(k) ** m
        if poly(Fraction(k)) != acc:
            raise CrossCheckMismatchError(
                f"power-sum polynomial failed self-check at m={m}")
    _FAULHABER_CACHE[m] = poly
    return poly


def zeta_integral_rep(s0: int) -> Fraction:
    """Exact rational value of the power-sum polynomial integrated over
    [-1, 0]; equals the continuation at nonpositive integer arguments."""
    if s0 > 0:
        raise ValueError("defined for integer s0 <= 0")
    return faulhaber(-s0).integral(Fraction(-1), Fraction(0))


# ---------------------------------------------------------------------------
# Route (a): constant extraction at high precision

#: route (a)'s direct terms, Euler-Maclaurin order and working digits
ROUTE_A_TERMS, ROUTE_A_ORDER, ROUTE_A_DPS = 400, 12, 40


def _psum_constant_mp(s):
    """Unknown constant of the p-sum model, by high-precision subtraction.

    Computes sum_{n<=K} n^{-s}, K = ROUTE_A_TERMS, minus the p-sum model
    evaluated at K, both at working precision; the truncation error is on
    the order of the first omitted Bernoulli term, reported as a
    diagnostic bound.
    """
    with mpmath.workdps(ROUTE_A_DPS):
        sc = mpmath.mpmathify(complex(s)) if complex(s).imag else mpmath.mpf(
            complex(s).real)
        total = mpmath.mpf(0)
        for n in range(1, ROUTE_A_TERMS + 1):
            total += mpmath.power(n, -sc)
        k = mpmath.mpf(ROUTE_A_TERMS)
        model = zeta_psum_expansion(sc, ROUTE_A_ORDER)
        C = total - model.evaluate(k)
        err = float(abs(model.terms[-1].evaluate(k)))
        if abs(complex(s).imag) > 0:
            return complex(C), err
        return float(mpmath.re(C)), err


def _exact_constant(s0: int):
    """Exact rational constant for integer s0 <= 0: partial sums are the
    power-sum polynomial, so the subtraction closes in rational arithmetic."""
    exp = zeta_psum_expansion(s0)
    k = 24
    direct = sum(Fraction(n) ** (-s0) for n in range(1, k + 1))
    return direct - exp.evaluate(Fraction(k))


# ---------------------------------------------------------------------------
# Route (b): subtract the x-divergence, average the remainder

#: cells of route (b)'s node grid, the same for every s: float p-sums over
#: 10^5 cells lose about 1e-6 to rounding, over 1000 cells about 1e-8
ROUTE_B_CELLS = 1000


@functools.cache
def _route_b_logs():
    """ln n for n = 1..ROUTE_B_CELLS and ln x at the nodes x = k + a, in
    double-double; the same for every s.  x is exact by TwoSum."""
    ln_n = dd.log(DDArray(np.arange(1.0, ROUTE_B_CELLS + 1), 0.0))
    ln_x = dd.log(DDArray(np.arange(float(ROUTE_B_CELLS))[:, None], 0.0)
                  + DDArray(NODES, 0.0))
    return ln_n, ln_x


def _route_b_mp(s) -> list:
    """Route (b)'s node values in double-double, for Re(s) < -0.3.

    The subtraction p-sum minus x^{1-s}/(1-s) cancels ~|1-Re(s)| leading
    digits pointwise, which exhausts double precision once Re(s) < -1, so
    each value is made in double-double (about 32 digits) with dd.exp and
    dd.log: x^{1-s} is exp((1-s) ln x) with 1 - s exact, n^{-s} is
    exp(-s ln n), and the p-sum is their exclusive prefix sum.  No mpmath
    is used; the name is that of the mpmath build this replaced, kept so
    that perfbench's tracer still times the build as zeta.route_b_mp_s.
    Returns the real part, and the imaginary part for complex s, as
    (cells, nodes) DDArrays.
    """
    sc = complex(s)
    g_re, g_im = 1 - Fraction(sc.real), -Fraction(sc.imag)     # g = 1 - s
    g_abs2 = g_re * g_re + g_im * g_im
    inv_re, inv_im = (DDArray.from_fraction(q / g_abs2)       # 1/g
                      for q in (g_re, -g_im))
    ln_n, ln_x = _route_b_logs()
    gx_re = ln_x * DDArray.from_fraction(g_re)
    if not sc.imag:
        psum = dd.exp(ln_n * -sc.real).exclusive_cumsum()
        return [psum[:, None] - dd.exp(gx_re) * inv_re]
    p_re, p_im = [p.exclusive_cumsum()[:, None]
                  for p in dd.exp(ln_n * -sc.real, ln_n * -sc.imag)]
    w_re, w_im = dd.exp(gx_re, ln_x * -sc.imag)
    return [p_re - (w_re * inv_re - w_im * inv_im),
            p_im - (w_re * inv_im + w_im * inv_re)]


def _route_b(s):
    """Route (b): average p-sum - x^{1-s}/(1-s) r = floor(-Re s) + 1 times
    and fit the limit on the last decade of cells.

    The node values come in doubles or, below Re(s) = -0.3, in
    double-double from _route_b_mp; the passes run in double-double either
    way.  Every pass is real-linear with real coefficients, so complex s
    runs them on the real and imaginary parts.
    """
    sc = complex(s)
    r = int(math.floor(-sc.real)) + 1
    if sc.real < -0.3:
        parts = _route_b_mp(sc)
    else:
        s_num, dtype = (sc, complex) if sc.imag else (sc.real, float)
        ns = np.arange(1, ROUTE_B_CELLS, dtype=dtype)
        xs = np.arange(ROUTE_B_CELLS, dtype=dtype)[:, None] + NODES
        psum = np.concatenate([[0.0], np.cumsum(ns ** -s_num)])
        vals = psum[:, None] - xs ** (1 - s_num) / (1 - s_num)
        parts = [vals.real, vals.imag] if sc.imag else [vals]
        parts = [DDArray(v, np.zeros_like(v)) for v in parts]
    means = []
    for dd in parts:
        for _ in range(r):
            dd = average_nodes(dd, (dd @ WEIGHTS).exclusive_cumsum())
        means.append((dd @ WEIGHTS).to_float())
    ys = means[0] + 1j * means[1] if sc.imag else means[0]
    xs = np.arange(ROUTE_B_CELLS, dtype=float) + 0.5
    lo = ROUTE_B_CELLS // 10
    extras = [(e if sc.imag else e.real, 0)
              for e in (-sc - j for j in range(8)) if -4 < e.real < -0.05]
    fit = fit_limit_array(xs[lo:], ys[lo:], extras)
    return fit, r


#: agreement window of the two routes for Re(s) >= -1
CROSS_CHECK_TOL = 1e-6


def _route_b_tol(s) -> float:
    """Honest agreement tolerance for the averaging validator.

    The averaged residual after subtracting the leading power carries
    oscillatory content of scale x^{-Re(s)}; each unit deeper into Re(s) < 0
    costs roughly a decade of attainable accuracy at a fixed horizon, so the
    cross-check window widens with depth instead of pretending otherwise.
    """
    depth = max(0.0, -complex(s).real - 1.0)
    return CROSS_CHECK_TOL * 10.0 ** depth


def _report_annihilator(s, r: int):
    lam = 1 / (2 - s)
    try:
        return build_regular_polynomial([(lam, 1)], pure_power=r)
    except LambdaIsOneError:
        return None


def zeta(s, cfg: LimitConfig = DEFAULT_CONFIG) -> ZetaEvaluation:
    """Continuation of sum n^{-s} with dual-route cross-checking.

    Inside Re(s) > 1 the series converges and route (a) is just an
    accelerated tail; elsewhere the two routes are genuinely independent
    and a disagreement beyond tolerance raises instead of returning.
    At s = 1 the outcome is a pole signal carrying residue 1.
    """
    sc = complex(s)
    if abs(sc - 1) <= SNAP_RADIUS:
        return ZetaEvaluation(
            s=s, value=PoleSignal(origin="dirichlet-series", log_power=1,
                                  residue=1), path="pole")
    s0 = _near_nonneg_int(-sc)
    if s0 is not None:
        s_int = -s0
        value = _exact_constant(s_int)
        fit_b, r = _route_b(s_int)
        if abs(complex(fit_b.limit) - complex(value)) > _route_b_tol(s_int):
            raise CrossCheckMismatchError(
                f"continuation routes disagree at s={s}",
                value_a=value, value_b=fit_b.limit)
        out = value if cfg.exact_mode else float(value)
        return ZetaEvaluation(
            s=s, value=out, path="continuous-cesaro",
            q_used=_report_annihilator(s_int, r), C_constant=out,
            diagnostics={"route_b": complex(fit_b.limit),
                         "route_b_stderr": fit_b.stderr})
    C, trunc_err = _psum_constant_mp(sc if sc.imag else sc.real)
    if sc.real > 1:
        return ZetaEvaluation(s=s, value=C, path="classical-sum",
                              C_constant=C,
                              diagnostics={"truncation": trunc_err})
    fit_b, r = _route_b(s)
    tol = max(_route_b_tol(sc), 30 * fit_b.stderr, 10 * trunc_err)
    if abs(complex(fit_b.limit) - complex(C)) > tol:
        raise CrossCheckMismatchError(
            f"continuation routes disagree at s={s}",
            value_a=C, value_b=fit_b.limit)
    value = C
    if cfg.exact_mode:
        snapped = snap_to_rational(C, tol=1e-12)
        if snapped is not None:
            value = snapped
    return ZetaEvaluation(
        s=s, value=value, path="continuous-cesaro",
        q_used=_report_annihilator(sc if sc.imag else sc.real, r),
        C_constant=C,
        diagnostics={"route_b": complex(fit_b.limit),
                     "route_b_stderr": fit_b.stderr,
                     "truncation": trunc_err})


def zeta_residue_at_1(cfg: LimitConfig = DEFAULT_CONFIG):
    """Residue at the pole: limit of -(A - 1)[p-sum of the harmonic series].

    The harmonic p-sum grows like ln x + gamma; averaging shifts the log
    by exactly -1 and fixes the rest, so the difference tends to -1 and
    the residue to 1.
    """
    rows = psum_function(n_pow_minus_s(1.0)).node_values(cfg.horizon)
    return fit_limit(rows - average_pass(rows, step=True)).limit


def eta(s, cfg: LimitConfig = DEFAULT_CONFIG):
    """Alternating series by pure averaging: no divergences are removed.

    strong_cesaro_limit escalates up to cfg.max_pure_power averagings of the
    p-sum function (6 by default).  That budget does not reach every s: at
    s = -3.5 no classical limit appears within it and NotConvergentError is
    raised.
    """
    sc = complex(s)
    terms = SeriesTerms(
        lambda n: (1 if n % 2 else -1) * (n ** (-sc) if sc.imag
                                          else float(n) ** (-sc.real)),
        label=f"alternating({s})")
    result = strong_cesaro_limit(psum_function(terms), cfg)
    return result.limit


# ---------------------------------------------------------------------------
# Discrete framework

#: fractional bits of zeta_discrete_corrected's fixed-point u branch; its
#: values reach horizon^{1-s0} ln(horizon), about 2^110 at s0 = -8, and as
#: ints keep all of these bits at any size
U_BITS = 128


def _psum_content(s) -> list:
    """The p-sum's divergence model as (coeff, exponent), arithmetic of s."""
    return [(t.coeff, t.exponent) for t in zeta_psum_expansion(s).terms]


#: p-sums of the mpmath discrete evaluation
EXT_MP_HORIZON = 4000


def _ext_mp(s, cfg: LimitConfig):
    """The discrete evaluation on mpmath p-sums, for deep Re(s) < 0.

    The subtraction cancels ~|1-Re(s)| leading digits of the p-sum, so
    exponents need working precision as much as coefficients do: a double
    holds 1-s only to ~1e-16, and at n = 4000 that error times ln n times
    a p-sum of ~1e14 is an error of order 1 in the value.  So the p-sums
    and the model are built at an mpmath s, and the discrete driver peels
    the divergent eigensequences in that arithmetic, at the same working
    precision; the bounded residual it leaves is rounded once to doubles.
    The p-sum reaches EXT_MP_HORIZON^{1-Re s}, so the precision grows with
    depth to keep 15 digits after the cancellation, and is never below 30.
    """
    sc = complex(s)
    dps = max(30, math.ceil(15 + (1 - sc.real) * math.log10(EXT_MP_HORIZON)))
    with mpmath.workdps(dps):
        smp = mpmath.mpmathify(sc) if sc.imag else mpmath.mpf(sc.real)
        psums = itertools.accumulate(
            mpmath.power(n, -smp) for n in range(1, EXT_MP_HORIZON + 1))
        return cesaro_limit_discrete(psums, _psum_content(smp),
                                     cfg.with_(horizon=EXT_MP_HORIZON))


def zeta_discrete_ext(s, cfg: LimitConfig = DEFAULT_CONFIG) -> ZetaEvaluation:
    """Discrete-operator evaluation; anomalous at nonpositive integers.

    Only the arithmetic of the p-sums is chosen here (see the module
    docstring).  At integer s <= 0 the p-sum is a polynomial in the index;
    every power has discrete limit 1, so the value collapses to the
    polynomial at 1, which is always 1.  The anomaly flag marks these points.
    """
    sc = complex(s)
    if abs(sc - 1) <= SNAP_RADIUS:
        raise SAtPoleError("the discrete evaluation shares the pole at s = 1")
    s0 = _near_nonneg_int(-sc)
    anomaly = s0 is not None
    horizon = min(cfg.horizon, 10**5)
    if not anomaly and sc.real < -0.5:
        result = _ext_mp(s, cfg)
    else:
        if anomaly:
            s_num = -s0
            psums = itertools.accumulate(
                n ** s0 for n in range(1, min(horizon, 4000) + 1))
        else:
            s_num = sc if sc.imag else sc.real
            psums = n_pow_minus_s(s_num).psum_array(horizon)[1:]
        result = cesaro_limit_discrete(psums, _psum_content(s_num),
                                       cfg.with_(horizon=horizon))
    value = result.limit
    if anomaly:
        snapped = snap_to_rational(value, tol=1e-6)
        value = snapped if snapped is not None else value
        if value != 1:
            raise CrossCheckMismatchError(
                f"integer-point evaluation expected the anomalous value 1, "
                f"got {value}")
        value = Fraction(1) if cfg.exact_mode else 1.0
    return ZetaEvaluation(s=s, value=value, path="discrete-cesaro",
                          q_used=result.q_used, anomaly=anomaly,
                          diagnostics=result.diagnostics)


def _binomial_coefficients(poly: FaulhaberPoly) -> list:
    """Coefficients a_j of p(k) = sum_j a_j C(k-1, j), j = 0..deg p.

    a_j is the j-th forward difference of p at k = 1 (Newton's form).
    """
    diffs = [poly(k) for k in range(1, len(poly.coefficients) + 1)]
    coeffs = []
    while diffs:
        coeffs.append(diffs[0])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return coeffs


def _pd_exact(coeffs) -> list:
    """P_D on sum_j a_j C(k-1, j): the eigenvalue diagonal a_j/(j+1)."""
    return [a * Fraction(1, j + 1) for j, a in enumerate(coeffs)]


def _apply_factor_exact(coeffs, lam) -> list:
    """(P_D - lam) on a coefficient vector in the basis C(k-1, j)."""
    return [b - lam * a for a, b in zip(coeffs, _pd_exact(coeffs))]


def _apply_factor_mp(u, lam) -> list:
    """(P_D - lam) on fixed-point values, ints scaled by 2^U_BITS, lam a
    Fraction.  Both divisions floor, so a pass is off by under one unit."""
    return [acc // k - v * lam.numerator // lam.denominator
            for k, (acc, v) in enumerate(zip(itertools.accumulate(u), u), 1)]


def _log_table(horizon: int) -> list:
    """round(ln j * 2^U_BITS) for j = 1..horizon, logs taken at primes only.

    A composite j gets L_p + L_{j/p} for its least prime p, so an entry is
    off by at most half a unit per prime factor.
    """
    least = list(range(horizon + 1))        # least prime factor sieve
    for p in range(2, math.isqrt(horizon) + 1):
        if least[p] == p:
            for j in range(p * p, horizon + 1, p):
                if least[j] == j:
                    least[j] = p
    logs = [0, 0]
    with mpmath.workprec(U_BITS + 32):
        for j in range(2, horizon + 1):
            p = least[j]
            logs.append(int(mpmath.nint(mpmath.ldexp(mpmath.log(j), U_BITS)))
                        if p == j else logs[p] + logs[j // p])
    return logs[1:]


def _polynomial_branch(coeffs, lams, lam_primes, horizon: int) -> list:
    """sum_i lam_i' * prod_{l != i} (P_D - lam_l)[p] at k = 1..horizon.

    p is given by its coefficients in the basis C(k-1, j).  The running
    average maps C(k-1, j) to C(k-1, j)/(j+1), so there each factor
    (P_D - lam) is the diagonal 1/(j+1) - lam, and the whole branch is one
    coefficient vector evaluated once per k.  The full product must
    annihilate p coefficient by coefficient, which is the vanishing at
    every k that the derivative computation rests on.
    """
    full = coeffs
    for lam in lams:
        full = _apply_factor_exact(full, lam)
    if any(full):
        raise MissingDerivativeTermError(
            "factor product failed to annihilate the polynomial p-sum")
    weights = [0] * len(coeffs)
    for i, lp in enumerate(lam_primes):
        v = coeffs
        for m, lam in enumerate(lams):
            if m != i:
                v = _apply_factor_exact(v, lam)
        weights = [w + lp * x for w, x in zip(weights, v)]
    den = math.lcm(*(Fraction(w).denominator for w in weights))
    ints = [int(w * den) for w in weights]
    return [Fraction(sum(w * math.comb(k - 1, j) for j, w in enumerate(ints)),
                     den)
            for k in range(1, horizon + 1)]


def zeta_discrete_corrected(s0: int, cfg: LimitConfig = DEFAULT_CONFIG):
    """Correct the integer-point anomaly by differentiating at it.

    Writing the discrete evaluation as  lim_k A(s)[t(s)]_k / N(s)  with
    A(s) the unnormalized factor product over the exponent ladder
    1-s, -s, ..., and N(s) its normalization, both numerator and
    denominator vanish at the anomalous point (the factor product
    annihilates the polynomial p-sum exactly; that exact vanishing is
    checked on every basis coefficient, since the whole derivative
    computation is invalid without it).  One derivative in s gives

      value = -c * lim_k ( A[u]_k - sum_i lam_i' * A_without_i[p]_k )

    with u_k = -sum_{j<=k} j^{-s0} ln j the term-derivative branch,
    p the polynomial p-sum, lam_i = 1/(2-s0-i), lam_i' = lam_i^2, and
    c the reciprocal of the surviving normalization factors.  The p branch
    is exact; u runs in fixed point, ints scaled by 2^U_BITS, whose absolute
    precision does not fall as u_k grows like k^{1-s0} ln k.

    The fitted limit is snapped to a rational of denominator at most 2520.
    In exact mode that rational is returned, and FitFailureError, carrying
    the fitted value, is raised when there is none, as at s0 = -6.
    """
    if s0 != int(s0) or s0 > 0:
        raise ValueError("defined for integer s0 <= 0")
    s0 = int(s0)
    I = 1 - s0                      # ladder length: exponents 1-s0 down to 0
    lams = [Fraction(1, 2 - s0 - i) for i in range(I + 1)]
    i_star = I
    if lams[i_star] != 1:
        raise MissingDerivativeTermError("singular factor misidentified")
    c = Fraction(1)
    for i in range(I + 1):
        if i != i_star:
            c *= Fraction(2 - s0 - i, 1 - s0 - i)
    lam_primes = [lam * lam for lam in lams]

    horizon = min(cfg.horizon, 4000)
    poly_branch = _polynomial_branch(_binomial_coefficients(faulhaber(-s0)),
                                     lams, lam_primes, horizon)

    # derivative-of-terms branch in fixed point: u_k = -sum j^{-s0} ln j
    u = list(itertools.accumulate(
        -j ** -s0 * lj for j, lj in enumerate(_log_table(horizon), 1)))
    for lam in lams:
        u = _apply_factor_mp(u, lam)
    combined = [(uv - (pv.numerator << U_BITS) // pv.denominator) / 2**U_BITS
                for uv, pv in zip(u, poly_branch)]
    seq = -float(c) * np.asarray(combined)
    # each of the I+2 factor passes can add a log to the 1/k-level residual
    fit = fit_limit_array(*sequence_tail(seq),
                          [(-1, m) for m in range(2, I + 3)] + [(-2, 1)])
    value = fit.limit
    snapped = snap_to_rational(value, tol=1e-5, max_denominator=2520)
    if cfg.exact_mode:
        if snapped is None:
            raise FitFailureError(
                f"corrected value {value!r} at s = {s0} snaps to no rational "
                f"in exact mode", value=value)
        return snapped
    return float(snapped) if snapped is not None else value


def discrete_eigensequence(rho, kind: str, length: int = 50):
    """Eigensequences of the running-average operator.

    exact-binomial: C(n-1, rho) for integer rho; the inverse average
    multiplies it by rho+1 exactly.  generalised-harmonic: the binomial
    times a shifted harmonic number; (average - eigenvalue) applied twice
    annihilates it exactly.  asymptotic-strip: the gamma-ratio sequence
    Gamma(n)/Gamma(n-rho) ~ n^rho, an eigensequence up to an exact 1/n
    boundary term that vanishes at integer rho.
    """
    if kind in ("exact-binomial", "generalised-harmonic"):
        n_int = _near_nonneg_int(rho)
        if n_int is None:
            raise NonIntegerRhoError(
                f"kind {kind} requires a nonnegative integer index, got {rho}")
        if kind == "exact-binomial":
            return [math.comb(n - 1, n_int) if n - 1 >= n_int else 0
                    for n in range(1, length + 1)]
        harm = [Fraction(0)]
        for j in range(1, length + 1):
            harm.append(harm[-1] + Fraction(1, j))
        out = []
        for n in range(1, length + 1):
            top = n - n_int - 1
            h = harm[top] if top >= 1 else Fraction(0)
            out.append(math.comb(n - 1, n_int) * h if n - 1 >= n_int
                       else Fraction(0))
        return out
    if kind == "asymptotic-strip":
        if complex(rho).real < 0:
            raise ValueError("requires Re(rho) >= 0")
        seq = _gamma_ratio_values(complex(rho), length)
        return seq if complex(rho).imag else np.real(seq)
    raise ValueError(f"unknown kind {kind!r}")
