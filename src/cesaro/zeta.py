"""Constructive continuation of the zeta and eta Dirichlet series.

The p-sum of sum n^{-s} has the divergence model k^{1-s}/(1-s) + known
lower-order corrections plus an unknown constant; that constant IS the
continued value.  Two independent routes compute it:

  (a) constant extraction: subtract the truncated correction formula from
      the exact partial sums at moderate k (high-precision arithmetic, the
      truncation error is the first omitted correction term);
  (b) averaging: drive the alternating p-sum of sum (-1)^{n+1} n^{-s},
      whose limit is eta(s) = (1 - 2^{1-s}) zeta(s), with pure averaging
      on a fixed grid of cells, in double-double arithmetic (cesaro.dd);
      nothing is subtracted, so it shares no constant with route (a).

Route (a) is the precision workhorse, route (b) the structural validator;
they must agree or the evaluation raises, never guesses.  eta takes its
value from route (a) as well, times 1 - 2^{1-s}.  zeta compares route (b)
with that product; where the factor nearly vanishes, near s = 1 and
s = 1 + 2 pi i k / ln 2, the comparison has no force, and zeta's value
is checked on the discrete evaluation instead.

The discrete-operator variant hands the p-sums and their divergence model
to the one discrete driver, climits.cesaro_limit_discrete, which peels the
model's eigensequences in one arithmetic, Python ints over a common scale:
exact integers at nonpositive integer s, and elsewhere p-sums scaled by
2^B, B at least 30 digits' worth of bits plus guard bits.  Once the
divergences are peeled the residual is a constant plus decaying terms, so
it is rounded once to doubles, where the decaying terms are subtracted and
the limit is fitted.  It goes anomalous at nonpositive integer s, where the
p-sum is a polynomial whose every power carries discrete limit 1; the
corrected evaluation recovers the true value by differentiating the
factored annihilator at the anomaly (a L'Hopital computation in s at fixed
index, then the limit in the index), in exact rationals and fixed-point
integers.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
import numpy as np

from . import dd
from .asymptotics import zeta_psum_expansion
from .climits import (GUARD_BITS, Fixed, cesaro_limit_discrete, _fixed,
                      _gamma_ratio_values, _near_nonneg_int)
from .config import DEFAULT_CONFIG, LEDGER_FLOOR, LimitConfig, SNAP_RADIUS
from .dd import DDArray
from .errors import (CrossCheckMismatchError, FitFailureError,
                     LambdaIsOneError, MissingDerivativeTermError,
                     NonIntegerRhoError, PoleSignal, SAtPoleError, is_pole)
from .operators import average_nodes, average_pass, build_regular_polynomial
from .seqfun import WEIGHTS, n_pow_minus_s, psum_function
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
    """Exact power-sum polynomial: the terms of the p-sum model at s = -m,
    whose corrections below k^0 vanish there.  The result is verified
    against direct summation on construction.
    """
    if m < 0 or m > 40:
        raise ValueError("supported range is 0 <= m <= 40")
    if m in _FAULHABER_CACHE:
        return _FAULHABER_CACHE[m]
    coeffs = [Fraction(0)] * (m + 2)
    for t in zeta_psum_expansion(-m).terms:
        coeffs[int(t.exponent)] += t.coeff
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
    """Exact rational constant for integer s0 <= 0: the partial sums are
    the model's terms exactly, the power-sum polynomial, whose constant
    term is 0, so the value is minus the model's known constant."""
    return -Fraction(zeta_psum_expansion(s0).constant)


# ---------------------------------------------------------------------------
# Route (b): average the alternating p-sum

#: cells of route (b)'s grid, the same for every s; at 1000 the route reads
#: zeta within 2.1e-7 of max(1, |zeta|) over tools/zeta_scan.py's grid
ROUTE_B_CELLS = 1000


@functools.cache
def _route_b_logs():
    """ln n for n = 1..ROUTE_B_CELLS in double-double; the same for every
    s, so it is built on the first call only."""
    return dd.log(DDArray(np.arange(1.0, ROUTE_B_CELLS + 1), 0.0))


def _route_b_mp(s) -> list:
    """The alternating p-sum of sum (-1)^{n+1} n^{-s} on route (b)'s cells,
    in double-double.

    The terms are exp(-s ln n) by dd.exp, so the p-sum's oscillation of
    size n^{-Re s} keeps about 32 digits.  No mpmath is used; the name is
    that of the mpmath build this replaced, kept so that perfbench's
    tracer still times the build as zeta.route_b_mp_s.  Returns the real
    part, and the imaginary part for complex s, as (cells, 1) DDArrays of
    the step function's cell values.
    """
    sc = complex(s)
    ln_n = _route_b_logs()
    terms = (dd.exp(ln_n * -sc.real, ln_n * -sc.imag) if sc.imag
             else [dd.exp(ln_n * -sc.real)])
    sign = np.resize([1.0, -1.0], ROUTE_B_CELLS)
    return [(t * sign).exclusive_cumsum()[:, None] for t in terms]


def _route_b(s):
    """Route (b): eta's limit at s by averaging the alternating p-sum, and
    the count r = max(0, floor(-Re s) + 1) of smooth passes.

    One step pass and r smooth passes, in double-double, leave a decaying
    oscillation, which the means of adjacent pairs of cells damp by one
    power of x, and the (ln x)^m/x content, m <= r, that each pass adds;
    the fit reads the last decade of cells with those columns.  Nothing is
    subtracted, so the route shares no constant with route (a).  Every
    pass is real-linear with real coefficients, so complex s runs them on
    the real and imaginary parts.
    """
    sc = complex(s)
    r = max(0, math.floor(-sc.real) + 1)
    means = []
    for v in _route_b_mp(sc):
        v = average_nodes(v, v[:, 0].exclusive_cumsum(), step=True)
        for _ in range(r):
            v = average_nodes(v, (v @ WEIGHTS).exclusive_cumsum())
        means.append((v @ WEIGHTS).to_float())
    ys = means[0] + 1j * means[1] if sc.imag else means[0]
    xs, ys = np.arange(1.0, ROUTE_B_CELLS), (ys[:-1] + ys[1:]) / 2
    lo = ROUTE_B_CELLS // 10
    return fit_limit_array(xs[lo:], ys[lo:],
                           [(-1, m) for m in range(2, r + 1)]), r


#: agreement window of the two routes for Re(s) >= -1
CROSS_CHECK_TOL = 1e-6

#: |1 - 2^{1-s}| below which zeta is not checked on eta's route.  Route
#: (b)'s error reaches zeta's scale divided by this factor: 2.2e-5 at
#: s = 0.999, and at s = 1 + 2 pi i k / ln 2 the factor vanishes.  The
#: bound sends real s in about (0.86, 1.14), and the neighbourhoods of
#: 1 +- 9.06ki, to the discrete check.
ETA_FACTOR_FLOOR = 0.1


def _route_b_tol(s) -> float:
    """Honest agreement tolerance for the averaging validator.

    The alternating p-sum oscillates with amplitude x^{-Re(s)}, and each
    smooth pass that takes one power off it leaves one more (ln x)^m/x
    column for the fit; each unit deeper into Re(s) < 0 costs roughly a
    decade of attainable accuracy at a fixed horizon, so the cross-check
    window widens with depth instead of pretending otherwise.
    """
    depth = max(0.0, -complex(s).real - 1.0)
    return CROSS_CHECK_TOL * 10.0 ** depth


def _eta_factor(s):
    """1 - 2^{1-s} = -expm1(g), g = (1 - s) ln 2, without the cancellation
    near s = 1; a float for real s."""
    sc = complex(s)
    g = (1 - sc) * math.log(2)
    f = -2 * cmath.sinh(g / 2) * cmath.exp(g / 2)
    return f if sc.imag else f.real


def _cross_check(s, value, trunc_err, check, check_stderr, what: str):
    """Raise CrossCheckMismatchError unless check, an independent route's
    value at s, is within max(_route_b_tol(s), 30 check_stderr,
    10 trunc_err) of value, whose truncation error trunc_err bounds."""
    tol = max(_route_b_tol(s), 30 * check_stderr, 10 * trunc_err)
    if abs(complex(check) - complex(value)) > tol:
        raise CrossCheckMismatchError(f"{what} routes disagree at s={s}",
                                      value_a=value, value_b=check)


def _report_annihilator(s, r: int):
    lam = 1 / (2 - s)
    try:
        return build_regular_polynomial([(lam, 1)], pure_power=r)
    except LambdaIsOneError:
        return None


def zeta(s, cfg: LimitConfig = DEFAULT_CONFIG) -> ZetaEvaluation:
    """Continuation of sum n^{-s} with dual-route cross-checking.

    Inside Re(s) > 1 the series converges and route (a) is just an
    accelerated tail.  Elsewhere route (a)'s constant C is checked on
    eta's averaging route, whose limit is f C with f = 1 - 2^{1-s}, or,
    where |f| < ETA_FACTOR_FLOOR, on zeta_discrete_ext; a disagreement
    beyond tolerance raises instead of returning.  The diagnostics give
    the check's value on zeta's scale ("route_b"), its stderr and which
    check ran ("route_b_check", "eta" or "discrete").  At s = 1 the
    outcome is a pole signal carrying residue 1.
    """
    sc = complex(s)
    if abs(sc - 1) <= SNAP_RADIUS:
        return ZetaEvaluation(
            s=s, value=PoleSignal(origin="dirichlet-series", log_power=1,
                                  residue=1), path="pole")
    s0 = _near_nonneg_int(-sc)
    if s0 is None:
        s_at = sc if sc.imag else sc.real
        C, trunc_err = _psum_constant_mp(s_at)
        if sc.real > 1:
            return ZetaEvaluation(s=s, value=C, path="classical-sum",
                                  C_constant=C,
                                  diagnostics={"truncation": trunc_err})
    else:
        s_at, C, trunc_err = -s0, _exact_constant(-s0), 0.0
    f = _eta_factor(s_at)
    if abs(f) >= ETA_FACTOR_FLOOR:
        fit_b, r = _route_b(s_at)
        _cross_check(s_at, f * complex(C), abs(f) * trunc_err, fit_b.limit,
                     fit_b.stderr, "continuation")
        diagnostics = {"route_b": complex(fit_b.limit / f),
                       "route_b_stderr": fit_b.stderr / abs(f),
                       "route_b_check": "eta"}
    else:
        # |f| is this small only for Re s > 0.86, where route (b) makes no
        # smooth pass
        ext, r = zeta_discrete_ext(s_at), 0
        stderr = ext.diagnostics["stderr"]
        _cross_check(s_at, C, trunc_err, ext.value, stderr, "continuation")
        diagnostics = {"route_b": complex(ext.value),
                       "route_b_stderr": stderr, "route_b_check": "discrete"}
    if s0 is not None:
        C = value = C if cfg.exact_mode else float(C)
    else:
        diagnostics["truncation"] = trunc_err
        snapped = snap_to_rational(C, tol=1e-12) if cfg.exact_mode else None
        value = C if snapped is None else snapped
    return ZetaEvaluation(s=s, value=value, path="continuous-cesaro",
                          q_used=_report_annihilator(s_at, r), C_constant=C,
                          diagnostics=diagnostics)


def zeta_residue_at_1(cfg: LimitConfig = DEFAULT_CONFIG):
    """Residue at the pole: limit of -(A - 1)[p-sum of the harmonic series].

    The harmonic p-sum grows like ln x + gamma; averaging shifts the log
    by exactly -1 and fixes the rest, so the difference tends to -1 and
    the residue to 1.
    """
    rows = psum_function(n_pow_minus_s(1.0)).node_values(cfg.horizon)
    return fit_limit(rows - average_pass(rows, step=True)).limit


def eta(s, cfg: LimitConfig = DEFAULT_CONFIG):
    """Continuation of the alternating series sum (-1)^{n+1} n^{-s}.

    eta(s) = (1 - 2^{1-s}) zeta(s), so the value is route (a)'s: the factor
    times _psum_constant_mp(s), or at nonpositive integers times the exact
    constant, a Fraction in exact mode and a float otherwise, as zeta
    returns it.  At s = 1 the value is the limit ln 2.  Route (b) averages
    the alternating p-sum itself, and a disagreement beyond the tolerance
    rule that zeta also applies raises CrossCheckMismatchError.  Of cfg
    only exact_mode is read.
    """
    sc = complex(s)
    if abs(sc - 1) <= SNAP_RADIUS:
        return math.log(2)
    s0 = _near_nonneg_int(-sc)
    if s0 is not None:
        exact = (1 - 2 ** (1 + s0)) * _exact_constant(-s0)
        value, trunc_err = exact if cfg.exact_mode else float(exact), 0.0
    else:
        C, trunc_err = _psum_constant_mp(sc if sc.imag else sc.real)
        value = C * _eta_factor(sc)
    fit_b = _route_b(s if s0 is None else -s0)[0]
    _cross_check(s, value, trunc_err, fit_b.limit, fit_b.stderr, "eta")
    return value


# ---------------------------------------------------------------------------
# Discrete framework

#: fractional bits of zeta_discrete_corrected's fixed-point u branch; its
#: values reach horizon^{1-s0} ln(horizon), about 2^110 at s0 = -8, and as
#: ints keep all of these bits at any size
U_BITS = 128


def _psum_content(s, order=None) -> list:
    """The p-sum's divergence model as (coeff, exponent), arithmetic of s;
    order as in zeta_psum_expansion."""
    return [(t.coeff, t.exponent) for t in zeta_psum_expansion(s, order).terms]


#: p-sums of the discrete evaluation off the integers
EXT_MP_HORIZON = 4000


def _ext_mp(s, cfg: LimitConfig):
    """The discrete evaluation off the integers, on fixed-point p-sums.

    The subtraction cancels ~|1-Re(s)| leading digits of the p-sum, so
    exponents need working precision as much as coefficients do: a double
    holds 1-s only to ~1e-16, and at n = 4000 that error times ln n times
    a p-sum of ~1e14 is an error of order 1 in the value.  So the model is
    built at an mpmath s, with its corrections down to the driver's ledger
    floor, and the p-sums are ints scaled by 2^B, B the working precision
    plus GUARD_BITS: n^{-s} from mpmath at the primes, fixed-point products
    over the least-prime sieve elsewhere.  The driver peels in the same
    fixed point.  The p-sum reaches EXT_MP_HORIZON^{1-Re s}, so the
    precision grows with depth to keep 15 digits after the cancellation,
    and is never below 30 digits.
    """
    sc = complex(s)
    dps = max(30, math.ceil(15 + (1 - sc.real) * math.log10(EXT_MP_HORIZON)))
    with mpmath.workdps(dps):
        bits = mpmath.mp.prec + GUARD_BITS
        smp = mpmath.mpmathify(sc) if sc.imag else mpmath.mpf(sc.real)
        powers = _sieve_table(
            EXT_MP_HORIZON, (1 << bits, 0),
            lambda p: _fixed(mpmath.power(p, -smp), bits),
            lambda x, y: ((x[0] * y[0] - x[1] * y[1]) >> bits,
                          (x[0] * y[1] + x[1] * y[0]) >> bits))
        psums = [list(itertools.accumulate(part)) for part in zip(*powers)]
        order = math.ceil(1 - LEDGER_FLOOR - sc.real) - 1
        return cesaro_limit_discrete(Fixed(*psums, bits),
                                     _psum_content(smp, order),
                                     cfg.with_(horizon=EXT_MP_HORIZON))


def zeta_discrete_ext(s, cfg: LimitConfig = DEFAULT_CONFIG) -> ZetaEvaluation:
    """Discrete-operator evaluation; anomalous at nonpositive integers.

    Only the p-sums are built here: exact integers at the anomalies, else
    _ext_mp's fixed point.  At integer s <= 0 the p-sum is a polynomial in
    the index; every power has discrete limit 1, so the value collapses to
    the polynomial at 1, which is always 1.  The anomaly flag marks these
    points.
    """
    sc = complex(s)
    if abs(sc - 1) <= SNAP_RADIUS:
        raise SAtPoleError("the discrete evaluation shares the pole at s = 1")
    s0 = _near_nonneg_int(-sc)
    if s0 is None:
        result = _ext_mp(s, cfg)
        value = result.limit
    else:
        horizon = min(cfg.horizon, 4000)
        result = cesaro_limit_discrete(
            itertools.accumulate(n ** s0 for n in range(1, horizon + 1)),
            _psum_content(-s0), cfg.with_(horizon=horizon))
        if snap_to_rational(result.limit, tol=1e-6) != 1:
            raise CrossCheckMismatchError(
                f"integer-point evaluation expected the anomalous value 1, "
                f"got {result.limit}")
        value = Fraction(1) if cfg.exact_mode else 1.0
    return ZetaEvaluation(s=s, value=value, path="discrete-cesaro",
                          q_used=result.q_used, anomaly=s0 is not None,
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


def _sieve_table(horizon: int, one, at_prime, times) -> list:
    """f(1..horizon) for f completely multiplicative under times, with
    f(1) = one and f(p) = at_prime(p): f(j) = times(f(p), f(j/p)) for the
    least prime p of j, from a least-prime-factor sieve."""
    least = list(range(horizon + 1))
    for p in range(math.isqrt(horizon), 1, -1):     # the least p writes last
        least[p * p::p] = [p] * len(range(p * p, horizon + 1, p))
    table = [one, one]
    for j, p in enumerate(least[2:], 2):
        table.append(at_prime(j) if p == j else times(table[p], table[j // p]))
    return table[1:]


@functools.cache
def _log_table(horizon: int) -> tuple:
    """round(ln j * 2^U_BITS) for j = 1..horizon, logs taken at primes only.

    A composite j gets L_p + L_{j/p} for its least prime p, so an entry is
    off by at most half a unit per prime factor.
    """
    with mpmath.workprec(U_BITS + 32):
        return tuple(_sieve_table(
            horizon, 0, lambda p: int(mpmath.nint(mpmath.ldexp(
                mpmath.log(p), U_BITS))), operator.add))


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
