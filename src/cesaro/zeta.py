"""Constructive continuation of the zeta and eta Dirichlet series.

The p-sum of sum n^{-s} has the divergence model k^{1-s}/(1-s) + known
lower-order corrections plus an unknown constant; that constant IS the
continued value.  Two independent routes compute it:

  (a) constant extraction: subtract the truncated correction formula from
      the exact partial sums at moderate k (high-precision arithmetic, the
      truncation error is the first omitted correction term);
  (b) averaging: drive the alternating p-sum of sum (-1)^{n+1} n^{-s},
      whose limit is eta(s) = (1 - 2^{1-s}) zeta(s), to its limit on a
      fixed grid of cells: repeated two-cell means of the exact int
      p-sums, Euler's (E, 1) transform, damp its oscillation; each cell is
      floored to 2^-60 and rounded to a double, and the closed-form cell
      means of one running average and a tail fit read the limit; nothing
      is subtracted, so it shares no constant with route (a).

Both routes, and the discrete evaluation, take n^{-s} from one sieve
builder, _fixed_powers, in fixed point: the primes share a few small
tables of exponentials, one per base-64 digit of ln p, and a composite is
one product of two entries.  Where both routes run, zeta and eta build the
table n^{-s}, n < ROUTE_B_CELLS, once: route (a) sums its first
ROUTE_A_TERMS entries, and route (b) alternates all of them.  The check
keeps its force, for a fault in the table would not cancel: were the
entry at some n <= ROUTE_A_TERMS off by delta, C would move by delta and
eta's limit by (-1)^{n+1} delta, and the check of f C against eta,
f = 1 - 2^{1-s}, would still fail unless f = +-1; an entry past
ROUTE_A_TERMS moves route (b) alone.  Route (b) fits its limit on the
cells from ROUTE_B_CELLS // 10 on, though, and a fault at such an n
leaves a step in the p-sum that also widens the fit's stderr, and so the
window: at s = -0.5 a fault of 1e-3 relative passes at the even n from
264 to 400.

Route (a) is the precision workhorse, route (b) the structural validator;
they must agree or the evaluation raises, never guesses.  eta takes its
value from route (a) as well, times 1 - 2^{1-s}.  zeta compares route (b)
with that product; where the factor nearly vanishes, near s = 1 and
s = 1 + 2 pi i k / ln 2, the comparison has no force, and zeta's value
is checked on the discrete evaluation instead.

The discrete-operator variant hands the p-sums and their divergence model
to the one discrete driver, climits.cesaro_limit_discrete, which peels the
model's eigensequences in Python ints over a common scale: exact integers
at nonpositive integer s, elsewhere p-sums scaled by 2^B, B at least 30
digits' worth of bits plus guard bits.  The divergent content is one
unit-gap ladder 1-s, -s, -s-1, ..., subtracted in one Horner pass, as
Gamma(n)/Gamma(n-rho+1) is Gamma(n)/Gamma(n-rho) over n - rho.  The
residual, a constant plus decaying terms, is rounded once to doubles,
where the decaying terms are subtracted and the limit is fitted.  It goes
anomalous at nonpositive integer s, where the p-sum is a polynomial whose
every power carries discrete limit 1; the corrected evaluation recovers
the true value by differentiating the factored annihilator at the anomaly
(a L'Hopital computation in s at fixed index, then the limit in the
index), in exact rationals and fixed-point integers.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import mpmath
import numpy as np
from mpmath import libmp

from .asymptotics import _psum_corrections, zeta_psum_expansion
from .climits import (GUARD_BITS, CesaroResult, Fixed,
                      cesaro_limit_discrete, _gamma_ratio_values,
                      _near_nonneg_int)
from .config import DEFAULT_CONFIG, LEDGER_FLOOR, LimitConfig, SNAP_RADIUS
from .errors import (CrossCheckMismatchError, FitFailureError,
                     MissingDerivativeTermError, NonIntegerRhoError,
                     PoleSignal, SAtPoleError, is_pole)
from .operators import average_pass
from .seqfun import n_pow_minus_s, psum_function
from .tailfit import (TailDesign, fit_limit, fit_limit_array,
                      sequence_tail, snap_to_rational)

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


@functools.cache
def faulhaber(m: int) -> FaulhaberPoly:
    """Exact power-sum polynomial: the terms of the p-sum model at s = -m,
    whose corrections below k^0 vanish there.  The result is verified
    against direct summation on construction.
    """
    if m < 0 or m > 40:
        raise ValueError("supported range is 0 <= m <= 40")
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
    return poly


def zeta_integral_rep(s0: int) -> Fraction:
    """Exact rational value of the power-sum polynomial integrated over
    [-1, 0]; equals the continuation at nonpositive integer arguments."""
    if s0 > 0:
        raise ValueError("defined for integer s0 <= 0")
    return faulhaber(-s0).integral(Fraction(-1), Fraction(0))


# ---------------------------------------------------------------------------
# The terms n^{-s} at high precision

@functools.cache
def _sieve_layers(horizon: int) -> tuple:
    """The primes up to horizon, and the composites grouped by their count
    of prime factors into layers (n, p, n/p) of index arrays, p the least
    prime of n: every n/p is a prime or in an earlier layer."""
    least = list(range(horizon + 1))
    for p in range(math.isqrt(horizon), 1, -1):     # the least p writes last
        least[p * p::p] = [p] * len(range(p * p, horizon + 1, p))
    omega, layers = [0, 0], [[] for _ in range(horizon.bit_length() + 1)]
    for n, p in enumerate(least[2:], 2):
        omega.append(omega[n // p] + 1)
        layers[omega[n] - 1].append((n, p, n // p))
    primes, *layers = (np.array(layer, dtype=int).reshape(-1, 3).T
                       for layer in layers)
    return primes[0], tuple(layer for layer in layers if layer.size)


#: ln p is taken in LOG_LEVELS base-2^LOG_DIGIT digits, from 2^LOG_TOP down,
#: and a residual below 2^-LOG_LOW; ln p < 2^LOG_TOP below 8.8e6.  Digit
#: widths of 4 to 8 bits over 4 to 10 levels run within 10% of each other
LOG_TOP, LOG_DIGIT, LOG_LEVELS = 4, 6, 6
LOG_LOW = LOG_DIGIT * LOG_LEVELS - LOG_TOP

#: bits _prime_powers carries below the scale of the table it returns
POWER_GUARD = 24


@functools.cache
def _prime_logs(horizon: int, bits: int) -> tuple:
    """round(ln p * 2^bits) for the primes p up to horizon, from logs at
    bits + 32 bits, split into digits and residual: row l of the int64
    array digits holds digit l of every log, of weight
    2^(LOG_TOP - LOG_DIGIT (l + 1)), and the object array residual what is
    left, below 2^(bits - LOG_LOW).  Digit 0 has no upper bound, so the
    split holds for ln p past 2^LOG_TOP too."""
    rest = np.array([libmp.to_int(libmp.mpf_shift(libmp.mpf_log(
        libmp.from_int(int(p)), bits + 32, "n"), bits), "n")
        for p in _sieve_layers(horizon)[0]], dtype=object)
    digits = []
    for level in range(LOG_LEVELS):
        shift = bits + LOG_TOP - LOG_DIGIT * (level + 1)
        digit = rest >> shift
        digits.append(digit.astype(np.int64))
        rest = rest - (digit << shift)
    return np.array(digits), rest


def _mul(x, y, shift: int) -> list:
    """The product of x and y over 2^shift, floored; each is [re] at real
    s and [re, im] at complex s, of ints or int object arrays."""
    if len(x) == 1:
        return [(x[0] * y[0]) >> shift]
    (a, b), (c, d) = x, y
    return [(a * c - b * d) >> shift, (a * d + b * c) >> shift]


def _prime_powers(s, horizon: int, bits: int) -> list:
    """p^{-s} at the primes p up to horizon, s an mpmath number, as [re] at
    real s and [re, im] at complex s, int object arrays over 2^bits.

    With ln p = sum_l d_l w_l + r_p as _prime_logs splits it, w_l =
    2^(LOG_TOP - LOG_DIGIT (l + 1)), p^{-s} is the product of the entries
    T_l[d_l] = exp(-s d_l w_l) and of exp(-s r_p).  Each table T_l takes
    one libmp exp, of -s w_l, and its powers up to the largest digit in
    fixed-point products.  exp(-s r_p), |s r_p| < |s| 2^-LOG_LOW, is a
    Taylor series in the real r_p, summed by Horner's rule.  All of it runs
    POWER_GUARD bits below 2^-bits, each step floors, and the product is
    floored once to 2^-bits.
    """
    wp = bits + POWER_GUARD
    digits, residual = _prime_logs(horizon, wp)
    cplx = isinstance(s, mpmath.mpc)
    neg = [libmp.mpf_neg(x) for x in (s._mpc_ if cplx else [s._mpf_])]
    one = [1 << wp] + [0] * cplx
    acc = None
    for level, d in enumerate(digits):
        arg = [libmp.mpf_shift(x, LOG_TOP - LOG_DIGIT * (level + 1))
               for x in neg]
        step = [libmp.to_fixed(x, wp) for x in (
            libmp.mpc_exp(arg, wp) if cplx else [libmp.mpf_exp(*arg, wp)])]
        table = [one]
        for _ in range(int(d.max())):
            table.append(_mul(table[-1], step, wp))
        t = [np.array(part, dtype=object)[d] for part in zip(*table)]
        acc = t if acc is None else _mul(acc, t, wp)
    # exp(-s r_p) = sum_{k<n} c_k r_p^k, c_k = (-s)^k/k!, where the first
    # term left out, |s r_p|^n/n!, is at most 2^-wp
    bound, n, term = abs(complex(s)) * 2.0 ** -LOG_LOW, 0, 1.0
    while term > 2.0 ** -wp:
        n += 1
        term *= bound / n
    minus_s, coeffs = [libmp.to_fixed(x, wp) for x in neg], [one]
    for k in range(1, n):
        coeffs.append([x // k for x in _mul(coeffs[-1], minus_s, wp)])
    e = coeffs.pop()
    for c in reversed(coeffs):
        e = [((x * residual) >> wp) + y for x, y in zip(e, c)]
    return _mul(acc, e, wp + POWER_GUARD)


def _mp_s(s):
    """s as an mpmath number at the working precision, real when s is."""
    sc = complex(s)
    return mpmath.mpmathify(sc) if sc.imag else mpmath.mpf(sc.real)


def _fixed_powers(s, horizon: int) -> Fixed:
    """n^{-s} for n = 1..horizon, s an mpmath number, as a Fixed of int
    object arrays scaled by 2^bits, bits the working precision plus
    GUARD_BITS.

    At the primes the powers come from _prime_powers, all at once, each
    floored once from a product POWER_GUARD bits finer; at a nonpositive
    integer s they are the exact ints p^{-s}.  A composite n gets the
    floored fixed-point product of p^{-s} and (n/p)^{-s}, p its least
    prime, one numpy product per sieve layer; at real s the imaginary parts
    stay 0.
    """
    bits = mpmath.mp.prec + GUARD_BITS
    primes, layers = _sieve_layers(horizon)
    re, im = (np.zeros(horizon + 1, dtype=object) for _ in range(2))
    parts = [re, im] if isinstance(s, mpmath.mpc) else [re]
    re[1] = 1 << bits
    if mpmath.isint(s) and s.real <= 0:
        re[primes] = primes.astype(object) ** int(-s.real) << bits
    else:
        for part, v in zip(parts, _prime_powers(s, horizon, bits)):
            part[primes] = v
    for ns, ps, qs in layers:
        products = _mul([p[ps] for p in parts], [p[qs] for p in parts], bits)
        for part, v in zip(parts, products):
            part[ns] = v
    return Fixed(re[1:], im[1:], bits)


# ---------------------------------------------------------------------------
# Route (a): constant extraction at high precision

#: route (a)'s direct terms, Euler-Maclaurin order and working digits; the
#: working digits of both routes' terms
ROUTE_A_TERMS, ROUTE_A_ORDER, ROUTE_A_DPS = 400, 12, 40


def _terms(s, horizon: int) -> Fixed:
    """n^{-s}, n = 1..horizon, from _fixed_powers at ROUTE_A_DPS digits."""
    with mpmath.workdps(ROUTE_A_DPS):
        return _fixed_powers(_mp_s(s), horizon)


def _psum_constant_mp(s, powers: Fixed | None = None):
    """Unknown constant of the p-sum model, by high-precision subtraction.

    Computes sum_{n<=K} n^{-s}, K = ROUTE_A_TERMS, exactly in the ints of
    powers, the table _terms(s, horizon) for some horizon >= K, built when
    not given, and rounded once, minus the p-sum model at K, K^{1-s} (1/(1-s)
    + 1/(2K) + sum_r c_r K^{-r}) with _psum_corrections' c_r to ROUTE_A_ORDER,
    by Horner's rule at working precision; the last term kept,
    |K^{1-s} c_top K^{-top}|, is reported as the truncation bound.
    """
    re, im, bits = _terms(s, ROUTE_A_TERMS) if powers is None else powers
    with mpmath.workdps(ROUTE_A_DPS):
        sc = _mp_s(s)
        total = mpmath.mpc(re[:ROUTE_A_TERMS].sum(),
                           im[:ROUTE_A_TERMS].sum()) / (1 << bits)
        k = mpmath.mpf(ROUTE_A_TERMS)
        coeffs = {0: 1 / (1 - sc), 1: 0.5,
                  **dict(_psum_corrections(sc, ROUTE_A_ORDER))}
        top, lead, poly = max(coeffs), mpmath.power(k, 1 - sc), 0
        for r in range(top, -1, -1):
            poly = poly / k + coeffs.get(r, 0)
        C = total - lead * poly
        err = float(abs(lead * coeffs[top] / k ** top))
        return (complex(C) if sc.imag else float(C.real)), err


@functools.cache
def _exact_constant(s0: int):
    """Exact rational constant for integer s0 <= 0: the partial sums are
    the model's terms exactly, the power-sum polynomial, whose constant
    term is 0, so the value is minus the model's known constant."""
    return -Fraction(zeta_psum_expansion(s0).constant)


# ---------------------------------------------------------------------------
# Route (b): average the alternating p-sum

#: cells of route (b)'s grid, the same for every s; at 1000 the route reads
#: eta within 6.1e-12 of max(1, |eta|) over tools/zeta_scan.py's grid, and
#: its two-cell means may take at most half the cells
ROUTE_B_CELLS = 1000

#: ln(1 + 1/k) and 1 - k ln(1 + 1/k), k = 1..ROUTE_B_CELLS - 1
_LOG_STEP = np.log1p(1 / np.arange(1, ROUTE_B_CELLS))
_LOG_REST = 1 - np.arange(1, ROUTE_B_CELLS) * _LOG_STEP


def _cell_means(col):
    """Cell means of the running average of col's step function, at most
    ROUTE_B_CELLS cells: s_0 on cell 0, and on cell k the mean of
    (S_k + s_k (x - k))/x, S_k = s_0 + ... + s_{k-1}, S_k ln(1 + 1/k) +
    s_k (1 - k ln(1 + 1/k))."""
    n = len(col)
    return np.concatenate([col[:1], np.cumsum(col[:-1]) * _LOG_STEP[:n - 1]
                           + col[1:] * _LOG_REST[:n - 1]])


def _route_b_mp(s, powers: Fixed | None = None) -> Fixed:
    """The alternating p-sum of sum (-1)^{n+1} n^{-s} on route (b)'s cells,
    exactly.

    The terms n^{-s}, n < ROUTE_B_CELLS, are the first entries of powers,
    the table _terms(s, horizon) for some horizon >= ROUTE_B_CELLS - 1,
    built when not given; zeta and eta pass the table route (a) sums.
    Returns the prefix sums S_0 = 0, S_1, ..., S_{ROUTE_B_CELLS - 1} as a
    Fixed of int object arrays over the scale 2^bits; nothing is rounded.
    """
    if powers is None:
        powers = _terms(s, ROUTE_B_CELLS - 1)
    sums = []
    for part in powers[:2]:
        a = np.zeros(ROUTE_B_CELLS, dtype=object)
        a[1:] = part[:ROUTE_B_CELLS - 1]
        a[2::2] = -a[2::2]
        sums.append(np.cumsum(a))
    return Fixed(*sums, powers.bits)


#: route (b)'s fit designs kept, apart from tailfit's driver windows: a
#: call fits after k - 6 and k two-cell means, so 16 designs serve every k
#: over a span of 10, as depths 0 to 6 and |Im s| up to 3 take
ROUTE_B_DESIGNS = 16


@functools.lru_cache(maxsize=ROUTE_B_DESIGNS)
def _route_b_design(cells: int) -> TailDesign:
    """The TailDesign of route (b)'s fit on cells cell means, a count set
    by the count of two-cell means alone: x = 1..cells - 1, the means of
    neighbouring cells, from ROUTE_B_CELLS // 10 on.  The factor a design
    keeps serves every later fit after the same count of means."""
    return TailDesign(np.arange(1.0, cells)[ROUTE_B_CELLS // 10:])


def _route_b(s, powers: Fixed | None = None):
    """Route (b): eta's limit at s by averaging the alternating p-sum, and
    the count k of two-cell means taken; powers as in _route_b_mp.

    The p-sum oscillates about eta with amplitude n^{-Re s}, and its only
    smooth part is that limit.  A two-cell mean S_n + S_{n+1}, over 2,
    takes one power of n off the oscillation, or a factor of about |s|/n,
    and adds no smooth content; k of them are Euler's (E, 1) transform.
    They run in _route_b_mp's ints, and each cell is then floored to 2^-60
    and rounded to a double, within 2^-60 plus half an ulp.  With k =
    depth + 12 + ceil(|Im s|), depth = max(0, floor(-Re s) + 1), the cells
    are eta plus a decaying O(1) oscillation.  The running average's cell
    means, in closed form (_cell_means), and one more two-cell mean leave
    eta + c/x and a smaller oscillation, and TAIL_TERMS fitted to the last
    decade read the limit.  The fit's stderr takes the oscillating residual
    for noise and reads low, so the stderr returned is at least
    |b(k) - b(k - 6)|, b(j) the limit read after j means.  Nothing is
    subtracted, so the route shares no constant with route (a).  Where k
    exceeds half the cells the route cannot check s, and
    CrossCheckMismatchError is raised.
    """
    sc = complex(s)
    depth = max(0, math.floor(-sc.real) + 1)
    k = depth + 12 + math.ceil(abs(sc.imag))
    if k > ROUTE_B_CELLS // 2:
        raise CrossCheckMismatchError(
            f"route (b) cannot check s={s}: at |Im s| = {abs(sc.imag):g} it "
            f"needs {k} two-cell means of {ROUTE_B_CELLS} cells")
    re, im, bits = _route_b_mp(s, powers)
    parts = [re, im] if sc.imag else [re]
    lo, limits = ROUTE_B_CELLS // 10, []
    for j in range(1, k + 1):
        parts = [p[:-1] + p[1:] for p in parts]
        if j in (k - 6, k):
            re, *im = (np.ldexp((p >> (bits + j - 60)).astype(float), -60)
                       for p in parts)
            means = _cell_means(re + 1j * im[0] if im else re)
            fit = fit_limit_array(_route_b_design(len(means)),
                                  ((means[:-1] + means[1:]) / 2)[lo:])
            limits.append(complex(fit.limit))
    return replace(fit, stderr=max(fit.stderr, abs(limits[1] - limits[0]))), k


#: agreement window of the two routes for Re(s) >= -1
CROSS_CHECK_TOL = 1e-6

#: |1 - 2^{1-s}| below which zeta is not checked on eta's route.  Route
#: (b)'s error reaches zeta's scale divided by this factor: 7.6e-10 at
#: s = 0.999, and at s = 1 + 2 pi i k / ln 2 the factor vanishes.  The
#: bound sends real s in about (0.86, 1.14), and the neighbourhoods of
#: 1 +- 9.06ki, to the discrete check.
ETA_FACTOR_FLOOR = 0.1


def _route_b_tol(s) -> float:
    """Agreement tolerance for the averaging validator.

    The window widens a decade per unit of depth below Re(s) = -1, as the
    error of an earlier route (b), which fitted log columns after smooth
    passes, did.  Route (b) now reads eta within about 1e-11 of
    max(1, |eta|), so the window is loose at depth; it is absolute, while
    |eta| grows with |Im s|.
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
    s_at = -s0 if s0 is not None else sc if sc.imag else sc.real
    f = _eta_factor(s_at)
    on_eta = sc.real <= 1 and abs(f) >= ETA_FACTOR_FLOOR
    powers = _terms(s_at, ROUTE_B_CELLS - 1) if on_eta else None
    if s0 is None:
        C, trunc_err = _psum_constant_mp(s_at, powers)
        if sc.real > 1:
            return ZetaEvaluation(s=s, value=C, path="classical-sum",
                                  C_constant=C,
                                  diagnostics={"truncation": trunc_err})
    else:
        C, trunc_err = _exact_constant(-s0), 0.0
    if on_eta:
        fit_b = _route_b(s_at, powers)[0]
        _cross_check(s_at, f * complex(C), abs(f) * trunc_err, fit_b.limit,
                     fit_b.stderr, "continuation")
        diagnostics = {"route_b": complex(fit_b.limit / f),
                       "route_b_stderr": fit_b.stderr / abs(f),
                       "route_b_check": "eta"}
    else:
        ext = zeta_discrete_ext(s_at)
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
                          C_constant=C, diagnostics=diagnostics)


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
    s_at = -s0 if s0 is not None else sc if sc.imag else sc.real
    powers = _terms(s_at, ROUTE_B_CELLS - 1)
    if s0 is not None:
        exact = (1 - 2 ** (1 + s0)) * _exact_constant(-s0)
        value, trunc_err = exact if cfg.exact_mode else float(exact), 0.0
    else:
        C, trunc_err = _psum_constant_mp(s_at, powers)
        f = _eta_factor(sc)
        value, trunc_err = C * f, abs(f) * trunc_err
    fit_b = _route_b(s_at, powers)[0]
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


#: p-sums of the discrete evaluations, at and off the integers
DISCRETE_HORIZON = 4000


def _fixed_power_limit(s, horizon: int, cfg: LimitConfig,
                       psum: bool = False) -> CesaroResult:
    """The discrete limit of n^{-s}, n = 1..horizon, or with psum of its
    p-sums, built by _fixed_powers and peeled of its known content in the
    same fixed point.

    A p-sum reaches horizon^{1-Re s}, the terms one power less, and the
    peel cancels as many leading digits, so exponents need working
    precision as much as coefficients do: a double holds 1-s only to
    ~1e-16, and at n = 4000 that error times ln n times a p-sum of ~1e14
    is an error of order 1 in the value.  So the content is built at an
    mpmath s, the p-sum's with its corrections down to the driver's ledger
    floor, and the precision grows with depth to keep 15 digits after the
    cancellation, never below 30 digits.
    """
    sc = complex(s)
    dps = max(30, math.ceil(15 + (1 - sc.real) * math.log10(horizon)))
    with mpmath.workdps(dps):
        smp = _mp_s(sc)
        re, im, bits = _fixed_powers(smp, horizon)
        if psum:            # the terms are freed before the peel runs
            re, im = np.cumsum(re), np.cumsum(im)
            content = _psum_content(smp, math.ceil(
                1 - LEDGER_FLOOR - sc.real) - 1)
        else:
            content = [(1, -smp)]
        return cesaro_limit_discrete(Fixed(re, im, bits), content,
                                     cfg.with_(horizon=horizon))


def _ext_mp(s, cfg: LimitConfig):
    """The discrete evaluation off the integers: the limit of the
    fixed-point p-sums over DISCRETE_HORIZON terms."""
    return _fixed_power_limit(s, DISCRETE_HORIZON, cfg, psum=True)


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
        horizon = min(cfg.horizon, DISCRETE_HORIZON)
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


def _apply_factor_mp(u, lam):
    """(P_D - lam) on fixed-point values, ints scaled by 2^U_BITS, lam a
    Fraction: cumsum(u) // k - u * lam, as object arrays of ints.  Both
    divisions floor, so a pass is off by under one unit."""
    u = np.asarray(u, dtype=object)
    ks = np.arange(1, len(u) + 1, dtype=object)
    return np.cumsum(u) // ks - u * lam.numerator // lam.denominator


@functools.cache
def _log_table(horizon: int) -> tuple:
    """round(ln j * 2^U_BITS) for j = 1..horizon, logs taken at primes only.

    A composite j gets L_p + L_{j/p} for its least prime p, so an entry is
    off by at most half a unit per prime factor.
    """
    primes, layers = _sieve_layers(horizon)
    table = np.zeros(horizon + 1, dtype=object)
    digits, residual = _prime_logs(horizon, U_BITS)
    logs = functools.reduce(lambda a, d: (a << LOG_DIGIT) + d,
                            digits.astype(object))
    table[primes] = (logs << U_BITS - LOG_LOW) + residual
    for ns, ps, qs in layers:
        table[ns] = table[ps] + table[qs]
    return tuple(table[1:])


def _polynomial_branch(coeffs, lams, lam_primes, horizon: int) -> tuple:
    """sum_i lam_i' * prod_{l != i} (P_D - lam_l)[p] at k = 1..horizon, as
    (ints, den): the values are ints[k-1] / den.

    p is given by its coefficients in the basis C(k-1, j).  The running
    average maps C(k-1, j) to C(k-1, j)/(j+1), so there each factor
    (P_D - lam) is the diagonal 1/(j+1) - lam, and the whole branch is one
    coefficient vector w, put over its common denominator den.  The full
    product must annihilate p coefficient by coefficient, which is the
    vanishing at every k that the derivative computation rests on.

    sum_j w_j C(k-1, j) is evaluated by Newton's forward accumulation:
    q_j[k] = sum_{i >= j} w_i C(k-1, i-j) starts at w_j and steps by
    q_{j+1}[k], so q_J is constant w_J and each lower q_j is one running
    sum of q_{j+1}, deg p passes of int additions in all.
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
    *lower, top = [int(w * den) for w in weights]
    q = [top] * horizon
    for w in reversed(lower):
        q = list(itertools.accumulate(q[:-1], initial=w))
    return q, den


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
    the fitted value, is raised when there is none, as at s0 = -8.
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

    horizon = min(cfg.horizon, DISCRETE_HORIZON)
    p_ints, p_den = _polynomial_branch(
        _binomial_coefficients(faulhaber(-s0)), lams, lam_primes, horizon)

    # derivative-of-terms branch in fixed point: u_k = -sum j^{-s0} ln j
    js = np.arange(1, horizon + 1, dtype=object)
    u = np.cumsum(-js ** -s0 * np.array(_log_table(horizon), dtype=object))
    for lam in lams:
        u = _apply_factor_mp(u, lam)
    p_fixed = (np.array(p_ints, dtype=object) << U_BITS) // p_den
    seq = -float(c) * ((u - p_fixed) / 2 ** U_BITS).astype(float)
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
            return [math.comb(n - 1, n_int) for n in range(1, length + 1)]
        harm = list(itertools.accumulate(
            (Fraction(1, j) for j in range(1, length)), initial=Fraction(0)))
        return [math.comb(n - 1, n_int) * harm[max(0, n - n_int - 1)]
                for n in range(1, length + 1)]
    if kind == "asymptotic-strip":
        if complex(rho).real < 0:
            raise ValueError("requires Re(rho) >= 0")
        seq = _gamma_ratio_values(complex(rho), length)
        return seq if complex(rho).imag else np.real(seq)
    raise ValueError(f"unknown kind {kind!r}")
