"""Bernoulli numbers, asymptotic expansions, and annihilator synthesis.

The divergences this package removes are finite sums of c * x^rho * (ln x)^m.
This module builds those sums for the standard sources (partial sums of
power series via Euler-Maclaurin, the x-vs-integer-part rewriting) and turns
a finished expansion into the regular polynomial that annihilates it.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import mpmath

from .config import EXPONENT_MERGE_TOL, LAMBDA_EPS, LEDGER_FLOOR, SNAP_RADIUS
from .errors import NonTriangularError, SAtPoleError, PoleSignal
from .operators import RegularPolynomial, build_regular_polynomial

__all__ = [
    "bernoulli",
    "ExpansionTerm",
    "AsymptoticExpansion",
    "zeta_psum_expansion",
    "invert_to_x_expansion",
    "synthesize_annihilator",
]

_BERNOULLI_CACHE: list = [Fraction(1)]
_BERNOULLI_MAX = 256


def bernoulli(r: int) -> Fraction:
    """Exact B_r in the convention with B_1 = -1/2.

    Computed from the defining recurrence sum_{j<=r} C(r+1, j) B_j = 0.
    """
    if r < 0:
        raise ValueError("index must be nonnegative")
    if r > _BERNOULLI_MAX:
        raise OverflowError(f"Bernoulli index {r} beyond supported {_BERNOULLI_MAX}")
    while len(_BERNOULLI_CACHE) <= r:
        n = len(_BERNOULLI_CACHE)
        acc = Fraction(0)
        for j, bj in enumerate(_BERNOULLI_CACHE):
            acc += math.comb(n + 1, j) * bj
        _BERNOULLI_CACHE.append(-acc / (n + 1))
    return _BERNOULLI_CACHE[r]


def _snap_scalar(v):
    """Collapse a negligible imaginary part; keep exact types unchanged."""
    if isinstance(v, complex) and abs(v.imag) == 0.0:
        return v.real
    return v


@dataclass(frozen=True)
class ExpansionTerm:
    """One term c * v^exponent * (ln v)^log_power with v the variable tag."""

    coeff: complex
    exponent: complex
    log_power: int = 0
    variable: str = "x"

    def evaluate(self, v):
        out = self.coeff * v ** self.exponent
        if self.log_power:
            out = out * math.log(v) ** self.log_power
        return out

    def to_record(self) -> dict:
        c, e = complex(self.coeff), complex(self.exponent)
        return {"coeff_re": c.real, "coeff_im": c.imag,
                "exponent_re": e.real, "exponent_im": e.imag,
                "log_power": self.log_power, "variable": self.variable}


@dataclass(frozen=True)
class AsymptoticExpansion:
    """Finite divergence model: sum of terms, a known constant, a remainder.

    `constant` collects the known degree-zero contributions; it is kept out
    of `terms` so annihilator synthesis only ever sees genuine divergences.
    The unexpanded remainder is o(v^remainder_order).
    """

    terms: tuple
    remainder_order: float
    constant: complex = 0
    variable: str = "x"

    def __post_init__(self):
        ordered = tuple(sorted(
            (t for t in self.terms if t.coeff != 0),
            key=lambda t: (-complex(t.exponent).real, -t.log_power)))
        object.__setattr__(self, "terms", ordered)

    def evaluate(self, v):
        acc = self.constant
        for t in self.terms:
            acc = acc + t.evaluate(v)
        return acc

    def to_json(self) -> str:
        return json.dumps({
            "variable": self.variable,
            "constant_re": complex(self.constant).real,
            "constant_im": complex(self.constant).imag,
            "remainder_order": self.remainder_order,
            "terms": [t.to_record() for t in self.terms],
        }, indent=2)


def _merge_terms(raw: Sequence[tuple], variable: str):
    """Combine (coeff, exponent, log_power) triples with colliding keys.

    Zero coefficients are dropped; double-precision ones also below 1e-13,
    their rounding floor.  Exact and mpmath coefficients keep every nonzero
    term.
    """
    bucket: dict = {}
    for c, e, m in raw:
        ec = complex(e)
        key = (round(ec.real / EXPONENT_MERGE_TOL),
               round(ec.imag / EXPONENT_MERGE_TOL), m)
        if key in bucket:
            c0, e0, m0 = bucket[key]
            bucket[key] = (c0 + c, e0, m0)
        else:
            bucket[key] = (c, e, m)
    out = []
    for c, e, m in bucket.values():
        if c == 0 or (isinstance(c, (float, complex)) and abs(c) < 1e-13):
            continue
        out.append(ExpansionTerm(_snap_scalar(c), _snap_scalar(e), m, variable))
    return out


def divergent_exponent(e) -> bool:
    """Liveness rule of the ladders: Re e >= 0 and e != 0, up to SNAP_RADIUS.

    Degree-zero content is not divergent, and is kept as a constant."""
    ec = complex(e)
    return ec.real >= -SNAP_RADIUS and abs(ec) > SNAP_RADIUS


def _negligible(c) -> bool:
    """|c| at the rounding floor of its arithmetic: exactly 0 for int and
    Fraction, 1e-13 for doubles, five digits above working precision for
    mpmath numbers."""
    if isinstance(c, (int, Fraction)):
        return c == 0
    if isinstance(c, (mpmath.mpf, mpmath.mpc)):
        return abs(c) <= mpmath.mpf(10) ** (5 - mpmath.mp.dps)
    return abs(c) <= 1e-13


def peel_ladder(pending, live, lower_order):
    """Work a ledger of divergent (coeff, exponent) content top-down.

    Each round merges colliding exponents, drops negligible coefficients,
    and removes the live term c*n^e of largest real exponent; its unit
    eigenobject carries lower-order content a*n^f for each (a, f) in
    lower_order(e), so -c*a goes back onto the ledger at f.  Runs in the
    arithmetic of the coefficients and exponents given.  Returns the
    removed terms in order and the ledger left when nothing is live.
    """
    removed = []
    while True:
        merged = []                     # (c, e, complex(e))
        for c, e in pending:
            ec = complex(e)
            for i, (mc, me, mec) in enumerate(merged):
                if abs(ec - mec) < EXPONENT_MERGE_TOL:
                    merged[i] = (mc + c, me, mec)
                    break
            else:
                merged.append((c, e, ec))
        pending = [(c, e) for c, e, _ in merged if not _negligible(c)]
        top = [p for p in pending if live(p[1])]
        if not top:
            return removed, pending
        if len(removed) >= 64:
            raise NonTriangularError(
                "exponent ladder did not terminate; expansion is not a "
                "descending unit-gap family")
        c, e = max(top, key=lambda p: complex(p[1]).real)
        pending.remove((c, e))
        removed.append((c, e))
        pending += [(-c * a, f) for a, f in lower_order(e)]


def gamma_ratio_coeffs(rho) -> list:
    """[a_0, ..., a_d] with Gamma(n)/Gamma(n-rho) ~ n^rho sum_j a_j n^-j,
    d = ceil(Re rho) - LEDGER_FLOOR - 1, so the last exponent rho - d lies
    less than one above the ledger floor.

    The series put into the eigensequence's own recurrence
    (n - rho) r_{n+1} = n r_n gives a_0 = 1 and, at n^{rho+1-m},
      (m-1) a_{m-1} = sum_{j<m-1} a_j (C(rho-j, m-j) - rho C(rho-j, m-1-j)),
    with each binomial row C(rho-j, .) built once.  It runs in the
    arithmetic of rho (double, complex, mpmath); an int or Fraction rho
    gives exact rationals, and at a nonnegative integer the series
    terminates in the falling factorial (n-1)(n-2)...(n-rho).
    """
    if isinstance(rho, int):
        rho = Fraction(rho)
    D = int(math.ceil(max(0.0, complex(rho).real))) - LEDGER_FLOOR
    one = rho ** 0
    a, rows = [one], []
    for m in range(2, D + 1):
        x, row = rho - (m - 2), [one]    # C(rho - j, k), j = m - 2
        for k in range(1, D - m + 3):
            row.append(row[-1] * (x - k + 1) / k)
        rows.append(row)
        a.append(sum(a[j] * (rows[j][m - j] - rho * rows[j][m - 1 - j])
                     for j in range(m - 1)) / (m - 1))
    return a


def eigensequence_ladder():
    """A lower_order for one peel_ladder run: rung rho's (b_j, rho - j),
    j >= 1, are gamma_ratio_coeffs(rho)'s, exact within SNAP_RADIUS of a
    nonnegative integer.  If rho = sigma - 1, sigma the rung before (live
    rho puts Re sigma > 0: sigma has one more a_j), g_rho = g_sigma/(n -
    sigma) gives them in O(D) as b_j = a_j + sigma b_{j-1}."""
    above = None, ()
    def lower_order(rho):
        nonlocal above
        n, (top, a) = round(complex(rho).real), above
        r = n if n >= 0 and abs(complex(rho) - n) <= SNAP_RADIUS else rho
        b = gamma_ratio_coeffs(r) if top is None or r != top - 1 else list(
            itertools.accumulate(a[1:-1], lambda x, y: y + top * x,
                                 initial=a[0]))
        above = r, b
        return [(c, rho - j) for j, c in enumerate(b) if j]
    return lower_order


@functools.cache
def _bernoulli_factor(r: int) -> Fraction:
    """(-1)^{r-1} B_r / r!, the rational part of the r-th correction."""
    return (-1) ** (r - 1) * Fraction(bernoulli(r), math.factorial(r))


def _psum_corrections(s, r_max: int):
    """(r, (-1)^{r-1}(B_r/r!) s(s+1)...(s+r-2)) for 2 <= r <= r_max with
    B_r != 0: the coefficient of k^{1-s-r} in the p-sum model, in the
    arithmetic of s.  The rising product gains one factor s + j per r,
    j = r - 2 an int, so each coefficient is the product s(s+1)...(s+r-2)
    taken left to right, the same number however far the generator runs."""
    product = 1
    for r in range(2, r_max + 1):
        product = product * (s + (r - 2))
        factor = _bernoulli_factor(r)
        if factor:
            yield r, factor * product


def zeta_psum_expansion(s, order: Optional[int] = None) -> AsymptoticExpansion:
    """Divergence model of the p-sum of sum n^{-s}, variable k.

    Terms: k^{1-s}/(1-s), k^{-s}/2, and the Bernoulli corrections of
    _psum_corrections.  Degree-zero contributions land in the constant
    slot; the unknown analytic constant (the continuation value itself) is
    the caller's to extract.  order=None keeps every exponent with Re >= 0
    plus one guard correction.
    """
    sc = complex(s)
    if abs(sc - 1) <= SNAP_RADIUS:
        raise SAtPoleError("the p-sum expansion is singular at s = 1")
    r_max = max(2, math.floor(-sc.real + 1) + 3 if order is None else order)
    exact = isinstance(s, (int, Fraction)) or (
        isinstance(s, float) and s == int(s))
    if exact:
        s = Fraction(s)
    content = [(1 / (1 - s), 1 - s), (Fraction(1, 2) if exact else 0.5, -s),
               *((c, 1 - s - r) for r, c in _psum_corrections(s, r_max))]
    kept = [(c, e, 0) for c, e in content if abs(complex(e)) > SNAP_RADIUS]
    return AsymptoticExpansion(
        tuple(_merge_terms(kept, "k")),
        remainder_order=complex(1 - s - r_max).real - 1,
        constant=sum(c for c, e in content if abs(complex(e)) <= SNAP_RADIUS),
        variable="k")


def _x_power_lower_order(gamma) -> list:
    """Content of x^gamma below k^gamma in integer-part powers, down to
    gamma - floor(Re gamma) - 1, in the averaged (strong) sense: gamma times
    the p-sum model of n^(gamma-1), constant included, whose terms are
    (B_r/r!) gamma(gamma-1)...(gamma-r+1) k^(gamma-r), B_1 taken as +1/2.
    The model's least order, 2, is one term deeper than Re gamma < 1 needs.
    """
    floor = math.floor(complex(gamma).real)
    model = zeta_psum_expansion(1 - gamma, order=floor + 1)
    content = [(t.coeff, t.exponent) for t in model.terms[1:]]
    return [(gamma * c, e) for c, e in content + [(model.constant, 0)]
            if c != 0 and round(complex(gamma - e).real) <= floor + 1]


def invert_to_x_expansion(exp_k: AsymptoticExpansion) -> AsymptoticExpansion:
    """Rewrite a k-expansion as an x-expansion with a strongly-null error.

    Works top order first: the leading pending k-term c*k^gamma is matched
    by c*x^gamma, whose own k-rewriting is subtracted from the pending
    terms; the ladder terminates once every pending exponent has Re < 0.
    For the p-sum of sum n^{-s} the Bernoulli corrections cancel exactly
    and a single x-term survives.
    """
    if exp_k.variable != "k":
        raise ValueError("input must be a k-expansion")
    if any(t.log_power for t in exp_k.terms):
        raise NonTriangularError("log-carrying k-terms are not invertible here")
    removed, pending = peel_ladder(
        [(t.coeff, t.exponent) for t in exp_k.terms], divergent_exponent,
        _x_power_lower_order)
    # degree-zero content belongs in the constant slot, not in terms
    constant = exp_k.constant
    tail = []
    for c, e in pending:
        if abs(complex(e)) <= SNAP_RADIUS:
            constant = constant + c
        else:
            tail.append(complex(e).real)
    terms = _merge_terms([(c, e, 0) for c, e in removed], "x")
    return AsymptoticExpansion(tuple(terms),
                               remainder_order=min(min(tail, default=-1.0),
                                                   -1e-9),
                               constant=constant, variable="x")


def synthesize_annihilator(exp_x: AsymptoticExpansion):
    """Regular polynomial annihilating the expansion's divergent terms.

    Each term c * x^rho (ln x)^m with Re(rho) >= 0 and rho != 0 contributes
    the factor (A - 1/(rho+1)) with multiplicity m+1.  A term with rho = 0
    (within tolerance) is eigenvalue-1 content: constants cannot be told
    apart from the limit and pure logs cannot be annihilated at all, so the
    outcome is a PoleSignal rather than a polynomial.  Terms with
    Re(rho) < 0 vanish classically and need no factor.
    """
    factors = []
    for t in exp_x.terms:
        rho = complex(t.exponent)
        if rho.real < -SNAP_RADIUS:
            continue
        if abs(rho) <= LAMBDA_EPS:
            return PoleSignal(
                origin="log-divergence" if t.log_power else "constant-eigencontent",
                log_power=max(1, t.log_power),
                detail={"coeff": complex(t.coeff)})
        lam = 1 / (t.exponent + 1)
        if abs(complex(lam) - 1) <= LAMBDA_EPS:
            return PoleSignal(origin="eigenvalue-one-factor",
                              detail={"exponent": rho})
        factors.append((_snap_scalar(lam), t.log_power + 1))
    return build_regular_polynomial(factors)
