"""Averaging operators and regular polynomials built from them.

The continuous operator averages a function over [0, x]; the discrete one
averages the first n entries of a sequence.  Both preserve classical limits,
and both have power functions / binomial-type sequences as eigenobjects,
which is what makes polynomials in the operator useful: a regular polynomial
(one equal to 1 at the scalar argument 1) annihilates chosen eigencontent
while still preserving every classical limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .config import LAMBDA_EPS
from .errors import (CrossCheckMismatchError, LambdaIsOneError,
                     VanishingMassError)
from .seqfun import NODES, PARTIAL_FROM_VALUES, PiecewiseFn

__all__ = [
    "apply_P",
    "P_on_term",
    "apply_P_D",
    "apply_P_D_inverse",
    "RegularPolynomial",
    "build_regular_polynomial",
    "apply_regular_polynomial",
    "MeasureScheme",
    "apply_P_mu",
]


def apply_P(f: PiecewiseFn) -> PiecewiseFn:
    """Average f over [0, x]: g(x) = (1/x) * integral_0^x f.

    g(0) is defined as f(0), the x -> 0+ limit for piecewise-continuous f.
    Results are memoized on f, so repeated powers share cumulative caches.
    """
    if f._averaged is not None:
        return f._averaged

    def gen(n):
        return average_nodes(f.node_values(n), f.prefix(n)[:-1],
                             step=f.kind == "step")

    def pv(x):
        x = float(x)
        if x == 0.0:
            return f.value(0.0)
        return f.cumulative(x) / x

    g = PiecewiseFn("poly-in-alpha", gen, point_value=pv,
                    label=f"P[{f.label}]")
    f._averaged = g
    return g


def average_nodes(vals, pre, step: bool = False):
    """Node values of (1/x) * integral_0^x f on cells 0, 1, ..., from f's
    node values there and its integral up to each cell's start (step: f is
    constant on each cell).  Float or complex arrays, or double-double
    arrays (cesaro.dd.DDArray) for the smooth kind."""
    if step:
        partial = vals[:, :1] * NODES[None, :]
    else:
        partial = vals @ PARTIAL_FROM_VALUES.T
    ks = np.arange(len(vals), dtype=np.float64)[:, None]
    return (pre[:, None] + partial) / (ks + NODES[None, :])


def P_on_term(rho, m: int):
    """Closed form of the average of x^rho * (ln x)^m.

    Returns coefficients c_j with  P[x^rho ln^m x] = sum_j c_j x^rho ln^j x,
    j = 0..m.  Requires Re(rho) > -1 so the integral from 0 converges.
    Derivation: integrate by parts down the log power; each step divides by
    rho+1 and flips sign, giving c_j = (-1)^(m-j) (m!/j!) / (rho+1)^(m-j+1).
    """
    if m < 0:
        raise ValueError("log power must be nonnegative")
    if complex(rho).real <= -1:
        raise ValueError("averaging x^rho needs Re(rho) > -1")
    one = rho + 1
    out = []
    for j in range(m + 1):
        c = (-1) ** (m - j) * (math.factorial(m) // math.factorial(j))
        out.append((c / one ** (m - j + 1), j))
    return out


def apply_P_D(a: Sequence):
    """Running averages out_n = (a_1 + ... + a_n)/n, input indexed from 1.

    Runs in the arithmetic of the input: an ndarray gives an ndarray, a list
    of ints and Fractions gives exact Fractions, and any other list (floats,
    complex or mpmath numbers) is summed in the type of its entries.
    """
    if isinstance(a, np.ndarray):
        return np.cumsum(a) / np.arange(1, len(a) + 1)
    a = list(a)
    acc = Fraction(0) if all(isinstance(v, (int, Fraction)) for v in a) else 0
    out = []
    for n, v in enumerate(a, start=1):
        acc = acc + v
        out.append(acc / n)
    return out


def apply_P_D_inverse(t: Sequence):
    """Inverse of the running average: out_k = k*t_k - (k-1)*t_{k-1}.

    t_0 is taken as 0, so out_1 = t_1.  Exact for exact input.
    """
    t = list(t)
    out = []
    prev = 0
    for k, v in enumerate(t, start=1):
        out.append(k * v - (k - 1) * prev)
        prev = v
    return out


@dataclass(frozen=True)
class RegularPolynomial:
    """A polynomial in an averaging operator, stored in factored form.

    q(A) = normalization * prod_i (A - lambda_i)^{mult_i} * A^{pure_power}
    with normalization = prod_i 1/(1-lambda_i)^{mult_i}, so q(1) = 1.
    """

    factors: tuple = ()
    pure_power: int = 0

    @property
    def normalization(self):
        norm = 1
        for lam, mult in self.factors:
            norm = norm / (1 - lam) ** mult
        return norm

    @property
    def degree(self) -> int:
        return self.pure_power + sum(m for _, m in self.factors)

    def eval_scalar(self, z):
        """Evaluate q at a scalar argument; q(1) is exactly 1."""
        acc = self.normalization * z ** self.pure_power
        for lam, mult in self.factors:
            acc = acc * (z - lam) ** mult
        return acc

    def monomial_coefficients(self) -> list:
        """Coefficients c_j of q(A) = sum_j c_j A^j, ascending in j."""
        coeffs = [1]
        for lam, mult in self.factors:
            for _ in range(mult):
                nxt = [0] * (len(coeffs) + 1)
                for j, c in enumerate(coeffs):
                    nxt[j + 1] += c
                    nxt[j] += -lam * c
                coeffs = nxt
        coeffs = [0] * self.pure_power + [self.normalization * c for c in coeffs]
        return coeffs

    def describe(self) -> str:
        bits = []
        for lam, mult in self.factors:
            lam_s = f"{lam}" if not isinstance(lam, complex) or lam.imag else f"{lam}"
            piece = f"(A-{lam_s})"
            bits.append(piece if mult == 1 else piece + f"^{mult}")
        if self.pure_power:
            bits.append("A" if self.pure_power == 1 else f"A^{self.pure_power}")
        head = "" if not self.factors else f"{self.normalization}*"
        return head + "".join(bits) if bits else "1"


def build_regular_polynomial(factors, pure_power: int = 0) -> RegularPolynomial:
    """Validate and freeze a factored regular polynomial.

    Every factor eigenvalue must stay away from 1; a factor at 1 cannot be
    normalized and is the caller's cue that a pole is present.
    """
    if pure_power < 0:
        raise ValueError("pure power must be nonnegative")
    frozen = []
    for lam, mult in factors:
        if mult < 1 or mult != int(mult):
            raise ValueError("factor multiplicity must be a positive integer")
        if abs(complex(lam) - 1) <= LAMBDA_EPS:
            raise LambdaIsOneError(
                f"factor eigenvalue {lam} is within {LAMBDA_EPS} of 1")
        frozen.append((lam, int(mult)))
    return RegularPolynomial(factors=tuple(frozen), pure_power=pure_power)


def _apply_factor(f: PiecewiseFn, lam) -> PiecewiseFn:
    """(A - lam)/(1 - lam) applied once, continuous operator."""
    scale = 1.0 / (1.0 - lam)
    return PiecewiseFn.linear_combination([(scale, apply_P(f)),
                                           (-lam * scale, f)])


def apply_regular_polynomial(q: RegularPolynomial, f: PiecewiseFn, *,
                             cross_check_at: Sequence[float] = (),
                             cross_check_tol: float = 1e-8) -> PiecewiseFn:
    """Apply q to f by sequential factor application.

    Sequential application reuses each intermediate's cumulative cache, which
    is what makes power escalation cheap.  When cross_check_at points are
    given, the result is also evaluated through the expanded monomial form
    and the two (commuting) orders must agree there.
    """
    g = f
    for lam, mult in q.factors:
        for _ in range(mult):
            g = _apply_factor(g, lam)
    for _ in range(q.pure_power):
        g = apply_P(g)
    if cross_check_at:
        coeffs = q.monomial_coefficients()
        powers = [f]
        for _ in range(len(coeffs) - 1):
            powers.append(apply_P(powers[-1]))
        for x in cross_check_at:
            direct = g.value(x)
            expanded = sum(c * p.value(x) for c, p in zip(coeffs, powers))
            scale = max(1.0, abs(direct))
            if abs(direct - expanded) > cross_check_tol * scale:
                raise CrossCheckMismatchError(
                    f"factored vs monomial application disagree at x={x}: "
                    f"{direct} vs {expanded}")
    return g


class MeasureScheme:
    """A nonnegative weight on [0, inf) and its cumulative mass."""

    def __init__(self, mu: Callable[[np.ndarray], np.ndarray],
                 F_mu: Optional[Callable[[float], float]] = None,
                 label: str = ""):
        self.mu = mu
        self.label = label
        if F_mu is not None:
            self.F_mu = F_mu
            self._mass = None
        else:
            self._mass = PiecewiseFn.from_callable(mu, label=f"mu({label})")
            self.F_mu = self._mass.cumulative


def apply_P_mu(f: PiecewiseFn, scheme: MeasureScheme) -> PiecewiseFn:
    """Weighted average g(X) = (integral_0^X f * mu) / F_mu(X).

    The weighted integrand is carried on the same per-interval node grid as
    f, so with mu identically 1 this reproduces the plain average.
    """
    def wgen(n):
        pts = np.arange(n, dtype=np.float64)[:, None] + NODES[None, :]
        return f.node_values(n) * scheme.mu(pts)

    weighted = PiecewiseFn("poly-in-alpha", wgen,
                           point_value=lambda x: f.value(x) * scheme.mu(
                               np.array([float(x)]))[0],
                           label=f"{f.label}*mu")

    def gen(n):
        vals = weighted.node_values(n)
        pre = weighted.prefix(n)[:-1]
        partial = vals @ PARTIAL_FROM_VALUES.T
        ks = np.arange(n, dtype=np.float64)[:, None]
        mass = np.asarray([[scheme.F_mu(x) for x in row]
                           for row in ks + NODES[None, :]])
        if np.any(mass <= 0):
            raise VanishingMassError("cumulative mass vanished on the range")
        return (pre[:, None] + partial) / mass

    def pv(x):
        x = float(x)
        if x == 0.0:
            return f.value(0.0)
        mass = scheme.F_mu(x)
        if mass <= 0:
            raise VanishingMassError(f"F_mu({x}) = {mass}")
        return weighted.cumulative(x) / mass

    return PiecewiseFn("poly-in-alpha", gen, point_value=pv,
                       label=f"P_mu[{f.label}]")
