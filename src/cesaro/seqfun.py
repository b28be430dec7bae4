"""Sequences, series and their step-function embeddings on [0, infinity).

A sequence {a_n} is viewed as the step function a(x) = a_n on [n, n+1); a
series is summed by assigning a limit to its partial-sum ("p-sum") function
s(k + alpha) = a_1 + ... + a_k.  Averaging such functions repeatedly needs
fast, accurate cumulative integrals, so every :class:`PiecewiseFn` carries a
lazily materialized per-unit-interval representation: function values at
fixed Gauss-Legendre nodes inside each interval, from which interval
integrals, partial-interval integrals and interpolated point values are all
obtained by small dense matrix products.  Step pieces are handled exactly;
smooth pieces through the degree-7 interpolant per interval.

A function's cells are built in one pass from cell 0 when first needed, and
rebuilt from cell 0 if a later query reaches past them.  Nothing here is
locked: instances are not meant to be shared between threads.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "SeriesTerms",
    "PiecewiseFn",
    "psum_function",
    "embed_step",
    "ones",
    "alt_ones",
    "naturals",
    "alt_naturals",
    "n_pow_minus_s",
    "zero_padded",
]

#: Gauss-Legendre nodes per unit interval.  Eight nodes integrate the
#: degree-7 interpolant exactly and keep per-interval interpolation error far
#: below the limit-extraction tolerances for the smooth pieces that arise
#: from repeated averaging.
NODES_PER_INTERVAL = 8

_gl_x, _gl_w = np.polynomial.legendre.leggauss(NODES_PER_INTERVAL)
NODES = 0.5 * (_gl_x + 1.0)          # nodes in (0, 1)
WEIGHTS = 0.5 * _gl_w                # sum(WEIGHTS) == 1

# value row -> monomial coefficients in alpha (c with p(a) = sum c_j a^j)
_VANDER = np.vander(NODES, NODES_PER_INTERVAL, increasing=True)
TO_MONOMIAL = np.linalg.inv(_VANDER)

# value row -> partial integrals int_0^{a_i} p, one per node
_Q = NODES[:, None] * _VANDER / np.arange(1, NODES_PER_INTERVAL + 1)[None, :]
PARTIAL_FROM_VALUES = _Q @ TO_MONOMIAL


class SeriesTerms:
    """A series given by a pure, deterministic term map n -> a_n (n >= 1).

    Nothing is cached: each call sums the terms afresh, left to right from
    the int 0, so int terms give exact partial sums.
    """

    def __init__(self, term: Callable[[int], complex], label: str = ""):
        self.term = term
        self.label = label

    def __repr__(self):
        return f"SeriesTerms({self.label or self.term!r})"

    def psum(self, k: int):
        """The partial sum a_1 + ... + a_k."""
        return _partial_sums(self.term, k)[-1]

    def psum_array(self, k_max: int) -> np.ndarray:
        """Partial sums s_0..s_{k_max} as a float/complex vector."""
        return _as_array(_partial_sums(self.term, k_max))

    def term_array(self, k_max: int) -> np.ndarray:
        return _as_array([self.term(n) for n in range(1, k_max + 1)])


def _partial_sums(term: Callable[[int], complex], k: int) -> list:
    """[s_0, ..., s_k] with s_k = term(1) + ... + term(k), summed left to right.

    itertools.accumulate, not sum(): sum() of floats is compensated on
    Python 3.12 and later, and these sums must keep the same bits everywhere.
    """
    if k < 0:
        raise ValueError("partial-sum index must be >= 0")
    return list(itertools.accumulate((term(n) for n in range(1, k + 1)),
                                     initial=0))


def _as_array(values) -> np.ndarray:
    """complex128 if any value is complex, float64 otherwise."""
    complex_ = any(isinstance(v, complex) for v in values)
    return np.asarray(values, dtype=np.complex128 if complex_ else np.float64)


def _step_cells(values) -> np.ndarray:
    """Node rows of the step function with value values[k] on [k, k+1)."""
    return np.repeat(_as_array(values)[:, None], NODES_PER_INTERVAL, axis=1)


class PiecewiseFn:
    """A function on [0, inf) with a per-unit-interval node representation.

    kind is one of:

    ``step``          constant on each [k, k+1); exact cumulative.
    ``poly-in-alpha`` smooth on each interval, represented by node values
                      (sampled from a callable, or made by an operator).

    gen(n) returns the (n, G) node values of cells 0..n-1.
    """

    def __init__(self, kind: str, gen, *, label: str = "",
                 point_value: Optional[Callable[[float], complex]] = None,
                 closed_cumulative: Optional[Callable] = None):
        if kind not in ("step", "poly-in-alpha"):
            raise ValueError(f"unknown kind {kind!r}")
        self.kind = kind
        self.label = label
        self._gen = gen
        self._point_value = point_value
        self._closed_cumulative = closed_cumulative
        self._vals: Optional[np.ndarray] = None      # (n, G) node values
        self._prefix: Optional[np.ndarray] = None    # cumulative at 0..n
        self._averaged: Optional["PiecewiseFn"] = None

    def __repr__(self):
        n = 0 if self._vals is None else len(self._vals)
        return f"PiecewiseFn(kind={self.kind!r}, label={self.label!r}, cached={n})"

    # -- materialization ---------------------------------------------------

    def materialize(self, n: int) -> None:
        """Ensure node values and integer-point cumulatives exist up to x=n.

        Cells are always built from cell 0 in one gen call, so the values
        do not depend on earlier queries; a rebuild at least doubles the
        cell count, which keeps one-cell-at-a-time growth linear overall.
        """
        have = 0 if self._vals is None else len(self._vals)
        if have >= n:
            return
        vals = np.asarray(self._gen(max(n, 2 * have)))
        integrals = vals[:, 0] if self.kind == "step" else vals @ WEIGHTS
        self._prefix = np.concatenate([np.zeros(1, integrals.dtype),
                                       np.cumsum(integrals)])
        self._vals = vals

    def node_values(self, n: int) -> np.ndarray:
        self.materialize(n)
        return self._vals[:n]

    def prefix(self, n: int) -> np.ndarray:
        """Cumulative integral at the integer points 0..n."""
        self.materialize(n)
        return self._prefix[: n + 1]

    # -- evaluation --------------------------------------------------------

    def value(self, x: float):
        """Point evaluation.  Step kind uses the midpoint convention at
        interior integer points (the convention never affects cumulatives)."""
        x = float(x)
        if x < 0 or not math.isfinite(x):
            raise ValueError("value requires finite x >= 0")
        k = int(math.floor(x))
        a = x - k
        if self.kind == "step":
            steps = self.node_values(k + 1)[:, 0]
            if a == 0.0 and k >= 1:
                return (steps[k - 1] + steps[k]) / 2
            return steps[k]
        if self._point_value is not None:
            return self._point_value(x)
        row = self.node_values(k + 1)[k]
        coeffs = TO_MONOMIAL @ row
        return sum(c * a**j for j, c in enumerate(coeffs))

    def cumulative(self, X: float):
        """Integral of the function over [0, X]."""
        X = float(X)
        if X < 0 or not math.isfinite(X):
            raise ValueError("cumulative requires finite X >= 0")
        if self._closed_cumulative is not None:
            return self._closed_cumulative(X) - self._closed_cumulative(0.0)
        k = int(math.floor(X))
        a = X - k
        pre = self.prefix(k if a == 0.0 else k + 1)
        total = pre[k]
        if a > 0.0:
            if self.kind == "step":
                total = total + self._vals[k, 0] * a
            else:
                coeffs = TO_MONOMIAL @ self._vals[k]
                total = total + sum(c * a ** (j + 1) / (j + 1)
                                    for j, c in enumerate(coeffs))
        return total

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_step_term(term: Callable[[int], complex], label: str = "") -> "PiecewiseFn":
        """Step function with value term(k) on [k, k+1)."""
        return PiecewiseFn("step",
                           lambda n: _step_cells([term(k) for k in range(n)]),
                           label=label)

    @staticmethod
    def from_callable(fn: Callable[[np.ndarray], np.ndarray], *,
                      closed_cumulative: Optional[Callable] = None,
                      label: str = "") -> "PiecewiseFn":
        """Wrap a vectorized callable; optional exact antiderivative."""
        def gen(n):
            ks = np.arange(n, dtype=np.float64)[:, None]
            return np.asarray(fn(ks + NODES[None, :]))
        return PiecewiseFn("poly-in-alpha", gen, label=label,
                           point_value=lambda x: fn(np.array([float(x)]))[0],
                           closed_cumulative=closed_cumulative)

    @staticmethod
    def linear_combination(parts: Sequence[tuple]) -> "PiecewiseFn":
        """sum_i c_i * f_i over shared node grids."""
        parts = [(c, f) for c, f in parts]

        def gen(n):
            acc = None
            for c, f in parts:
                contrib = c * f.node_values(n)
                acc = contrib if acc is None else acc + contrib
            return acc

        def pv(x):
            return sum(c * f.value(x) for c, f in parts)

        return PiecewiseFn("poly-in-alpha", gen, point_value=pv,
                           label="+".join(f.label for _, f in parts))


def psum_function(terms: SeriesTerms) -> PiecewiseFn:
    """The p-sum function s(k + alpha) = a_1 + ... + a_k of a series."""
    f = PiecewiseFn("step",
                    lambda n: _step_cells(_partial_sums(terms.term, n - 1)),
                    label=f"psum({terms.label})")
    f.series = terms
    return f


def embed_step(seq) -> PiecewiseFn:
    """Embed a sequence as the step function a(x) = a_n on [n, n+1), n >= 1.

    The piece on [0, 1) is 0; limits never see it.  Accepts a SeriesTerms or
    a callable n -> a_n.
    """
    term = seq.term if isinstance(seq, SeriesTerms) else seq
    label = getattr(seq, "label", "seq")
    return PiecewiseFn.from_step_term(
        lambda k: term(k) if k >= 1 else 0 * term(1), label=f"step({label})")


# -- builtin series --------------------------------------------------------

def ones() -> SeriesTerms:
    return SeriesTerms(lambda n: 1, label="ones")


def alt_ones() -> SeriesTerms:
    return SeriesTerms(lambda n: 1 if n % 2 == 1 else -1, label="alt_ones")


def naturals() -> SeriesTerms:
    return SeriesTerms(lambda n: n, label="n")


def alt_naturals() -> SeriesTerms:
    return SeriesTerms(lambda n: n if n % 2 == 1 else -n, label="alt_n")


def n_pow_minus_s(s: complex) -> SeriesTerms:
    """Terms n^{-s} of the Dirichlet series defining zeta."""
    if s == int(s.real) and (not isinstance(s, complex) or s.imag == 0):
        m = int(s.real)
        if m <= 0:
            return SeriesTerms(lambda n, m=m: n ** (-m), label=f"n_pow({m})")
    sc = complex(s)
    if sc.imag == 0:
        return SeriesTerms(lambda n, p=-sc.real: float(n) ** p,
                           label=f"n_pow({sc.real})")
    return SeriesTerms(lambda n, p=-sc: complex(n) ** p, label=f"n_pow({sc})")


def zero_padded(inner: SeriesTerms, pattern: Sequence[int]) -> SeriesTerms:
    """Distribute the inner series over the 1-slots of a repeating 0/1 pattern.

    zero_padded(alt_ones, [1, 0, 1]) gives 1, 0, -1, 1, 0, -1, ... which is
    the classic example whose Cesaro sum moves from 1/2 to 2/3.
    """
    pattern = [int(b) for b in pattern]
    if not pattern or any(b not in (0, 1) for b in pattern):
        raise ValueError("pattern must be a nonempty list of 0/1 flags")
    per = len(pattern)
    live = sum(pattern)
    if live == 0:
        raise ValueError("pattern must retain at least one slot")
    prefix = [0]
    for b in pattern:
        prefix.append(prefix[-1] + b)

    def term(n: int):
        cycle, pos = divmod(n - 1, per)
        if pattern[pos] == 0:
            return 0
        return inner.term(cycle * live + prefix[pos] + 1)

    return SeriesTerms(term, label=f"zero_padded({inner.label},{pattern})")
