"""Limit extraction from tail samples.

Repeated averaging leaves residuals of the form c/x, c*ln(x)/x, c/x^2 plus a
mean-zero oscillation, so the limit is read off as the constant of a small
least-squares model fitted over the last decade of the horizon.  A plain
decade mean would be polluted at the 1/x level; the fit removes the known
residual shapes and lets the oscillation project out, typically improving
the extracted constant by four to six orders of magnitude.

The model is one list of (exponent, log power) terms (e, m), each the
column x^e (ln x)^m.  TAIL_TERMS is the default list, and every caller
names the further terms its residual is known to carry.  term_column builds
a column and fit_terms is the one least-squares fit, read off one QR
factorisation of the columns with the samples appended.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .seqfun import NODES, WEIGHTS

__all__ = ["TAIL_TERMS", "TailDesign", "TailFit", "decade_variation",
           "fit_limit", "fit_limit_nodes", "fit_terms", "snap_to_rational",
           "term_column"]

#: sampled integer cells per decade window
SAMPLE_CELLS = 160

#: the default tail model: 1, 1/x, 1/x^2 and ln(x)/x
TAIL_TERMS = ((0, 0), (-1, 0), (-2, 0), (-1, 1))


@dataclass(frozen=True)
class TailFit:
    limit: complex
    stderr: float          # standard error of the constant column
    residual_rms: float
    coefficients: dict     # (exponent, log power) term -> coefficient


def _window_values(rows):
    """Node samples of SAMPLE_CELLS cells, log-spaced over the last decade
    of the rows (fewer where rounding merges neighbours)."""
    horizon = len(rows)
    ks = np.unique(np.round(np.geomspace(max(1, horizon // 10), horizon - 1,
                                         SAMPLE_CELLS)).astype(int))
    xs = (ks[:, None] + NODES[None, :]).ravel()
    return xs, rows[ks].ravel()


def _window_means(rows):
    """Per-cell integral means over every cell of the last decade.

    Using all consecutive cells (not a sparse sample) is essential: the
    residuals are often periodic in the cell index, and a contiguous window
    balances any period to one part in the window length.
    """
    horizon = len(rows)
    lo = max(1, horizon // 10)
    ys = rows[lo:horizon] @ WEIGHTS
    xs = np.arange(lo, horizon, dtype=np.float64) + 0.5
    return xs, ys


def relative_spread(ys) -> float:
    """Spread of the real (and imaginary) parts over max(1, mean |y|)."""
    spread = float(np.max(ys.real) - np.min(ys.real))
    if np.iscomplexobj(ys):
        spread = max(spread, float(np.max(ys.imag) - np.min(ys.imag)))
    return spread / max(1.0, float(np.mean(np.abs(ys))))


def decade_variation(rows) -> float:
    """Relative spread of node rows over their last decade."""
    return relative_spread(_window_values(rows)[1])


def fit_limit_nodes(rows) -> TailFit:
    """TAIL_TERMS fitted to raw node samples instead of cell means."""
    return fit_limit_array(*_window_values(rows))


def fit_limit(rows) -> TailFit:
    """TAIL_TERMS fitted to the cell means of the rows' last decade."""
    return fit_limit_array(*_window_means(rows))


def term_column(xs: np.ndarray, e, m: int = 0) -> np.ndarray:
    """The column x^e (ln x)^m, complex only for complex e; a negative
    integer power is 1/x^k."""
    log_xs = np.log(xs) if m else None
    ec = complex(e)
    if not ec.imag and ec.real < 0 and ec.real.is_integer():
        k = int(-ec.real)
        return log_xs ** m / xs**k if m else 1.0 / xs**k
    if ec == 0:
        return log_xs ** m if m else np.ones_like(xs)
    col = xs.astype(complex) ** ec if ec.imag else xs ** ec.real
    return col * log_xs ** m if m else col


class TailDesign:
    """The tail-model columns over one window's xs, each built and scaled
    to unit maximum once, in the real or the complex kind of a fit.  A
    driver keeps one per window for a call, whose levels share the xs."""

    def __init__(self, xs):
        self.xs = np.asarray(xs, dtype=np.float64)
        self._columns = {}

    def column(self, e, m: int, complex_: bool):
        """(x^e (ln x)^m / its max modulus, that max) in the given kind."""
        key = (complex(e), m, complex_)
        if key not in self._columns:
            col = term_column(self.xs, e, m)
            col = col.astype(complex) if complex_ else col
            norm = np.max(np.abs(col))
            self._columns[key] = col / norm, norm
        return self._columns[key]


def fit_terms(xs, ys, terms) -> TailFit:
    """Least-squares fit of ys on the columns of the (exponent, log power)
    terms, each scaled to unit maximum; xs may be a TailDesign.

    R of one QR factorisation of the k columns with ys appended is the
    whole fit: R[:k, :k] c = R[:k, k] gives the coefficients (solve's LU
    pivots nowhere on a triangle), |R[k, k]| the residual norm and row 0
    of R[:k, :k]^{-1} the constant's stderr.  A repeated term enters once,
    which keeps R nonsingular.  limit is the coefficient of the first
    term; coefficients maps each term to its coefficient.
    """
    unique = {}
    for e, m in terms:
        unique.setdefault((complex(e), m), (e, m))
    terms = list(unique.values())
    n, k = len(ys), len(terms)
    if n <= k:
        raise ValueError(f"{n} samples cannot fit {k} terms")
    design = xs if isinstance(xs, TailDesign) else TailDesign(xs)
    complex_ = np.iscomplexobj(ys) or any(complex(e).imag for e, _m in terms)
    cols, norms = zip(*(design.column(e, m, complex_) for e, m in terms))
    R = np.linalg.qr(np.vstack([*cols, ys]).T, mode="r")
    coef = np.linalg.solve(R[:k, :k], R[:k, k]) / np.array(norms)
    rms = float(abs(R[k, k]) / np.sqrt(n))
    stderr = float(np.linalg.norm(np.linalg.solve(R[:k, :k], np.eye(k))[0])
                   * rms * np.sqrt(n / (n - k)) / norms[0])
    limit = coef[0] if np.iscomplexobj(ys) else float(np.real(coef[0]))
    return TailFit(limit=limit, stderr=stderr, residual_rms=rms,
                   coefficients=dict(zip(terms, coef)))


def fit_limit_array(xs, ys, terms=()) -> TailFit:
    """TAIL_TERMS plus the caller's terms fitted to explicit samples (xs, ys);
    xs may be a TailDesign over them.

    Repeated running averages of 1/x content add one log per pass, so a
    driver that knows its passes adds (-1, m) terms up to that power.  A
    (0, 1) term, a bare ln x, only detects a divergence: the constant of
    such a fit is no limit.
    """
    return fit_terms(xs, np.asarray(ys), (*TAIL_TERMS, *terms))


def sequence_tail(seq):
    """The last decade n > N/10 of a_n, n = 1..N, as (n, a_n) arrays."""
    seq = np.asarray(seq)
    lo = max(1, len(seq) // 10)
    return np.arange(lo + 1, len(seq) + 1, dtype=np.float64), seq[lo:]


def snap_to_rational(value, tol: float = 1e-9,
                     max_denominator: int = 720) -> Optional[Fraction]:
    """Snap a float near a small rational to that rational, else None."""
    v = complex(value)
    if abs(v.imag) > tol:
        return None
    cand = Fraction(v.real).limit_denominator(max_denominator)
    if abs(float(cand) - v.real) <= tol * max(1.0, abs(v.real)):
        return cand
    return None
