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
a column and fit_terms is the one least-squares fit.  A TailDesign keeps
the Householder factor of each term set's scaled columns over one window,
each built whole by one QR, so a fit only reflects its samples and its bits
do not depend on what the design kept before; the driver windows, whose xs
depend on the horizon alone, are kept across calls by _tail_window.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .seqfun import NODES, WEIGHTS

__all__ = ["TAIL_TERMS", "TailDesign", "TailFit", "decade_variation",
           "fit_limit", "fit_limit_nodes", "fit_terms", "snap_to_rational",
           "term_column"]

#: sampled integer cells per decade window
SAMPLE_CELLS = 160

#: the default tail model: 1, 1/x, 1/x^2 and ln(x)/x
TAIL_TERMS = ((0, 0), (-1, 0), (-2, 0), (-1, 1))

#: term sets whose factor one TailDesign keeps; the least recent goes first
FACTORS_KEPT = 4

#: driver windows kept across calls by _tail_window
WINDOWS_KEPT = 6


@dataclass(frozen=True)
class TailFit:
    limit: complex
    stderr: float          # standard error of the constant column
    residual_rms: float
    coefficients: dict     # (exponent, log power) term -> coefficient


def _sample_cells(horizon: int) -> np.ndarray:
    """SAMPLE_CELLS cells, log-spaced over the last decade of the horizon
    (fewer where rounding merges neighbours)."""
    return np.unique(np.round(np.geomspace(max(1, horizon // 10),
                                           horizon - 1, SAMPLE_CELLS)
                              ).astype(int))


def _window_values(rows):
    """(TailDesign, node samples) of the _sample_cells of the rows; a step
    column's value is its sample at every node."""
    horizon = len(rows)
    cells = _sample_cells(horizon)
    return _tail_window("nodes", horizon), np.broadcast_to(
        rows[cells], (len(cells), len(NODES))).ravel()


def _window_means(rows):
    """(TailDesign, per-cell integral means) over every cell of the last
    decade.

    Using all consecutive cells (not a sparse sample) is essential: the
    residuals are often periodic in the cell index, and a contiguous window
    balances any period to one part in the window length.  The mean of a
    step column's cell is its value.
    """
    horizon = len(rows)
    tail = rows[max(1, horizon // 10):horizon]
    ys = tail[:, 0] if tail.shape[1] == 1 else tail @ WEIGHTS
    return _tail_window("means", horizon), ys


def _window_sequence(seq):
    """(TailDesign, a_n) of sequence_tail(seq), for a driver's levels."""
    return _tail_window("sequence", len(seq)), sequence_tail(seq)[1]


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


class _Factor(NamedTuple):
    """Householder QR of one term set's scaled columns: R, and in row j of
    V reflector j as LAPACK stores it, with its leading 1 at column j."""
    V: np.ndarray
    tau: np.ndarray
    R: np.ndarray
    row0: float            # |row 0 of R^{-1}|, for the constant's stderr
    norms: np.ndarray      # each column's max modulus before scaling


def _reflect(V, tau, y):
    """Q^H y in place, by the reflectors of V one at a time, as LAPACK's
    larf applies them to a column of the factored matrix."""
    for j, t in enumerate(np.conj(tau).tolist()):
        v = V[j, j:]
        y[j:] -= t * np.vdot(v, y[j:]) * v


class TailDesign:
    """The tail model over one window's xs: for each term set the
    Householder factor of its columns, each scaled to unit maximum.  The
    columns are built only to be factored, and each term set is factored
    whole, so a fit depends on its xs, terms and ys alone, never on what
    the design kept before.  At most FACTORS_KEPT factors are kept.  A
    design is not meant to be shared between threads."""

    def __init__(self, xs):
        self.xs = np.asarray(xs, dtype=np.float64)
        self._factors = OrderedDict()

    def factor(self, terms) -> _Factor:
        """The factor of the distinct (exponent, log power) terms, complex
        if an exponent is."""
        key = tuple((complex(e), m) for e, m in terms)
        if key in self._factors:
            self._factors.move_to_end(key)
            return self._factors[key]
        cols = np.array([term_column(self.xs, e, m) for e, m in terms],
                        dtype=complex if any(e.imag for e, _m in key)
                        else np.float64)
        norms = np.max(np.abs(cols), axis=1)
        cols /= norms[:, None]
        V, tau = np.linalg.qr(cols.T, mode="raw")
        k = len(tau)
        R = np.triu(V[:, :k].T)
        for j in range(k):              # keep only reflector j in row j
            V[j, :j] = 0
            V[j, j] = 1
        row0 = float(np.linalg.norm(np.linalg.solve(R, np.eye(k))[0]))
        self._factors[key] = _Factor(V, tau, R, row0, norms)
        if len(self._factors) > FACTORS_KEPT:
            self._factors.popitem(last=False)
        return self._factors[key]


@lru_cache(maxsize=WINDOWS_KEPT)
def _tail_window(kind: str, n: int) -> TailDesign:
    """The TailDesign of a driver's last-decade window, whose xs depend on
    n alone: "means" (the cell means of n cells, _window_means), "nodes"
    (the node samples of n cells, _window_values) or "sequence" (the
    entries of a sequence of length n, _window_sequence).  A window and the
    factors it keeps serve every later call with the same n."""
    lo = max(1, n // 10)
    if kind == "means":
        xs = np.arange(lo, n, dtype=np.float64) + 0.5
    elif kind == "nodes":
        xs = (_sample_cells(n)[:, None] + NODES[None, :]).ravel()
    else:                               # "sequence"
        xs = sequence_tail(np.empty(n))[0]
    return TailDesign(xs)


def fit_terms(xs, ys, terms) -> TailFit:
    """Least-squares fit of ys on the columns of the (exponent, log power)
    terms, each scaled to unit maximum; xs may be a TailDesign.

    The design's factor QR = A is kept, and the fit reflects a copy of ys
    by its k reflectors: the first k entries z of Q^H y and the norm of the
    rest are what a QR factorisation of [A | y] would put in its last
    column.  R c = z gives the coefficients (solve's LU pivots nowhere on a
    triangle), the norm the residual and row 0 of R^{-1} the constant's
    stderr.  Complex ys on a real design reflect and solve their real and
    imaginary parts apart, so real samples passed as complex give the real
    fit's bits with an imaginary part of 0.  A repeated term enters once,
    which keeps R nonsingular.  limit is the coefficient of the first term;
    coefficients maps each term to its coefficient.
    """
    unique = {}
    for e, m in terms:
        unique.setdefault((complex(e), m), (e, m))
    terms = list(unique.values())
    n, k = len(ys), len(terms)
    if n <= k:
        raise ValueError(f"{n} samples cannot fit {k} terms")
    design = xs if isinstance(xs, TailDesign) else TailDesign(xs)
    f = design.factor(terms)
    if np.iscomplexobj(ys) and not np.iscomplexobj(f.V):
        parts = [ys.real.astype(np.float64), ys.imag.astype(np.float64)]
    else:
        parts = [ys.astype(f.V.dtype)]
    for y in parts:
        _reflect(f.V, f.tau, y)
    coef, *im = (np.linalg.solve(f.R, y[:k]) / f.norms for y in parts)
    if im:
        coef = coef + 1j * im[0]
    rms = math.hypot(*(np.linalg.norm(y[k:]) for y in parts)) / math.sqrt(n)
    stderr = float(f.row0 * rms * np.sqrt(n / (n - k)) / f.norms[0])
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
