"""Limit extraction from tail samples.

Repeated averaging leaves residuals of the form c/x, c*ln(x)/x, c/x^2 plus a
mean-zero oscillation, so the limit is read off as the constant of a small
least-squares model fitted over the last decade of the horizon.  A plain
decade mean would be polluted at the 1/x level; the fit removes the known
residual shapes and lets the oscillation project out, typically improving
the extracted constant by four to six orders of magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

__all__ = ["TailFit", "tail_points", "decade_variation", "fit_limit",
           "fit_limit_nodes", "snap_to_rational"]

#: sampled integer cells per decade window
SAMPLE_CELLS = 160


@dataclass(frozen=True)
class TailFit:
    limit: complex
    stderr: float          # standard error of the constant column
    residual_rms: float
    window: tuple
    coefficients: dict = field(default_factory=dict)

    @property
    def real_limit(self) -> float:
        return float(np.real(self.limit))


def tail_points(horizon: int) -> np.ndarray:
    """SAMPLE_CELLS integer cell indices, log-spaced over the last decade of
    the horizon (fewer where rounding merges neighbours)."""
    lo = max(1, horizon // 10)
    ks = np.unique(np.round(np.geomspace(lo, horizon - 1,
                                         SAMPLE_CELLS)).astype(int))
    return ks


def _window_values(f, horizon: int):
    from .seqfun import NODES
    ks = tail_points(horizon)
    rows = f.node_values(horizon)[ks]
    xs = (ks[:, None] + NODES[None, :]).ravel()
    return xs, rows.ravel()


def _window_means(f, horizon: int):
    """Per-cell integral means over every cell of the last decade.

    Using all consecutive cells (not a sparse sample) is essential: the
    residuals are often periodic in the cell index, and a contiguous window
    balances any period to one part in the window length.
    """
    from .seqfun import WEIGHTS
    lo = max(1, horizon // 10)
    rows = f.node_values(horizon)[lo:horizon]
    ys = rows @ WEIGHTS
    xs = np.arange(lo, horizon, dtype=np.float64) + 0.5
    return xs, ys


def relative_spread(ys) -> float:
    """Spread of the real (and imaginary) parts over max(1, mean |y|)."""
    spread = float(np.max(ys.real) - np.min(ys.real))
    if np.iscomplexobj(ys):
        spread = max(spread, float(np.max(ys.imag) - np.min(ys.imag)))
    return spread / max(1.0, float(np.mean(np.abs(ys))))


def decade_variation(f, horizon: int) -> float:
    """Relative spread of f over its last decade (the convergence test)."""
    _, ys = _window_values(f, horizon)
    return relative_spread(ys)


def fit_limit_nodes(f, horizon: int, *,
                    extra_exponents: Sequence[complex] = ()) -> TailFit:
    """Tail model fitted to raw node samples instead of cell means.

    Cell means hide any within-interval structure: a growing oscillation
    whose interval averages happen to stabilize looks convergent to the
    mean-based fit.  The node-level residual exposes it, so this fit is
    the honest convergence check while the mean-based one supplies the
    better-conditioned value.
    """
    xs, ys = _window_values(f, horizon)
    return fit_limit_array(xs, ys, extra_exponents=extra_exponents)


def fit_limit(f, horizon: int, *, extra_exponents: Sequence[complex] = (),
              with_plain_log: bool = False) -> TailFit:
    """Fit  y(x) = L + a/x + b*ln(x)/x + c/x^2 (+ caller terms)  on the tail.

    extra_exponents adds columns x^e for residual ladders the caller knows
    about (for instance the fractional exponents left after annihilation).
    Returns the constant L with a standard error from the fit covariance.
    """
    xs, ys = _window_means(f, horizon)
    return fit_limit_array(xs, ys, extra_exponents=extra_exponents,
                           with_plain_log=with_plain_log)


def power_column(xs: np.ndarray, e) -> np.ndarray:
    """The column x^e: real when e is real, complex otherwise."""
    ec = complex(e)
    return xs.astype(complex) ** ec if ec.imag else xs ** ec.real


def lstsq_columns(cols, ys):
    """Least-squares fit of ys on the columns, each scaled to unit maximum.

    Returns the coefficients of the unscaled columns, the residual rms, and
    the standard error of the first coefficient from the normal-equation
    inverse.
    """
    A = np.column_stack(cols)
    if np.iscomplexobj(ys) and not np.iscomplexobj(A):
        A = A.astype(complex)
    norms = np.max(np.abs(A), axis=0)
    An = A / norms
    coef, *_ = np.linalg.lstsq(An, ys, rcond=None)
    resid = ys - An @ coef
    rms = float(np.sqrt(np.mean(np.abs(resid) ** 2)))
    try:
        cov = np.linalg.inv(An.conj().T @ An)
        dof = max(1, len(ys) - len(coef))
        stderr = float(np.sqrt(np.abs(cov[0, 0]) * rms**2 * len(ys) / dof)
                       / norms[0])
    except np.linalg.LinAlgError:
        stderr = rms
    return coef / norms, rms, stderr


def fit_limit_array(xs, ys, *, extra_exponents: Sequence[complex] = (),
                    max_log_power: int = 1,
                    with_log_over_x2: bool = False,
                    with_plain_log: bool = False) -> TailFit:
    """Same tail model fitted to explicit samples (xs, ys).

    max_log_power widens the log ladder to (ln x)^m / x for m up to that
    power; sequences built from repeated running averages of 1/x content
    pick up one extra log per pass, so drivers that know their pass count
    should ask for that many.  with_plain_log adds a bare ln(x) column and
    reports its coefficient; that column is a divergence *detector*, so
    callers using it should not trust the constant as a limit.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys)
    cols = [np.ones_like(xs), 1.0 / xs, 1.0 / xs**2]
    log_col = None
    if with_plain_log:
        log_col = len(cols)
        cols.append(np.log(xs))
    for m in range(1, max(1, max_log_power) + 1):
        cols.append(np.log(xs) ** m / xs)
    if with_log_over_x2:
        cols.append(np.log(xs) / xs**2)
    for e in extra_exponents:
        ec = complex(e)
        if abs(ec) < 1e-13 or abs(ec.real) > 6:
            continue
        cols.append(power_column(xs, ec))
    coef, rms, stderr = lstsq_columns(cols, ys)
    limit = coef[0]
    if not np.iscomplexobj(ys):
        limit = float(np.real(limit))
    named = {"const": limit}
    if log_col is not None:
        named["log"] = complex(coef[log_col])
    return TailFit(limit=limit, stderr=stderr, residual_rms=rms,
                   window=(int(xs[0]), int(xs[-1])), coefficients=named)


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
