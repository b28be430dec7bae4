"""Limit drivers: classical, strong, generalised, discrete, and the
closed-form mixed-coordinate tables."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cesaro.asymptotics import AsymptoticExpansion, ExpansionTerm
from cesaro.climits import (cdlim_power, cesaro_limit, cesaro_limit_discrete,
                            classical_limit, clim_k_alpha, clim_x_alpha,
                            strong_cesaro_limit)
from cesaro.config import DEFAULT_CONFIG
from cesaro.errors import NotConvergentError, is_pole
from cesaro.seqfun import (PiecewiseFn, alt_naturals, alt_ones, naturals,
                           ones, psum_function, zero_padded)

CFG = DEFAULT_CONFIG
FAST = DEFAULT_CONFIG.with_(horizon=2 * 10 ** 4)


def _from_callable(fn, label=""):
    return PiecewiseFn.from_callable(fn, label=label)


def test_classical_limit_smooth_decay():
    f = _from_callable(lambda x: 3.0 + 1.0 / (1.0 + np.asarray(x, float)))
    assert classical_limit(f, FAST) == pytest.approx(3.0, abs=1e-8)


def test_classical_limit_rejects_divergence():
    f = psum_function(ones())
    with pytest.raises(NotConvergentError):
        classical_limit(f, FAST)


def test_strong_limit_alternating_ones():
    res = strong_cesaro_limit(psum_function(alt_ones()), CFG)
    assert res.limit == pytest.approx(0.5, abs=1e-8)
    assert res.mechanism == "strong(1)"
    assert res.removed_terms == ()


def test_strong_limit_alternating_naturals():
    res = strong_cesaro_limit(psum_function(alt_naturals()), CFG)
    assert res.limit == pytest.approx(0.25, abs=1e-7)
    assert res.mechanism == "strong(2)"


def test_strong_limit_exact_mode_snaps():
    cfg = CFG.with_(exact_mode=True)
    res = strong_cesaro_limit(psum_function(alt_ones()), cfg)
    assert res.limit == Fraction(1, 2)


def test_strong_limit_exhausts_budget():
    f = psum_function(naturals())
    with pytest.raises(NotConvergentError):
        strong_cesaro_limit(f, FAST.with_(max_pure_power=2))


def test_generalised_limit_of_step_ramp():
    # floor(x) ~ x - 1/2: annihilating the x term leaves -1/2
    f = psum_function(ones())
    exp = AsymptoticExpansion((ExpansionTerm(1.0, 1.0),),
                              remainder_order=-1.0)
    res = cesaro_limit(f, exp, CFG)
    assert res.limit == pytest.approx(-0.5, abs=1e-8)
    assert res.mechanism == "generalised"
    assert res.removed_terms
    assert res.q_used is not None and res.q_used.eval_scalar(1) == 1


def test_generalised_limit_pole_on_log_content():
    f = _from_callable(lambda x: np.log(np.maximum(np.asarray(x, float), 1e-9)))
    exp = AsymptoticExpansion((ExpansionTerm(1.0, 0.0, log_power=1),),
                              remainder_order=-1.0)
    res = cesaro_limit(f, exp, FAST)
    assert res.mechanism == "pole"
    assert is_pole(res.limit)


def test_clim_k_alpha_table():
    for n in range(5):
        for r in range(5):
            assert clim_k_alpha(n, r) == Fraction((-1) ** n, n + r + 1)
    assert clim_k_alpha(0.5, 3) == 0
    assert clim_k_alpha(1 + 1j, 1) == 0


def test_clim_x_alpha_table():
    assert clim_x_alpha(0, 0) == 1
    assert clim_x_alpha(0, 1) == Fraction(1, 2)
    assert clim_x_alpha(1 + 1j, 2) == 0
    assert clim_x_alpha(0.5, 0) == 0


def test_clim_tables_reject_negative_real_part():
    with pytest.raises(ValueError):
        clim_k_alpha(-1, 0)
    with pytest.raises(ValueError):
        clim_x_alpha(0, -1)


def test_theorem_table_binomial_consistency():
    # expanding k^n a^r = (x-a)^n a^r termwise, only the j=0 binomial term
    # carries a nonzero x-table value; the identity must hold exactly
    for n in range(6):
        for r in range(3):
            acc = Fraction(0)
            for j in range(n + 1):
                sign = Fraction((-1) ** (n - j))
                x_val = clim_x_alpha(j, 0)
                if x_val == 0:
                    continue
                acc += math.comb(n, j) * sign * clim_x_alpha(0, n - j + r)
            assert acc == clim_k_alpha(n, r)


def _mixed_fn(delta, r):
    dc = complex(delta)

    def fn(x):
        x = np.asarray(x, dtype=float)
        a = x - np.floor(x)
        out = x.astype(complex) ** dc if dc.imag else x ** dc.real
        return out * a ** r

    return PiecewiseFn.from_callable(fn, label=f"x^{delta}*a^{r}")


@pytest.mark.parametrize("delta", [0, 1, 0.5, 1 + 1j])
@pytest.mark.parametrize("r", [0, 1, 2])
def test_numeric_driver_matches_x_table(delta, r):
    table = clim_x_alpha(delta, r)
    f = _mixed_fn(delta, r)
    if abs(complex(delta)) < 1e-9:
        exp = None
    else:
        exp = AsymptoticExpansion((ExpansionTerm(1.0, delta),),
                                  remainder_order=-1.0)
    res = cesaro_limit(f, exp, CFG)
    assert complex(res.limit) == pytest.approx(complex(table), abs=1e-4)


def test_nonempty_removed_terms_never_reports_strong():
    f = psum_function(ones())
    exp = AsymptoticExpansion((ExpansionTerm(1.0, 1.0),),
                              remainder_order=-1.0)
    res = cesaro_limit(f, exp, CFG)
    assert res.removed_terms and "strong" not in res.mechanism


def test_cdlim_power_values():
    assert cdlim_power(0) == 1
    assert cdlim_power(3) == 1
    assert cdlim_power(0.5) == 0
    assert cdlim_power(2 + 1e-12) == 1
    with pytest.raises(ValueError):
        cdlim_power(-0.5)


def test_discrete_limit_constant_sequence():
    res = cesaro_limit_discrete([7] * 500, [], FAST)
    assert res.limit == pytest.approx(7, abs=1e-9)


def test_discrete_limit_integer_power_anomaly():
    # subtracting the exact falling-factorial eigensequence for k^1 leaves
    # the constant 1, which a discrete limit keeps
    res = cesaro_limit_discrete(lambda n: n, [(1, 1)], FAST)
    assert complex(res.limit).real == pytest.approx(1.0, abs=1e-7)


def test_discrete_limit_fractional_power_vanishes():
    res = cesaro_limit_discrete(lambda n: float(n) ** 0.5, [(1.0, 0.5)], FAST)
    assert abs(complex(res.limit)) < 1e-7


def test_discrete_limit_exact_arithmetic():
    cfg = FAST.with_(exact_mode=True)
    res = cesaro_limit_discrete([Fraction(5)] * 500, [], cfg)
    assert res.limit == Fraction(5)


def test_discrete_limit_runs_in_mpmath_arithmetic():
    # n^3.5 + 1/3 cancels ~12 digits at n = 2000; 30-digit entries keep
    # them through the subtraction, where doubles are left with ~1e-4
    with mpmath.workdps(30):
        rho = mpmath.mpf("3.5")
        vals = [mpmath.mpf(n) ** rho + mpmath.mpf(1) / 3
                for n in range(1, 2001)]
        res = cesaro_limit_discrete(vals, [(1, rho)], FAST)
    assert res.limit == pytest.approx(1 / 3, abs=1e-12)


def test_discrete_limit_needs_enough_entries():
    with pytest.raises(ValueError):
        cesaro_limit_discrete([1.0] * 10, [], FAST)
