"""Limit drivers: classical, strong, generalised, discrete, and the
closed-form mixed-coordinate tables."""

import gc
import math
import os
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import cesaro.tailfit
from cesaro.asymptotics import (AsymptoticExpansion, ExpansionTerm,
                                zeta_psum_expansion)
from cesaro.climits import (cesaro_limit, cesaro_limit_discrete,
                            classical_limit, clim_k_alpha, clim_x_alpha,
                            strong_cesaro_limit)
from cesaro.config import DEFAULT_CONFIG, LimitConfig
from cesaro.errors import NotConvergentError, is_pole
from cesaro.seqfun import (PiecewiseFn, alt_naturals, alt_ones, naturals,
                           ones, psum_function, zero_padded)
from cesaro.zeta import eta

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


def test_classical_limit_rejects_a_small_bounded_oscillation():
    # the 0/alpha swing of 2^-10 * (1 - 1 + 1 - ...) is under the variation
    # threshold, yet it never decays, so there is no classical limit
    f = PiecewiseFn.linear_combination(
        [(2.0 ** -10, psum_function(alt_ones()))])
    with pytest.raises(NotConvergentError):
        classical_limit(f, FAST)


def test_gate_exit_is_recorded():
    # what `cesaro sum alt_n` runs
    res = strong_cesaro_limit(psum_function(alt_naturals()), CFG)
    assert res.diagnostics["gate"] == "variation"
    # 10/(1+x) spreads 1.5e-3 of the limit over the last decade, and the
    # tail model takes it out
    f = _from_callable(lambda x: 3.0 + 10.0 / (1.0 + np.asarray(x, float)))
    res = cesaro_limit(f, None, FAST)
    assert res.mechanism == "classical" and res.diagnostics["gate"] == "fit"
    assert res.limit == pytest.approx(3.0, abs=1e-8)


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


def test_a_negative_averaging_budget_is_rejected():
    with pytest.raises(ValueError, match="max_pure_power"):
        LimitConfig(max_pure_power=-1)
    with pytest.raises(ValueError, match="max_pure_power"):
        FAST.with_(max_pure_power=-1)
    assert LimitConfig(max_pure_power=0).max_pure_power == 0


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


def test_continuous_drivers_pinned_values():
    res = strong_cesaro_limit(psum_function(alt_naturals()), CFG)
    assert res.limit == pytest.approx(0.2499999982757418, rel=1e-12)
    assert res.mechanism == "strong(2)"
    res = cesaro_limit(psum_function(naturals()), zeta_psum_expansion(-1), CFG)
    assert res.limit == pytest.approx(-0.08333328452724058, rel=1e-12)
    assert res.q_used.describe() == "3/2*(A-1/3)A^2"
    assert res.diagnostics["escalations"] == 2


@pytest.mark.parametrize("call", [
    lambda cfg: strong_cesaro_limit(psum_function(alt_naturals()), cfg),
    lambda cfg: cesaro_limit(psum_function(naturals()),
                             zeta_psum_expansion(-1), cfg),
    lambda cfg: eta(-1.5, cfg),
], ids=["strong", "generalised", "eta"])
def test_continuous_drivers_leave_no_cyclic_garbage(call):
    cfg = CFG.with_(horizon=2000)
    call(cfg)                   # warm-up: lazy imports and module caches
    gc.collect()
    gc.disable()
    try:
        call(cfg)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_the_driver_never_writes_the_function_s_rows():
    # the first pass allocates; only the driver's own levels are averaged
    # in place
    cfg = CFG.with_(horizon=2000)
    f = _from_callable(lambda x: 1.0 + np.cos(np.asarray(x, float)))
    before = f.node_values(cfg.horizon).copy()
    res = strong_cesaro_limit(f, cfg)
    assert res.limit == pytest.approx(1.0, abs=1e-6)
    assert res.diagnostics["escalations"] >= 1
    assert np.array_equal(f.node_values(cfg.horizon), before)


#: one (10^5, 8) float64 array, the unit of the bound below
LEVEL_BYTES = 10 ** 5 * 8 * 8


def test_strong_limit_of_a_step_psum_holds_at_most_three_levels():
    # sum alt_n, two passes at the default horizon of 10^5 cells: the step
    # column (1/8 of a level), one level averaged in place and the tail
    # windows' factors, built cold here, peak at 2.16 levels.  Rows that
    # hold 8 copies of each step value, with a fresh array per level, peak
    # at 4.07
    assert CFG.horizon == 10 ** 5
    strong_cesaro_limit(psum_function(alt_naturals()), FAST)   # warm-up
    cesaro.tailfit._tail_window.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = strong_cesaro_limit(psum_function(alt_naturals()), CFG)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert res.mechanism == "strong(2)"
    assert peak <= 3 * LEVEL_BYTES


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


def test_discrete_pure_averaging_reports_strong():
    # 1, -1, 1, ... needs one running average and nothing removed
    res = cesaro_limit_discrete(lambda n: 1 if n % 2 else -1, [], FAST)
    assert res.mechanism == "strong(1)"
    assert res.removed_terms == () and res.diagnostics["escalations"] == 1
    assert res.q_used.degree == 1 and not res.q_used.factors
    assert res.limit == pytest.approx(0.0, abs=1e-4)


@pytest.mark.parametrize("scale, shift", [(2.0 ** -9, 0.0), (0.004, 5.0)])
def test_discrete_small_bounded_oscillation_is_averaged(scale, shift):
    # the swing is under the variation threshold, yet it never decays, so
    # it takes a running average, not a biased classical fit
    res = cesaro_limit_discrete(
        [scale * (n % 2) + shift for n in range(1, 20001)], [], FAST)
    assert res.mechanism == "strong(1)"
    assert res.limit == pytest.approx(scale / 2 + shift, abs=1e-8)


def test_discrete_slow_log_growth_is_not_a_limit():
    # 0.002 ln n spreads only 4.6e-3 over a decade and the tail model's
    # residual stays small; the log probe still sees the growth
    seq = [0.002 * math.log(n) for n in range(1, 10**5 + 1)]
    with pytest.raises(NotConvergentError):
        cesaro_limit_discrete(seq, [], CFG)


def test_discrete_integer_input_uses_the_whole_horizon():
    # the exact attempt does not close for 1, -1, 1, ..., so the integers
    # run in doubles on every entry, exactly as the same floats do
    ints = cesaro_limit_discrete(lambda n: 1 if n % 2 else -1, [], FAST)
    floats = cesaro_limit_discrete(lambda n: 1.0 if n % 2 else -1.0, [], FAST)
    assert ints.limit == floats.limit
    assert ints.diagnostics["horizon"] == floats.diagnostics["horizon"]
    assert ints.diagnostics["horizon"] == FAST.horizon


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
    assert res.diagnostics["gate"] == "exact"


def test_discrete_limit_exact_arm_scales_fractions_and_ints_alike():
    # n/3 + 1/2 minus (1/3)(n - 1) leaves 5/6 exactly, over denominators 6
    # and 3; six times the same sequence, as ints, leaves 5
    cfg = FAST.with_(exact_mode=True)
    res = cesaro_limit_discrete(
        [Fraction(n, 3) + Fraction(1, 2) for n in range(1, 501)],
        [(Fraction(1, 3), 1)], cfg)
    assert res.limit == Fraction(5, 6)
    assert res.diagnostics["gate"] == "exact"
    res = cesaro_limit_discrete([2 * n + 3 for n in range(1, 501)], [(2, 1)],
                                cfg)
    assert res.limit == 5
    assert res.diagnostics["gate"] == "exact"


def test_discrete_limit_runs_in_mpmath_arithmetic():
    # n^3.5 + 1/3 cancels ~12 digits at n = 2000; 30-digit entries keep
    # them through the subtraction, where doubles are left with ~1e-4
    with mpmath.workdps(30):
        rho = mpmath.mpf("3.5")
        vals = [mpmath.mpf(n) ** rho + mpmath.mpf(1) / 3
                for n in range(1, 2001)]
        res = cesaro_limit_discrete(vals, [(1, rho)], FAST)
    assert res.limit == pytest.approx(1 / 3, abs=1e-12)


def _mpmath_calls(fn) -> list:
    """Names of the Python functions of mpmath entered while fn runs."""
    root = os.path.dirname(mpmath.__file__)
    calls = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(root):
            calls.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


def test_discrete_limit_float_input_makes_no_mpmath_call():
    # float input stays on the double path; the same probe does see the
    # fixed-point peel of mpmath input
    assert not _mpmath_calls(lambda: cesaro_limit_discrete(
        lambda n: float(n) ** 0.5, [(1.0, 0.5)], FAST))
    vals = [mpmath.mpf(n) ** 0.5 for n in range(1, 201)]
    assert _mpmath_calls(lambda: cesaro_limit_discrete(
        vals, [(1, mpmath.mpf(0.5))], FAST))


def test_discrete_factor_stage_returns_no_wrong_value():
    # the (P_D - lambda) stage after the peel: n^{2.3+1.5i} in doubles
    # leaves a residual the tail cannot take, which must not come back as
    # a wrong value
    rho = 2.3 + 1.5j
    ns = np.arange(1, 10 ** 5 + 1, dtype=float)
    try:
        res = cesaro_limit_discrete(ns.astype(complex) ** rho, [(1.0, rho)],
                                    CFG)
    except NotConvergentError:
        pass
    else:
        assert abs(res.limit) < 1e-6
    # a coefficient given a part in 1e3 too small leaves 0.001 n^{1/2}
    # after the peel, which only the stage's factor removes
    res = cesaro_limit_discrete(ns ** 0.5, [(0.999, 0.5)], CFG)
    assert abs(res.limit) < 1e-5
    assert res.q_used is not None and res.q_used.factors


def test_discrete_limit_needs_enough_entries():
    with pytest.raises(ValueError):
        cesaro_limit_discrete([1.0] * 10, [], FAST)
