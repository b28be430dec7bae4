"""Zeta/eta continuation, discrete evaluation and anomaly correction."""

import math
import random
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cesaro.asymptotics import bernoulli
from cesaro.climits import (GUARD_BITS, _gamma_ratio_fixed,
                            _gamma_ratio_values, _near_nonneg_int)
from cesaro.config import DEFAULT_CONFIG, SNAP_RADIUS
from cesaro.errors import (CrossCheckMismatchError, FitFailureError,
                           MissingDerivativeTermError, SAtPoleError, is_pole)
from cesaro.operators import apply_P_D, apply_P_D_inverse
from cesaro.zeta import (ROUTE_B_CELLS, U_BITS, FaulhaberPoly,
                         _apply_factor_mp, _binomial_coefficients,
                         _exact_constant, _log_table, _polynomial_branch,
                         _psum_constant_mp, _route_b, _route_b_mp,
                         _route_b_tol,
                         discrete_eigensequence, eta, faulhaber, zeta,
                         zeta_discrete_corrected, zeta_discrete_ext,
                         zeta_integral_rep, zeta_residue_at_1)

CFG = DEFAULT_CONFIG

# reference continuation values, 30-digit arbitrary-precision evaluation
ZETA_ORACLE = {
    -2.5: 0.00851692877785033054235856702834,
    -1.5: -0.0254852018898330359495429869107,
    -0.5: -0.207886224977354566017306725397,
    0.5: -1.46035450880958681288949915252,
    2.0: 1.64493406684822643647241516665,
    3.0: 1.20205690315959428539973816151,
}
ZETA_ORACLE_COMPLEX = {
    (-1.2, 0.7): complex(-0.0133090360502726511198697346503,
                         -0.0717460292139055264784992177633),
    (0.3, 0.4): complex(-0.552296663502482323508331750866,
                        -0.583761333344438953111774363177),
}
ETA_ORACLE = {
    -1.0: 0.25,
    -0.5: 0.380104812609684016777542156552,
    0.0: 0.5,
    0.5: 0.604898643421630370247265914236,
}


@pytest.mark.parametrize("s,want", sorted(ZETA_ORACLE.items()))
def test_zeta_real_axis(s, want):
    ev = zeta(s, CFG)
    assert complex(ev.value).real == pytest.approx(want, abs=2e-10)


@pytest.mark.parametrize("s,want", [(complex(*k), v)
                                    for k, v in ZETA_ORACLE_COMPLEX.items()])
def test_zeta_complex_points(s, want):
    ev = zeta(s, CFG)
    assert complex(ev.value) == pytest.approx(want, abs=1e-9)


def test_zeta_nonpositive_integers_exact_constants():
    vals = {0: -0.5, -1: -1 / 12, -2: 0.0, -3: 1 / 120}
    for s0, want in vals.items():
        ev = zeta(s0, CFG)
        assert complex(ev.value).real == pytest.approx(want, abs=1e-12)
        assert ev.path == "continuous-cesaro"


def test_zeta_exact_mode_rationals():
    cfg = CFG.with_(exact_mode=True)
    assert zeta(0, cfg).value == Fraction(-1, 2)
    assert zeta(-1, cfg).value == Fraction(-1, 12)
    assert zeta(-3, cfg).value == Fraction(1, 120)


def test_zeta_pole_at_one():
    ev = zeta(1.0, CFG)
    assert is_pole(ev.value)
    assert ev.value.residue == 1
    assert ev.path == "pole"


def test_zeta_dual_route_diagnostics_present():
    ev = zeta(-0.5, CFG)
    assert "route_b" in ev.diagnostics
    # the two routes agreed within the configured tolerance by construction
    assert abs(ev.diagnostics["route_b"] - complex(ev.value)) < 1e-4


# route (b) below Re s = -1, with 2 to 7 smooth passes
ROUTE_B_POINTS = [-2, -6, complex(-1.801101, 0.453996)]


@pytest.mark.parametrize("s", ROUTE_B_POINTS)
def test_route_b_mp_limit_pinned(s):
    # route (b)'s limit over 1 - 2^{1-s} is zeta's to 1e-6 absolute
    fit, _ = _route_b(s)
    with mpmath.workdps(30):
        want = complex(mpmath.zeta(s))
    assert abs(complex(fit.limit) / (1 - 2 ** (1 - s)) - want) <= 1e-6


def _route_b_mp_reference(s):
    """Route (b)'s cell values, the alternating p-sum, as a 35-digit mpmath
    build makes them."""
    sc = complex(s)
    with mpmath.workdps(35):
        smp = mpmath.mpmathify(sc) if sc.imag else mpmath.mpf(sc.real)
        psum = [mpmath.mpf(0)]
        for n in range(1, ROUTE_B_CELLS):
            psum.append(psum[-1] + (-1) ** (n + 1) * mpmath.power(n, -smp))
        return psum


@pytest.mark.parametrize("s", ROUTE_B_POINTS)
def test_route_b_node_values_match_a_35_digit_build(s):
    parts = _route_b_mp(s)
    want = _route_b_mp_reference(s)
    assert all(p.hi.shape == (ROUTE_B_CELLS, 1) for p in parts)
    with mpmath.workdps(40):
        for k in range(ROUTE_B_CELLS):
            got = [mpmath.mpf(float(p.hi[k, 0])) + float(p.lo[k, 0])
                   for p in parts]
            got = got[0] + 1j * got[1] if len(got) == 2 else got[0]
            assert abs(got - want[k]) <= 1e-25 * abs(want[k])


def _no_mpmath_power(*args):
    raise AssertionError("route (b) called mpmath.power")


@pytest.mark.parametrize("s", [-2.5, complex(-1.8, 0.45)])
def test_route_b_below_the_float_branch_makes_no_mpmath_call(s, monkeypatch):
    want = complex(mpmath.zeta(s))
    monkeypatch.setattr(mpmath, "power", _no_mpmath_power)
    fit, _ = _route_b(s)
    got = complex(fit.limit) / (1 - 2 ** (1 - s))
    assert abs(got - want) <= _route_b_tol(s)


@pytest.mark.parametrize("s", [0.06, 0.10, 0.12, 0.14, complex(0.12, 0.3),
                               -0.2, complex(0.5, 1.0)])
def test_zeta_shallow_strip(s):
    # the cross-check once broke at these points, when route (b) ran on
    # float p-sums over 10^5 cells
    with mpmath.workdps(30):
        want = complex(mpmath.zeta(s))
    ev = zeta(s, CFG)
    assert abs(complex(ev.value) - want) <= 1e-12 * abs(want)
    assert abs(ev.diagnostics["route_b"] - want) <= 1e-7


def test_zeta_residue_at_one():
    assert zeta_residue_at_1(CFG) == pytest.approx(1.0, abs=1e-6)
    assert zeta_residue_at_1(CFG) == pytest.approx(0.9999999999997876,
                                                   rel=1e-12)


@pytest.mark.parametrize("s,want", sorted(ETA_ORACLE.items()))
def test_eta_values(s, want):
    assert complex(eta(s, CFG)).real == pytest.approx(want, abs=1e-7)


def test_eta_deep_value_pinned():
    with mpmath.workdps(30):
        want = float(mpmath.altzeta(-2.5))
    assert eta(-2.5, CFG) == pytest.approx(want, rel=1e-12)


def test_eta_zeta_functional_relation():
    # eta(s) = (1 - 2^{1-s}) zeta(s), two independently computed sides: the
    # averaged alternating p-sum and zeta's value
    for s in (0.5, -0.5, 2.0):
        lhs = complex(_route_b(s)[0].limit)
        rhs = (1 - 2 ** (1 - s)) * complex(zeta(s, CFG).value)
        assert lhs == pytest.approx(rhs, abs=1e-6)


@settings(max_examples=25, deadline=None)
@given(re=st.floats(-6.0, 1.0), im=st.floats(-3.0, 3.0))
@example(re=-3.5, im=0.0)
@example(re=-2.0, im=0.0)
@example(re=-5.8, im=3.0)
def test_eta_matches_altzeta_on_the_box(re, im):
    s = complex(re, im) if im else re
    near = _near_nonneg_int(-complex(s))
    assume(near is None or s == -near)  # snapped points: only the integers
    assume(abs(complex(s) - 1) > SNAP_RADIUS)
    value = complex(eta(s, CFG))
    with mpmath.workdps(30):
        want = complex(mpmath.altzeta(mpmath.mpmathify(s)))
    assert abs(value - want) <= 1e-12 * abs(want)
    # the averaging route, within the tolerance that eta applies to it
    fit, _r = _route_b(s)
    trunc = _psum_constant_mp(s)[1] if near is None else 0.0
    tol = max(_route_b_tol(s), 30 * fit.stderr, 10 * trunc)
    assert abs(complex(fit.limit) - want) <= tol


@pytest.mark.parametrize("s", [-3.5, -4.5])
def test_eta_deep_points_return(s):
    with mpmath.workdps(30):
        want = float(mpmath.altzeta(s))
    assert eta(s, CFG) == pytest.approx(want, rel=1e-12)


def test_eta_at_one_is_ln_2():
    assert eta(1, CFG) == math.log(2)


def test_eta_cross_check_can_fail(monkeypatch):
    def off(s):
        value, trunc = _psum_constant_mp(s)
        return value + 1e-2 * abs(value), trunc

    monkeypatch.setattr(sys.modules["cesaro.zeta"], "_psum_constant_mp", off)
    with pytest.raises(CrossCheckMismatchError):
        eta(-0.5, CFG)


@settings(max_examples=25, deadline=None)
@given(re=st.floats(-6.0, 1.0), im=st.floats(-3.0, 3.0))
@example(re=-5.8, im=0.0)
@example(re=-4.9, im=0.0)
@example(re=-2.0, im=2.0)
@example(re=-3.0, im=3.0)
@example(re=-5.0, im=3.0)
def test_zeta_matches_mpmath_on_the_box(re, im):
    # the examples raised CrossCheckMismatchError while zeta's route (b)
    # subtracted x^{1-s}/(1-s) from the p-sum
    s = complex(re, im) if im else re
    near = _near_nonneg_int(-complex(s))
    assume(near is None or s == -near)  # snapped points: only the integers
    assume(abs(complex(s) - 1) > SNAP_RADIUS)
    value = complex(zeta(s, CFG).value)
    with mpmath.workdps(30):
        want = complex(mpmath.zeta(mpmath.mpmathify(s)))
    assert abs(value - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("s,check", [(0.999, "discrete"),
                                     (complex(1, 9.06), "discrete"),
                                     (complex(0.9, 9.06), "discrete"),
                                     (-0.5, "eta")])
def test_zeta_check_where_the_eta_factor_is_small(s, check):
    # 1 - 2^{1-s} vanishes at 1 + 2 pi i / ln 2 = 1 + 9.06i and is 7e-4
    # at 0.999, so there eta's route cannot check zeta
    ev = zeta(s, CFG)
    with mpmath.workdps(30):
        want = complex(mpmath.zeta(s))
    assert abs(complex(ev.value) - want) <= 1e-12 * abs(want)
    assert ev.diagnostics["route_b_check"] == check
    assert abs(ev.diagnostics["route_b"] - want) <= 1e-6 * abs(want)


@pytest.mark.parametrize("s", [-0.5, 0.95])
def test_zeta_cross_check_can_fail(s, monkeypatch):
    # -0.5 is checked on eta's route, 0.95 on the discrete evaluation
    def off(s):
        value, trunc = _psum_constant_mp(s)
        return value + 1e-2 * abs(value), trunc

    monkeypatch.setattr(sys.modules["cesaro.zeta"], "_psum_constant_mp", off)
    with pytest.raises(CrossCheckMismatchError):
        zeta(s, CFG)


def test_faulhaber_matches_power_sums():
    for m in range(7):
        p = faulhaber(m)
        assert isinstance(p, FaulhaberPoly)
        for k in (1, 2, 9, 30):
            assert p(k) == sum(n ** m for n in range(1, k + 1))


def test_faulhaber_coefficients_are_rational():
    p = faulhaber(4)
    assert all(isinstance(c, (int, Fraction)) for c in p.coefficients)
    assert p.coefficients[0] == 0


def test_power_sums_and_exact_constants_from_the_psum_model():
    # zeta(-m) = (-1)^m B_{m+1}/(m+1), B_1 = -1/2; faulhaber checks itself
    # against direct sums as it is built
    for m in range(41):
        assert faulhaber(m).coefficients[-1] == Fraction(1, m + 1)
        want = (-1) ** m * bernoulli(m + 1) / (m + 1)
        assert _exact_constant(-m) == zeta_integral_rep(-m) == want
        assert isinstance(_exact_constant(-m), Fraction)


def test_zeta_integral_rep_exact_values():
    want = [Fraction(-1, 2), Fraction(-1, 12), Fraction(0), Fraction(1, 120),
            Fraction(0), Fraction(-1, 252), Fraction(0)]
    got = [zeta_integral_rep(s0) for s0 in range(0, -7, -1)]
    assert got == want


def test_zeta_integral_rep_matches_continuation():
    for s0 in range(0, -7, -1):
        rep = float(zeta_integral_rep(s0))
        cont = complex(zeta(s0, CFG).value).real
        assert rep == pytest.approx(cont, abs=1e-10)


def test_discrete_ext_anomaly_at_nonpositive_integers():
    for s0 in (0, -1, -2, -3):
        ev = zeta_discrete_ext(float(s0), CFG)
        assert ev.anomaly
        assert complex(ev.value).real == pytest.approx(1.0, abs=1e-6)


# deep-strip points of the discrete evaluation, same 30-digit reference
ZETA_DEEP_ORACLE = {
    -3.1: 0.00772923345569513130199803125884,
    -3.28: 0.00637499695777924117120504399147,
    -1.91: -0.0030170909332957177228929319647,
}


def test_discrete_ext_off_integers_matches_continuation():
    oracle = {**ZETA_ORACLE, **ZETA_DEEP_ORACLE}
    for s, tol in ((0.5, 1e-8), (-0.5, 1e-5), (-1.5, 1e-8), (-2.5, 1e-8),
                   (-3.1, 1e-9), (-3.28, 1e-9), (-1.91, 1e-9)):
        ev = zeta_discrete_ext(s, CFG)
        assert not ev.anomaly
        assert complex(ev.value).real == pytest.approx(oracle[s], abs=tol)


@pytest.mark.parametrize("s", [-4.496, -5.5])
def test_discrete_ext_deep_real_points(s):
    # the working precision grows with depth: at a fixed 30 digits the
    # cancellation against a p-sum of ~1e20 left 3e-9 and 1e-5 relative
    with mpmath.workdps(30):
        want = float(mpmath.zeta(s))
    ev = zeta_discrete_ext(s, CFG)
    assert abs(complex(ev.value) - want) <= 1e-10 * abs(want)


@pytest.mark.parametrize("s", [complex(-1, 2), complex(-2, 1),
                               complex(-1, -0.5), complex(-3, 0.3)])
def test_discrete_ext_integer_real_part(s):
    # at Re s = -m the model carries a purely imaginary exponent, a bounded
    # oscillation n^{-i Im s} that has to be peeled like any divergence
    with mpmath.workdps(30):
        want = complex(mpmath.zeta(mpmath.mpc(s)))
    ev = zeta_discrete_ext(s, CFG)
    assert abs(complex(ev.value) - want) <= 1e-8 * abs(want)


def test_discrete_ext_complex_point():
    s = complex(-1.2, 0.7)
    ev = zeta_discrete_ext(s, CFG)
    want = ZETA_ORACLE_COMPLEX[(-1.2, 0.7)]
    assert complex(ev.value) == pytest.approx(want, abs=1e-5)


def test_discrete_ext_deep_complex_point():
    # the residual of the mpmath ladder is rounded to doubles once the
    # divergences are peeled, and its decaying ledger subtracted there
    s = complex(-3.3, 1.6)
    with mpmath.workdps(30):
        want = complex(mpmath.zeta(mpmath.mpc(s)))
    ev = zeta_discrete_ext(s, CFG)
    assert abs(complex(ev.value) - want) <= 1e-9 * abs(want)


# shallow points, which doubles at 10^5 terms miss by up to 3e-4 relative;
# 0.3-2.2j needs the p-sum model's corrections down to the ledger floor
# (5e-11 with the default order)
@pytest.mark.parametrize("s", [0.5, -0.05, -0.38966, -0.5, complex(-0.2, 0.5),
                               complex(-0.3, 2), complex(0.525117, 1.223929),
                               complex(0.3, -2.2)])
def test_discrete_ext_shallow_points(s):
    with mpmath.workdps(30):
        want = complex(mpmath.zeta(mpmath.mpmathify(s)))
    ev = zeta_discrete_ext(s, CFG)
    assert abs(complex(ev.value) - want) <= 1e-11 * abs(want)


@settings(max_examples=25, deadline=None)
@given(re=st.floats(-0.5, 0.9), im=st.floats(-3.0, 3.0))
@example(re=0.0, im=3.0)    # 2.5e-9 with the gamma-ratio ledger cut at n^-4
def test_discrete_ext_matches_zeta_on_the_strip(re, im):
    s = complex(re, im)
    assume(abs(s) > SNAP_RADIUS)        # s = 0 is the integer anomaly
    with mpmath.workdps(30):
        want = complex(mpmath.zeta(mpmath.mpc(s)))
    ev = zeta_discrete_ext(s if im else re, CFG)
    assert abs(complex(ev.value) - want) <= 1e-10 * abs(want)


@settings(max_examples=20, deadline=None)
@given(re=st.floats(-0.5, 0.9), im=st.floats(-3.0, 3.0))
@example(re=0.616, im=0.0)  # 1.2e-6: the tail keeps an x^-s term unfitted
def test_eta_matches_altzeta_and_zeta_on_the_strip(re, im):
    s = complex(re, im) if im else re
    value = complex(eta(s, CFG))
    with mpmath.workdps(30):
        want = complex(mpmath.altzeta(mpmath.mpmathify(s)))
    assert abs(value - want) <= 1e-5 * abs(want)
    # eta(s) = (1 - 2^(1-s)) zeta(s), between the two computed values
    via_zeta = (1 - 2 ** (1 - complex(s))) * complex(zeta(s, CFG).value)
    assert abs(value - via_zeta) <= 1e-5 * abs(via_zeta)


def test_discrete_ext_takes_powers_at_primes_only(monkeypatch):
    # n^{-s} comes from mpmath at the 550 primes below 4000 and from
    # fixed-point products over the least-prime sieve everywhere else
    calls = []
    power = mpmath.power
    monkeypatch.setattr(mpmath, "power",
                        lambda *args: calls.append(args) or power(*args))
    zeta_discrete_ext(complex(-0.9268, 1.62082), CFG)
    assert 0 < len(calls) <= 550


def test_discrete_corrected_values():
    want = {0: -0.5, -1: -1 / 12, -2: 0.0, -3: 1 / 120}
    for s0, w in want.items():
        assert float(zeta_discrete_corrected(s0, CFG)) == pytest.approx(
            w, abs=1e-6)


def test_discrete_corrected_exact_mode():
    cfg = CFG.with_(exact_mode=True)
    got = [zeta_discrete_corrected(s0, cfg) for s0 in (0, -1, -2, -3)]
    assert got == [Fraction(-1, 2), Fraction(-1, 12), Fraction(0),
                   Fraction(1, 120)]


def test_discrete_corrected_exact_mode_raises_without_a_rational():
    # zeta(-6) = 0, but the fit gives 2.66e-5, which snaps to no rational
    with pytest.raises(FitFailureError) as info:
        zeta_discrete_corrected(-6, CFG.with_(exact_mode=True))
    assert abs(info.value.value) > 1e-6
    assert zeta_discrete_corrected(-6, CFG) == info.value.value


def test_discrete_corrected_deep_point():
    # u_k reaches 4000^9 ln 4000 ~ 1e33 at s0 = -8, beyond 35 significant
    # digits (which gave 5/44); the fixed-point branch keeps 2^-U_BITS there
    assert abs(float(zeta_discrete_corrected(-8, CFG))) <= 1e-3


def test_discrete_corrected_rejects_positive():
    with pytest.raises(ValueError):
        zeta_discrete_corrected(1, CFG)


def _factor_ladder(s0):
    lams = [Fraction(1, 2 - s0 - i) for i in range(2 - s0)]
    return lams, [lam * lam for lam in lams]


@pytest.mark.parametrize("s0", range(0, -6, -1))
def test_polynomial_branch_matches_factor_passes(s0):
    # the binomial-basis branch against explicit running-average passes
    lams, lam_primes = _factor_ladder(s0)
    p = faulhaber(-s0)
    p_seq = [p(k) for k in range(1, 61)]
    want = [Fraction(0)] * 60
    for i, lam_prime in enumerate(lam_primes):
        part = p_seq
        for m, lam in enumerate(lams):
            if m != i:
                part = [a - lam * v for a, v in zip(apply_P_D(part), part)]
        want = [w + lam_prime * v for w, v in zip(want, part)]
    got = _polynomial_branch(_binomial_coefficients(p), lams, lam_primes, 60)
    assert got == want


def test_polynomial_branch_rejects_unannihilated_content():
    # C(k-1, 4) has eigenvalue 1/5, which no factor of the s0 = -2 ladder
    # (eigenvalues 1/4, 1/3, 1/2, 1) removes
    lams, lam_primes = _factor_ladder(-2)
    with pytest.raises(MissingDerivativeTermError):
        _polynomial_branch([0, 0, 0, 0, 1], lams, lam_primes, 10)


@pytest.mark.parametrize("m", [1, 2, 7])
def test_fixed_point_factor_pass_matches_exact(m):
    # (P_D - 1/m) on ints scaled by 2^U_BITS, against the exact pass on the
    # same values: each entry is within 2 units of 2^-U_BITS
    rng = random.Random(m)
    u = [rng.randrange(-2**240, 2**240) for _ in range(300)]
    exact = [a - Fraction(v, m) for a, v in zip(apply_P_D(u), u)]
    got = _apply_factor_mp(u, Fraction(1, m))
    assert all(abs(g - e) <= 2 for g, e in zip(got, exact))


def test_log_table_within_half_a_unit_per_prime_factor():
    logs = _log_table(4000)
    assert logs[0] == 0
    with mpmath.workprec(U_BITS + 32):
        worst = max(abs(logs[j - 1] - mpmath.ldexp(mpmath.log(j), U_BITS))
                    for j in range(2, 4001))
    assert worst <= 5.5     # 2^11 has the most prime factors below 4000


def test_eigensequence_binomial_inverse_average():
    # the inverse running average multiplies C(n-1, m) by m+1 exactly
    for m in range(6):
        v = discrete_eigensequence(m, "exact-binomial", length=40)
        back = apply_P_D_inverse(apply_P_D(v))
        assert back == v
        # forward relation, exact by the hockey-stick identity
        assert apply_P_D(v) == [Fraction(x, m + 1) for x in v]
        # direct statement: P_D^{-1} v = (m+1) v
        assert apply_P_D_inverse(v) == [(m + 1) * x for x in v]


def test_eigensequence_harmonic_double_annihilation():
    # the inverse average shifts the harmonic sequence by exactly 1, so
    # (inverse - identity) applied twice kills it with no error at all
    v = discrete_eigensequence(0, "generalised-harmonic", length=60)
    # boundary entries feel the t_0 = 0 convention; the identity is exact
    # from the first index where the sequence is genuinely harmonic
    assert apply_P_D_inverse(v)[1:] == [x + 1 for x in v][1:]
    once = [a - b for a, b in zip(apply_P_D_inverse(v), v)]
    twice = [a - b for a, b in zip(apply_P_D_inverse(once), once)]
    assert all(x == 0 for x in twice[2:])


def test_eigensequence_strip_residual_is_boundary_term():
    # Gamma(n)/Gamma(n-rho) obeys P_D v = v/(rho+1) - 1/((rho+1)Gamma(-rho) n)
    from scipy.special import gamma as sp_gamma
    rho = 1.6
    n = 400
    v = discrete_eigensequence(rho, "asymptotic-strip", length=n)
    avg = np.cumsum(v) / np.arange(1, n + 1)
    ns = np.arange(1, n + 1, dtype=float)
    boundary = -1.0 / ((rho + 1) * sp_gamma(-rho) * ns)
    resid = avg - v / (rho + 1) - boundary
    rel = np.abs(resid) / np.maximum(1.0, np.abs(v))
    assert np.max(rel[5:]) < 1e-12


@pytest.mark.parametrize("rho", [0.5 - 1.5j, 1 + 2j])
def test_complex_eigensequence_matches_mpmath(rho):
    # the recurrence's cumulative product keeps ~1e-13 out to 10^5; the
    # difference of double loggammas lost up to 1.5e-10 there
    seq = discrete_eigensequence(rho, "asymptotic-strip", 10 ** 5)
    with mpmath.workdps(30):
        r = mpmath.mpmathify(rho)
        for n in (1, 50, 10 ** 3, 10 ** 5):
            want = complex(mpmath.rf(n - r, r))
            assert abs(seq[n - 1] - want) <= 1e-12 * abs(want)


def test_gamma_ratio_values_in_each_arithmetic():
    assert _gamma_ratio_values(3, 6) == [0, 0, 0, 6, 24, 60]
    # the fixed-point recurrence, scaled as the discrete driver scales it
    with mpmath.workdps(30):
        bits = mpmath.mp.prec + GUARD_BITS
        for rho in (mpmath.mpf("4.1"), mpmath.mpc("1.9", "-1.6")):
            re, im = _gamma_ratio_fixed(rho, 4000, bits)
            got = mpmath.mpc(re[-1], im[-1]) / 2**bits
            want = mpmath.gamma(4000) / mpmath.gamma(4000 - rho)
            assert abs(got - want) <= mpmath.mpf("1e-25") * abs(want)


def test_eigensequence_rejects_bad_kind():
    with pytest.raises(ValueError):
        discrete_eigensequence(1.0, "nope")
