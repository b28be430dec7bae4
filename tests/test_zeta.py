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

from cesaro.asymptotics import (bernoulli, eigensequence_ladder,
                               gamma_ratio_coeffs)
from cesaro.climits import (GUARD_BITS, Fixed, _fixed, _gamma_ratio_fixed,
                            _gamma_ratio_values, _near_nonneg_int,
                            _peel_fixed)
from cesaro.config import DEFAULT_CONFIG, SNAP_RADIUS
from cesaro.errors import (CrossCheckMismatchError, FitFailureError,
                           MissingDerivativeTermError, SAtPoleError, is_pole)
from cesaro.operators import apply_P_D, apply_P_D_inverse, average_pass
from cesaro.seqfun import WEIGHTS
from cesaro.zeta import (LOG_DIGIT, LOG_LEVELS, LOG_TOP, ROUTE_A_DPS,
                         ROUTE_B_CELLS, ROUTE_B_DESIGNS, U_BITS,
                         FaulhaberPoly,
                         _apply_factor_mp, _binomial_coefficients,
                         _cell_means, _eta_factor, _exact_constant,
                         _fixed_powers,
                         _log_table, _mp_s, _polynomial_branch,
                         _psum_constant_mp, _route_b, _route_b_design,
                         _route_b_mp, _route_b_tol,
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


# route (b) below Re s = -1, with 15 to 19 two-cell means
ROUTE_B_POINTS = [-2, -6, complex(-1.801101, 0.453996)]


@pytest.mark.parametrize("s", ROUTE_B_POINTS)
def test_route_b_mp_limit_pinned(s):
    # route (b)'s limit over 1 - 2^{1-s} is zeta's to 1e-6 absolute
    fit, _ = _route_b(s)
    with mpmath.workdps(30):
        want = complex(mpmath.zeta(s))
    assert abs(complex(fit.limit) / (1 - 2 ** (1 - s)) - want) <= 1e-6


@pytest.mark.parametrize("s", [-5, -6, complex(-6, 3), complex(-6, 20),
                               complex(0.5, 30)])
def test_route_b_stderr_bounds_its_error(s):
    # the true error of route (b) is at most 10 times its stderr; the
    # fit's own stderr reads an oscillating residual as noise, 60 times
    # low at the median, so route (b) reports at least the change of its
    # limit between two counts of two-cell means
    fit, _ = _route_b(s)
    with mpmath.workdps(30):
        want = complex(mpmath.altzeta(s))
    assert abs(complex(fit.limit) - want) <= 10 * fit.stderr


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
    re, im, bits = _route_b_mp(s)
    want = _route_b_mp_reference(s)
    assert len(re) == len(im) == ROUTE_B_CELLS
    with mpmath.workdps(40):
        for k in range(ROUTE_B_CELLS):
            got = mpmath.mpc(re[k], im[k]) / 2**bits     # a power of 2
            assert abs(got - want[k]) <= 1e-31 * abs(want[k])


def _primes_below(n):
    return [p for p in range(2, n)
            if all(p % q for q in range(2, math.isqrt(p) + 1))]


def _omega(n):
    """The count of prime factors of n, with multiplicity."""
    count, p = 0, 2
    while n > 1:
        while n % p == 0:
            n, count = n // p, count + 1
        p += 1
    return count


def _record_transcendentals(monkeypatch, s):
    """Lists of the n whose logarithm, and of the table levels l whose
    exp(-s w_l), w_l = 2^(LOG_TOP - LOG_DIGIT (l + 1)), _fixed_powers takes
    with libmp; an exp's level is read off its argument.  The cached logs
    are dropped first."""
    logs, levels = [], []
    sys.modules["cesaro.zeta"]._prime_logs.cache_clear()
    mpf_log, mpf_exp, mpc_exp = (mpmath.libmp.mpf_log, mpmath.libmp.mpf_exp,
                                 mpmath.libmp.mpc_exp)

    def level_of(arg):
        level = (LOG_TOP - math.log2(abs(arg) / abs(complex(s)))) / LOG_DIGIT
        assert level == round(level)
        return round(level) - 1

    def log(x, *args):
        logs.append(mpmath.libmp.to_int(x))
        return mpf_log(x, *args)

    def exp(x, *args):
        levels.append(level_of(mpmath.libmp.to_float(x)))
        return mpf_exp(x, *args)

    def cexp(z, *args):
        levels.append(level_of(complex(*map(mpmath.libmp.to_float, z))))
        return mpc_exp(z, *args)

    for name, fn in (("mpf_log", log), ("mpf_exp", exp), ("mpc_exp", cexp)):
        monkeypatch.setattr(mpmath.libmp, name, fn)
    return logs, levels


def _assert_transcendentals(monkeypatch, s, call, primes):
    """call() twice, s not a nonpositive integer: logs are taken at the
    primes only, once in the process, and each call takes at most one exp
    per table level, whatever the horizon."""
    logs, levels = _record_transcendentals(monkeypatch, s)
    for _ in range(2):
        levels.clear()
        call()
        assert len(set(levels)) == len(levels)
        assert set(levels) <= set(range(LOG_LEVELS))
    assert sorted(logs) == primes


@pytest.mark.parametrize("s", [-2.5, complex(-1.8, 0.45), -3])
def test_route_b_takes_powers_at_primes_only(s, monkeypatch):
    # n^{-s} is a product of table entries at the 168 primes below
    # ROUTE_B_CELLS and a fixed-point product over the least-prime sieve
    # everywhere else; at a nonpositive integer s every power is an exact
    # int, and no log or exp is taken at all
    want = complex(mpmath.zeta(s))
    primes = _primes_below(ROUTE_B_CELLS)
    assert len(primes) == 168
    if s == -3:
        logs, levels = _record_transcendentals(monkeypatch, s)
        fit, _ = _route_b(s)
        assert logs == levels == []
    else:
        fits = []
        _assert_transcendentals(monkeypatch, s,
                                lambda: fits.append(_route_b(s)[0]), primes)
        fit = fits[-1]
    got = complex(fit.limit) / (1 - 2 ** (1 - s))
    assert abs(got - want) <= _route_b_tol(s)


def _node_cell_means(col):
    """Cell means as route (b) once took them: the averaged step function's
    eight Gauss-Legendre node values per cell, reduced by the weights."""
    return average_pass(col[:, None], step=True) @ WEIGHTS


@pytest.mark.parametrize("cells", [ROUTE_B_CELLS, ROUTE_B_CELLS - 19])
@pytest.mark.parametrize("kind", ["real", "complex", "oscillating"])
def test_closed_form_cell_means_match_the_node_kernel(kind, cells):
    # from cell 2 on the closed form matches the node kernel to rounding;
    # on cell 1 the kernel's 8-node rule misses the integral of 1/x over
    # [1, 2] by about 1e-12 relative, so both are held to a 30-digit
    # quadrature of the averaged step function there and on a few more
    rng = np.random.default_rng(cells)
    col = rng.standard_normal(cells)
    if kind == "complex":
        col = col + 1j * rng.standard_normal(cells)
    elif kind == "oscillating":          # eta plus a two-cell oscillation
        col = (0.6 + (-1.0) ** np.arange(cells)
               * np.arange(1, cells + 1) ** -0.5)
    got, want = _cell_means(col), _node_cell_means(col)
    scale = np.abs(want).max()
    assert got.shape == want.shape == (cells,)
    assert np.abs(got - want)[2:].max() <= 1e-13 * scale
    prefix = np.concatenate([[0], np.cumsum(col)])
    with mpmath.workdps(30):
        for k in (0, 1, 2, 500, cells - 1):
            exact = mpmath.quad(lambda x: (mpmath.mpmathify(prefix[k])
                                           + col[k] * (x - k)) / x,
                                [k, k + 1])
            assert abs(got[k] - complex(exact)) <= 1e-15 * scale
            assert abs(want[k] - complex(exact)) <= 1e-11 * scale


def test_route_a_evaluates_its_model_without_rebuilding_it(monkeypatch):
    # route (a) takes its corrections from the generator and K^{1-s} from
    # one mpmath.power, and the exact constant at an integer is kept, so
    # once zeta(-3) has run no p-sum model is built again
    zeta(-3, CFG)
    zeta_module = sys.modules["cesaro.zeta"]

    def refuse(*args, **kwargs):
        raise AssertionError("the p-sum model was rebuilt")

    for module in ("cesaro.asymptotics", "cesaro.zeta"):
        monkeypatch.setattr(sys.modules[module], "zeta_psum_expansion", refuse)
    power, calls = mpmath.power, []
    monkeypatch.setattr(mpmath, "power",
                        lambda *args: calls.append(args) or power(*args))
    route_a, per_call = zeta_module._psum_constant_mp, []

    def counted(*args):
        before = len(calls)
        out = route_a(*args)
        per_call.append(len(calls) - before)
        return out

    monkeypatch.setattr(zeta_module, "_psum_constant_mp", counted)
    for s in (-0.7, complex(-2.5, 1.0), 1.4):
        zeta(s, CFG)
        eta(s, CFG)
    assert len(per_call) == 6 and max(per_call) <= 1
    assert len(calls) == sum(per_call)
    assert zeta(-3, CFG).value == 1 / 120


def test_route_b_keeps_its_designs(monkeypatch):
    # route (b)'s xs follow from its count of two-cell means alone: a second
    # zeta(s) with the same count factors nothing, its fit is bit for bit a
    # fresh design's, and no more than ROUTE_B_DESIGNS designs are kept
    qr, factored = np.linalg.qr, []

    def counting_qr(*args, **kwargs):
        factored.append(args[0].shape)
        return qr(*args, **kwargs)

    _route_b_design.cache_clear()
    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    zeta(-2.5, CFG)                     # 15 two-cell means, as at -2.7
    assert len(factored) == 2
    factored.clear()
    zeta(-2.7, CFG)
    assert factored == []
    kept = _route_b(-2.7)
    _route_b_design.cache_clear()
    assert _route_b(-2.7) == kept and len(factored) == 2
    for im in range(2 * ROUTE_B_DESIGNS):
        _route_b(complex(-0.5, im))
    assert _route_b_design.cache_info().currsize == ROUTE_B_DESIGNS


@settings(max_examples=12, deadline=None)
@given(re=st.floats(-6.0, 2.0), im=st.floats(-15.0, 15.0),
       horizon=st.sampled_from([400, 999, 4000]),
       dps=st.sampled_from([30, ROUTE_A_DPS]))
@example(re=2.0, im=0.0, horizon=999, dps=ROUTE_A_DPS)
@example(re=-5.3, im=0.0, horizon=4000, dps=30)
@example(re=-2.5, im=0.0, horizon=400, dps=ROUTE_A_DPS)
@example(re=-0.9268, im=1.62082, horizon=4000, dps=30)
@example(re=0.5, im=14.0, horizon=999, dps=ROUTE_A_DPS)
@example(re=-6.0, im=480.0, horizon=999, dps=ROUTE_A_DPS)
@example(re=0.5, im=480.0, horizon=4000, dps=30)
@example(re=8.0, im=0.0, horizon=4000, dps=30)
def test_fixed_powers_match_mpmath_power(re, im, horizon, dps):
    # in units of 2^-prec of max(1, |n^{-s}|): a prime power is floored
    # once to 2^-bits, bits = prec + GUARD_BITS, from a product POWER_GUARD
    # bits finer, so each part is off by under 2^-GUARD_BITS units and the
    # modulus by sqrt(2) of them; each of the Omega(n) - 1 sieve products
    # floors once more, and on this scale their errors add.  So entry n is
    # within (2 Omega(n) - 1) sqrt(2) 2^-GUARD_BITS units, and one more
    # leaves room for the kernel's own error: 4.3e-5 to 4.7e-4 units below
    # 4000, where the most measured is 8.4e-5
    floor = math.sqrt(2) * 2.0 ** -GUARD_BITS
    s = complex(re, im) if im else re
    with mpmath.workdps(dps):
        prec = mpmath.mp.prec
        got = _fixed_powers(_mp_s(s), horizon)
    assert len(got.re) == len(got.im) == horizon
    with mpmath.workprec(2 * prec):
        smp = _mp_s(s)
        for n in range(1, horizon + 1):
            want = mpmath.power(n, -smp)
            value = mpmath.mpc(got.re[n - 1], got.im[n - 1]) / 2 ** got.bits
            units = abs(value - want) / max(1, abs(want)) * 2 ** prec
            assert units <= 2 * _omega(n) * floor, n


@pytest.mark.parametrize("m", [0, 3, 6])
@pytest.mark.parametrize("horizon", [400, 999, 4000])
def test_fixed_powers_exact_at_nonpositive_integers(m, horizon):
    with mpmath.workdps(ROUTE_A_DPS):
        re, im, bits = _fixed_powers(_mp_s(-m), horizon)
    assert list(re) == [n ** m << bits for n in range(1, horizon + 1)]
    assert not any(im)


MISSED_FAULT = pytest.mark.xfail(
    strict=True, reason="a step at an even n from 264 to 400 widens route "
    "(b)'s stderr past the fault")


@pytest.mark.parametrize("n", [7, 8, pytest.param(400, marks=MISSED_FAULT)])
@pytest.mark.parametrize("evaluate", [zeta, eta])
def test_a_fault_in_the_shared_table_is_caught(evaluate, n, monkeypatch):
    # both routes read one table, built once; an entry n <= ROUTE_A_TERMS
    # off by delta moves route (a)'s C by delta and eta's limit by
    # (-1)^{n+1} delta, so f C misses eta unless f = 1 - 2^{1-s} is +-1.
    # A fault of 1e-3 relative at s = -0.5 is caught at every odd n and at
    # the even n below 264; inside route (b)'s fit window the step it
    # leaves in the p-sum also widens the fit's stderr, and at the even n
    # from 264 to 400 the 30-stderr window then holds the mismatch
    zeta_module = sys.modules["cesaro.zeta"]
    build, horizons = zeta_module._fixed_powers, []

    def faulty(s, horizon):
        horizons.append(horizon)
        re, im, bits = build(s, horizon)
        re = re.copy()
        re[n - 1] += re[n - 1] // 1000
        return Fixed(re, im, bits)

    monkeypatch.setattr(zeta_module, "_fixed_powers", faulty)
    with pytest.raises(CrossCheckMismatchError):
        evaluate(-0.5, CFG)
    assert horizons == [ROUTE_B_CELLS - 1]


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


def _on_the_box(test):
    """test(re, im) over Re s in [-6, 1], |Im s| <= 3, and three pinned
    points: the strip of the bench's eta and zeta cases."""
    for re, im in ((-5.8, 3.0), (-2.0, 0.0), (-3.5, 0.0)):
        test = example(re=re, im=im)(test)
    return settings(max_examples=25, deadline=None)(given(
        re=st.floats(-6.0, 1.0), im=st.floats(-3.0, 3.0))(test))


def _box_point(re, im):
    """s at (re, im), skipping the snapped points but the integers, and
    s = 1; with the integer it is snapped to, or None."""
    s = complex(re, im) if im else re
    near = _near_nonneg_int(-complex(s))
    assume(near is None or s == -near)
    assume(abs(complex(s) - 1) > SNAP_RADIUS)
    return s, near


@_on_the_box
def test_eta_matches_altzeta_on_the_box(re, im):
    s, near = _box_point(re, im)
    value = complex(eta(s, CFG))
    with mpmath.workdps(30):
        want = complex(mpmath.altzeta(mpmath.mpmathify(s)))
    assert abs(value - want) <= 1e-12 * abs(want)
    # the averaging route, within the tolerance that eta applies to it:
    # route (a)'s truncation error scaled by |1 - 2^{1-s}|
    fit, _r = _route_b(s)
    trunc = (abs(_eta_factor(s)) * _psum_constant_mp(s)[1] if near is None
             else 0.0)
    tol = max(_route_b_tol(s), 30 * fit.stderr, 10 * trunc)
    assert abs(complex(fit.limit) - want) <= tol
    assert abs(complex(fit.limit) - want) <= 1e-10 * max(1, abs(want))


@_on_the_box
def test_eta_is_the_zeta_identity_on_the_box(re, im):
    # eta(s) = (1 - 2^{1-s}) zeta(s) between the two computed values
    s, _near = _box_point(re, im)
    lhs = complex(eta(s, CFG))
    rhs = complex(_eta_factor(s)) * complex(zeta(s, CFG).value)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


@pytest.mark.parametrize("s", [complex(-2, 10), complex(-3, 15),
                               complex(-6, 20), complex(-1, 30),
                               complex(-2, 60)])
def test_zeta_and_eta_return_off_the_box(s):
    # both raised CrossCheckMismatchError at these points while route (b)
    # fitted log columns after smooth passes, 5e-7 to 1.5e-6 off
    with mpmath.workdps(30):
        want_zeta = complex(mpmath.zeta(s))
        want_eta = complex(mpmath.altzeta(s))
    got_zeta, got_eta = complex(zeta(s, CFG).value), complex(eta(s, CFG))
    assert abs(got_zeta - want_zeta) <= 1e-12 * abs(want_zeta)
    assert abs(got_eta - want_eta) <= 1e-12 * abs(want_eta)


@pytest.mark.parametrize("evaluate", [lambda s: zeta(s, CFG).value,
                                      lambda s: eta(s, CFG)],
                         ids=["zeta", "eta"])
def test_route_b_raises_where_it_cannot_run(evaluate):
    # at |Im s| = 1000 the two-cell means would take more than half of
    # route (b)'s cells, so no check can run
    with pytest.raises(CrossCheckMismatchError, match=r"\|Im s\| = 1000"):
        evaluate(complex(0.5, 1000))


@pytest.mark.parametrize("s", [-3.5, -4.5])
def test_eta_deep_points_return(s):
    with mpmath.workdps(30):
        want = float(mpmath.altzeta(s))
    assert eta(s, CFG) == pytest.approx(want, rel=1e-12)


def test_eta_at_one_is_ln_2():
    assert eta(1, CFG) == math.log(2)


def test_eta_cross_check_can_fail(monkeypatch):
    def off(s, powers=None):
        value, trunc = _psum_constant_mp(s, powers)
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
    def off(s, powers=None):
        value, trunc = _psum_constant_mp(s, powers)
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
    # n^{-s} is a product of table entries at the 550 primes below 4000 and
    # a fixed-point product over the least-prime sieve everywhere else
    s = complex(-0.9268, 1.62082)
    primes = _primes_below(4000)
    assert len(primes) == 550
    _assert_transcendentals(monkeypatch, s,
                            lambda: zeta_discrete_ext(s, CFG), primes)


def test_discrete_corrected_values():
    want = {0: -0.5, -1: -1 / 12, -2: 0.0, -3: 1 / 120, -4: 0.0,
            -5: -1 / 252, -6: 0.0}
    for s0, w in want.items():
        assert float(zeta_discrete_corrected(s0, CFG)) == pytest.approx(
            w, abs=1e-6)


def test_discrete_corrected_exact_mode():
    cfg = CFG.with_(exact_mode=True)
    got = [zeta_discrete_corrected(s0, cfg) for s0 in range(0, -7, -1)]
    assert got == [Fraction(-1, 2), Fraction(-1, 12), Fraction(0),
                   Fraction(1, 120), Fraction(0), Fraction(-1, 252),
                   Fraction(0)]


def test_discrete_corrected_exact_mode_raises_without_a_rational():
    # zeta(-8) = 0, but the fit gives -1.65e-5, which snaps to no rational
    with pytest.raises(FitFailureError) as info:
        zeta_discrete_corrected(-8, CFG.with_(exact_mode=True))
    assert abs(info.value.value) > 1e-6
    assert zeta_discrete_corrected(-8, CFG) == info.value.value


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
    got, den = _polynomial_branch(_binomial_coefficients(p), lams,
                                  lam_primes, 60)
    assert [Fraction(v, den) for v in got] == want


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


@pytest.mark.parametrize("rho", [mpmath.mpf("3.421025"),
                                 mpmath.mpc("1.9268", "-1.62082")])
def test_derived_rung_matches_its_own_recurrence(rho):
    # the peel takes the rung at rho - 1 as g_rho[n] / (n - rho), floored
    # entrywise, and peeling it with coefficient -1 from zeros returns it;
    # the recurrence from 1/Gamma(2 - rho) starts from another rounded
    # 1/Gamma.  Measured at 30, 34 and 45 digits, the two differ by at most
    # 2.2 * 2^-prec relative on any entry; the bound is 4 * 2^-prec
    with mpmath.workdps(30):
        prec = mpmath.mp.prec
        bits = prec + GUARD_BITS
        zero = np.zeros(4000, dtype=object)
        re, im = _peel_fixed(zero, zero, [(0, rho), (-1, rho - 1)], bits,
                             lambda c: _fixed(c, bits))
        want_re, want_im = _gamma_ratio_fixed(rho - 1, 4000, bits)
    err = (re - want_re) ** 2 + (im - want_im) ** 2
    assert ((err << 2 * prec) <= 4 ** 2 * (want_re ** 2 + want_im ** 2)).all()


def _rung_by_rung(removed, n_max: int, bits: int) -> tuple:
    """-sum c g_rho over removed, each rung from its own recurrence, and
    sum |c| |g_rho|, all scaled by 2^bits."""
    re, im, size = (np.zeros(n_max, dtype=object) for _ in range(3))
    for c, rho in removed:
        (g_re, g_im), (c_re, c_im) = (_gamma_ratio_fixed(rho, n_max, bits),
                                      _fixed(c, bits))
        re = re - (c_re * g_re - c_im * g_im >> bits)
        im = im - (c_re * g_im + c_im * g_re >> bits)
        size = size + ((abs(c_re) + abs(c_im)) * (abs(g_re) + abs(g_im))
                       >> bits)
    return re, im, size


@pytest.mark.parametrize("s, dps, ks, bottoms", [
    (mpmath.mpf("-5.5"), 39, range(7), [6]),
    (mpmath.mpc(-3, 5), 30, range(5), [4]),
    (mpmath.mpf("-2.5"), 30, [0, 1, 3], [1, 3]),    # 3.5, 2.5 | 0.5
])
def test_a_chain_peels_as_its_rungs_one_by_one(s, dps, ks, bottoms,
                                               monkeypatch):
    # rungs 1 - s - k, k in ks; each unit-gap chain runs the recurrence of
    # its bottom rung alone.  Against each rung from its own recurrence,
    # with alternating coefficients, the error over 2^-prec sum |c g|
    # measured at most 1.4 for -5.5 (39 digits), 0.83 for -3+5j and 0.71
    # for the gap; the bound is 4
    with mpmath.workdps(dps):
        prec = mpmath.mp.prec
        bits = prec + GUARD_BITS
        removed = [((k + 1) * (-1) ** k / (1 - s), 1 - s - k) for k in ks]
        seen, recurrence = [], _gamma_ratio_fixed

        def recorded(rho, *args):
            seen.append(rho)
            return recurrence(rho, *args)
        monkeypatch.setattr(sys.modules["cesaro.climits"],
                            "_gamma_ratio_fixed", recorded)
        zero = np.zeros(4000, dtype=object)
        re, im = _peel_fixed(zero, zero, removed, bits,
                             lambda c: _fixed(c, bits))
        assert seen == [1 - s - k for k in bottoms]
        want_re, want_im, size = _rung_by_rung(removed, 4000, bits)
    err = (re - want_re) ** 2 + (im - want_im) ** 2
    assert ((err << 2 * prec) <= 4 ** 2 * size ** 2).all()


def test_an_exact_chain_is_the_falling_factorial_columns():
    # rungs 4, 3, 2, 1 run on to rung 0 in ints, so bit for bit
    coeffs = [Fraction(1, 3), Fraction(-5, 2), Fraction(7, 6), Fraction(-1, 4)]
    removed = [(c, 4 - i) for i, c in enumerate(coeffs)]
    vals = np.array([n ** 5 for n in range(1, 301)], dtype=object)
    re, im = _peel_fixed(vals, np.zeros(300, dtype=object), removed, 0,
                         lambda c: (int(c * 12), 0))
    want = [v - sum(int(c * 12) * math.perm(n - 1, e) for c, e in removed)
            for n, v in enumerate(vals, 1)]
    assert list(re) == want and not any(im)


@pytest.mark.parametrize("top", [mpmath.mpf("3.421025"), mpmath.mpf("4.1"),
                                 mpmath.mpc(4, -5), mpmath.mpc(6.75, 10)])
def test_chained_coefficients_match_the_rung_s_own(top):
    # each rung one below the rung before takes b_j = a_j + rho b_{j-1}; the
    # content below n^rho at the fit window's start, n = 400, differs from
    # gamma_ratio_coeffs(rho - 1)'s by at most 0.82 * 2^-prec of
    # sum_j |a_j| n^-j, measured over these chains at 30 and 39 digits; the
    # bound is 4.  Coefficients far down can differ more, relatively.
    for dps in (30, 39):
        with mpmath.workdps(dps):
            ladder, rho, n = eigensequence_ladder(), top, 400
            ladder(rho)
            while complex(rho).real >= 1:
                got, want = ladder(rho - 1), gamma_ratio_coeffs(rho - 1)[1:]
                assert [f for _, f in got] == [rho - 1 - j for j in
                                               range(1, len(want) + 1)]
                diff = abs(sum((a - b) * n ** -j for j, ((a, _), b)
                               in enumerate(zip(got, want), 1)))
                size = sum(abs(b) * n ** -j for j, b in enumerate(want, 1))
                assert diff <= 4 * size * 2 ** -mpmath.mp.prec
                rho -= 1


def test_chained_coefficients_are_exact_at_the_integers():
    ladder = eigensequence_ladder()
    ladder(5)
    for rho in (4, 3, 1, 0.5):          # 1 and 0.5 start afresh
        want = gamma_ratio_coeffs(Fraction(rho) if rho >= 1 else rho)
        assert ladder(rho) == [(a, rho - j) for j, a in enumerate(want) if j]


def test_eigensequence_rejects_bad_kind():
    with pytest.raises(ValueError):
        discrete_eigensequence(1.0, "nope")
