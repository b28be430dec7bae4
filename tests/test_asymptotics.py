"""Bernoulli numbers, expansion machinery, annihilator synthesis."""

import math
from fractions import Fraction

import mpmath
import pytest

from cesaro.asymptotics import (AsymptoticExpansion, ExpansionTerm, _merge_terms,
                                _x_power_lower_order, bernoulli,
                                gamma_ratio_coeffs, invert_to_x_expansion,
                                synthesize_annihilator, zeta_psum_expansion)
from cesaro.errors import (NonTriangularError, PoleSignal, SAtPoleError,
                           is_pole)

# exact values through B_12; odd indices beyond 1 vanish
BERNOULLI_KNOWN = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
}


def test_bernoulli_exact_table():
    for r, want in BERNOULLI_KNOWN.items():
        assert bernoulli(r) == want
    for r in range(3, 31, 2):
        assert bernoulli(r) == 0


def test_bernoulli_b30():
    assert bernoulli(30) == Fraction(8615841276005, 14322)


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_expansion_orders_terms_descending():
    e = AsymptoticExpansion(
        (ExpansionTerm(1.0, 1.0), ExpansionTerm(2.0, 3.0),
         ExpansionTerm(1.0, 3.0, log_power=1)),
        remainder_order=-1.0)
    exps = [(complex(t.exponent).real, t.log_power) for t in e.terms]
    assert exps == [(3.0, 1), (3.0, 0), (1.0, 0)]


def test_expansion_json_round_trip_shape():
    import json
    e = zeta_psum_expansion(0)
    doc = json.loads(e.to_json())
    assert doc["variable"] == "k"
    assert all("exponent_re" in t for t in doc["terms"])


def test_euler_maclaurin_constant_for_inverse_squares():
    # sum 1/n^2 = zeta(2) - 1/k + ... ; the constant of the p-sum model is
    # zeta(2), up to the last retained Bernoulli correction
    k = 50
    e = zeta_psum_expansion(2, order=6)
    last = abs(e.terms[-1].evaluate(k))
    actual = sum(n ** -2.0 for n in range(1, k + 1))
    assert actual - e.evaluate(k) == pytest.approx(math.pi ** 2 / 6,
                                                   abs=10 * last)
    assert last < 1e-9
    # an mpmath argument keeps the whole model, exponents included, in mpmath
    with mpmath.workdps(30):
        deep = zeta_psum_expansion(mpmath.mpf(-3.1))
    assert all(isinstance(t.exponent, mpmath.mpf) for t in deep.terms)


def test_merge_terms_drops_small_coefficients_only_in_doubles():
    # 1e-13 is the rounding floor of a double; exact and mpmath
    # coefficients keep every nonzero term
    assert _merge_terms([(1e-20, -5.0, 0)], "k") == []
    for tiny in (mpmath.mpf("1e-20"), Fraction(1, 10 ** 20)):
        kept = _merge_terms([(tiny, mpmath.mpf(-5), 0)], "k")
        assert [t.coeff for t in kept] == [tiny]


def test_zeta_psum_expansion_at_zero_is_exact():
    # partial sums of 1 are exactly k = k/(1-0) + (C + 1/2) with C = -1/2
    e = zeta_psum_expansion(0)
    assert len(e.terms) == 1
    t = e.terms[0]
    assert t.exponent == 1 and t.coeff == 1
    assert e.constant == Fraction(1, 2)


def test_zeta_psum_expansion_matches_partial_sums():
    # for s = -2 the model plus C reproduces Faulhaber's k^3/3+k^2/2+k/6
    e = zeta_psum_expansion(-2)
    for k in (3, 10, 25):
        want = k * (k + 1) * (2 * k + 1) // 6
        assert complex(e.evaluate(k)) == pytest.approx(want, rel=1e-12)


def test_zeta_psum_expansion_numeric_tail():
    # s = 0.5: p-sum minus the model tends to the continuation constant,
    # and the approach is fast once Bernoulli corrections are included
    e = zeta_psum_expansion(0.5, order=6)
    vals = []
    for k in (200, 400, 800):
        p = sum(n ** -0.5 for n in range(1, k + 1))
        vals.append(p - complex(e.evaluate(k)).real)
    assert vals[0] == pytest.approx(vals[2], abs=1e-10)


def test_zeta_psum_expansion_pole():
    with pytest.raises(SAtPoleError):
        zeta_psum_expansion(1)
    with pytest.raises(SAtPoleError):
        zeta_psum_expansion(1 + 1e-12)


def test_x_power_lower_order_integer_exact():
    # x^3 = k^3 + (3/2)k^2 + (1/2)k in the averaged sense; B_2 term positive
    got = {e: c for c, e in _x_power_lower_order(Fraction(3))}
    assert got == {2: Fraction(3, 2), 1: Fraction(1, 2)}


def test_x_power_lower_order_is_inverse_of_faulhaber():
    # p-sums of n^2 are k^3/3 + k^2/2 + k/6; rewriting x^3/3 must give them:
    # k^3/3, and below it a third of the content below k^3 in x^3
    lower = {e: c / 3 for c, e in _x_power_lower_order(Fraction(3))}
    assert lower == {2: Fraction(1, 2), 1: Fraction(1, 6)}


def _x_power_closed_form(gamma):
    """x^gamma's content below k^gamma by its own closed form: gamma/2 at
    k^(gamma-1) and (B_r/r!) gamma(gamma-1)...(gamma-r+1) at k^(gamma-r)
    for 2 <= r <= floor(Re gamma) + 1, zero terms dropped."""
    exact = isinstance(gamma, (int, Fraction))
    out = [(Fraction(gamma, 2) if exact else gamma / 2, gamma - 1)]
    fall = gamma * (gamma - 1)
    for r in range(2, math.floor(complex(gamma).real) + 2):
        c = Fraction(bernoulli(r), math.factorial(r)) * fall
        if c != 0:
            out.append((c, gamma - r))
        fall = fall * (gamma - r)
    return out


def test_x_power_lower_order_is_the_closed_form():
    # read off gamma times the p-sum model of n^(gamma-1): exact for exact
    # gamma, within rounding otherwise, never below gamma - floor(Re gamma) - 1
    for gamma in (1, 2, 3, 4, 5, 6, Fraction(5, 2), Fraction(7, 3),
                  Fraction(1, 7), 0.3, 2.5, 1 + 2j, 3.25 - 1j):
        got, want = _x_power_lower_order(gamma), _x_power_closed_form(gamma)
        lowest = complex(gamma).real - math.floor(complex(gamma).real) - 1
        assert all(complex(e).real >= lowest - 1e-15 for _, e in got), gamma
        if isinstance(gamma, (int, Fraction)):
            assert got == want, gamma
            continue
        assert len(got) == len(want), gamma
        for (c, e), (cw, ew) in zip(got, want):
            assert abs(c - cw) <= 1e-15 * abs(cw), gamma
            assert abs(e - ew) <= 1e-15 * abs(ew), gamma


def test_invert_to_x_single_term_survives():
    # the Bernoulli corrections of the p-sum model cancel exactly against
    # the integer-part rewriting, leaving one x-power per leading term
    for s in (0, -1, -2, -3):
        e = invert_to_x_expansion(zeta_psum_expansion(s))
        assert e.variable == "x"
        live = [t for t in e.terms if complex(t.exponent).real > 0]
        assert len(live) == 1
        t = live[0]
        assert complex(t.exponent) == pytest.approx(1 - s)
        assert complex(t.coeff) == pytest.approx(1 / (1 - s))


def test_invert_to_x_rejects_log_terms():
    e = AsymptoticExpansion(
        (ExpansionTerm(1.0, 1.0, log_power=1, variable="k"),),
        remainder_order=-1.0, variable="k")
    with pytest.raises(NonTriangularError):
        invert_to_x_expansion(e)


def test_synthesize_annihilator_factors_and_normalization():
    e = AsymptoticExpansion(
        (ExpansionTerm(2.0, 2.0), ExpansionTerm(1.0, 1.0)),
        remainder_order=-1.0)
    q = synthesize_annihilator(e)
    lams = sorted(lam for lam, _ in q.factors)
    assert lams == pytest.approx([1 / 3, 1 / 2])
    assert q.eval_scalar(1) == pytest.approx(1.0)


def test_synthesize_annihilator_log_term_multiplicity():
    e = AsymptoticExpansion(
        (ExpansionTerm(1.0, 2.0, log_power=2),), remainder_order=-1.0)
    q = synthesize_annihilator(e)
    assert q.factors == ((pytest.approx(1 / 3), 3),)


def test_synthesize_annihilator_pure_log_is_pole():
    e = AsymptoticExpansion(
        (ExpansionTerm(1.0, 0.0, log_power=1),), remainder_order=-1.0)
    out = synthesize_annihilator(e)
    assert is_pole(out)
    assert isinstance(out, PoleSignal) and out.log_power == 1


def test_synthesize_annihilator_constant_content_is_pole():
    e = AsymptoticExpansion(
        (ExpansionTerm(1.0, 0.0),), remainder_order=-1.0)
    assert is_pole(synthesize_annihilator(e))


def test_synthesize_annihilator_skips_decaying_terms():
    e = AsymptoticExpansion(
        (ExpansionTerm(1.0, 1.0), ExpansionTerm(5.0, -0.5)),
        remainder_order=-1.0)
    q = synthesize_annihilator(e)
    assert len(q.factors) == 1


def _mp_gamma_ratio_coeffs(rho, dps):
    """The coefficients at dps digits, checked against Gamma(n)/Gamma(n-rho)
    itself at n = 10^4, where the truncated series is exact to ~1e-36."""
    with mpmath.workdps(dps):
        rho = mpmath.mpmathify(rho)
        coeffs = gamma_ratio_coeffs(rho)
        n = mpmath.mpf(10) ** 4
        series = sum(a * n ** (rho - j) for j, a in enumerate(coeffs))
        exact = mpmath.rf(n - rho, rho)
        assert abs(series / exact - 1) < mpmath.mpf(10) ** -30
        return coeffs


@pytest.mark.parametrize("rho", [2.3, 4.7, 5.3 + 0.5j])
def test_gamma_ratio_coeffs_in_doubles_match_mpmath(rho):
    # the recurrence keeps double and complex coefficients to ~1e-13; the
    # composed Stirling series lost up to 1e-7 at 5.3+0.5j
    want = _mp_gamma_ratio_coeffs(rho, 50)
    got = gamma_ratio_coeffs(rho)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert abs(complex(a) - complex(b)) <= 1e-12 * abs(complex(b))


def test_gamma_ratio_coeffs_exact_off_the_integers():
    rho = Fraction(7, 3)
    got = gamma_ratio_coeffs(rho)
    assert all(isinstance(a, Fraction) for a in got)
    with mpmath.workdps(40):
        want = _mp_gamma_ratio_coeffs(mpmath.mpf(7) / 3, 40)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert abs(mpmath.mpf(a.numerator) / a.denominator - b) <= (
                mpmath.mpf(10) ** -35 * abs(b))


def test_gamma_ratio_coeffs_exact_and_mp():
    # integer rho: exactly the falling factorial (n-1)(n-2)...(n-rho)
    assert gamma_ratio_coeffs(Fraction(3))[:4] == [1, -6, 11, -6]
    for rho in range(6):
        coeffs = gamma_ratio_coeffs(Fraction(rho))
        for n in (1, 2, 7, 30):
            series = sum(a * Fraction(n) ** (rho - j)
                         for j, a in enumerate(coeffs))
            assert series == math.prod(n - j for j in range(1, rho + 1))
    # mpmath rho: the asymptotic series to working precision
    with mpmath.workdps(30):
        rho, n = mpmath.mpf("5.9"), 4000
        series = sum(a * mpmath.mpf(n) ** (rho - j)
                     for j, a in enumerate(gamma_ratio_coeffs(rho)))
        exact = mpmath.gamma(n) / mpmath.gamma(n - rho)
        assert abs(series / exact - 1) < 1e-25
