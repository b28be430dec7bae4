"""Regularized integrals, endpoint analysis, and the Mellin showcase."""

import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

import cesaro
from cesaro.asymptotics import AsymptoticExpansion, ExpansionTerm
from cesaro.config import DEFAULT_CONFIG
from cesaro.errors import (FitFailureError, IllegalCancellationError,
                           PoleSignal, QuadratureError, is_pole)
from cesaro.integrals import (DomainSpec, SingularPoint, _quad_piece,
                              cesaro_integral, fit_endpoint_expansion,
                              mellin_1_over_1px, mellin_integrand)

CFG = DEFAULT_CONFIG

BOTH_ENDS = DomainSpec(points=(SingularPoint(kind="zero"),
                               SingularPoint(kind="infinity")))


def _classical(f):
    v1, _ = quad(f, 0, 1, limit=200, epsabs=1e-12, epsrel=1e-11)
    v2, _ = quad(f, 1, np.inf, limit=200, epsabs=1e-12, epsrel=1e-11)
    return v1 + v2


def test_import_defers_scipy_integrate():
    # quadrature is numpy's, and a power series' limit is peeled in fixed
    # point: a fresh process that integrates and takes that limit through
    # the CLI loads no scipy module at all
    src = os.path.dirname(os.path.dirname(os.path.abspath(cesaro.__file__)))
    code = ("import contextlib, io, sys, cesaro.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cesaro.cli.run(['mellin', '--s', '0.5']),\n"
            "             cesaro.cli.run(['integral', '--f', 'exp',\n"
            "                             '--spec', '[]']),\n"
            "             cesaro.cli.run(['limit', 'n_pow(0.5)'])]\n"
            "print(codes, [m for m in sys.modules if m.startswith('scipy')])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0] []"


# -- the tanh-sinh rule ----------------------------------------------------

@pytest.mark.parametrize("f,a,b,want", [
    (lambda x: x ** -0.5, 0.0, 1.0, 2.0),
    (math.log, 0.0, 1.0, -1.0),
    (lambda x: x ** -2.0, 1.0, math.inf, 1.0),
    (lambda x: math.exp(-x), 1.0, math.inf, math.exp(-1.0)),
    (lambda x: complex(x) ** (-0.5 + 2j), 0.0, 1.0, 1 / (0.5 + 2j)),
], ids=["inv_sqrt", "log", "inv_square", "exp", "complex_power"])
def test_quad_piece_closed_forms(f, a, b, want):
    got = _quad_piece(f, a, b, isinstance(want, complex))
    assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("f,a,b", [
    (lambda x: 1.0 / x, 1.0, math.inf),
    # two levels agree within 3e-10 on x^{-0.966} over (0, 1), but the
    # range |t| <= 6 stops at x ~ 1e-275 and cuts off 1.3e-8 of it
    (lambda x: x ** -0.966, 0.0, 1.0),
], ids=["divergent", "tail_cut_off_at_zero"])
def test_quad_piece_raises_where_it_cannot_settle(f, a, b):
    with pytest.raises(QuadratureError, match=re.escape(f"[{a}, {b}]")) \
            as info:
        _quad_piece(f, a, b, False)
    assert info.value.interval == (a, b)


def test_undeclared_mellin_ends_land_or_raise():
    # with no declared endpoint, x^{s-1}/(1+x) is nearly non-integrable at
    # 0 for s near 0 and at infinity for s near 1: the rule may then fail
    # to settle, but never returns a value off pi/sin(pi s)
    raised = []
    # 0.034 and 0.89 sit where the rule's levels agree but its range cuts
    # off a tail of 1e-8 at 0 and 7e-10 at infinity
    for s in [0.02 * k for k in range(1, 50)] + [0.034, 0.89]:
        try:
            got = cesaro_integral(mellin_integrand(s), DomainSpec(points=()),
                                  CFG).value
        except QuadratureError:
            raised.append(s)
            continue
        assert abs(got - math.pi / math.sin(math.pi * s)) <= 1e-10, s
    assert all(s < 0.1 or s > 0.85 for s in raised), raised


def test_spec_validation():
    with pytest.raises(ValueError):
        SingularPoint(kind="edge")
    with pytest.raises(ValueError):
        SingularPoint(kind="interior")
    with pytest.raises(ValueError):
        SingularPoint(kind="zero", z0=1.0)
    with pytest.raises(ValueError):
        DomainSpec(points=(SingularPoint(kind="infinity"),
                           SingularPoint(kind="zero")))
    with pytest.raises(ValueError):
        DomainSpec(points=(SingularPoint(kind="interior", z0=3.0),
                           SingularPoint(kind="interior", z0=1.0)))


def test_classical_function_no_declared_points():
    out = cesaro_integral(lambda x: math.exp(-x), DomainSpec(points=()), CFG)
    assert out.value == pytest.approx(1.0, abs=1e-9)
    assert out.cutoff_variables == 1
    assert out.log_flags == ()


def test_classical_function_with_declared_endpoints():
    out = cesaro_integral(lambda x: math.exp(-x), BOTH_ENDS, CFG)
    assert out.value == pytest.approx(1.0, abs=1e-8)
    assert out.log_flags == ()


@pytest.mark.parametrize("seed", range(20))
def test_random_absolutely_integrable_matches_classical(seed):
    rng = np.random.default_rng(1000 + seed)
    a = rng.uniform(0.5, 3.0)
    b = rng.uniform(0.5, 2.0)
    c = rng.uniform(-2.0, 2.0)
    p = rng.uniform(1.6, 3.0)
    d = rng.uniform(-1.0, 1.0)
    w = rng.uniform(0.5, 4.0)

    def f(x):
        return (a * math.exp(-b * x) + c / (1.0 + x) ** p
                + d * math.exp(-x) * math.sin(w * x))

    out = cesaro_integral(f, DomainSpec(points=()), CFG)
    assert out.value == pytest.approx(_classical(f), abs=1e-6)


def test_power_divergence_at_infinity_is_discarded():
    # integral of 1 up to X is X: pure power divergence, finite part 0
    spec = DomainSpec(points=(SingularPoint(kind="infinity",
                                            fit_exponents=(1.0,)),))
    out = cesaro_integral(lambda x: 1.0, spec, CFG)
    assert abs(out.value) < 1e-6
    assert out.per_endpoint and out.per_endpoint[0][1]
    assert out.log_flags == ()


def test_one_over_x_flags_logs_at_both_ends():
    out = cesaro_integral(lambda x: 1.0 / x, BOTH_ENDS, CFG)
    assert is_pole(out.value)
    assert set(out.log_flags) == {"zero", "infinity"}
    # independent cutoffs are forced once logs show up
    assert out.cutoff_variables == 2


def test_log_at_one_end_only():
    spec = DomainSpec(points=(SingularPoint(kind="infinity"),))
    out = cesaro_integral(lambda x: 1.0 / (1.0 + x), spec, CFG)
    assert is_pole(out.value)
    assert out.log_flags == ("infinity",)


def test_endpoint_log_flags_do_not_cancel_by_default():
    # (x-1)/(x(1+x)) has log coefficients -1 at zero and +1 at infinity;
    # per-endpoint analysis must flag both instead of settling on a value
    f = lambda x: (x - 1.0) / (x * (1.0 + x))
    out = cesaro_integral(f, BOTH_ENDS, CFG)
    assert is_pole(out.value)
    assert set(out.log_flags) == {"zero", "infinity"}


def test_strict_mode_raises_on_cancelling_logs():
    f = lambda x: (x - 1.0) / (x * (1.0 + x))
    with pytest.raises(IllegalCancellationError):
        cesaro_integral(f, BOTH_ENDS, CFG, strict_cutoffs=True)


def test_interior_two_sided_log_cancellation_strict():
    spec = DomainSpec(points=(SingularPoint(kind="interior", z0=2.0),))
    f = lambda x: math.exp(-x) / (x - 2.0)
    with pytest.raises(IllegalCancellationError):
        cesaro_integral(f, spec, CFG, strict_cutoffs=True)


def test_interior_integrable_singularity():
    spec = DomainSpec(points=(
        SingularPoint(kind="interior", z0=2.0,
                      fit_exponents=(-0.5, -1.5, -2.5)),))
    f = lambda x: math.exp(-x) / math.sqrt(abs(x - 2.0))
    out = cesaro_integral(f, spec, CFG)
    # oracle via u = sqrt|x-2|, which removes the singularity
    left, _ = quad(lambda u: 2.0 * math.exp(-(2.0 - u * u)), 0,
                   math.sqrt(2.0), limit=200, epsabs=1e-12)
    right, _ = quad(lambda u: 2.0 * math.exp(-(2.0 + u * u)), 0, 8.0,
                    limit=200, epsabs=1e-12)
    assert out.value == pytest.approx(left + right, abs=1e-7)


def test_strict_mode_counts_cutoff_variables():
    spec = DomainSpec(points=(
        SingularPoint(kind="interior", z0=2.0,
                      fit_exponents=(-0.5, -1.5, -2.5)),))
    f = lambda x: math.exp(-x) / math.sqrt(abs(x - 2.0))
    out = cesaro_integral(f, spec, CFG, strict_cutoffs=True)
    assert out.cutoff_variables == 4


def test_analytic_expansion_path():
    # integral_{1/X}^{1} x^{-2} dx = X - 1: declared expansion, finite part -1
    exp = AsymptoticExpansion((ExpansionTerm(1.0, 1.0, variable="X"),),
                              remainder_order=-1, variable="X")
    spec = DomainSpec(points=(SingularPoint(kind="zero", expansion=exp),
                              SingularPoint(kind="infinity")))
    out = cesaro_integral(lambda x: x ** -2.0, spec, CFG)
    # finite parts: -1 from the zero cutoff (anchored at 1) plus 1 from the
    # classical tail integral_1^inf x^-2 = 1
    assert out.value == pytest.approx(0.0, abs=1e-7)


def test_analytic_expansion_must_be_complete():
    exp = AsymptoticExpansion((ExpansionTerm(1.0, 2.0, variable="X"),),
                              remainder_order=-1, variable="X")
    spec = DomainSpec(points=(SingularPoint(kind="zero", expansion=exp),))
    with pytest.raises(FitFailureError):
        cesaro_integral(lambda x: x ** -2.0, spec, CFG)


# -- endpoint expansion fitting --------------------------------------------

def _samples(fn):
    xs = np.geomspace(10.0, 1e4, 16)
    return [(x, fn(x)) for x in xs]


def test_fit_endpoint_constant():
    exp = fit_endpoint_expansion(_samples(lambda X: 3.0 + 1.0 / X), [])
    assert complex(exp.constant).real == pytest.approx(3.0, abs=1e-8)
    # only decay terms may appear for a resolved endpoint
    assert all(complex(t.exponent).real < 0 for t in exp.terms)


def test_fit_endpoint_quadratic_model():
    exp = fit_endpoint_expansion(
        _samples(lambda X: X * X / 2.0 + 7.0), [2])
    assert complex(exp.constant).real == pytest.approx(7.0, abs=1e-6)
    lead = [t for t in exp.terms if complex(t.exponent).real == 2]
    assert lead and complex(lead[0].coeff).real == pytest.approx(0.5,
                                                                 abs=1e-9)


def test_fit_endpoint_rejects_unmodeled_log():
    with pytest.raises(FitFailureError):
        fit_endpoint_expansion(_samples(lambda X: math.log(X) + 1.0), [])


def test_fit_endpoint_input_validation():
    with pytest.raises(ValueError):
        fit_endpoint_expansion(_samples(lambda X: X)[:3], [1, 2])
    close = [(x, 1.0) for x in np.linspace(10, 20, 16)]
    with pytest.raises(ValueError):
        fit_endpoint_expansion(close, [])


# -- Mellin showcase -------------------------------------------------------

def test_mellin_value_at_half():
    v = mellin_1_over_1px(0.5, CFG)
    assert v == pytest.approx(math.pi, abs=1e-6)


def test_mellin_strip_matches_quadrature():
    for s in np.linspace(0.08, 0.92, 10):
        def g(x, s=s):
            return x ** (s - 1.0) / (1.0 + x)
        want = _classical(g)
        got = mellin_1_over_1px(float(s), CFG)
        assert got == pytest.approx(want, abs=1e-6)


def test_mellin_pole_set():
    for s in (-2, -1, 0, 1, 2):
        out = mellin_1_over_1px(float(s), CFG)
        assert isinstance(out, PoleSignal)
        assert out.residue == pytest.approx((-1.0) ** s, abs=1e-6)
    for s in (-1.5, -0.5, 0.5, 1.5):
        out = mellin_1_over_1px(s, CFG)
        assert not is_pole(out)


def test_mellin_reflection():
    for s in (0.3, 0.5, 0.7, 0.5 + 0.2j):
        lhs = complex(mellin_1_over_1px(s + 1, CFG))
        rhs = -complex(mellin_1_over_1px(s, CFG))
        assert lhs == pytest.approx(rhs, abs=1e-4)


def test_mellin_outside_strip_matches_reflection_formula():
    # continuation values agree with pi/sin(pi s) off the integers
    for s in (-1.5, -0.5, 1.5):
        want = math.pi / math.sin(math.pi * s)
        got = complex(mellin_1_over_1px(s, CFG)).real
        assert got == pytest.approx(want, abs=1e-4)


@pytest.mark.parametrize("bad_at_one", [True, False])
def test_integrand_runtime_error_propagates(bad_at_one):
    # a fault of the integrand itself is not a quadrature failure: it
    # leaves the scalar probe (at x = 1) or the quadrature unchanged
    def f(x):
        if bad_at_one or x != 1.0:
            raise RuntimeError("integrand fault")
        return 1.0

    with pytest.raises(RuntimeError, match="integrand fault"):
        cesaro_integral(f, DomainSpec(points=()), CFG)
