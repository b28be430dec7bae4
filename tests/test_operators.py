"""Averaging operators: continuous, discrete, and measure-weighted."""

import weakref
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cesaro.errors import LambdaIsOneError
from cesaro.operators import (DIVIDE_ROWS, MeasureScheme, P_on_term, apply_P,
                              apply_P_D, apply_P_D_inverse, apply_P_mu,
                              apply_regular_polynomial, average_pass,
                              build_regular_polynomial)
from cesaro.seqfun import (NODES, PARTIAL_FROM_VALUES, PiecewiseFn, alt_ones,
                           cell_prefix, psum_function)


def _power_fn(rho):
    return PiecewiseFn.from_callable(
        lambda x, p=rho: np.asarray(x, dtype=float) ** p,
        closed_cumulative=lambda X, p=rho: X ** (p + 1) / (p + 1),
        label=f"x^{rho}")


def test_apply_P_on_constant():
    f = _power_fn(0.0)
    g = apply_P(f)
    for x in (0.5, 3.3, 40.0):
        assert g.value(x) == pytest.approx(1.0, abs=1e-12)


def test_apply_P_eigenfunction_relation():
    # x^rho is an eigenfunction with eigenvalue 1/(rho+1)
    for rho in (1.0, 2.0, 0.5, 3.5):
        f = _power_fn(rho)
        g = apply_P(f)
        for x in (2.3, 17.8, 400.0):
            assert g.value(x) == pytest.approx(x ** rho / (rho + 1),
                                               rel=1e-9)


def test_apply_P_is_freed_when_the_caller_drops_it():
    # f keeps no reference to its average, so no cycle outlives the caller
    f = psum_function(alt_ones())
    g = apply_P(f)
    g.node_values(10)
    ref = weakref.ref(g)
    del g
    assert ref() is None


def _whole_pass(vals, step):
    """The pass as one expression over all n rows, with the whole divisor."""
    partial = (vals[:, :1] * NODES[None, :] if step
               else vals @ PARTIAL_FROM_VALUES.T)
    partial += cell_prefix(vals, step)[:-1, None]
    return partial / (np.arange(len(vals), dtype=np.float64)[:, None]
                      + NODES[None, :])


@pytest.mark.parametrize("n", [1, DIVIDE_ROWS - 1, 2 * DIVIDE_ROWS + 5])
@pytest.mark.parametrize("kind", [float, complex])
@pytest.mark.parametrize("step", [False, True])
def test_a_pass_divides_in_row_blocks_bit_for_bit(n, kind, step):
    rng = np.random.default_rng(n)
    vals = rng.standard_normal((n, len(NODES))).astype(kind)
    if kind is complex:
        vals += 1j * rng.standard_normal((n, len(NODES)))
    assert np.array_equal(average_pass(vals, step), _whole_pass(vals, step))


@pytest.mark.parametrize("n", [1, 1000, DIVIDE_ROWS, DIVIDE_ROWS + 1, 10**5])
@pytest.mark.parametrize("kind", [float, complex])
@pytest.mark.parametrize("layout", ["rows", "rows in place", "step rows",
                                    "step column"])
def test_a_pass_written_into_out_keeps_the_bits(n, kind, layout):
    # fresh or in place, block by block, the pass keeps the bits of the
    # whole pass, a last block of one row included
    rng = np.random.default_rng(n)
    vals = rng.standard_normal((n, len(NODES))).astype(kind)
    if kind is complex:
        vals += 1j * rng.standard_normal((n, len(NODES)))
    if layout == "step column":
        vals = vals[:, :1].copy()
    step = layout.startswith("step")
    want = _whole_pass(vals, step)
    if layout == "rows in place":
        got = average_pass(vals, step, out=vals)
        assert got is vals
    else:
        got = average_pass(vals, step)
    assert got.shape == (n, len(NODES)) and got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_P_on_term_log_powers():
    # P[ln x] = ln x - 1
    terms = P_on_term(0.0, 1)
    assert dict((j, c) for c, j in terms) == pytest.approx({1: 1.0, 0: -1.0})
    # P[x ln x] = (x ln x)/2 - x/4
    terms = P_on_term(1.0, 1)
    got = {j: c for c, j in terms}
    assert got[1] == pytest.approx(0.5)
    assert got[0] == pytest.approx(-0.25)


def test_P_on_term_numeric_agreement():
    rho, m = 1.5, 2
    f = PiecewiseFn.from_callable(
        lambda x: np.asarray(x, float) ** rho * np.log(np.maximum(x, 1e-300)) ** m,
        label="x^1.5 ln^2")
    g = apply_P(f)
    for x in (11.3, 53.7):
        want = sum(c * x ** rho * np.log(x) ** j for c, j in P_on_term(rho, m))
        # the ln^2 kink at 0 costs a little interpolation accuracy on [0,1)
        assert g.value(x) == pytest.approx(want, rel=1e-6)


def test_P_on_term_rejects_bad_input():
    with pytest.raises(ValueError):
        P_on_term(-1.0, 0)
    with pytest.raises(ValueError):
        P_on_term(0.0, -1)


def test_apply_P_D_exact_rationals():
    out = apply_P_D([1, 2, 3, 4])
    assert out == [1, Fraction(3, 2), 2, Fraction(5, 2)]
    assert all(isinstance(v, (int, Fraction)) for v in out)


def test_apply_P_D_runs_in_the_input_arithmetic():
    data = [0.1, 2.5, -3.25, 7.0, 1e-3, -0.7]
    from_list = apply_P_D(data)
    from_array = apply_P_D(np.array(data))
    from_mpf = apply_P_D([mpmath.mpf(v) for v in data])
    assert isinstance(from_array, np.ndarray)
    assert all(isinstance(v, mpmath.mpf) for v in from_mpf)
    assert list(from_array) == from_list == [float(v) for v in from_mpf]


def test_apply_P_D_inverse_round_trip():
    a = [3, -1, 4, -1, 5, -9, 2, 6]
    assert apply_P_D_inverse(apply_P_D(a)) == a


def test_apply_P_D_inverse_explicit():
    # out_k = k t_k - (k-1) t_{k-1}
    t = [2, 5, 1]
    assert apply_P_D_inverse(t) == [2, 2 * 5 - 2, 3 * 1 - 2 * 5]


def test_regular_polynomial_normalized_at_one():
    q = build_regular_polynomial([(Fraction(1, 2), 2), (Fraction(1, 3), 1)],
                                 pure_power=2)
    assert q.eval_scalar(1) == 1
    assert q.degree == 5


def test_regular_polynomial_monomial_coefficients():
    q = build_regular_polynomial([(0.5, 1)])
    # (A - 1/2)/(1 - 1/2) = 2A - 1
    assert q.monomial_coefficients() == pytest.approx([-1.0, 2.0])


def test_regular_polynomial_rejects_lambda_one():
    with pytest.raises(LambdaIsOneError):
        build_regular_polynomial([(1.0, 1)])
    with pytest.raises(LambdaIsOneError):
        build_regular_polynomial([(1.0 + 1e-12, 1)])


def test_apply_regular_polynomial_annihilates_eigenfunction():
    # (A - 1/2)/(1 - 1/2) kills x^1
    q = build_regular_polynomial([(0.5, 1)])
    g = apply_regular_polynomial(q, _power_fn(1.0))
    for x in (7.7, 123.4):
        assert abs(g.value(x)) < 1e-9 * x


def test_apply_regular_polynomial_preserves_constants():
    q = build_regular_polynomial([(0.5, 1), (0.25, 1)], pure_power=1)
    g = apply_regular_polynomial(q, _power_fn(0.0))
    for x in (5.0, 90.0):
        assert g.value(x) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("factors", [[], [(0.5, 1)]])
def test_apply_regular_polynomial_leaves_f_s_rows_unwritten(factors):
    # the pure power averages in place only the rows that q made itself
    f = _power_fn(1.5)
    before = f.node_values(300).copy()
    q = build_regular_polynomial(factors, pure_power=2)
    g = apply_regular_polynomial(q, f)
    want = before
    for lam, _ in factors:
        want = 2.0 * average_pass(want) + (-lam * 2.0) * want
    want = average_pass(average_pass(want))
    assert np.array_equal(g.node_values(300), want)
    assert np.array_equal(f.node_values(300), before)


def test_apply_regular_polynomial_cross_check():
    q = build_regular_polynomial([(0.5, 1), (1.0 / 3.0, 1)])
    f = psum_function(alt_ones())
    # factored and expanded application must agree where requested
    apply_regular_polynomial(q, f, cross_check_at=(10.5, 20.0, 50.25))


def test_P_mu_unit_weight_matches_plain_average():
    scheme = MeasureScheme(lambda x: np.ones_like(np.asarray(x, float)),
                           F_mu=lambda X: X, label="unit")
    f = _power_fn(2.0)
    g_mu = apply_P_mu(f, scheme)
    g = apply_P(f)
    for x in (3.7, 21.2):
        assert g_mu.value(x) == pytest.approx(g.value(x), rel=1e-10)


def test_P_mu_node_values_with_unit_weight():
    # the node path, with the mass from quadrature of mu = 1
    scheme = MeasureScheme(lambda x: np.ones_like(np.asarray(x, float)),
                           label="unit")
    f = _power_fn(2.0)
    got = apply_P_mu(f, scheme).node_values(60)
    want = apply_P(f).node_values(60)
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) < 1e-11


def test_P_mu_node_values_match_point_values():
    # mu = 1 + t, F_mu = X + X^2/2: the average of f = t is
    # (X^2/2 + X^3/3) / (X + X^2/2), at the nodes and at points alike
    scheme = MeasureScheme(lambda x: 1.0 + np.asarray(x, float),
                           F_mu=lambda X: X + X * X / 2.0, label="1+t")
    g = apply_P_mu(_power_fn(1.0), scheme)
    n = 60
    xs = np.arange(n, dtype=float)[:, None] + NODES[None, :]
    got = g.node_values(n)
    points = np.array([[g.value(x) for x in row] for row in xs])
    closed = (xs ** 2 / 2 + xs ** 3 / 3) / (xs + xs * xs / 2)
    for want in (points, closed):
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) < (
            1e-12)


def test_P_mu_linear_weight_eigenfunctions():
    # with mu = t the cumulative mass is X^2/2 and (F_mu)^rho = (x^2/2)^rho
    # is an eigenfunction with eigenvalue 1/(rho+1)
    scheme = MeasureScheme(lambda x: np.asarray(x, float),
                           F_mu=lambda X: X * X / 2.0, label="t")
    rho = 2.0
    f = PiecewiseFn.from_callable(
        lambda x: (np.asarray(x, float) ** 2 / 2.0) ** rho,
        label="(F_mu)^2")
    g = apply_P_mu(f, scheme)
    for x in (9.4, 33.1):
        want = (x * x / 2.0) ** rho / (rho + 1)
        assert g.value(x) == pytest.approx(want, rel=1e-7)
