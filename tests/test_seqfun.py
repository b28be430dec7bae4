"""Series builders, partial sums, and the piecewise embedding."""

import numpy as np
import pytest

from cesaro.operators import apply_P
from cesaro.seqfun import (PiecewiseFn, SeriesTerms, alt_naturals, alt_ones,
                           n_pow_minus_s, naturals, ones, psum_function,
                           zero_padded)


def test_psum_basic_and_exact():
    t = ones()
    assert t.psum(0) == 0
    assert t.psum(17) == 17
    assert isinstance(t.psum(17), int)


def test_psum_alt_ones():
    t = alt_ones()
    assert [t.psum(k) for k in range(7)] == [0, 1, 0, 1, 0, 1, 0]


def test_psum_naturals_triangular():
    t = naturals()
    for k in (1, 2, 10, 50):
        assert t.psum(k) == k * (k + 1) // 2


def test_alt_naturals_partial_sums():
    t = alt_naturals()
    # 1, -2, 3, -4 -> 1, -1, 2, -2
    assert [t.psum(k) for k in range(1, 7)] == [1, -1, 2, -2, 3, -3]


def test_n_pow_minus_s_real_and_complex():
    t = n_pow_minus_s(2.0)
    assert t.term(3) == pytest.approx(1 / 9)
    tc = n_pow_minus_s(0.5 + 0.5j)
    assert tc.term(2) == pytest.approx(2.0 ** (-0.5 - 0.5j))


def test_n_pow_minus_s_integer_exponent_is_exact():
    t = n_pow_minus_s(-2)
    assert t.term(5) == 25
    assert isinstance(t.term(5), int)


def test_zero_padded_classic_pattern():
    t = zero_padded(alt_ones(), [1, 0, 1])
    got = [t.term(n) for n in range(1, 10)]
    assert got == [1, 0, -1, 1, 0, -1, 1, 0, -1]


def test_zero_padded_preserves_series_mass():
    t = zero_padded(naturals(), [1, 1, 0])
    # 1,2,0,3,4,0,...
    assert [t.term(n) for n in range(1, 7)] == [1, 2, 0, 3, 4, 0]
    assert t.psum(6) == 10


def test_complex_terms_behind_zero_slots_stay_complex():
    t = zero_padded(n_pow_minus_s(0.5 - 1j), [0, 1])
    want = [complex(t.term(n)) for n in range(1, 11)]
    got = t.term_array(10)
    assert got.dtype == np.complex128
    assert list(got) == want
    assert t.psum_array(10).dtype == np.complex128
    assert psum_function(t).node_values(10).dtype == np.complex128


def test_psum_function_cells_are_the_partial_sums():
    t = n_pow_minus_s(0.5 - 0.3j)
    cells = psum_function(t).node_values(500)
    assert cells.shape == (500, 1)          # one column, each value once
    assert np.array_equal(cells[:, 0], t.psum_array(499))
    assert np.array_equal(cells, cells[:, :1].repeat(cells.shape[1], axis=1))


def _order_probe(first_x=None):
    f = psum_function(n_pow_minus_s(0.5 - 0.3j))
    g = apply_P(apply_P(f))
    if first_x is not None:
        for h in (f, g):
            h.value(first_x)
            h.cumulative(first_x)
    horizon = 2 * 10**4
    return f.prefix(horizon), g.node_values(horizon), g.prefix(horizon)


@pytest.mark.parametrize("x", [7.5, 30.25, 15000.5])
def test_values_do_not_depend_on_query_order(x):
    # 15000.5 builds 15001 cells first, so the horizon forces a rebuild
    for want, got in zip(_order_probe(), _order_probe(x)):
        assert np.array_equal(want, got)


def test_zero_padded_rejects_bad_pattern():
    with pytest.raises(ValueError):
        zero_padded(ones(), [])
    with pytest.raises(ValueError):
        zero_padded(ones(), [0, 0])
    with pytest.raises(ValueError):
        zero_padded(ones(), [1, 2])


def test_psum_function_step_values():
    f = psum_function(alt_ones())
    # constant on [k, k+1) equal to the k-th partial sum
    assert f.value(0.5) == 0
    assert f.value(1.2) == 1
    assert f.value(2.9) == 0


def test_psum_function_keeps_series_handle():
    t = zero_padded(alt_ones(), [1, 0, 1])
    f = psum_function(t)
    assert f.series is t
    assert f.label != psum_function(alt_ones()).label


def test_cumulative_matches_cellwise_sum():
    t = alt_naturals()
    f = psum_function(t)
    for x in (1.0, 2.5, 7.75, 12.0):
        k = int(x)
        want = sum(t.psum(j) for j in range(k)) + t.psum(k) * (x - k)
        assert f.cumulative(x) == pytest.approx(want, abs=1e-12)


def test_node_values_agree_with_point_values():
    # a step function's one column holds its value at every node of a cell
    from cesaro.seqfun import NODES
    f = psum_function(alt_ones())
    rows = f.node_values(6)
    for k in range(6):
        for a in NODES:
            assert rows[k, 0] == pytest.approx(f.value(k + a))
    g = PiecewiseFn.from_callable(lambda x: np.cos(x) + x / 3)
    rows = g.node_values(6)
    assert rows.shape == (6, len(NODES))
    for k in range(6):
        for j, a in enumerate(NODES):
            assert rows[k, j] == pytest.approx(g.value(k + a))


def test_linear_combination_pointwise():
    f = psum_function(ones())
    g = psum_function(alt_ones())
    h = PiecewiseFn.linear_combination([(2.0, f), (-1.0, g)])
    for x in (0.3, 1.7, 5.5):
        assert h.value(x) == pytest.approx(2 * f.value(x) - g.value(x))
    # two step columns sum to the rows of a smooth-kind function
    rows = h.node_values(6)
    assert rows.shape == (6, 8)
    want = 2.0 * f.node_values(6) - g.node_values(6)
    assert np.array_equal(rows, np.repeat(want, 8, axis=1))


def test_smooth_kind_without_a_point_value_interpolates_its_nodes():
    # the degree-7 node interpolant reproduces any polynomial of degree <= 7
    from cesaro.seqfun import NODES
    coeffs = [0.3, -1.2, 0.5, 0.2, -0.05, 0.01, -0.003, 0.0004]

    def poly(x):
        return np.polynomial.polynomial.polyval(x, coeffs)

    def gen(n):
        return poly(np.arange(n, dtype=float)[:, None] + NODES[None, :])

    f = PiecewiseFn("poly-in-alpha", gen)
    for x in (0.0, 0.37, 0.999, 1.0, 1.5, 1.999):
        assert f.value(x) == pytest.approx(poly(x), rel=1e-12, abs=1e-12)


# -- the array form against the per-term map --------------------------------

def _array_series():
    return [ones(), alt_ones(), naturals(), alt_naturals(), n_pow_minus_s(-3),
            n_pow_minus_s(0), n_pow_minus_s(1.271204), n_pow_minus_s(-0.5),
            n_pow_minus_s(0.5 - 1j), n_pow_minus_s(-1.2 + 0.7j),
            zero_padded(alt_ones(), [1, 0, 1]),
            zero_padded(n_pow_minus_s(0.5 - 1j), [0, 1]),
            zero_padded(zero_padded(n_pow_minus_s(0.5 - 1j), [0, 1]),
                        [0, 0, 1, 1]),
            zero_padded(zero_padded(alt_naturals(), [1, 0]), [0, 1, 1])]


@pytest.mark.parametrize("series", _array_series(), ids=lambda t: t.label)
def test_array_form_keeps_the_bits_of_the_per_term_map(series):
    assert series.array is not None
    per_term = SeriesTerms(series.term, series.label)
    for k in (0, 1, 7, 1000):
        for name in ("psum_array", "term_array"):
            got, want = getattr(series, name)(k), getattr(per_term, name)(k)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()      # signed zeros too
        got, want = series.psum(k), per_term.psum(k)
        assert type(got) is type(want) and got == want


def test_int_sums_past_int64_stay_exact():
    t = n_pow_minus_s(-3)
    k = 10 ** 5
    exact = (k * (k + 1) // 2) ** 2            # sum of n^3, above 2^63
    assert exact > 2 ** 63
    assert t.psum(k) == exact and isinstance(t.psum(k), int)
    assert t.psum_array(k)[-1] == float(exact)
    assert isinstance(ones().psum(17), int)
    assert isinstance(zero_padded(naturals(), [1, 1, 0]).psum(6), int)


@pytest.fixture
def term_calls(monkeypatch):
    """Every n handed to a SeriesTerms' per-term map, made from now on."""
    calls = []
    init = SeriesTerms.__init__

    def counting_init(self, term, label="", array=None):
        def counted(n):
            calls.append(n)
            return term(n)
        init(self, counted, label, array)

    monkeypatch.setattr(SeriesTerms, "__init__", counting_init)
    return calls


def test_hot_paths_make_no_per_term_call(term_calls, capsys):
    from cesaro.cli import run
    from cesaro.zeta import eta
    SeriesTerms(lambda n: n).psum_array(10)     # the counter counts
    assert len(term_calls) == 10
    term_calls.clear()
    assert run(["sum", "alt_ones"]) == 0
    assert run(["limit", "n_pow(0.5)"]) == 0
    assert run(["sum", "zero_padded(alt_ones,1,0,1)"]) == 0
    eta(0.5)
    capsys.readouterr()
    assert term_calls == []
