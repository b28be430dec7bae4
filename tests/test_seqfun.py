"""Series builders, partial sums, and the piecewise embedding."""

import numpy as np
import pytest

from cesaro.operators import apply_P
from cesaro.seqfun import (PiecewiseFn, SeriesTerms, alt_naturals, alt_ones,
                           embed_step, n_pow_minus_s, naturals, ones,
                           psum_function, zero_padded)


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


def test_embed_step_sequence_values():
    f = embed_step(lambda n: n * n)
    assert f.value(3.5) == 9
    assert f.value(0.5) == 0


def test_cumulative_matches_cellwise_sum():
    t = alt_naturals()
    f = psum_function(t)
    for x in (1.0, 2.5, 7.75, 12.0):
        k = int(x)
        want = sum(t.psum(j) for j in range(k)) + t.psum(k) * (x - k)
        assert f.cumulative(x) == pytest.approx(want, abs=1e-12)


def test_node_values_agree_with_point_values():
    from cesaro.seqfun import NODES
    f = psum_function(alt_ones())
    rows = f.node_values(6)
    for k in range(6):
        for j, a in enumerate(NODES):
            assert rows[k, j] == pytest.approx(f.value(k + a))


def test_linear_combination_pointwise():
    f = psum_function(ones())
    g = psum_function(alt_ones())
    h = PiecewiseFn.linear_combination([(2.0, f), (-1.0, g)])
    for x in (0.3, 1.7, 5.5):
        assert h.value(x) == pytest.approx(2 * f.value(x) - g.value(x))
