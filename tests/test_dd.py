"""Double-double arrays against 40-digit mpmath: the averaging kernel and
the elementwise exp and log."""

from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cesaro import dd
from cesaro.dd import DDArray
from cesaro.operators import average_nodes
from cesaro.seqfun import NODES, PARTIAL_FROM_VALUES, WEIGHTS

SCALE = 1e20


def _cancelling_cells(cells=50, seed=20260418):
    """Node values of size SCALE in which every odd cell nearly cancels the
    cell before it, so half the prefix sums are ~1e-16 of their terms."""
    rng = np.random.default_rng(seed)
    hi = SCALE * rng.standard_normal((cells, len(NODES)))
    hi[1::2] = -hi[0::2] + 1e4 * rng.standard_normal((cells // 2, len(NODES)))
    # below half an ulp of hi, so each hi + lo is already normalized
    lo = hi * 2.0 ** -54 * rng.uniform(-1, 1, hi.shape)
    return DDArray(hi, lo)


def _mp_reference_pass(x: DDArray):
    """The same pass, entry by entry, in 40-digit mpmath object arrays; the
    kernel's float coefficients (weights, partial-integral matrix, node
    positions k + a_i) are exact in mpmath, so only the value arithmetic
    differs."""
    cells, nodes = x.hi.shape
    with mpmath.workdps(40):
        vals = np.array([[mpmath.mpf(h) + mpmath.mpf(l) for h, l in zip(rh, rl)]
                         for rh, rl in zip(x.hi, x.lo)], dtype=object)
        means = vals @ np.array([mpmath.mpf(w) for w in WEIGHTS], dtype=object)
        pre = [mpmath.mpf(0)]
        for m in means[:-1]:
            pre.append(pre[-1] + m)
        mat = np.array([[mpmath.mpf(c) for c in row]
                        for row in PARTIAL_FROM_VALUES.T], dtype=object)
        partial = vals @ mat
        denom = np.arange(cells, dtype=np.float64)[:, None] + NODES[None, :]
        return [[(pre[k] + partial[k, i]) / mpmath.mpf(denom[k, i])
                 for i in range(nodes)] for k in range(cells)]


def test_average_nodes_pass_matches_mpmath():
    x = _cancelling_cells()
    out = average_nodes(x, (x @ WEIGHTS).exclusive_cumsum())
    want = _mp_reference_pass(x)
    with mpmath.workdps(40):
        err = max(abs(mpmath.mpf(h) + mpmath.mpf(l) - w)
                  for rh, rl, rw in zip(out.hi, out.lo, want)
                  for h, l, w in zip(rh, rl, rw))
    assert err <= 1e-30 * SCALE
    # a float64 pass on the same data is off by ~1e4
    float_pass = average_nodes(x.to_float(),
                               np.concatenate([[0.0], np.cumsum(
                                   x.to_float() @ WEIGHTS)[:-1]]))
    assert np.max(np.abs(float_pass - out.to_float())) > 1e3 * err


def test_exclusive_cumsum_starts_at_zero():
    x = DDArray(np.array([1.0, 2.0, 3.0, 1e-20]), np.zeros(4))
    pre = x.exclusive_cumsum()
    assert list(pre.hi) == [0.0, 1.0, 3.0, 6.0]
    assert pre.to_float()[0] == 0.0
    assert len(DDArray(np.ones(1), np.zeros(1)).exclusive_cumsum()) == 1


def test_sum_of_cancelling_highs_keeps_both_low_parts():
    a = DDArray(np.array([1.0]), np.array([2.0 ** -60]))
    b = DDArray(np.array([-1.0]), np.array([2.0 ** -61 + 2.0 ** -113]))
    c = a + b
    assert (c.hi[0], c.lo[0]) == (1.5 * 2.0 ** -60, 2.0 ** -113)


def test_division_keeps_the_low_part():
    x = DDArray(np.array([1.0]), np.array([2.0 ** -60]))
    q = x / np.array([3.0])
    with mpmath.workdps(40):
        want = (1 + mpmath.mpf(2) ** -60) / 3
        assert abs(mpmath.mpf(q.hi[0]) + mpmath.mpf(q.lo[0]) - want) \
            <= want * 2.0 ** -104
    assert q.hi[0] == pytest.approx(1 / 3)


def _mp(x, i=()):
    return mpmath.mpf(float(x.hi[i])) + mpmath.mpf(float(x.lo[i]))


def test_constants_are_hi_plus_lo_of_ln2_and_two_pi():
    with mpmath.workdps(40):
        for c, want in ((dd._LN2, mpmath.log(2)), (dd._TWO_PI, 2 * mpmath.pi)):
            assert float(c.hi) == float(want)
            assert abs(_mp(c) - want) <= want * 2.0 ** -106
        third = DDArray.from_fraction(Fraction(1, 3))
        assert abs(_mp(third) - mpmath.mpf(1) / 3) <= 2.0 ** -108


NODE_BASES = [DDArray(np.full(len(NODES), float(k)), 0.0) + DDArray(NODES, 0.0)
              for k in (0, 1, 9, 999)]


def test_log_at_the_nodes_matches_mpmath():
    with mpmath.workdps(40):
        for x in NODE_BASES:
            got = dd.log(x)
            for i in range(len(NODES)):
                want = mpmath.log(_mp(x, i))
                assert abs(_mp(got, i) - want) <= 1e-28 * abs(want)


@pytest.mark.parametrize("w", [0.5, 2.8, 7.0, -6.0, complex(3.5, -3.0),
                               complex(7.0, 0.45), complex(1.35, 2.9),
                               complex(-0.2, 3.0)])
def test_exp_of_scaled_logs_matches_mpmath_powers(w):
    # x^w = exp(w ln x) at the nodes k + a, Re w up to 7, |Im w| up to 3
    w = complex(w)
    with mpmath.workdps(40):
        for x in NODE_BASES:
            ln_x = dd.log(x)
            if w.imag:
                re, im = dd.exp(ln_x * w.real, ln_x * w.imag)
            else:
                re, im = dd.exp(ln_x * w.real), None
            for i in range(len(NODES)):
                want = mpmath.power(_mp(x, i), mpmath.mpc(w.real, w.imag))
                got = _mp(re, i) + (1j * _mp(im, i) if im is not None else 0)
                assert abs(got - want) <= 1e-28 * abs(want)


def test_exp_reduces_large_arguments():
    # m ln 2 and q 2 pi reductions far from 0, and an argument of 0
    re = DDArray(np.array([-40.3, 0.0, 48.75, 300.0]), 0.0)
    im = DDArray(np.array([21.0, 0.0, -19.5, 1e3]), 0.0)
    got_re, got_im = dd.exp(re, im)
    with mpmath.workdps(40):
        for i in range(4):
            want = mpmath.exp(mpmath.mpc(re.hi[i], im.hi[i]))
            got = _mp(got_re, i) + 1j * _mp(got_im, i)
            assert abs(got - want) <= 1e-28 * abs(want)
