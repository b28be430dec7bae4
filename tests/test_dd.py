"""Double-double arrays against 40-digit mpmath and exact rationals: the
averaging kernel and the rounding of scaled ints."""

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

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


def test_from_fixed_rounds_each_part_once():
    # 0, values below 1, negative ints and ints above 2^200, at 150 bits
    rng = random.Random(20261019)
    bits = 150
    xs = [0, 1, -1, 3 << 100, -(1 << 149) - 12345, (1 << 260) + 1,
          -(3 << 210) - 7]
    xs += [rng.choice((1, -1)) * rng.getrandbits(k)
           for k in (40, 120, 151, 220, 300)]
    got = DDArray.from_fixed(xs, bits)
    for x, hi, lo in zip(xs, got.hi, got.lo):
        want = Fraction(x, 1 << bits)
        assert hi == float(want)
        assert abs(Fraction(hi) + Fraction(lo) - want) \
            <= abs(want) * Fraction(1, 1 << 106)
        assert abs(lo) <= math.ulp(hi) / 2
