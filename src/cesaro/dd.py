"""Double-double arrays: each entry is an unevaluated sum hi + lo of two
float64 numbers with |lo| <= ulp(hi)/2, about 32 significant digits.

The arithmetic is built from the error-free transformations TwoSum and
TwoProd (Dekker 1971; Hida, Li & Bailey, "QD", 2001), vectorized over
numpy arrays.  Provided are the operations of the node averaging kernel
(sums, products with a float matrix or vector, division by a float array,
basic indexing and an exclusive prefix sum), products of two double-double
arrays, and the elementwise functions exp, of a real or complex argument,
and log, which build route (b)'s node values.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import numpy as np

_SPLITTER = 134217729.0             # 2^27 + 1, Dekker's splitting constant


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _fast_two_sum(a, b):
    """TwoSum for |a| >= |b|."""
    s = a + b
    return s, b - (s - a)


def _split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a, b):
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _concat(a, b):
    return DDArray(np.concatenate([a.hi, b.hi]), np.concatenate([a.lo, b.lo]))


class DDArray:
    """An array of double-double numbers, stored as the two arrays hi, lo."""

    __slots__ = ("hi", "lo")

    def __init__(self, hi, lo):
        self.hi = np.asarray(hi, dtype=np.float64)
        self.lo = np.asarray(lo, dtype=np.float64)

    @classmethod
    def from_fraction(cls, q: Fraction):
        """The rational q rounded once to a scalar hi + lo."""
        hi = float(q)
        return cls(hi, float(q - Fraction(hi)))

    def __len__(self):
        return len(self.hi)

    def __getitem__(self, key):
        return DDArray(self.hi[key], self.lo[key])

    def __add__(self, other):
        s, e = _two_sum(self.hi, other.hi)
        t, f = _two_sum(self.lo, other.lo)
        s, e = _fast_two_sum(s, e + t)
        return DDArray(*_fast_two_sum(s, e + f))

    def __neg__(self):
        return DDArray(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + -other

    def _scaled(self, b):
        p, e = _two_prod(self.hi, b)
        return DDArray(*_fast_two_sum(p, e + self.lo * b))

    def __mul__(self, other):
        """Product with a DDArray or a float array, broadcast like numpy."""
        if not isinstance(other, DDArray):
            return self._scaled(np.asarray(other, dtype=np.float64))
        p, e = _two_prod(self.hi, other.hi)
        e = e + (self.hi * other.lo + self.lo * other.hi)
        return DDArray(*_fast_two_sum(p, e))

    def __matmul__(self, m):
        """Product with a float matrix (k, n) or vector (k,) on the last axis."""
        m = np.asarray(m, dtype=np.float64)
        acc = None
        for j in range(m.shape[0]):
            col = self[..., j, None] if m.ndim == 2 else self[..., j]
            term = col._scaled(m[j])
            acc = term if acc is None else acc + term
        return acc

    def __truediv__(self, b):
        b = np.asarray(b, dtype=np.float64)
        q1 = self.hi / b
        p, e = _two_prod(q1, b)
        s, f = _two_sum(self.hi, -p)
        q2 = (s + (f + self.lo - e)) / b
        return DDArray(*_fast_two_sum(q1, q2))

    def exclusive_cumsum(self):
        """out[k] = sum of entries 0..k-1 along axis 0, out[0] = 0; a
        doubling scan of double-double sums, so no error builds up in a
        running float total."""
        acc, step = self, 1
        while step < len(acc):
            acc = _concat(acc[:step], acc[step:] + acc[:-step])
            step *= 2
        zero = np.zeros_like(self.hi[:1])
        return _concat(DDArray(zero, zero), acc[:-1])

    def to_float(self):
        return self.hi + self.lo


# ---------------------------------------------------------------------------
# exp and log

_LN2 = DDArray(0.6931471805599453, 2.3190468138462996e-17)
_TWO_PI = DDArray(6.283185307179586, 2.4492935982947064e-16)
_ONE = DDArray(1.0, 0.0)
#: the reduced argument is (z - m ln 2 - 2 pi q i) / 2^_SQUARINGS, so
#: |z| <= hypot(ln 2 / 2, pi) / 256 < 0.0126 in the Taylor series, whose
#: first omitted term is then below 2^-106 / 256 of the result
_SQUARINGS, _TAYLOR = 8, 12
_INV_FACT = [DDArray.from_fraction(Fraction(1, factorial(j)))
             for j in range(_TAYLOR + 1)]


def _cmul(a, b):
    """Product of two complex double-double values given as pairs
    (re, im) of DDArrays; an im of None is zero, and b's is None only when
    a's is."""
    (ar, ai), (br, bi) = a, b
    if ai is None:
        return ar * br, None if bi is None else ar * bi
    return ar * br - ai * bi, ar * bi + ai * br


def _cadd(a, b):
    (ar, ai), (br, bi) = a, b
    return ar + br, (ai if bi is None else bi if ai is None else ai + bi)


def exp(re: DDArray, im: DDArray | None = None):
    """e^(re + i im) elementwise, to about 2^-104 relative.

    With im None the argument is real and a DDArray is returned, else the
    pair (real part, imaginary part).  As in Hida, Li & Bailey's QD: the
    real part is reduced by m ln 2 and the imaginary part by q 2 pi, both
    are scaled by 2^-8, a Taylor series gives e = expm1 there, eight
    squarings e <- 2e + e^2 undo the scaling, and 1 + e is scaled by 2^m.
    A real part beyond about +-700 overflows or underflows.
    """
    m = np.rint(re.hi / _LN2.hi)
    scale = 2.0 ** -_SQUARINGS
    z = ((re - _LN2 * m) * scale, None)
    if im is not None:
        z = (z[0], (im - _TWO_PI * np.rint(im.hi / _TWO_PI.hi)) * scale)
    e = (_INV_FACT[_TAYLOR], None)
    for c in reversed(_INV_FACT[1:_TAYLOR]):
        e = _cadd(_cmul(e, z), (c, None))
    e = _cmul(e, z)
    for _ in range(_SQUARINGS):
        e = _cadd(_cadd(e, e), _cmul(e, e))
    m = m.astype(np.int64)
    er, ei = [None if p is None else DDArray(np.ldexp(p.hi, m),
                                              np.ldexp(p.lo, m))
              for p in _cadd(e, (_ONE, None))]
    return er if im is None else (er, ei)


def log(x: DDArray) -> DDArray:
    """ln x elementwise for positive x: one Newton step y + x e^-y - 1 from
    the float logarithm y of the high parts."""
    y = DDArray(np.log(x.hi), np.zeros_like(x.hi))
    return y + (x * exp(-y) - _ONE)
