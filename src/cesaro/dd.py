"""Double-double arrays: each entry is an unevaluated sum hi + lo of two
float64 numbers with |lo| <= ulp(hi)/2, about 32 significant digits.

The arithmetic is built from the error-free transformations TwoSum and
TwoProd (Dekker 1971; Hida, Li & Bailey, "QD", 2001), vectorized over
numpy arrays.  Provided are the operations of the node averaging kernel
(sums, products with a float matrix or vector, division by a float array,
basic indexing and an exclusive prefix sum), and the rounding of scaled
ints to hi + lo by which route (b)'s cell values come in.
"""

from __future__ import annotations

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
    def from_fixed(cls, ints, bits: int):
        """x / 2^bits for each x of the int sequence ints, rounded once:
        hi is x / 2^bits correctly rounded and lo the remainder
        x / 2^bits - hi correctly rounded, within 2^-106 of x / 2^bits."""
        hi = [x / (1 << bits) for x in ints]
        lo = [(x * d - (n << bits)) / (d << bits)
              for x, (n, d) in zip(ints, map(float.as_integer_ratio, hi))]
        return cls(hi, lo)

    def __len__(self):
        return len(self.hi)

    def __getitem__(self, key):
        return DDArray(self.hi[key], self.lo[key])

    def __add__(self, other):
        s, e = _two_sum(self.hi, other.hi)
        t, f = _two_sum(self.lo, other.lo)
        s, e = _fast_two_sum(s, e + t)
        return DDArray(*_fast_two_sum(s, e + f))

    def __mul__(self, b):
        """Product with a float array, broadcast like numpy."""
        b = np.asarray(b, dtype=np.float64)
        p, e = _two_prod(self.hi, b)
        return DDArray(*_fast_two_sum(p, e + self.lo * b))

    def __matmul__(self, m):
        """Product with a float matrix (k, n) or vector (k,) on the last axis."""
        m = np.asarray(m, dtype=np.float64)
        acc = None
        for j in range(m.shape[0]):
            col = self[..., j, None] if m.ndim == 2 else self[..., j]
            term = col * m[j]
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
