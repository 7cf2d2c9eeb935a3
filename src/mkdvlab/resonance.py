"""Exact resonance-function arithmetic and nonresonant index-set enumeration.

The cubic resonance function of the quintic dispersion n^5 is

    H(n1, n2, n3) = (n1+n2+n3)^5 - n1^5 - n2^5 - n3^5
                  = (5/2)(n1+n2)(n1+n3)(n2+n3)(n1^2+n2^2+n3^2+n^2),

n = n1+n2+n3, and with the gauge shift d1 the modulation weight becomes

    G(n1, n2, n3) = (5/2)(n1+n2)(n1+n3)(n2+n3)
                    (n1^2+n2^2+n3^2+n^2 + 6 d1/5)
                  = mu(n) - mu(n1) - mu(n2) - mu(n3)

with mu(m) = m^5 + d1 m^3 + d2 m (d2 cancels identically).  resonance_g and
phi_cubic use Python's arbitrary-precision ints, so nothing wraps at any
size; rational d1/d2 go through fractions.Fraction exactly.  H on int64
arrays (`resonance_h_array`) is checked direct == factored entry by entry.

Index sets (defining conditions):

    A3(n): n1+n2+n3 = n and (n1+n2)(n1+n3)(n2+n3) != 0
    A5(n): n1+..+n5 = n and every four-index sum is nonzero

On the constraint plane both conditions reduce to "no component equals n",
which the enumerators use; the test suite pins them against the
defining-product brute force.  They return np.recarray rows in
lexicographic order with int64 fields (n1, n2, n3, h_value) and
(n1, ..., n5).  int64 is exact inside the radius caps: |n_i| <= 256 and
|n| <= 768 keep H and every partial sum below 3e14.  Memory is the output
plus O((2r+1)^3) temporaries, the largest a template of one row per middle
(k-2)-tuple: at most 195,840 triples (6 MiB) at r = 256, beside a 16 KiB
template, and 7.56 M quintuples (303 MB) at r = 30, beside a 9.1 MB one.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import ConfigurationError


def resonance_g(n1: int, n2: int, n3: int, d1=0):
    """G = (5/2)(n1+n2)(n1+n3)(n2+n3)(sum n_i^2 + n^2 + 6 d1/5), an exact
    Fraction for an int or Fraction d1.  Equals mu(n1+n2+n3) - mu(n1) -
    mu(n2) - mu(n3) with d2 cancelling.
    """
    n1, n2, n3 = int(n1), int(n2), int(n3)
    n = n1 + n2 + n3
    pair = (n1 + n2) * (n1 + n3) * (n2 + n3)
    quad = n1 * n1 + n2 * n2 + n3 * n3 + n * n
    return Fraction(5, 2) * pair * (quad + Fraction(6, 5) * d1)


def phi_cubic(n: int, n1: int, n2: int, n3: int, d1=0, d2=0):
    """phi = -mu(n) + mu(n1) + mu(n2) + mu(n3); equals -G when n = n1+n2+n3."""
    from .equations import dispersion_mu

    return (
        -dispersion_mu(int(n), d1, d2)
        + dispersion_mu(int(n1), d1, d2)
        + dispersion_mu(int(n2), d1, d2)
        + dispersion_mu(int(n3), d1, d2)
    )


# 32 bytes per triple: at most 195,840 triples (n = 0), about 6 MiB
N3_RADIUS_CAP = 256
N5_RADIUS_CAP = 30

_N3 = np.dtype([(f, np.int64) for f in ("n1", "n2", "n3", "h_value")])
_N5 = np.dtype([(f"n{i}", np.int64) for i in range(1, 6)])


def _plane(n: int, radius: int, cap: int, k: int, extra: int = 0) -> np.ndarray:
    """(count, k + extra) int64 buffer of the k-tuples in [-r, r]^k that sum
    to n with no entry n, in lexicographic order; the extra columns are left
    for the caller.  One (rows, k + extra) template [n1 | middle | n - middle]
    over the (k-2)-cube of middle entries is built once, and each n1 block
    is one gather of its kept template rows into the output, whose first
    column is then set to n1 and last entry reduced by it; the count comes
    from polynomial convolution of the indicator, so the output is allocated
    once at its exact size."""
    if not 0 <= radius <= cap:
        raise ConfigurationError(f"enumeration radius must be in [0, {cap}], got {radius}")
    r = int(radius)
    if abs(n) > k * r:  # empty plane; a huge n never reaches int64
        return np.empty((0, k + extra), dtype=np.int64)
    n = int(n)
    vals = np.arange(-r, r + 1, dtype=np.int64)
    ind = (vals != n).astype(np.int64)
    poly = ind
    for _ in range(k - 1):
        poly = np.convolve(poly, ind)
    buf = np.empty((int(poly[n + k * r]), k + extra), dtype=np.int64)
    mid = np.stack(np.meshgrid(*[vals] * (k - 2), indexing="ij"), axis=-1).reshape(-1, k - 2)
    mid = mid[np.all(mid != n, axis=1)]
    template = np.zeros((len(mid), k + extra), dtype=np.int64)
    template[:, 1:k - 1] = mid
    rest = template[:, k - 1]
    np.subtract(n, mid.sum(axis=1), out=rest)
    pos = 0
    for a in vals[vals != n].tolist():
        # the last entry rest - a lies in [-r, r] and differs from n
        keep = (rest >= a - r) & (rest <= a + r) & (rest != n + a)
        blk = buf[pos:pos + np.count_nonzero(keep)]
        np.compress(keep, template, axis=0, out=blk)
        blk[:, 0] = a
        blk[:, k - 1] -= a
        pos += len(blk)
    return buf


def resonance_h_array(n1: np.ndarray, n2: np.ndarray, n3: np.ndarray) -> tuple:
    """H = (n1+n2+n3)^5 - n1^5 - n2^5 - n3^5 on broadcast int64 arrays (exact
    inside the radius caps): H direct, and the mask of entries where the
    (5/2)-factored form differs or its product is odd."""
    n = n1 + n2 + n3
    direct = n**5 - n1**5 - n2**5 - n3**5
    prod = (n1 + n2) * (n1 + n3) * (n2 + n3) * (n1 * n1 + n2 * n2 + n3 * n3 + n * n)
    return direct, (prod % 2 != 0) | (direct != 5 * (prod // 2))


def enumerate_n3(n: int, radius: int) -> np.recarray:
    """A3(n) for |n_i| <= radius <= N3_RADIUS_CAP, as records (n1, n2, n3, h_value);
    H is int64 and checked direct == factored on the whole array."""
    buf = _plane(n, radius, N3_RADIUS_CAP, 3, extra=1)
    buf[:, 3], bad = resonance_h_array(buf[:, 0], buf[:, 1], buf[:, 2])
    if np.any(bad):
        raise ArithmeticError("resonance factorization mismatch in enumerate_n3")
    return buf.view(_N3).reshape(-1).view(np.recarray)


def enumerate_n5(n: int, radius: int) -> np.recarray:
    """A5(n) for |n_i| <= radius <= N5_RADIUS_CAP, as records (n1, ..., n5);
    at the cap 7.56 M rows (303 MB) plus O((2r+1)^3) temporaries (a
    template of at most 226,981 rows, 9.1 MB)."""
    return _plane(n, radius, N5_RADIUS_CAP, 5).view(_N5).reshape(-1).view(np.recarray)
