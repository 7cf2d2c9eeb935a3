"""Exact resonance-function arithmetic and nonresonant index-set enumeration.

The cubic resonance function of the quintic dispersion n^5 is

    H(n1, n2, n3) = (n1+n2+n3)^5 - n1^5 - n2^5 - n3^5
                  = (5/2)(n1+n2)(n1+n3)(n2+n3)(n1^2+n2^2+n3^2+n^2),

n = n1+n2+n3, and with the gauge shift d1 the modulation weight becomes

    G(n1, n2, n3) = (5/2)(n1+n2)(n1+n3)(n2+n3)
                    (n1^2+n2^2+n3^2+n^2 + 6 d1/5)
                  = mu(n) - mu(n1) - mu(n2) - mu(n3)

with mu(m) = m^5 + d1 m^3 + d2 m (d2 cancels identically).  All integer
paths use Python's arbitrary-precision ints, so nothing wraps at any size;
rational d1/d2 go through fractions.Fraction exactly.

Index sets (defining conditions):

    A3(n): n1+n2+n3 = n and (n1+n2)(n1+n3)(n2+n3) != 0
    A5(n): n1+..+n5 = n and every four-index sum is nonzero

On the constraint plane both conditions reduce to "no component equals n",
which the vectorized enumerators use; the test suite pins them against the
defining-product brute force.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParameterError


def resonance_h(n1: int, n2: int, n3: int) -> int:
    """H = (n1+n2+n3)^5 - n1^5 - n2^5 - n3^5, exact.

    Both the direct quintic difference and the (5/2)-factored form are
    computed and must agree (the factored product is always even).
    """
    n1, n2, n3 = int(n1), int(n2), int(n3)
    n = n1 + n2 + n3
    direct = n**5 - n1**5 - n2**5 - n3**5
    prod = (n1 + n2) * (n1 + n3) * (n2 + n3) * (n1 * n1 + n2 * n2 + n3 * n3 + n * n)
    if prod % 2 != 0:
        raise ArithmeticError("factored resonance product must be even")
    factored = 5 * (prod // 2)
    if direct != factored:
        raise ArithmeticError(
            f"resonance factorization mismatch at ({n1},{n2},{n3}): {direct} != {factored}"
        )
    return direct


def resonance_g(n1: int, n2: int, n3: int, d1=0):
    """G = (5/2)(n1+n2)(n1+n3)(n2+n3)(sum n_i^2 + n^2 + 6 d1/5).

    Exact (int or Fraction) when d1 is int/Fraction; float otherwise.
    Equals mu(n1+n2+n3) - mu(n1) - mu(n2) - mu(n3) with d2 cancelling.
    """
    n1, n2, n3 = int(n1), int(n2), int(n3)
    n = n1 + n2 + n3
    pair = (n1 + n2) * (n1 + n3) * (n2 + n3)
    quad = n1 * n1 + n2 * n2 + n3 * n3 + n * n
    if isinstance(d1, (int, np.integer)):
        # 5/2 * pair * (quad + 6 d1/5) = (5 quad + 6 d1) * pair / 2
        num = pair * (5 * quad + 6 * int(d1))
        if num % 2 == 0:
            return num // 2
        return Fraction(num, 2)
    if isinstance(d1, Fraction):
        return Fraction(5, 2) * pair * (quad + Fraction(6, 5) * d1)
    return 2.5 * pair * (quad + 1.2 * d1)


def phi_cubic(n: int, n1: int, n2: int, n3: int, d1=0, d2=0):
    """phi = -mu(n) + mu(n1) + mu(n2) + mu(n3); equals -G when n = n1+n2+n3."""
    from .equations import dispersion_mu

    return (
        -dispersion_mu(int(n), d1, d2)
        + dispersion_mu(int(n1), d1, d2)
        + dispersion_mu(int(n2), d1, d2)
        + dispersion_mu(int(n3), d1, d2)
    )


@dataclass(frozen=True)
class ResonanceTriple:
    n1: int
    n2: int
    n3: int
    h_value: int
    g_value: object = None


@dataclass(frozen=True)
class ResonanceQuintuple:
    n1: int
    n2: int
    n3: int
    n4: int
    n5: int


# at most (2*256 + 1)^2 = 263,169 triples, about 200 bytes each: under 64 MiB
N3_RADIUS_CAP = 256


def enumerate_n3(n: int, radius: int, d1=None) -> list:
    """All (n1,n2,n3) with |n_i| <= radius, sum n, pairwise sums nonzero.

    radius is capped at N3_RADIUS_CAP, so at most (2*radius + 1)^2 <= 263,169
    candidates are tested and kept; they are built one n1 row at a time, so
    the arrays in flight hold 2*radius + 1 entries.
    """
    if radius > N3_RADIUS_CAP:
        raise ParameterError(f"enumeration radius capped at {N3_RADIUS_CAP}")
    r = int(radius)
    n = int(n)
    n2 = np.arange(-r, r + 1)
    out = []
    for a in range(-r, r + 1):
        if a == n:
            continue
        n3 = n - a - n2
        ok = (np.abs(n3) <= r) & (n2 != n) & (n3 != n)
        for b, c in zip(n2[ok].tolist(), n3[ok].tolist()):
            h = resonance_h(a, b, c)
            g = resonance_g(a, b, c, d1) if d1 is not None else None
            out.append(ResonanceTriple(a, b, c, h, g))
    return out


def enumerate_n5(n: int, radius: int) -> list:
    """All (n1..n5) with |n_i| <= radius, sum n, all four-sums nonzero."""
    if radius > 30:
        raise ParameterError("quintuple enumeration radius capped at 30")
    r = int(radius)
    n = int(n)
    vals = np.arange(-r, r + 1)
    g = np.meshgrid(vals, vals, vals, vals, indexing="ij")
    n5g = n - g[0] - g[1] - g[2] - g[3]
    ok = np.abs(n5g) <= r
    for comp in g:
        ok &= comp != n
    ok &= n5g != n
    tuples = [
        ResonanceQuintuple(a, b, c, d, e)
        for a, b, c, d, e in zip(
            g[0][ok].tolist(), g[1][ok].tolist(), g[2][ok].tolist(),
            g[3][ok].tolist(), n5g[ok].tolist(),
        )
    ]
    return tuples


def write_triples_csv(path, n: int, triples) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "n1", "n2", "n3", "H", "G"])
        for t in triples:
            w.writerow([n, t.n1, t.n2, t.n3, t.h_value, "" if t.g_value is None else t.g_value])


def write_quintuples_csv(path, n: int, quints) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "n1", "n2", "n3", "n4", "n5"])
        for t in quints:
            w.writerow([n, t.n1, t.n2, t.n3, t.n4, t.n5])
