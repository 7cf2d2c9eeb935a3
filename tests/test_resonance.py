"""Exact resonance arithmetic and enumeration against defining brute force."""

from datetime import timedelta
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkdvlab import resonance
from mkdvlab.equations import dispersion_mu
from mkdvlab.errors import ConfigurationError
from mkdvlab.resonance import (
    N3_RADIUS_CAP,
    enumerate_n3,
    enumerate_n5,
    phi_cubic,
    resonance_g,
)


def resonance_h(n1, n2, n3):
    """H in exact ints, direct (-phi_cubic, as resonance-identity reads it),
    checked equal to the factored form (G at d1 = 0)."""
    h = -phi_cubic(n1 + n2 + n3, n1, n2, n3)
    assert type(h) is int and h == resonance_g(n1, n2, n3, 0), (n1, n2, n3)
    return h


class TestResonanceH:
    def test_pair_sum_zero_kills(self):
        assert resonance_h(1, -1, 5) == 0

    def test_hand_expansion(self):
        assert resonance_h(1, 1, 1) == 3**5 - 3  # 240
        # factored: (5/2) * 2*2*2 * (1+1+1+9) = 240
        assert resonance_h(1, 1, 1) == 5 * (2 * 2 * 2 * 12) // 2

    def test_high_frequency_asymptotics(self):
        # H(2,-1,N-1) ~ 5 N^4 (the quadratic factor contributes 2N^2)
        ratios = [resonance_h(2, -1, N - 1) / N**4 for N in (2**8, 2**10, 2**12)]
        assert abs(ratios[-1] / 5.0 - 1.0) < 0.01
        assert abs(ratios[-1]) > abs(ratios[0]) * 0.9

    def test_factorization_identity_window(self):
        # resonance_h asserts direct == factored; sweep |n_i|<=25
        for a in range(-25, 26, 5):
            for b in range(-25, 26, 3):
                for c in range(-25, 26, 7):
                    resonance_h(a, b, c)

    def test_membership_characterization(self):
        # H = 0 iff a pair-sum vanishes, |n_i| <= 12 exhaustively
        for a in range(-12, 13):
            for b in range(-12, 13):
                for c in range(-12, 13):
                    h = resonance_h(a, b, c)
                    pairs_zero = (a + b) * (a + c) * (b + c) == 0
                    assert (h == 0) == pairs_zero, (a, b, c)

    def test_all_zero_corner(self):
        assert resonance_h(0, 0, 0) == 0

    def test_no_wrap_at_large_n(self):
        n = 2**20
        assert resonance_h(n, n, n) == (3 * n) ** 5 - 3 * n**5


class TestResonanceG:
    def test_reduces_to_h_at_d1_zero(self):
        for tup in [(1, 1, 1), (2, -1, 7), (3, 4, -5)]:
            assert resonance_g(*tup, 0) == resonance_h(*tup) == sum(tup) ** 5 - sum(
                m**5 for m in tup)

    def test_hand_expansion_with_d1(self):
        # G(1,1,1,d1) = 240 + 24 d1
        for d1 in (0, 1, 7, Fraction(3, 2)):
            assert resonance_g(1, 1, 1, d1) == 240 + 24 * d1

    def test_pair_sum_zero_for_any_d1(self):
        assert resonance_g(4, -4, 9, Fraction(22, 7)) == 0

    def test_mu_identity_exact_rational(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            a, b, c = (int(x) for x in rng.integers(-60, 61, 3))
            d1 = Fraction(int(rng.integers(-50, 50)), int(rng.integers(1, 20)))
            d2 = Fraction(int(rng.integers(-50, 50)), int(rng.integers(1, 20)))
            n = a + b + c
            lhs = resonance_g(a, b, c, d1)
            rhs = (
                dispersion_mu(n, d1, d2)
                - dispersion_mu(a, d1, d2)
                - dispersion_mu(b, d1, d2)
                - dispersion_mu(c, d1, d2)
            )
            assert lhs == rhs, (a, b, c, d1, d2)


class TestPhiCubic:
    def test_value_at_ones(self):
        assert phi_cubic(3, 1, 1, 1) == -240

    def test_resonant_quadruple(self):
        for N in (8, 64, 4096):
            assert phi_cubic(N, 1, -1, N) == 0

    def test_counterexample_scaling(self):
        # phi(N,2,-1,N-1) ~ -5 N^4
        vals = [phi_cubic(N, 2, -1, N - 1) / N**4 for N in (2**6, 2**12)]
        assert abs(abs(vals[1]) - 5.0) < 0.05 * 5.0

    def test_free_evaluation_allowed(self):
        # n != n1+n2+n3 is a free evaluation
        assert phi_cubic(0, 1, 1, 1) == 3

    def test_negates_g_on_plane(self):
        assert phi_cubic(7, 2, 2, 3, 3, 5) == -resonance_g(2, 2, 3, 3)


class TestEnumerators:
    @staticmethod
    def brute_n3(n, r):
        out = set()
        for a in range(-r, r + 1):
            for b in range(-r, r + 1):
                c = n - a - b
                if abs(c) <= r and (a + b) * (a + c) * (b + c) != 0:
                    out.add((a, b, c))
        return out

    @staticmethod
    def brute_n5(n, r):
        out = set()
        rng = range(-r, r + 1)
        for a in rng:
            for b in rng:
                for c in rng:
                    for d in rng:
                        e = n - a - b - c - d
                        if abs(e) > r:
                            continue
                        t = (a, b, c, d, e)
                        if all(sum(t) - x != 0 for x in t):
                            out.add(t)
        return out

    def test_n3_matches_brute_force_radius12(self):
        for n in (0, 1, 5, -3):
            got = {(t.n1, t.n2, t.n3) for t in enumerate_n3(n, 12)}
            assert got == self.brute_n3(n, 12)

    def test_n3_example_inclusion(self):
        got = {(t.n1, t.n2, t.n3) for t in enumerate_n3(0, 3)}
        assert (1, 2, -3) in got
        assert (1, -1, 0) not in got

    def test_n3_symmetry(self):
        got = {(t.n1, t.n2, t.n3) for t in enumerate_n3(4, 6)}
        for a, b, c in list(got):
            assert (b, a, c) in got and (c, b, a) in got
        neg = {(t.n1, t.n2, t.n3) for t in enumerate_n3(-4, 6)}
        assert neg == {(-a, -b, -c) for a, b, c in got}

    def test_n5_matches_brute_force(self):
        for n, r in ((0, 4), (2, 4), (1, 3)):
            got = {(t.n1, t.n2, t.n3, t.n4, t.n5) for t in enumerate_n5(n, r)}
            assert got == self.brute_n5(n, r)

    def test_n5_four_sum_exclusions(self):
        got = {(t.n1, t.n2, t.n3, t.n4, t.n5) for t in enumerate_n5(0, 2)}
        assert (1, 1, -1, -1, 0) not in got  # subset {1,1,-1,-1} sums to zero

    def test_n5_zero_radius(self):
        assert len(enumerate_n5(0, 0)) == 0

    def test_radius_caps(self):
        cap3 = rf"radius must be in \[0, {N3_RADIUS_CAP}\]"
        with pytest.raises(ConfigurationError, match=cap3 + ", got 10001"):
            enumerate_n3(0, 10**4 + 1)
        with pytest.raises(ConfigurationError, match=cap3 + f", got {N3_RADIUS_CAP + 1}"):
            enumerate_n3(0, N3_RADIUS_CAP + 1)
        with pytest.raises(ConfigurationError, match=r"radius must be in \[0, 30\], got 31"):
            enumerate_n5(0, 31)

    def test_negative_radius_rejected(self):
        for enumerate_nk in (enumerate_n3, enumerate_n5):
            with pytest.raises(ConfigurationError, match="radius"):
                enumerate_nk(0, -3)

    def test_factorization_mismatch_raises(self, monkeypatch):
        real = resonance.resonance_h_array

        def mismatched(n1, n2, n3):
            direct, bad = real(n1, n2, n3)
            return direct, np.ones_like(bad)

        monkeypatch.setattr(resonance, "resonance_h_array", mismatched)
        with pytest.raises(ArithmeticError,
                           match="resonance factorization mismatch in enumerate_n3"):
            enumerate_n3(0, 3)

    def test_far_n_is_empty_without_int64(self):
        huge = 10**20
        assert len(enumerate_n3(huge, 12)) == 0
        assert len(enumerate_n5(-huge, 12)) == 0
        assert len(enumerate_n3(37, 12)) == 0 and len(enumerate_n3(36, 12)) == 1
        assert len(enumerate_n5(61, 12)) == 0 and len(enumerate_n5(60, 12)) == 1

    @pytest.mark.parametrize("sign", [1, -1])
    def test_n3_int64_corner_at_cap(self, sign):
        m = sign * N3_RADIUS_CAP
        got = enumerate_n3(3 * m, N3_RADIUS_CAP)
        assert len(got) == 1
        assert (int(got.n1[0]), int(got.n2[0]), int(got.n3[0])) == (m, m, m)
        assert int(got.h_value[0]) == (3 * m) ** 5 - 3 * m**5 == resonance_h(m, m, m)

    def test_n5_memory_bound(self, peak_above):
        enumerate_n5(1, 2)
        peak, _, got = peak_above(enumerate_n5, 1, 12)
        assert len(got) == 186_070
        assert peak < 12 * 2**20, peak


def convolution_count(n: int, radius: int, k: int) -> int:
    """k-tuples of [-radius, radius] summing to n with no entry n, counted
    as a coefficient of the k-th power of the indicator polynomial."""
    coeffs = [0 if v == n else 1 for v in range(-radius, radius + 1)]
    poly = [1]
    for _ in range(k):
        poly = [sum(poly[j] * coeffs[i - j] for j in range(len(poly)) if 0 <= i - j < len(coeffs))
                for i in range(len(poly) + len(coeffs) - 1)]
    i = n + k * radius
    return poly[i] if 0 <= i < len(poly) else 0


def assert_plane_records(got, n: int, radius: int, k: int) -> np.ndarray:
    rows = np.column_stack([got[f"n{i}"] for i in range(1, k + 1)]).reshape(-1, k)
    assert len(rows) == convolution_count(n, radius, k)
    assert np.all(rows.sum(axis=1) == n) and np.all(rows != n)
    assert np.all(np.abs(rows) <= radius)
    step = rows[1:] - rows[:-1]
    first = np.argmax(step != 0, axis=1)
    assert np.all(step[np.arange(len(step)), first] > 0)  # strictly lexicographic
    return rows


@settings(max_examples=30, deadline=timedelta(seconds=5), derandomize=True, database=None)
@given(n=st.integers(-40, 40), radius=st.integers(0, 40))
def test_n3_records_property(n, radius):
    got = enumerate_n3(n, radius)
    rows = assert_plane_records(got, n, radius, 3)
    assert got.h_value.tolist() == [resonance_h(*row) for row in rows.tolist()]


@settings(max_examples=20, deadline=timedelta(seconds=5), derandomize=True, database=None)
@given(n=st.integers(-40, 40), radius=st.integers(0, 8))
def test_n5_records_property(n, radius):
    assert_plane_records(enumerate_n5(n, radius), n, radius, 5)
