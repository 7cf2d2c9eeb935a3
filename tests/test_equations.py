"""RHS evaluations against definition-level convolution oracles."""

import numpy as np
import pytest

from mkdvlab.equations import (
    EquationParams,
    RenormalizedTerms,
    check_constraints,
    derive_gauge_params,
    dispersion_mu,
    half_l4_quartic,
    rhs,
)
from mkdvlab.errors import ConfigurationError
from mkdvlab.spectral import GridSpec, SpectralField, hermitian_extend

from oracles import (
    gauge_constants_oracle,
    mirror_defect,
    quintic_overlap_half,
    random_real_coeffs,
    rhs_physical_oracle,
    rhs_renormalized_oracle,
)


class TestConstraints:
    def test_integrable_coefficients(self):
        assert check_constraints(40, 10, 10, -30)

    def test_zero_coefficients(self):
        assert check_constraints(0, 0, 0, 0)

    def test_broken_c4(self):
        assert not check_constraints(40, 10, 10, -29)

    def test_constrained_family(self):
        p = EquationParams.constrained_family(40.0)
        assert (p.c1, p.c2, p.c3, p.c4) == (40.0, 10.0, 10.0, -30.0)
        assert p.constrained


class TestDispersion:
    def test_pure_quintic(self):
        assert dispersion_mu(2) == 32

    def test_with_shifts(self):
        assert dispersion_mu(1, 3, 5) == 9

    def test_odd(self):
        for n in [1, 7, 100, 6001, 12345]:
            assert dispersion_mu(-n, 3, 7) == -dispersion_mu(n, 3, 7)

    def test_exact_beyond_int64(self):
        n = 50000
        v = dispersion_mu(n, 1, 1)
        assert v == n**5 + n**3 + n  # exact arbitrary-precision integers

    def test_exact_int_at_default_shifts(self):
        # the default d1 = d2 = 0 keeps an int n's value an exact int
        v = dispersion_mu(10**20)
        assert type(v) is int and v == 10**100
        assert type(dispersion_mu(np.int64(7))) is int

    def test_array_path_unchanged_by_default_shifts(self):
        n = np.arange(-4000, 4001)
        want = n.astype(float) ** 5 + 0.0 * n.astype(float) ** 3 + 0.0 * n.astype(float)
        got = dispersion_mu(n)
        assert got.dtype == np.float64 and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestGaugeParams:
    def test_zero_field(self):
        g = GridSpec(8)
        p = derive_gauge_params(SpectralField.zeros(g), 40.0)
        assert p.d1 == p.d2 == 0.0

    def test_cosine_gauge_constants_sequence_side(self):
        # d-constants live on the coefficient side where the renormalized
        # equation's displayed constants are exact: d1 = 10*sum|c|^2 = 5,
        # d2 = 10*(sum n^2|c|^2 + quartic) = 10*(1/2 + 3/8).
        g = GridSpec(8)
        f = SpectralField.from_modes(g, {1: 0.5, -1: 0.5})
        p = derive_gauge_params(f, 40.0)
        assert p.d1 == pytest.approx(5.0, rel=1e-12)
        assert p.d2 == pytest.approx(10.0 * (0.5 + 0.375), rel=1e-12)

    @pytest.mark.parametrize("M", [4, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_against_loop_oracle(self, M, seed):
        c = random_real_coeffs(M, np.random.default_rng(seed))
        l2, h1, quartic = gauge_constants_oracle(c, M)
        assert abs(quartic.imag) < 1e-14 * abs(quartic)
        p = derive_gauge_params(SpectralField(GridSpec(M), c), 40.0)
        assert p.d1 == pytest.approx(10.0 * l2, rel=1e-14)
        assert p.d2 == pytest.approx(10.0 * (h1 + quartic.real), rel=1e-14)

    def test_quartic_functional_cosine(self):
        g = GridSpec(8)
        f = SpectralField.from_modes(g, {1: 0.5, -1: 0.5})
        # sum over {n_i = +-1} sign patterns with zero sum: C(4,2)/2^4 = 3/8
        assert half_l4_quartic(g, f.coeff[None, 8:])[0] == pytest.approx(0.375, rel=1e-12)

    def test_rejects_other_c1(self):
        g = GridSpec(8)
        with pytest.raises(ConfigurationError, match="derived only for c1 = 40"):
            derive_gauge_params(SpectralField.zeros(g), 20.0)


class TestRhsPhysical:
    def test_zero(self, grid8):
        p = EquationParams.constrained_family(40.0)
        out = rhs(SpectralField.zeros(grid8), p, "physical_5mkdv")
        assert np.max(np.abs(out.coeff)) == 0.0

    def test_linear_part_single_mode(self, grid8):
        eps = 0.3
        p = EquationParams(c1=0, c2=0, c3=0, c4=0)
        f = SpectralField.from_modes(grid8, {1: eps / 2, -1: eps / 2})
        out = rhs(f, p, "physical_5mkdv")
        assert out.coeff[1 + 8] == pytest.approx(1j * eps / 2, rel=1e-13)
        assert out.coeff[-1 + 8] == pytest.approx(-1j * eps / 2, rel=1e-13)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_convolution_oracle(self, grid8, seed):
        rng = np.random.default_rng(seed)
        c = random_real_coeffs(8, rng, amplitude=0.7)
        p = EquationParams.constrained_family(40.0)
        got = rhs(SpectralField(grid8, c), p, "physical_5mkdv").coeff
        want = rhs_physical_oracle(c, 8, p.c1, p.c2, p.c3, p.c4)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) < 1e-12 * scale

    def test_cosine_oracle(self, grid8, cosine_field):
        p = EquationParams.constrained_family(40.0)
        got = rhs(cosine_field, p, "physical_5mkdv").coeff
        want = rhs_physical_oracle(cosine_field.coeff, 8, p.c1, p.c2, p.c3, p.c4)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    def test_zero_mode_vanishes_constrained(self, grid8, rng):
        # divergence form: the mean is exactly conserved
        c = random_real_coeffs(8, rng, amplitude=0.5)
        p = EquationParams.constrained_family(40.0)
        out = rhs(SpectralField(grid8, c), p, "physical_5mkdv")
        assert abs(out.coeff[0 + 8]) < 1e-12 * max(1.0, np.max(np.abs(out.coeff)))

    def test_reality_preserved(self, grid8, rng):
        c = random_real_coeffs(8, rng)
        p = EquationParams.constrained_family(40.0)
        out = rhs(SpectralField(grid8, c), p, "physical_5mkdv")
        assert mirror_defect(out.coeff) <= 1e-12 * max(1.0, np.max(np.abs(out.coeff)))


class TestRhsFifthKdv:
    def test_zero(self, grid8):
        out = rhs(SpectralField.zeros(grid8), EquationParams(), "fifth_kdv")
        assert np.max(np.abs(out.coeff)) == 0.0

    def test_coefficients_from_c1(self):
        # a1 = c1/2, a2 = c1/4, a3 = -3 c1^2/160 with c1 = 40
        c1 = 40.0
        assert (c1 / 2, c1 / 4, -3 * c1**2 / 160) == (20.0, 10.0, -30.0)

    def test_convolution_oracle(self, grid8, rng):
        c = random_real_coeffs(8, rng, amplitude=0.6)
        got = rhs(SpectralField(grid8, c), EquationParams(), "fifth_kdv").coeff
        # independent loops: u_xxxxx - a1 ux uxx - a2 u uxxx - a3 u^2 ux
        # (the a1 and a2 terms are quadratic)
        from oracles import conv3

        n_arr = np.arange(-8, 9, dtype=float)
        lin = (1j * n_arr) ** 5 * c
        t1 = np.zeros(17, dtype=complex)
        t2 = np.zeros(17, dtype=complex)
        for n1 in range(-8, 9):
            for n2 in range(-8, 9):
                n = n1 + n2
                if abs(n) <= 8:
                    t1[n + 8] += (1j * n1) * (1j * n2) ** 2 * c[n1 + 8] * c[n2 + 8]
                    t2[n + 8] += (1j * n2) ** 3 * c[n1 + 8] * c[n2 + 8]
        t3 = conv3(c, 8, lambda a, b, d: (1j * d))
        want = lin - 20.0 * t1 - 10.0 * t2 + 30.0 * t3
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


class TestRhsThirdOrder:
    def test_zero(self, grid8):
        for tag in ("kdv3", "mkdv3"):
            out = rhs(SpectralField.zeros(grid8), EquationParams(), tag)
            assert np.max(np.abs(out.coeff)) == 0.0

    def test_constant_is_kdv_equilibrium(self, grid8):
        f = SpectralField.from_modes(grid8, {0: 0.7})
        out = rhs(f, EquationParams(), "kdv3")
        assert np.max(np.abs(out.coeff)) < 1e-14

    def test_mkdv_oracle_cosine(self, grid8, cosine_field):
        from oracles import conv3

        c = cosine_field.coeff
        got = rhs(cosine_field, EquationParams(), "mkdv3").coeff
        n_arr = np.arange(-8, 9, dtype=float)
        want = -((1j * n_arr) ** 3) * c + 6.0 * conv3(c, 8, lambda a, b, d: (1j * d))
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


class TestRhsRenormalized:
    @pytest.mark.parametrize("seed", [3, 4])
    def test_oracle_full_terms(self, grid8, seed):
        rng = np.random.default_rng(seed)
        c = random_real_coeffs(8, rng, amplitude=0.6)
        p = EquationParams.constrained_family(40.0)
        p.d1, p.d2 = 2.5, -1.25
        got = rhs(SpectralField(grid8, c), p, "renormalized_5mkdv").coeff
        want = rhs_renormalized_oracle(c, 8, p.d1, p.d2)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    def test_oracle_term_masks(self, grid8, rng):
        c = random_real_coeffs(8, rng, amplitude=0.6)
        p = EquationParams.constrained_family(40.0)
        for mask in [
            dict(resonant_cubic=False, cubic2=True, cubic3=False, quintic=False),
            dict(resonant_cubic=False, cubic2=False, cubic3=True, quintic=False),
            dict(resonant_cubic=False, cubic2=False, cubic3=False, quintic=True),
            dict(resonant_cubic=True, cubic2=False, cubic3=False, quintic=False),
        ]:
            got = rhs(
                SpectralField(grid8, c), p, "renormalized_5mkdv", RenormalizedTerms(**mask)
            ).coeff
            want = rhs_renormalized_oracle(c, 8, p.d1, p.d2, **mask)
            scale = max(np.max(np.abs(want)), 1e-30)
            assert np.max(np.abs(got - want)) < 1e-12 * scale, mask

    def test_single_pair_support(self, grid8):
        # data at n = +-1 only; brute-force oracle pins every term
        c = np.zeros(17, dtype=complex)
        c[1 + 8] = 0.4
        c[-1 + 8] = 0.4
        p = EquationParams.constrained_family(40.0)
        got = rhs(SpectralField(grid8, c), p, "renormalized_5mkdv").coeff
        want = rhs_renormalized_oracle(c, 8, 0.0, 0.0)
        assert np.max(np.abs(got - want)) < 1e-13

    def test_zero(self, grid8):
        p = EquationParams.constrained_family(40.0)
        out = rhs(SpectralField.zeros(grid8), p, "renormalized_5mkdv")
        assert np.max(np.abs(out.coeff)) == 0.0

    def test_reality_preserved(self, grid8, rng):
        c = random_real_coeffs(8, rng, amplitude=0.5)
        p = EquationParams.constrained_family(40.0)
        out = rhs(SpectralField(grid8, c), p, "renormalized_5mkdv")
        assert mirror_defect(out.coeff) <= 1e-12 * max(1.0, np.max(np.abs(out.coeff)))


class TestResonanceRemovalConsistency:
    """The renormalized flow is the gauged physical flow: adding the gauge
    phase's term 20i l4 n c to its RHS gives the physical RHS exactly.  The
    paper's A5(n) display of the quintic, which drops the tuples with two to
    four components equal to n, misses that identity."""

    def test_gauge_identity_is_exact(self, grid8, rng):
        c = random_real_coeffs(8, rng, amplitude=0.5)
        f = SpectralField(grid8, c)
        # current-state gauge constants (identity holds pointwise in u)
        p = derive_gauge_params(f, 40.0)
        half = c[8:]
        r4 = half_l4_quartic(grid8, half[None])[0]
        n = grid8.modes.astype(float)
        lhs = rhs(f, p, "physical_5mkdv").coeff
        gauged = rhs(f, p, "renormalized_5mkdv").coeff + 20j * r4 * n * c
        scale = np.max(np.abs(lhs))
        assert np.max(np.abs(gauged - lhs)) < 1e-12 * scale
        # control: the display, the gauged quintic less its overlap tuples
        display = gauged - hermitian_extend(quintic_overlap_half(half))
        assert np.max(np.abs(display - lhs)) > 1e6 * 1e-12 * scale
