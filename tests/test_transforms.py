"""Gauge transform round-trips and Miura identities."""

import numpy as np
import pytest

from mkdvlab.equations import EquationParams, derive_gauge_params, half_l4_quartic
from mkdvlab.errors import ConfigurationError
from mkdvlab.integrate import StepControl, Trajectory, evolve
from mkdvlab.spectral import GridSpec, SpectralField, sobolev_norm
from mkdvlab.transforms import (
    accumulate_phase,
    chain_identity_gap,
    gauge_forward,
    miura,
    miura_residual,
)

from oracles import gauge_inverse, random_real_coeffs


def small_physical_trajectory(M=32, T=0.005, amp=0.1):
    grid = GridSpec(M)
    u0 = SpectralField.from_modes(grid, {1: amp / 2, -1: amp / 2})
    p = derive_gauge_params(u0, 40.0)
    return evolve(u0, T, p, tag="physical_5mkdv")


class TestGauge:
    def test_identity_at_t0(self):
        traj = small_physical_trajectory()
        v = gauge_forward(traj)
        assert np.max(np.abs(v.states[0] - traj.states[0])) == 0.0

    def test_zero_trajectory(self, grid8):
        p = EquationParams.constrained_family(40.0)
        traj = evolve(SpectralField.zeros(grid8), 0.01, p)
        v = gauge_forward(traj)
        assert np.max(np.abs(v.states)) == 0.0

    def test_modulus_preserved(self):
        traj = small_physical_trajectory()
        v = gauge_forward(traj)
        assert np.max(np.abs(np.abs(v.states) - np.abs(traj.states))) < 1e-13

    def test_sobolev_norms_preserved(self):
        traj = small_physical_trajectory()
        v = gauge_forward(traj)
        for i in (0, len(traj) // 2, len(traj) - 1):
            a = sobolev_norm(traj.field(i), 2.0)
            b = sobolev_norm(v.field(i), 2.0)
            assert b == pytest.approx(a, rel=1e-12)

    def test_phase_monotone_from_zero(self):
        traj = small_physical_trajectory()
        phi = accumulate_phase(traj)
        assert phi[0] == 0.0
        assert np.all(np.diff(phi) >= 0)

    def test_twist_preserves_l4(self):
        # e^{-20 i n Phi} translates u by 20 Phi, and the mean of u^4 is
        # translation invariant: the inverse reads Phi from v directly
        traj = small_physical_trajectory(M=64, T=0.01)
        v = gauge_forward(traj)
        assert np.max(np.abs(v.states[-1] - traj.states[-1])) > 1e-9
        l4_u = half_l4_quartic(traj.grid, traj.half)
        l4_v = half_l4_quartic(v.grid, v.half)
        assert np.max(np.abs(l4_v - l4_u)) <= 1e-14 * np.max(np.abs(l4_u))

    def test_round_trip(self):
        traj = small_physical_trajectory(M=64, T=0.01)
        back = gauge_inverse(gauge_forward(traj))
        # H^2-weighted discrepancy
        n = traj.grid.modes.astype(float)
        w = (1.0 + n * n)
        worst = 0.0
        for i in range(len(traj)):
            diff = back.states[i] - traj.states[i]
            worst = max(worst, np.sqrt(np.sum(w**2 * np.abs(diff) ** 2)))
        assert worst < 1e-10

    def test_round_trip_zero(self, grid8):
        p = EquationParams.constrained_family(40.0)
        traj = evolve(SpectralField.zeros(grid8), 0.01, p)
        back = gauge_inverse(gauge_forward(traj))
        assert np.max(np.abs(back.states)) == 0.0

    def test_nonmonotone_times_rejected(self, grid8):
        p = EquationParams.constrained_family(40.0)
        traj = evolve(SpectralField.zeros(grid8), 0.01, p)
        bad = Trajectory(
            traj.grid,
            np.array([0.0, 0.0]),
            np.zeros((2, 9), dtype=complex),
            p,
            "physical_5mkdv",
            traj.dt,
            1,
        )
        with pytest.raises(ConfigurationError):
            gauge_forward(bad)


class TestMiura:
    def test_constant(self, grid8):
        v = SpectralField.from_modes(grid8, {0: 0.7})
        u = miura(v)
        assert u.coeff[0 + 8] == pytest.approx(0.49, rel=1e-13)
        assert np.max(np.abs(u.coeff)) == pytest.approx(0.49, rel=1e-13)

    def test_zero(self, grid8):
        assert np.max(np.abs(miura(SpectralField.zeros(grid8)).coeff)) == 0.0

    def test_cosine(self, grid8, cosine_field):
        # miura(cos x) = -sin x + (1 + cos 2x)/2
        u = miura(cosine_field)
        assert u.coeff[0 + 8] == pytest.approx(0.5, rel=1e-13)
        # coefficient of e^{ix} in -sin x is -1/(2i) = +0.5j
        assert u.coeff[1 + 8] == pytest.approx(0.5j, rel=1e-12)
        assert u.coeff[2 + 8] == pytest.approx(0.25, rel=1e-12)

    def test_chain_identity_random_fields(self, rng):
        # KdV-res(v_x + v^2) = (2v + d/dx)(mKdV-res(v)) for arbitrary
        # (v, vdot), to spectral accuracy
        grid = GridSpec(16)
        for _ in range(20):
            v = random_real_coeffs(16, rng)
            vdot = random_real_coeffs(16, rng)
            scale = max(1.0, np.max(np.abs(v)) ** 3 * 16**4)
            assert chain_identity_gap(grid, v[16:], vdot[16:]) < 1e-10 * scale

    def test_dynamic_residual_small(self):
        grid = GridSpec(64)
        v0 = SpectralField.from_modes(grid, {1: 0.05, -1: 0.05})
        traj = evolve(v0, 0.02, EquationParams(), tag="mkdv3")
        res = miura_residual(traj)
        assert np.max(res) < 1e-6

    @pytest.mark.parametrize("tag", ["kdv3", "physical_5mkdv"])
    def test_other_flows_refused(self, grid8, tag):
        v0 = SpectralField.from_modes(grid8, {1: 0.05, -1: 0.05})
        traj = evolve(v0, 0.01, EquationParams.constrained_family(40.0), tag=tag,
                      ctrl=StepControl(dt=1e-3))
        with pytest.raises(ConfigurationError, match=tag):
            miura_residual(traj)

    def test_residual_zero_for_zero(self, grid8):
        traj = evolve(SpectralField.zeros(grid8), 0.01, EquationParams(), tag="mkdv3")
        assert np.max(miura_residual(traj)) == 0.0

    def test_residual_zero_for_constant(self, grid8):
        f = SpectralField.from_modes(grid8, {0: 0.3})
        traj = evolve(f, 0.01, EquationParams(), tag="mkdv3", ctrl=StepControl(dt=1e-3))
        assert np.max(miura_residual(traj)) < 1e-12
