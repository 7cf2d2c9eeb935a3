"""Gauge transform round-trips and Miura identities."""

import numpy as np
import pytest

from mkdvlab.cli import TOLERANCES
from mkdvlab.equations import EquationParams, derive_gauge_params, half_l4_quartic
from mkdvlab.errors import ConfigurationError
from mkdvlab.integrate import StepControl, Trajectory, evolve
from mkdvlab.shorttime import fk_norm, max_record_spacing
from mkdvlab.spectral import GridSpec, SpectralField, sobolev_norm, top_band
from mkdvlab.transforms import accumulate_phase, chain_identity_gap, gauge_forward, miura

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
        a = sobolev_norm(traj.grid, traj.half, 2.0)
        b = sobolev_norm(v.grid, v.half, 2.0)
        assert np.allclose(b, a, rtol=1e-12, atol=0.0)

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

    def test_gauged_records_read_in_the_renormalized_frame(self):
        # the gauged u solves the renormalized flow, so the short-time norms
        # demodulate it by mu = n^5 + d1 n^3 + d2 n and read the v run's F_k
        # (criterion 3's amplitude at M = 16, every step of the norms dt)
        grid = GridSpec(16)
        u0 = SpectralField.from_modes(grid, {1: 0.05, -1: 0.05})
        p = derive_gauge_params(u0, 40.0)
        ctrl = StepControl(dt=0.98 * max_record_spacing(top_band(16)), record_stride=1)
        nt_u = gauge_forward(evolve(u0, 0.05, p, "physical_5mkdv", ctrl))
        traj_v = evolve(u0, 0.05, p, "renormalized_5mkdv", ctrl)
        assert nt_u.equation_tag == "renormalized_5mkdv"
        for k in (1, 2):
            assert fk_norm(nt_u, k, 0.05) == pytest.approx(fk_norm(traj_v, k, 0.05), rel=1e-8)

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
        u = miura(grid8, SpectralField.from_modes(grid8, {0: 0.7}).coeff[8:])
        assert u[0] == pytest.approx(0.49, rel=1e-13)
        assert np.max(np.abs(u)) == pytest.approx(0.49, rel=1e-13)

    def test_zero(self, grid8):
        assert np.max(np.abs(miura(grid8, np.zeros(9, dtype=complex)))) == 0.0

    def test_cosine(self, grid8, cosine_field):
        # miura(cos x) = -sin x + (1 + cos 2x)/2
        u = miura(grid8, cosine_field.coeff[8:])
        assert u[0] == pytest.approx(0.5, rel=1e-13)
        # coefficient of e^{ix} in -sin x is -1/(2i) = +0.5j
        assert u[1] == pytest.approx(0.5j, rel=1e-12)
        assert u[2] == pytest.approx(0.25, rel=1e-12)

    def test_records_map_row_by_row(self, rng):
        # a batch of half spectra maps as each row alone
        grid = GridSpec(16)
        v = np.stack([random_real_coeffs(16, rng)[16:] for _ in range(5)]).reshape(5, 1, 17)
        batch = miura(grid, v)
        assert batch.shape == (5, 1, 17)
        for i in range(5):
            assert np.allclose(batch[i, 0], miura(grid, v[i, 0]), rtol=0.0, atol=1e-15)

    def test_chain_identity_largest_gap_over_pairs(self, rng):
        # leading axes: the largest per-pair gap, bit for bit, whatever the chunks
        grid = GridSpec(16)
        v, vdot = (np.stack([random_real_coeffs(16, rng)[16:] for _ in range(40)])
                   for _ in range(2))
        each = [chain_identity_gap(grid, a, b) for a, b in zip(v, vdot)]
        assert chain_identity_gap(grid, v.reshape(4, 10, 17), vdot.reshape(4, 10, 17)) == max(each)

    def test_chain_identity_random_fields(self, rng):
        # KdV-res(v_x + v^2) = (2v + d/dx)(mKdV-res(v)) for arbitrary
        # (v, vdot), to spectral accuracy, relative to the KdV residual
        grid = GridSpec(16)
        for _ in range(20):
            v = random_real_coeffs(16, rng)
            vdot = random_real_coeffs(16, rng)
            assert chain_identity_gap(grid, v[16:], vdot[16:]) < TOLERANCES["miura_static_rel"]
