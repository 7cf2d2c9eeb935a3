"""Hamiltonian values, conservation along flows, modified energy, E^s."""

import numpy as np
import pytest

from mkdvlab import invariants
from mkdvlab.equations import EquationParams, derive_gauge_params, rhs
from mkdvlab.errors import ConfigurationError
from mkdvlab.integrate import StepControl, evolve
from mkdvlab.invariants import (
    EPSILON,
    KAPPA,
    _hamiltonians,
    drift_report,
    es_energy,
    modified_energy_ek,
)
from mkdvlab.spectral import GridSpec, SpectralField, chi, hermitian_extend, sobolev_norm

from oracles import modified_energy_ek_oracle, random_real_coeffs


def hamiltonians(u, c1=0.0):
    """[H0, H1, H2] of one real field, as drift_report computes a record's."""
    return _hamiltonians(u.grid, u.coeff[None, u.grid.max_mode:], c1)[:, 0].tolist()


class TestHamiltonianValues:
    def test_zero(self, grid8):
        z = SpectralField.zeros(grid8)
        assert hamiltonians(z, 40.0) == [0.0, 0.0, 0.0]

    def test_cosine_h0(self, cosine_field):
        assert hamiltonians(cosine_field)[0] == pytest.approx(np.pi / 2, rel=1e-13)

    def test_h0_quadratic_scaling(self, grid8):
        for A in (0.5, 2.0, 3.0):
            f = SpectralField.from_modes(grid8, {1: A / 2, -1: A / 2})
            assert hamiltonians(f)[0] == pytest.approx(A**2 * np.pi / 2, rel=1e-12)

    def test_cosine_h1(self, cosine_field):
        # pi/2 + (40/80) * 3pi/4
        assert hamiltonians(cosine_field, 40.0)[1] == pytest.approx(
            np.pi / 2 + 3 * np.pi / 8, rel=1e-13
        )
        assert hamiltonians(cosine_field, 0.0)[1] == pytest.approx(np.pi / 2, rel=1e-13)

    def test_cosine_h2(self, cosine_field):
        # int uxx^2/2 = pi/2 ; 5 * int cos^2 sin^2 = 5 pi/4 ; int cos^6 = 5pi/8
        want = np.pi / 2 + 5 * np.pi / 4 + 5 * np.pi / 8
        assert hamiltonians(cosine_field, 40.0)[2] == pytest.approx(want, rel=1e-13)
        assert hamiltonians(cosine_field, 0.0)[2] == pytest.approx(np.pi / 2, rel=1e-13)

    def test_scaling_decomposition(self, grid8, rng):
        # h1(lambda u) = lambda^2 a + lambda^4 b with a, b from two probes
        c = random_real_coeffs(8, rng, amplitude=0.3)
        f1 = SpectralField(grid8, c)
        f2 = SpectralField(grid8, 2.0 * c)
        a_plus_b = hamiltonians(f1, 40.0)[1]
        v2 = hamiltonians(f2, 40.0)[1]  # 4a + 16b
        f3 = SpectralField(grid8, 3.0 * c)
        v3 = hamiltonians(f3, 40.0)[1]  # 9a + 81b
        b = (v2 - 4 * a_plus_b) / 12.0
        a = a_plus_b - b
        assert v3 == pytest.approx(9 * a + 81 * b, rel=1e-10)


class TestConservation:
    def test_constrained_flow_conserves_all(self):
        grid = GridSpec(32)
        p = EquationParams.constrained_family(40.0)
        u0 = SpectralField.from_modes(grid, {1: 0.05, -1: 0.05, 2: 0.025, -2: 0.025})
        traj = evolve(u0, 0.01, p, tag="physical_5mkdv")
        rep = drift_report(traj, 40.0)
        assert max(rep.relative_drift) < 1e-9

    def test_zero_trajectory_zero_drift(self, grid8):
        p = EquationParams.constrained_family(40.0)
        traj = evolve(SpectralField.zeros(grid8), 0.01, p)
        rep = drift_report(traj, 40.0)
        assert rep.relative_drift == (0.0, 0.0, 0.0)

    def test_linear_flow_h0_exact(self, grid8, rng):
        p = EquationParams(c1=0, c2=0, c3=0, c4=0)
        u0 = SpectralField(grid8, random_real_coeffs(8, rng, amplitude=0.2))
        traj = evolve(u0, 0.1, p, tag="linear", ctrl=StepControl(dt=0.01))
        rep = drift_report(traj, 0.0)
        assert rep.relative_drift[0] < 1e-13

    def test_broken_c4_drifts_measurably(self):
        # negative control: H2 drift with perturbed c4 far exceeds the
        # conserved-run drift, while H0 stays exact (still divergence form)
        grid = GridSpec(32)
        u0 = SpectralField.from_modes(grid, {1: 0.05, -1: 0.05, 2: 0.025, -2: 0.025})
        T = 0.01
        p_good = EquationParams.constrained_family(40.0)
        good = drift_report(evolve(u0, T, p_good), 40.0)
        p_bad = EquationParams.constrained_family(40.0)
        p_bad.c4 *= 1.01
        bad = drift_report(evolve(u0, T, p_bad), 40.0)
        assert bad.relative_drift[0] < 1e-9
        assert bad.relative_drift[2] > 100.0 * max(good.relative_drift[2], 1e-16)

    def test_drift_decreases_at_fourth_order_in_dt(self):
        # time-discretization part of the Hamiltonian drift scales ~ dt^4
        grid = GridSpec(10)
        p = EquationParams.constrained_family(40.0)
        u0 = SpectralField.from_modes(grid, {1: 0.15, -1: 0.15})
        T = 0.02
        drifts, dts = [], []
        for frac in (32, 64, 128):
            traj = evolve(
                u0, T, p, "physical_5mkdv", StepControl(dt=T / frac, record_stride=1)
            )
            drifts.append(max(drift_report(traj, 40.0).relative_drift))
            dts.append(T / frac)
        slope = np.polyfit(np.log(dts), np.log(drifts), 1)[0]
        assert slope >= 3.9, drifts

    def test_batched_series_match_single_state_values(self, grid8, rng):
        p = EquationParams.constrained_family(40.0)
        u0 = SpectralField(grid8, random_real_coeffs(8, rng, amplitude=0.1))
        traj = evolve(u0, 0.002, p, ctrl=StepControl(dt=2e-4, record_stride=1))
        rep = drift_report(traj, 40.0)
        for i, c in enumerate(traj.states):
            f = SpectralField(grid8, c)
            assert [rep.h0[i], rep.h1[i], rep.h2[i]] == hamiltonians(f, 40.0)


def band_mass(w, k):
    """||P_k w||^2 of a dense field."""
    return float(np.sum(np.abs(chi(k, w.grid.modes) * w.coeff) ** 2))


class TestModifiedEnergy:
    def test_zero_w(self, grid16):
        z = SpectralField.zeros(grid16)
        v = SpectralField.from_modes(grid16, {1: 0.3, -1: 0.3})
        assert modified_energy_ek(v, v, z, 2) == 0.0

    def test_zero_v_reduces_to_projection(self, grid16, rng):
        w = SpectralField(grid16, random_real_coeffs(16, rng))
        z = SpectralField.zeros(grid16)
        assert modified_energy_ek(z, z, w, 3) == pytest.approx(band_mass(w, 3), rel=1e-13)

    def test_k_zero_unsupported(self, grid16):
        z = SpectralField.zeros(grid16)
        with pytest.raises(ConfigurationError, match="defined for k >= 1"):
            modified_energy_ek(z, z, z, 0)

    @pytest.mark.parametrize("slot", ["v1", "v2", "w"])
    def test_non_hermitian_input_named(self, grid8, rng, slot):
        # each of the three fields is read through its half spectrum, so
        # an imaginary part is rejected by name, not dropped
        fields = {name: SpectralField(grid8, random_real_coeffs(8, rng)) for name in ("v1", "v2", "w")}
        fields[slot].coeff[8 + 3] += 0.1
        with pytest.raises(ConfigurationError, match=f"E_k {slot}"):
            modified_energy_ek(fields["v1"], fields["v2"], fields["w"], 2)

    def test_matches_oracle(self):
        # v large enough that the correction is O(||P_k w||^2): the
        # half-spectrum sum agrees with the term-by-term walk to 1e-13 of
        # the correction, or of ||P_k w||^2 where the correction's terms
        # happen to cancel below it
        sizes = []
        for M in (8, 16, 32):
            grid = GridSpec(M)
            for k in range(1, 5):
                for seed in range(3):
                    rng = np.random.default_rng(seed)
                    v1, v2 = (SpectralField(grid, random_real_coeffs(
                        M, rng, decay=0.5, amplitude=rng.uniform(1.0, 3.0))) for _ in range(2))
                    w = SpectralField(grid, random_real_coeffs(M, rng))
                    want, base = modified_energy_ek_oracle(v1, v2, w, k), band_mass(w, k)
                    got = modified_energy_ek(v1, v2, w, k)
                    assert abs(got - want) <= 1e-13 * max(abs(want - base), base), (M, k, seed)
                    if base:
                        sizes.append(abs(want - base) / base)
        assert np.median(sizes) >= 0.5  # reads 1.03

    def test_comparability_small_data(self, grid16, rng):
        # |E_k - ||P_k w||^2| <= C ||v||^2 ||P~_k w||^2 with C modest, and
        # the 1/2 .. 3/2 comparability window at small ||v||
        ratios = []
        for trial in range(6):
            w = SpectralField(grid16, random_real_coeffs(16, rng))
            v = SpectralField(grid16, random_real_coeffs(16, rng, amplitude=0.05))
            for k in (2, 3):
                base = band_mass(w, k)
                if base < 1e-12:
                    continue
                ek = modified_energy_ek(v, v, w, k)
                vnorm2 = sobolev_norm(grid16, v.coeff[16:], 0.0) ** 2
                band = sum(band_mass(w, kk) for kk in (k - 1, k, k + 1))
                ratios.append(abs(ek - base) / max(vnorm2 * band, 1e-300))
                assert 0.5 * base <= ek <= 1.5 * base
        assert ratios and max(ratios) < 100.0

    def test_defaults_match_proof_choice(self):
        assert KAPPA == pytest.approx(-4.0 / 3.0)
        assert EPSILON == pytest.approx(-2.0 / 3.0)


def ek_fluxes(k, seeds, M=64):
    """rms over seeds of d/dt ||P_k w||^2 and d/dt E_k(v1, v2, w), each over
    ||P_k w||^2, along the renormalized flow: v1 = 0.1 cos x + 0.05 sin 2x,
    v2 = v1 - w, w with |w(n)| = 1e-8 and random phases on supp chi_k.

    d/dt E_k is the five-point stencil along (rhs(v1), rhs(v2), their
    difference), exact because E_k is quartic in the three fields."""
    grid = GridSpec(M)
    v1 = SpectralField.from_modes(grid, {1: 0.05, -1: 0.05, 2: -0.025j, -2: 0.025j})
    p = derive_gauge_params(v1)
    chik = chi(k, grid.modes)
    dv1 = rhs(v1, p, "renormalized_5mkdv").coeff
    out = []
    for seed in seeds:
        phases = np.random.default_rng(seed).random(M + 1)
        w = hermitian_extend(np.where(chik[M:] > 0, 1e-8 * np.exp(2j * np.pi * phases), 0.0))
        v2 = v1.coeff - w
        dv2 = rhs(SpectralField(grid, v2), p, "renormalized_5mkdv").coeff
        dw = dv1 - dv2
        step = 0.1 * np.max(np.abs(w)) / np.max(np.abs(dw))

        def ek(t):
            return modified_energy_ek(*(SpectralField(grid, c + t * dc) for c, dc in
                                        ((v1.coeff, dv1), (v2, dv2), (w, dw))), k)

        d_ek = (ek(-2 * step) - 8 * ek(-step) + 8 * ek(step) - ek(2 * step)) / (12 * step)
        d_pk = 2.0 * np.sum(chik**2 * np.conj(w) * dw).real
        out.append(np.array([d_pk, d_ek]) / np.sum(np.abs(chik * w) ** 2))
    return np.sqrt(np.mean(np.square(out), axis=0))


class TestFluxCancellation:
    """E_k's corrections cancel the top order of d/dt ||P_k w||^2: the plain
    flux grows like 4^k relative to ||P_k w||^2, E_k's does not.  Sixteen
    seeds keep the rms ratios steady: at k = 5, E_k's flux over the plain
    one reads 0.02-0.16 over four-seed groups, 0.03-0.08 over sixteen-seed
    groups (0.054 on these seeds)."""

    SEEDS = range(16)

    def test_corrections_cancel_top_order(self):
        (pk3, ek3), (pk5, ek5) = ek_fluxes(3, self.SEEDS), ek_fluxes(5, self.SEEDS)
        assert ek5 <= 0.1 * pk5
        assert pk5 >= 4.0 * pk3
        assert ek5 <= 2.0 * ek3

    @pytest.mark.parametrize("kappa, epsilon, floor", [
        (KAPPA, 0.0, 0.15),       # the psi_k term alone
        (-KAPPA, EPSILON, 1.0),   # kappa's sign flipped
    ])
    def test_other_weights_do_not_cancel(self, monkeypatch, kappa, epsilon, floor):
        monkeypatch.setattr(invariants, "KAPPA", kappa)
        monkeypatch.setattr(invariants, "EPSILON", epsilon)
        pk5, ek5 = ek_fluxes(5, self.SEEDS)
        assert ek5 >= floor * pk5


class TestEsEnergy:
    def test_zero_trajectory(self, grid8):
        p = EquationParams.constrained_family(40.0)
        traj = evolve(SpectralField.zeros(grid8), 0.01, p)
        assert es_energy(traj, 2.0) == 0.0

    def test_linear_flow_time_independent(self, grid16):
        # P_k-localized datum under the linear flow: E^s equals the datum's
        # weighted Littlewood-Paley norm, time-independently
        p = EquationParams(c1=0, c2=0, c3=0, c4=0)
        u0 = SpectralField.from_modes(grid16, {8: 0.5, -8: 0.5})
        t1 = evolve(u0, 0.001, p, tag="linear", ctrl=StepControl(dt=1e-4))
        t2 = evolve(u0, 0.01, p, tag="linear", ctrl=StepControl(dt=1e-3))
        assert es_energy(t1, 1.5) == pytest.approx(es_energy(t2, 1.5), rel=1e-12)

    def test_single_snapshot_dyadic_equivalence(self, grid16, rng):
        # comparable to the Sobolev norm within the dyadic 2^{+-s} slack
        s = 1.0
        w = SpectralField(grid16, random_real_coeffs(16, rng))
        p = EquationParams.constrained_family(40.0)
        traj = evolve(w, 1e-6, p, tag="linear", ctrl=StepControl(dt=1e-6))
        es = es_energy(traj, s)
        hs = sobolev_norm(grid16, w.coeff[16:], s)
        assert es / hs < 4.0 * 2**s
        assert es / hs > 1.0 / (4.0 * 2**s)
