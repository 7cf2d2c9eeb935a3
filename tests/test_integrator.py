"""Exactness on linear flows, temporal convergence, dealiased products."""

import numpy as np
import pytest

import mkdvlab.integrate as integrate
from mkdvlab.equations import FLOWS, EquationParams, RenormalizedTerms
from mkdvlab.errors import ConfigurationError, DivergenceError
from mkdvlab.integrate import StepControl, evolve
from mkdvlab.spectral import GridSpec, SpectralField, hermitian_extend

from oracles import random_real_coeffs


def sup_diff(a, b):
    return np.max(np.abs(a - b))


class TestLinearFlow:
    def test_exact_phase_rotation(self, grid8):
        p = EquationParams(c1=0, c2=0, c3=0, c4=0, d1=0, d2=0)
        u0 = SpectralField.from_modes(grid8, {1: 0.5, -1: 0.5})
        traj = evolve(u0, 0.5, p, tag="linear", ctrl=StepControl(dt=0.1, record_stride=1))
        for t, c in zip(traj.times, traj.half):
            want = 0.5 * np.exp(1j * t)  # e^{i t mu(1)}, mu(1) = 1
            assert abs(c[1] - want) < 1e-13
            assert abs(abs(c[1]) - 0.5) < 1e-14

    def test_exact_for_large_dt(self, grid8):
        # with all c_i = 0 the stepper is exact to rounding for any dt
        p = EquationParams(c1=0, c2=0, c3=0, c4=0, d1=3.0, d2=-2.0)
        rngl = np.random.default_rng(5)
        c = random_real_coeffs(8, rngl)
        u0 = SpectralField(grid8, c)
        traj = evolve(u0, 1.0, p, tag="linear", ctrl=StepControl(dt=0.5, record_stride=1))
        n = grid8.modes.astype(float)
        mu = n**5 + 3.0 * n**3 - 2.0 * n
        want = c * np.exp(1j * mu * 1.0)
        assert sup_diff(traj.states[-1], want) < 1e-12


class TestPhysicalFlow:
    def test_zero_data_stays_zero(self, grid8):
        p = EquationParams.constrained_family(40.0)
        traj = evolve(SpectralField.zeros(grid8), 0.01, p, tag="physical_5mkdv")
        assert np.max(np.abs(traj.states[-1])) == 0.0

    def test_reality_preserved(self, grid16):
        p = EquationParams.constrained_family(40.0)
        u0 = SpectralField.from_modes(grid16, {1: 0.05, -1: 0.05, 2: 0.025, -2: 0.025})
        traj = evolve(u0, 0.005, p, tag="physical_5mkdv")
        assert np.all(traj.half[:, 0].imag == 0.0)

    def test_self_convergence_order(self):
        # 4th-order temporal convergence on smooth data: least-squares slope
        # of the Richardson self-differences in a dt range where dt*mu stays
        # moderate
        grid = GridSpec(10)
        p = EquationParams.constrained_family(40.0)
        u0 = SpectralField.from_modes(grid, {1: 0.125, -1: 0.125})
        T = 0.02
        fracs = (64, 128, 256, 512)
        sols = {
            f: evolve(
                u0, T, p, "physical_5mkdv", StepControl(dt=T / f, record_stride=10**9)
            ).states[-1]
            for f in fracs + (1024,)
        }
        diffs = [sup_diff(sols[f], sols[2 * f]) for f in fracs]
        dts = [T / f for f in fracs]
        slope = np.polyfit(np.log(dts), np.log(diffs), 1)[0]
        assert slope >= 3.8, diffs

    def test_divergence_detection(self):
        # a coefficient passes 1e6 mid-run: the error carries the record of
        # the step before, bit for bit that of the run which stops there
        grid = GridSpec(8)
        p = EquationParams.constrained_family(40.0)
        u0 = SpectralField.from_modes(grid, {1: 0.4, -1: 0.4, 2: 0.3, -2: 0.3})
        ctrl = StepControl(dt=0.01, record_stride=1)
        with pytest.raises(DivergenceError, match="blow-up detected at t=0.05 ") as exc:
            evolve(u0, 1.0, p, tag="physical_5mkdv", ctrl=ctrl)
        t_last, state_last = exc.value.t_last, exc.value.state_last
        assert t_last == 0.04
        before = evolve(u0, t_last, p, tag="physical_5mkdv", ctrl=ctrl)
        assert before.dt == 0.01 and before.times[-1] == t_last
        assert np.array_equal(state_last, before.half[-1])

    def test_divergence_at_final_time(self, monkeypatch):
        # every coefficient stays under the bound but the final sup norm
        # passes it: the error carries the record before the final one
        grid = GridSpec(8)
        p = EquationParams.constrained_family(40.0)
        u0 = SpectralField.from_modes(grid, {1: 0.05, -1: 0.05, 2: 0.025, -2: 0.025})
        ctrl = StepControl(dt=1e-3, record_stride=2)
        traj = evolve(u0, 0.01, p, tag="physical_5mkdv", ctrl=ctrl)
        monkeypatch.setattr(integrate, "BLOWUP_SUP", 0.06)
        with pytest.raises(DivergenceError, match="at final time") as exc:
            evolve(u0, 0.01, p, tag="physical_5mkdv", ctrl=ctrl)
        assert exc.value.t_last == traj.times[-2]
        assert np.array_equal(exc.value.state_last, traj.half[-2])


class TestRenormalizedFlow:
    def test_zero_data(self, grid8):
        p = EquationParams.constrained_family(40.0)
        traj = evolve(SpectralField.zeros(grid8), 0.01, p, tag="renormalized_5mkdv")
        assert np.max(np.abs(traj.states[-1])) == 0.0

    def test_reality_preserved(self, grid8):
        p = EquationParams.constrained_family(40.0)
        p.d1, p.d2 = 1.0, 2.0
        u0 = SpectralField.from_modes(grid8, {1: 0.05, -1: 0.05})
        traj = evolve(u0, 0.01, p, tag="renormalized_5mkdv")
        assert np.all(traj.half[:, 0].imag == 0.0)

    def test_non_hermitian_data_rejected(self, grid8):
        p = EquationParams.constrained_family(40.0)
        u0 = SpectralField.from_modes(grid8, {1: 0.05, -1: 0.02j})
        with pytest.raises(ConfigurationError, match="renormalized_5mkdv initial data"):
            evolve(u0, 0.01, p, tag="renormalized_5mkdv")

    def test_term_mask_respected(self, grid8):
        # with every term off the flow is purely linear
        p = EquationParams.constrained_family(40.0)
        u0 = SpectralField.from_modes(grid8, {1: 0.3, -1: 0.3})
        terms = RenormalizedTerms(False, False, False, False)
        traj = evolve(u0, 0.1, p, tag="renormalized_5mkdv",
                      ctrl=StepControl(dt=0.05), renorm_terms=terms)
        n = grid8.modes.astype(float)
        mu = n**5 + p.d1 * n**3 + p.d2 * n
        want = u0.coeff * np.exp(1j * mu * 0.1)
        assert sup_diff(traj.states[-1], want) < 1e-12


class TestTrajectoryRecording:
    def test_times_strictly_increasing_from_zero(self, grid8):
        p = EquationParams.constrained_family(40.0)
        u0 = SpectralField.from_modes(grid8, {1: 0.05, -1: 0.05})
        traj = evolve(u0, 0.01, p, ctrl=StepControl(dt=0.0011, record_stride=2))
        assert traj.times[0] == 0.0
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[-1] == pytest.approx(0.01, abs=1e-12)

    def test_final_time_hit_exactly(self, grid8):
        p = EquationParams.constrained_family(40.0)
        u0 = SpectralField.from_modes(grid8, {1: 0.05, -1: 0.05})
        traj = evolve(u0, 0.0123, p, ctrl=StepControl(dt=0.001))
        assert traj.times[-1] == pytest.approx(0.0123, rel=1e-12)

    @pytest.mark.parametrize("tag", list(FLOWS))
    def test_mean_stays_real(self, grid16, tag):
        # records hold c[0..M], so Im c(0) = 0 is their one reality
        # condition; the phi-coefficients at mu = 0 are exactly real
        p = EquationParams.constrained_family(40.0)
        p.d1, p.d2 = 1.0, 2.0
        c = random_real_coeffs(16, np.random.default_rng(3), amplitude=0.3)
        traj = evolve(SpectralField(grid16, c), 0.002, p, tag, StepControl(dt=1e-4))
        assert np.all(traj.half[:, 0].imag == 0.0)

    def test_records_are_half_spectra(self, grid8):
        # states is the dense extension of the stored half, made on access
        # and read-only
        p = EquationParams.constrained_family(40.0)
        u0 = SpectralField.from_modes(grid8, {1: 0.05, -1: 0.05, 2: 0.02j, -2: -0.02j})
        traj = evolve(u0, 0.002, p, ctrl=StepControl(dt=2e-4, record_stride=1))
        assert traj.half.shape == (len(traj), 9)
        assert np.array_equal(traj.states, hermitian_extend(traj.half))
        assert traj.states is not traj.states
        with pytest.raises(ValueError, match="read-only"):
            traj.states[0, 0] = 1.0
        with pytest.raises(ConfigurationError, match="max_mode \\+ 1 = 9"):
            integrate.Trajectory(grid8, traj.times, traj.states, p, "physical_5mkdv", traj.dt, 1)


class TestStepCount:
    @pytest.mark.parametrize("T", [0.005, 0.01, 0.05, 0.25, 1.0])
    def test_stepped_dt_round_trips(self, T):
        # a run re-stepped at its own dt, T / n, takes exactly its n steps
        missed = [n for n in range(1, 40001) if integrate.uniform_steps(T, T / n)[0] != n]
        assert missed == []


class TestDefaultDt:
    @pytest.mark.parametrize("tag, n_top", [("physical_5mkdv", 5), ("fifth_kdv", 5),
                                            ("renormalized_5mkdv", 5), ("kdv3", 13),
                                            ("mkdv3", 13)])
    def test_band_ends_at_the_first_damped_mode(self, monkeypatch, tag, n_top):
        # at M = 16 the step before the frequency cap is 1/2048, and
        # |mu(n)| dt first passes 1 at n = 5 for mu = n^5, at n = 13 for n^3;
        # the gauge constants, which would pass 1 at n = 1, do not count
        seen = []
        monkeypatch.setattr(integrate.equations, "nonlinear_frequency_bound",
                            lambda u0, p, tag, n_top: seen.append(n_top) or 0.0)
        u0 = SpectralField.from_modes(GridSpec(16), {1: 0.1, -1: 0.1})
        p = EquationParams(d1=1e3, d2=1e4)
        assert integrate.default_dt(u0, p, tag) == 1 / 2048
        assert seen == [n_top]

    def test_fifth_kdv_bound_sets_dt(self):
        # u = 2 cos x at M = 10, P = 64 samples, so sup|u| = sup|u_x| = 2 are
        # sampled; before the cap dt = 1/800, where n^5 dt first passes 1 at
        # n = 4, and there the fifth_kdv bound (a1, a2, a3 = 20, 10, -30) is
        # 10 * 2 * 4^3 + 20 * 2 * 4^2 + 30 * 2^2 * 4 = 2400
        u0 = SpectralField.from_modes(GridSpec(10), {1: 1.0, -1: 1.0})
        dt = integrate.default_dt(u0, EquationParams(), "fifth_kdv")
        assert dt == pytest.approx(integrate.RK4_IMAG_STABILITY / 2400.0, rel=1e-12)
        assert dt < 1 / 800

    def test_bound_past_float64_rejected(self):
        # the physical bound's c4 term holds sup|u|^4 = (2e80)^4
        u0 = SpectralField.from_modes(GridSpec(8), {1: 1e80, -1: 1e80})
        with pytest.raises(ConfigurationError, match="the automatic dt is undefined"):
            integrate.default_dt(u0, EquationParams(), "physical_5mkdv")


class TestStrideAuto:
    def test_auto_stride_bounds_records(self, grid8):
        p = EquationParams.constrained_family(40.0)
        u0 = SpectralField.from_modes(grid8, {1: 0.01, -1: 0.01})
        traj = evolve(u0, 0.01, p, ctrl=StepControl(dt=1e-5))
        assert 300 <= len(traj) <= 1300


class TestStepControlValidation:
    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), -1e-3])
    def test_bad_dt_rejected(self, dt):
        with pytest.raises(ConfigurationError, match="dt must be finite"):
            StepControl(dt=dt)

    @pytest.mark.parametrize("T", [0.0, -1.0])
    def test_nonpositive_T_rejected(self, grid8, T):
        with pytest.raises(ConfigurationError, match="T must be positive"):
            evolve(SpectralField.zeros(grid8), T, EquationParams())


class TestPocketfftBackend:
    @pytest.mark.parametrize("M", [8, 64])
    @pytest.mark.parametrize("tag", sorted(FLOWS))
    def test_evolve_bitwise_with_scipy_backend(self, monkeypatch, tag, M):
        # evolve's scoped backend changes no bit of any flow's records: with
        # its __ua_function__ declining every call, scipy's backend takes
        # them all and the trajectory is the same
        from mkdvlab.spectral import PocketfftBackend

        rng = np.random.default_rng(4500 + M)
        u0 = SpectralField(GridSpec(M), random_real_coeffs(M, rng, amplitude=0.3))
        # c3 off the constrained family: the physical flow's stacked rfft
        p = EquationParams.constrained_family(40.0)
        p.c3, p.d1, p.d2 = p.c3 + 0.5, 1.5, 0.7
        dt = integrate.default_dt(u0, p, tag)

        def run():
            return evolve(u0, 40 * dt, p, tag, StepControl(record_stride=3))

        want = run()
        monkeypatch.setattr(PocketfftBackend, "__ua_function__",
                            staticmethod(lambda method, args, kwargs: NotImplemented))
        got = run()
        assert len(got) == len(want) > 2
        assert got.times.tobytes() == want.times.tobytes()
        assert got.half.tobytes() == want.half.tobytes()


class TestStageArithmetic:
    @pytest.mark.parametrize("M", [16, 64])
    @pytest.mark.parametrize("tag, c3_shift, cubics", [
        ("physical_5mkdv", 0.0, None),  # constrained: the divergence alone
        ("physical_5mkdv", 0.5, None),  # c3 off the family: the u_x^3 branch
        *(("renormalized_5mkdv", 0.0, (c2, c3)) for c2 in (False, True) for c3 in (False, True)),
        ("fifth_kdv", 0.0, None), ("kdv3", 0.0, None), ("mkdv3", 0.0, None), ("linear", 0.0, None),
    ])
    def test_runs_match_reference_arithmetic(self, monkeypatch, M, tag, c3_shift, cubics):
        # evolve's in-place operators and ETD-RK4 combination against a run
        # stepped with the reference arithmetic of oracles.py: bit for bit for
        # every flow but the renormalized one, whose S(n) c(n) is now formed
        # from the samples (within 1e-14 of max |c|)
        from mkdvlab import equations
        from oracles import etdrk4_step_reference, reference_operator

        rng = np.random.default_rng(4900 + M)
        u0 = SpectralField(GridSpec(M), random_real_coeffs(M, rng, amplitude=0.3))
        p = EquationParams.constrained_family(40.0)
        p.c3, p.d1, p.d2 = p.c3 + c3_shift, 1.5, 0.7
        terms = None if cubics is None else RenormalizedTerms(cubic2=cubics[0], cubic3=cubics[1])
        dt = integrate.default_dt(u0, p, tag)

        def run():
            return evolve(u0, 40 * dt, p, tag, StepControl(record_stride=1), terms)

        got = run()
        monkeypatch.setattr(equations, "nonlinear_operator", reference_operator)
        monkeypatch.setattr(integrate, "_etdrk4_step", etdrk4_step_reference)
        want = run()
        assert len(got) == len(want) == 41
        if tag == "renormalized_5mkdv":
            assert sup_diff(got.half, want.half) <= 1e-14 * np.max(np.abs(want.half))
            assert not np.array_equal(got.half, want.half)
        else:
            assert got.half.tobytes() == want.half.tobytes()
