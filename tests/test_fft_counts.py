"""FFT calls per diagnostic: every real-field synthesis is one stacked irfft,
so the count is fixed per call and does not grow with the number of records."""

import dataclasses

import numpy as np
import pytest
import scipy.fft

from mkdvlab import cli
from mkdvlab.equations import EquationParams, RenormalizedTerms, derive_gauge_params
from mkdvlab.integrate import StepControl, default_dt, evolve, uniform_steps
from mkdvlab.invariants import drift_report
from mkdvlab.shorttime import _tk_grid, fk_norm, fs_norm, nk_norm
from mkdvlab.spectral import GridSpec, SpectralField
from mkdvlab.transforms import chain_identity_gap, gauge_forward, gauge_inverse, miura_residual

from oracles import random_real_coeffs


@pytest.fixture
def fft_calls(monkeypatch):
    """Counts calls to scipy.fft's four transforms (the package looks them up
    on the module at call time), and in "points" the entries they return."""
    counter = {"n": 0, "points": 0}
    for name in ("fft", "ifft", "rfft", "irfft"):
        transform = getattr(scipy.fft, name)

        def counted(*args, _transform=transform, **kwargs):
            counter["n"] += 1
            out = _transform(*args, **kwargs)
            counter["points"] += out.size
            return out

        monkeypatch.setattr(scipy.fft, name, counted)

    def calls(fn, *args):
        counter["n"] = counter["points"] = 0
        fn(*args)
        return counter["n"]

    calls.counter = counter
    return calls


def two_mode(grid):
    return SpectralField.from_modes(grid, {1: 0.05, -1: 0.05, 2: 0.025j, -2: -0.025j})


def physical_trajectories():
    """Two physical-flow trajectories of different lengths on one grid."""
    u0 = two_mode(GridSpec(16))
    p = derive_gauge_params(u0, 40.0)
    ctrl = StepControl(dt=1e-4, record_stride=1)
    return evolve(u0, 0.002, p, ctrl=ctrl), evolve(u0, 0.005, p, ctrl=ctrl)


def test_chain_identity_gap_two_calls(fft_calls, rng):
    grid = GridSpec(16)
    v, vdot = random_real_coeffs(16, rng), random_real_coeffs(16, rng)
    assert fft_calls(chain_identity_gap, grid, v, vdot) <= 2


def test_drift_report_one_call(fft_calls):
    short, long = physical_trajectories()
    assert fft_calls(drift_report, short, 40.0) == 1
    assert fft_calls(drift_report, long, 40.0) == 1


def test_multi_chunk_syntheses(fft_calls, monkeypatch):
    # under a budget of 16 records (times three orders) a chunk, the
    # Hamiltonians and the gauge phase of 51 records take one FFT call per
    # chunk and equal the one stacked synthesis bit for bit
    import mkdvlab.spectral as spectral

    _, traj = physical_trajectories()
    assert len(traj) == 51
    hams, gauge = drift_report(traj, 40.0), gauge_forward(traj)
    P = traj.grid.phys_points
    monkeypatch.setattr(spectral, "BATCH_ELEMENTS", 16 * 3 * P)
    assert fft_calls(drift_report, dataclasses.replace(traj), 40.0) == 4  # 16 + 16 + 16 + 3
    chunked = drift_report(dataclasses.replace(traj), 40.0)
    for name in ("h0", "h1", "h2"):
        assert np.array_equal(getattr(chunked, name), getattr(hams, name))
    assert chunked.relative_drift == hams.relative_drift
    assert fft_calls(gauge_forward, traj) == 2  # 48 + 3 records of one order
    assert np.array_equal(gauge_forward(traj).states, gauge.states)


def test_synthesis_memory_independent_of_records(monkeypatch, rng):
    # past one chunk, the peak of drift_report and of the gauge quartic is
    # one chunk's syntheses plus a few numbers per record
    import tracemalloc

    import mkdvlab.spectral as spectral
    from mkdvlab.equations import seq_l4_quartic
    from mkdvlab.integrate import Trajectory

    grid = GridSpec(16)
    monkeypatch.setattr(spectral, "BATCH_ELEMENTS", 16 * 3 * grid.phys_points)
    peaks = []
    for n in (200, 2000):
        states = np.array([random_real_coeffs(16, rng, amplitude=0.05) for _ in range(n)])
        traj = Trajectory(grid, 1e-4 * np.arange(n), states,
                          EquationParams.constrained_family(40.0), "physical_5mkdv", 1e-4, 1)
        tracemalloc.start()
        try:
            drift_report(traj, 40.0)
            seq_l4_quartic(grid, states)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # one record's three syntheses alone are 3 x 100 x 8 bytes
    assert peaks[1] - peaks[0] < 100 * (2000 - 200)


def test_gauge_phase_memory_independent_of_records(monkeypatch, rng):
    # past one chunk, the phase product's peak above its output is one
    # chunk's phase table, and its states equal the one-table product bit for bit
    import tracemalloc

    import mkdvlab.spectral as spectral
    from mkdvlab.integrate import Trajectory
    from mkdvlab.transforms import GAUGE_PHASE_RATE, _apply_phase

    grid = GridSpec(16)
    n = grid.modes.astype(float)
    monkeypatch.setattr(spectral, "BATCH_ELEMENTS", 16 * len(n))
    above = []
    for count in (200, 2000):
        states = np.array([random_real_coeffs(16, rng, amplitude=0.05) for _ in range(count)])
        traj = Trajectory(grid, 1e-4 * np.arange(count), states,
                          EquationParams.constrained_family(40.0), "physical_5mkdv", 1e-4, 1)
        phi = rng.standard_normal(count)
        tracemalloc.start()
        try:
            out = _apply_phase(traj, phi, -1.0)
            above.append(tracemalloc.get_traced_memory()[1] - out.states.nbytes)
        finally:
            tracemalloc.stop()
        want = np.exp(-1j * GAUGE_PHASE_RATE * np.outer(phi, n)) * states
        assert np.array_equal(out.states, want)
    # one record's phase row alone is 33 x 16 bytes
    assert above[1] - above[0] < 100 * (2000 - 200)


def test_default_dt_one_call(fft_calls):
    u0 = two_mode(GridSpec(16))
    assert fft_calls(default_dt, u0, EquationParams.constrained_family(40.0), "physical_5mkdv") == 1


FLOWS = {
    "physical": ("physical_5mkdv", None),
    "renormalized": ("renormalized_5mkdv", None),
    "renormalized-cubic2": (
        "renormalized_5mkdv",
        RenormalizedTerms(resonant_cubic=False, cubic2=True, cubic3=False, quintic=False),
    ),
}


@pytest.mark.parametrize("flow", FLOWS)
@pytest.mark.parametrize("automatic_dt", [False, True], ids=["user-dt", "automatic-dt"])
def test_evolve_calls_per_step(fft_calls, flow, automatic_dt):
    # one stacked irfft and one stacked rfft per stage, four stages a step,
    # one synthesis for the final sup check and one for the automatic dt
    tag, terms = FLOWS[flow]
    u0 = two_mode(GridSpec(16))
    p = derive_gauge_params(u0, 40.0)
    dt = default_dt(u0, p, tag) if automatic_dt else 1e-4
    T = 100 * dt
    assert uniform_steps(T, dt)[0] == 100
    ctrl = StepControl(dt=0.0 if automatic_dt else dt)
    assert fft_calls(evolve, u0, T, p, tag, ctrl, terms) == 801 + automatic_dt


@pytest.mark.parametrize("transform", [gauge_forward, gauge_inverse])
def test_gauge_calls_independent_of_length(fft_calls, transform):
    short, long = physical_trajectories()
    assert len(short) < len(long)
    assert fft_calls(transform, short) == fft_calls(transform, long)


def test_miura_residual_calls_independent_of_length(fft_calls):
    v0 = two_mode(GridSpec(16))
    ctrl = StepControl(dt=1e-3, record_stride=1)
    short = evolve(v0, 0.005, EquationParams(), "mkdv3", ctrl)
    long = evolve(v0, 0.02, EquationParams(), "mkdv3", ctrl)
    assert len(short) < len(long)
    assert fft_calls(miura_residual, short) == fft_calls(miura_residual, long)


NORMS_T = 0.05


@pytest.fixture(scope="module")
def norms_traj():
    """Physical flow at M = 16 at the `norms` dt: zero-extended windows for
    k <= 3, a sliding t_k grid for k = 4, data in every band."""
    u0 = two_mode(GridSpec(16))
    dt = 4.0 * 4.0 ** (-4) / 64 * 0.98
    return evolve(u0, NORMS_T, derive_gauge_params(u0, 40.0), ctrl=StepControl(dt=dt, record_stride=1))


def all_norms(traj, ks):
    for k in ks:
        fk_norm(traj, k, NORMS_T)
        nk_norm(traj, k, NORMS_T)
    fs_norm(traj, 1.0, NORMS_T)


@pytest.mark.parametrize("ks", [range(1, 5), range(4, 0, -1)])
def test_one_window_transform_per_k(fft_calls, norms_traj, ks):
    extended = [_tk_grid(norms_traj, k, NORMS_T)[1] for k in range(5)]
    assert extended == [True] * 4 + [False]
    alone = fft_calls(fs_norm, dataclasses.replace(norms_traj), 1.0, NORMS_T)
    assert alone > 0
    traj = dataclasses.replace(norms_traj)
    assert fft_calls(all_norms, traj, ks) == alone
    assert fft_calls(all_norms, traj, ks) == 0


def test_norms_run_transforms_only_its_norms(fft_calls, monkeypatch, tmp_path):
    # the shell CSV reads the window table that fk_norm built: after its
    # evolve, a `norms` run makes exactly the calls of the three norms alone
    trajs = []

    def evolve_then_count(*args, **kwargs):
        trajs.append(evolve(*args, **kwargs))
        fft_calls.counter["n"] = 0
        return trajs[-1]

    monkeypatch.setattr(cli, "evolve", evolve_then_count)
    args = ["norms", "--set", "grid.max_mode=16", "--set", f"time.T={NORMS_T}"]
    assert cli.main(args + ["--out", str(tmp_path)]) == 0
    run = fft_calls.counter["n"]
    (traj,) = trajs
    assert [_tk_grid(traj, k, NORMS_T)[1] for k in range(5)] == [True] * 4 + [False]
    assert run == fft_calls(all_norms, dataclasses.replace(traj), range(1, 5)) > 0


def test_zero_extended_table_transforms_independent_of_dt(fft_calls):
    # the k = 0 window of 64 records spans 4/dt = 4e5 or 4e6 samples; its
    # table transforms the 64 records alike at both
    from mkdvlab.integrate import Trajectory
    from mkdvlab.shorttime import _window_table
    from mkdvlab.spectral import hermitian_extend

    rng = np.random.default_rng(7)
    half = rng.standard_normal((64, 17)) + 1j * rng.standard_normal((64, 17))
    half[:, 0] = half[:, 0].real
    states = hermitian_extend(half)
    counts = []
    for dt in (1e-5, 1e-6):
        traj = Trajectory(GridSpec(16), dt * np.arange(64), states,
                          EquationParams.constrained_family(40.0), "physical_5mkdv", dt, 1)
        calls = fft_calls(_window_table, traj, 0, float(traj.times[-1]))
        counts.append((calls, fft_calls.counter["points"]))
    # one fft of the two n >= 0 columns of chi_0 and one ifft of the two
    # weightings, each next_fast_len(2 * 64 - 1) = 128 long
    assert counts == [(2, 2 * 128 + 2 * 128)] * 2


def test_trajectory_arrays_read_only(norms_traj):
    times, states = norms_traj.times.copy(), norms_traj.states.copy()
    traj = dataclasses.replace(norms_traj, times=times, states=states)
    with pytest.raises(ValueError, match="read-only"):
        traj.states[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        traj.times[0] = 1.0
    states[0, 0] = 1.0  # the caller's own arrays stay writable
    times[0] = 1.0
