"""Weight table, modulation shells, X_k / F_k / F^s / N_k diagnostics."""

import dataclasses

import numpy as np
import pytest
import scipy.fft as sfft

from mkdvlab.equations import EquationParams
from mkdvlab.errors import ConfigurationError
from mkdvlab.integrate import StepControl, evolve
from mkdvlab.shorttime import (
    _band_lags,
    _lag_basis,
    _shell_edges,
    _window_masses,
    _window_starts,
    _xk_weights,
    beta_weight,
    fk_norm,
    fs_norm,
    max_record_spacing,
    modulation_decompose,
    nk_norm,
    window_centers,
    window_table,
)
from mkdvlab.spectral import GridSpec, SpectralField, top_band

LINEAR = EquationParams(c1=0, c2=0, c3=0, c4=0)


def linear_wave_trajectory(k, n_cycles=3.0, samples_per_window=200, extra_band=0):
    n0 = 2**k
    grid = GridSpec(2 ** (k + 1) + extra_band)
    u0 = SpectralField.from_modes(grid, {n0: 0.5, -n0: 0.5})
    span = 4.0 * 4.0 ** (-k)
    dt = span / samples_per_window
    return evolve(
        u0, n_cycles * span, LINEAR, tag="linear", ctrl=StepControl(dt=dt, record_stride=1)
    )


class TestBetaWeight:
    def test_k_zero_is_one(self):
        for j in range(0, 40, 3):
            assert beta_weight(j, 0) == 1.0

    def test_exact_table(self):
        for k in (1, 2, 5, 9):
            assert beta_weight(5 * k, k) == 2.0
            assert beta_weight(5 * k + 4, k) == 3.0  # 1 + 2^{(1/4)*4}

    def test_matches_formula_on_dyadic_grid(self):
        for k in range(1, 8):
            for j in range(0, 7 * k, 2):
                want = 1.0 + 2.0 ** (0.25 * (j - 5 * k))
                assert beta_weight(j, k) == pytest.approx(want, rel=1e-15)

    def test_monotone_in_gamma(self):
        assert beta_weight(17, 2, 0.25) >= beta_weight(17, 2, 0.125)

    def test_gamma_range_enforced(self):
        with pytest.raises(ConfigurationError, match=r"gamma must lie in \(0, 1/4\], got 0.3"):
            beta_weight(3, 1, 0.3)
        with pytest.raises(ConfigurationError, match=r"gamma must lie in \(0, 1/4\], got 0.0"):
            beta_weight(3, 1, 0.0)

    def test_negative_indices_rejected(self):
        for j, k in ((-1, 0), (3, -1)):
            with pytest.raises(ConfigurationError, match="dyadic indices must be nonnegative"):
                beta_weight(j, k)


def xk_of(mass_sq, k, gamma=0.25):
    """The X_k sum of one window's F_k masses: a column of window_table."""
    return np.sqrt(mass_sq[0]) @ _xk_weights(k, mass_sq.shape[1], gamma)


class TestModulationDecompose:
    def test_parseval_closure(self):
        traj = linear_wave_trajectory(3)
        mass_sq, l2_sq = modulation_decompose(traj, 3, traj.times[-1] / 2)
        assert abs(mass_sq[0].sum() - l2_sq) < 1e-8 * max(l2_sq, 1e-30)

    def test_zero_data_empty_shells(self):
        grid = GridSpec(16)
        traj = evolve(
            SpectralField.zeros(grid), 0.5, LINEAR, tag="linear",
            ctrl=StepControl(dt=1e-3, record_stride=1),
        )
        mass_sq, _ = modulation_decompose(traj, 2, 0.25)
        assert mass_sq[0].sum() == 0.0

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
    def test_linear_wave_concentration(self, k):
        # >= 95% of the mass below 2^j = 16 * 2^{2k} (window-bandwidth floor)
        traj = linear_wave_trajectory(k)
        mass_sq = modulation_decompose(traj, k, traj.times[-1] / 2)[0][0]
        low = mass_sq[2.0 ** np.arange(len(mass_sq)) <= 16.0 * 4.0**k].sum()
        assert low / mass_sq.sum() >= 0.95

    def test_insufficient_sampling_names_required_dt(self):
        traj = linear_wave_trajectory(3, samples_per_window=200)
        with pytest.raises(ConfigurationError, match="too coarse for k=7: need dt <="):
            modulation_decompose(traj, 7, traj.times[-1] / 2)


def transform_sizes(monkeypatch):
    """Entries of every sfft.fft / sfft.ifft output from here on."""
    sizes = []
    for name in ("fft", "ifft"):
        def traced(*args, _f=getattr(sfft, name), **kwargs):
            out = _f(*args, **kwargs)
            sizes.append(out.size)
            return out
        monkeypatch.setattr(sfft, name, traced)
    return sizes


@pytest.mark.parametrize("c, dt, R", [
    (1.0, 1.5e-5, 670),  # the k = 0 window of the `norms` defaults
    (256.0, 1.5e-5, 670),
    (4096.0, 1.5e-5, 67),  # an interior k = 6 window
    (16.0, 1e-7, 3000),  # most shells past the Gauss-Legendre range
])
def test_lag_kernels_match_quad(c, dt, R):
    # every shell, shell 0 included, against QUADPACK's cosine-weighted rule,
    # relative to the shell's zero-lag kernel
    from scipy.integrate import quad

    edges = _shell_edges(dt) / dt
    lags = np.unique(np.r_[0, 1, 2, np.random.default_rng(R).integers(3, R, 4), R - 1])
    k = int(round(np.log(c) / np.log(4.0)))
    basis = _lag_basis(dt, R, [k])
    K = np.stack([basis.K0, basis.K1[k]])[..., lags]
    for j, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        for i, m in enumerate(lags):
            for w, f in enumerate((lambda t: 1.0, lambda t: 1.0 / (t * t + c * c))):
                want = 2.0 * quad(f, a, b, weight="cos", wvar=m * dt, limit=500,
                                  epsabs=1e-13 * K[w, j, 0], epsrel=0.0)[0]
                assert abs(K[w, j, i] - want) <= 1e-12 * K[w, j, 0]


class TestXkNorm:
    def test_zero(self):
        grid = GridSpec(16)
        traj = evolve(
            SpectralField.zeros(grid), 0.5, LINEAR, tag="linear",
            ctrl=StepControl(dt=1e-3, record_stride=1),
        )
        assert xk_of(modulation_decompose(traj, 2, 0.25)[0], 2) == 0.0

    def test_uniform_in_k_for_unit_datum(self):
        # linear wave with unit-L2 datum: X_k values stay within a fixed
        # window across k (the window L2 scaling balances the 2^{j/2}
        # shell factor)
        vals = []
        for k in (3, 4, 5, 6):
            traj = linear_wave_trajectory(k)
            mass_sq, _ = modulation_decompose(traj, k, traj.times[-1] / 2)
            datum = 1.0 / np.sqrt(2.0)  # ||0.5 e^{inx} + c.c.||
            vals.append(xk_of(mass_sq, k) / datum)
        assert max(vals) / min(vals) < 8.0

    def test_gamma_monotonicity_above_five_k(self):
        # beta = 1 + 2^{gamma (j - 5k)} grows with gamma only for j > 5k;
        # build a window with all mass above the 5k line
        mass_sq = np.zeros((3, 15))
        mass_sq[0, [11, 14]] = [0.5**2, 0.25**2]
        assert xk_of(mass_sq, 2, 0.25) >= xk_of(mass_sq, 2, 0.125)

    def test_gamma_reversal_below_five_k(self):
        # below the 5k line the heavier gamma gives the lighter weight
        traj = linear_wave_trajectory(3)
        mass_sq, _ = modulation_decompose(traj, 3, traj.times[-1] / 2)
        shells = np.sqrt(mass_sq[0])
        assert shells[:5 * 3].sum() > 0.9 * shells.sum()
        assert xk_of(mass_sq, 3, 0.25) <= xk_of(mass_sq, 3, 0.125)


class TestFkNorm:
    def test_stationarity_linear_wave(self):
        traj = linear_wave_trajectory(4)
        centers, extended = window_centers(traj, 4, traj.times[-1])
        assert not extended
        vals = [xk_of(modulation_decompose(traj, 4, t)[0], 4) for t in centers[::7]]
        assert (max(vals) - min(vals)) / max(vals) < 0.05

    def test_time_translation_covariance(self):
        # shifting the window center grid leaves the sup unchanged
        traj = linear_wave_trajectory(4, n_cycles=4.0)
        T = traj.times[-1]
        full = fk_norm(traj, 4, T)
        half = fk_norm(traj, 4, 0.6 * T)
        assert half == pytest.approx(full, rel=0.05)

    def test_zero(self):
        grid = GridSpec(16)
        traj = evolve(
            SpectralField.zeros(grid), 0.5, LINEAR, tag="linear",
            ctrl=StepControl(dt=1e-3, record_stride=1),
        )
        assert fk_norm(traj, 2, 0.5) == 0.0


class TestNkNorm:
    def test_resolvent_suppression(self):
        traj = linear_wave_trajectory(4)
        T = traj.times[-1]
        fkv = fk_norm(traj, 4, T)
        nkv = nk_norm(traj, 4, T)
        # per-shell weight <= max(2^{j-1}, 2^{2k})^{-1}
        assert nkv <= 2.0 * 4.0 ** (-4) * fkv * 1.05

    def test_high_modulation_suppressed_by_two_to_j(self):
        # inject a fast temporal tone: the resolvent knocks it down ~ 2^{-j}
        k = 3
        grid = GridSpec(2 ** (k + 1))
        n0 = 2**k
        span = 4.0 * 4.0 ** (-k)
        dt = span / 400
        times = np.arange(0.0, 3.0 * span, dt)
        mu = float(n0) ** 5
        tone = 2.0 ** 11  # modulation well above the window bandwidth 2^{2k}
        half = np.zeros((len(times), grid.max_mode + 1), dtype=complex)
        half[:, n0] = 0.5 * np.exp(1j * (mu + tone) * times)
        from mkdvlab.integrate import Trajectory

        traj = Trajectory(grid, times, half, LINEAR, "linear", dt, 1)
        t_k = 1.5 * span
        mass_sq, _ = modulation_decompose(traj, k, t_k)
        nk_val = nk_norm(traj, k, traj.times[-1])
        fk_val = fk_norm(traj, k, traj.times[-1])
        # mass sits at j ~ 11 >> 2k = 6; the resolvent weight is ~ 2^{-j}
        j_peak = int(np.argmax(mass_sq[0]))
        assert j_peak >= 10
        assert nk_val <= 2.0 ** (-(j_peak - 1)) * fk_val * 1.5


class TestFsNorm:
    def test_zero(self):
        grid = GridSpec(16)
        traj = evolve(
            SpectralField.zeros(grid), 0.5, LINEAR, tag="linear",
            ctrl=StepControl(dt=1e-3, record_stride=1),
        )
        assert fs_norm(traj, 1.0, 0.5) == 0.0

    def test_single_band_reduction(self):
        # datum at n = 2^k lies in band k alone: fs = 2^{sk} fk exactly
        k, s = 4, 1.5
        span5 = 4.0 * 4.0 ** (-5)
        traj = linear_wave_trajectory(k, samples_per_window=int(4.0 * 4.0 ** (-k) / (span5 / 64 * 0.98)) + 1)
        fs = fs_norm(traj, s, traj.times[-1])
        fk = fk_norm(traj, k, traj.times[-1])
        assert fs == pytest.approx(2.0 ** (s * k) * fk, rel=1e-12)

    def test_monotone_in_s(self):
        k = 3
        span4 = 4.0 * 4.0 ** (-4)
        traj = linear_wave_trajectory(k, samples_per_window=int(4.0 * 4.0 ** (-k) / (span4 / 64 * 0.98)) + 1)
        T = traj.times[-1]
        assert fs_norm(traj, 1.5, T) >= fs_norm(traj, 1.0, T)


# ---------------------------------------------------------------------------
# The batched window transform against the one-window-at-a-time oracle
# ---------------------------------------------------------------------------

NORMS_T = 0.01


def norms_dt(M):
    """The `norms` subcommand's dt: 64 samples (x 0.98) across the finest window."""
    return max_record_spacing(top_band(M)) * 0.98


@pytest.fixture(scope="module")
def norms_traj():
    """Physical flow at M = 64 to T = 0.01 at the norms dt, every step recorded."""
    grid = GridSpec(64)
    u0 = SpectralField.from_modes(
        grid, {1: 0.05, -1: 0.05, 2: 0.025j, -2: -0.025j}
    )
    p = EquationParams.constrained_family(40.0)
    return evolve(u0, NORMS_T, p, tag="physical_5mkdv",
                  ctrl=StepControl(dt=norms_dt(64), record_stride=1))


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def assert_shells_match(traj, k, t_k):
    from oracles import window_shells_oracle

    mass_sq, l2_sq = modulation_decompose(traj, k, t_k)
    shells, l2, n, ext = window_shells_oracle(traj, k, t_k)
    _, m_lo, lengths = _window_starts(traj, k, np.array([t_k]))
    assert (lengths[0], m_lo[0] < 0 or m_lo[0] + lengths[0] > len(traj)) == (n, ext)
    assert (sorted(shells) == list(range(mass_sq.shape[1]))
            == list(range(len(_shell_edges(traj.dt)) - 1)))
    scale = max(shells.values())
    for j, m in shells.items():
        assert abs(np.sqrt(mass_sq[0, j]) - m) <= 1e-12 * scale
    assert rel(np.sqrt(l2_sq), l2) <= 1e-12
    return n


class TestBatchedWindowsMatchOracle:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_zero_extended_windows(self, norms_traj, k):
        from oracles import xk_sup_oracle

        centers, extended = window_centers(norms_traj, k, NORMS_T)
        assert extended and len(centers) == 1
        assert_shells_match(norms_traj, k, centers[0])
        if k >= 1:
            assert rel(fk_norm(norms_traj, k, NORMS_T), xk_sup_oracle(norms_traj, k, NORMS_T)) <= 1e-12
            assert rel(nk_norm(norms_traj, k, NORMS_T),
                       xk_sup_oracle(norms_traj, k, NORMS_T, weighting=1)) <= 1e-12

    @pytest.mark.parametrize("k", [5, 6])
    def test_sliding_windows_of_two_lengths(self, norms_traj, k):
        from oracles import xk_sup_oracle

        centers, extended = window_centers(norms_traj, k, NORMS_T)
        assert not extended
        lengths = {assert_shells_match(norms_traj, k, t) for t in centers[::3]}
        assert len(lengths) == 2
        assert rel(fk_norm(norms_traj, k, NORMS_T), xk_sup_oracle(norms_traj, k, NORMS_T)) <= 1e-12
        assert rel(nk_norm(norms_traj, k, NORMS_T),
                   xk_sup_oracle(norms_traj, k, NORMS_T, weighting=1)) <= 1e-12

    def test_chunked_batches(self, norms_traj, monkeypatch):
        # a small batch budget splits every window group into several FFTs,
        # the wide bands into column slices and the kernels into lag chunks
        from oracles import fs_oracle, xk_sup_oracle

        import mkdvlab.shorttime as st

        monkeypatch.setattr(st, "_BATCH_ELEMENTS", 4096)
        buffers = transform_sizes(monkeypatch)
        traj = dataclasses.replace(norms_traj)  # no memoized tables
        for k in (5, 6):
            assert rel(nk_norm(traj, k, NORMS_T),
                       xk_sup_oracle(traj, k, NORMS_T, weighting=1)) <= 1e-12
        assert rel(fs_norm(traj, 1.0, NORMS_T), fs_oracle(traj, 1.0, NORMS_T)) <= 1e-12
        assert max(buffers) <= 4096

    def test_fs_norm(self, norms_traj):
        from oracles import fs_oracle

        assert rel(fs_norm(norms_traj, 1.0, NORMS_T), fs_oracle(norms_traj, 1.0, NORMS_T)) <= 1e-12

    def test_clamped_weight_table(self, norms_traj):
        from oracles import fs_oracle, xk_sup_oracle

        for k in (2, 6):
            want = xk_sup_oracle(norms_traj, k, NORMS_T, 0.125)
            assert rel(fk_norm(norms_traj, k, NORMS_T, 0.125), want) <= 1e-12
            want = xk_sup_oracle(norms_traj, k, NORMS_T, 0.125, weighting=1)
            assert rel(nk_norm(norms_traj, k, NORMS_T, 0.125), want) <= 1e-12
        assert rel(fs_norm(norms_traj, 1.5, NORMS_T, 0.125),
                   fs_oracle(norms_traj, 1.5, NORMS_T, 0.125)) <= 1e-12

    def test_renormalized_flow(self, rng):
        from oracles import fs_oracle, random_real_coeffs, xk_sup_oracle

        grid = GridSpec(16)
        u0 = SpectralField(grid, random_real_coeffs(16, rng, amplitude=0.02))
        p = EquationParams.constrained_family(40.0)
        p.d1, p.d2 = 1.0, 2.0
        T = 0.05
        traj = evolve(u0, T, p, tag="renormalized_5mkdv",
                      ctrl=StepControl(dt=norms_dt(16), record_stride=1))
        for k in range(1, 5):
            assert rel(fk_norm(traj, k, T), xk_sup_oracle(traj, k, T)) <= 1e-12
            assert rel(nk_norm(traj, k, T), xk_sup_oracle(traj, k, T, weighting=1)) <= 1e-12
        assert_shells_match(traj, 4, 0.02)
        assert rel(fs_norm(traj, 1.0, T), fs_oracle(traj, 1.0, T)) <= 1e-12

    def test_resolution_errors_still_raised(self, norms_traj):
        from mkdvlab.integrate import Trajectory

        tr = norms_traj
        one = Trajectory(tr.grid, tr.times[:1], tr.half[:1], tr.params,
                         tr.equation_tag, tr.dt, 1)
        bumped = tr.times.copy()
        bumped[5] += 0.3 * tr.dt
        uneven = Trajectory(tr.grid, bumped, tr.half, tr.params, tr.equation_tag, tr.dt, 1)
        cases = (
            (one, 2, "at least two records"),
            (uneven, 2, "uniform record spacing"),
            (tr, 8, "need dt <="),
        )
        for traj, k, msg in cases:
            for call in (
                lambda: modulation_decompose(traj, k, 0.005),
                lambda: fk_norm(traj, k, NORMS_T),
                lambda: nk_norm(traj, k, NORMS_T),
            ):
                with pytest.raises(ConfigurationError, match=msg):
                    call()
        with pytest.raises(ConfigurationError, match="uniform record spacing"):
            fs_norm(uneven, 1.0, NORMS_T)


@pytest.fixture(scope="module")
def odd_traj():
    """Physical flow at M = 16 to T = 0.011: a zero-extended window of odd
    length at every k, 16,729 bins at k = 0."""
    u0 = SpectralField.from_modes(GridSpec(16), {1: 0.05, -1: 0.05, 2: 0.025j, -2: -0.025j})
    return evolve(u0, 0.011, EquationParams.constrained_family(40.0), tag="physical_5mkdv",
                  ctrl=StepControl(dt=norms_dt(16), record_stride=1))


@pytest.mark.parametrize("which, k, extended, parities", [
    ("norms", 0, True, {0}),  # the n = 0 column alone
    ("norms", 3, True, {0}),
    ("norms", 5, False, {0, 1}),  # interior windows spanning 263 and 264 samples
    ("norms", 6, False, {0, 1}),
    ("odd", 0, True, {1}),
    ("odd", 2, True, {1}),
])
def test_half_band_table_matches_full_band_oracle(norms_traj, odd_traj, which, k, extended,
                                                   parities):
    # the n >= 0 columns, each n > 0 counted twice, against every column of
    # every window by definition: all three weightings and the window norms
    from oracles import window_masses_full_band_oracle

    traj = norms_traj if which == "norms" else odd_traj
    centers, ext = window_centers(traj, k, float(traj.times[-1]))
    lengths = _window_starts(traj, k, centers)[2]
    assert ext == extended and {int(L) % 2 for L in lengths} == parities
    mass_sq, l2_sq = _window_masses(traj, k, centers)
    want, want_l2 = window_masses_full_band_oracle(traj, k, centers)
    assert mass_sq.shape == want.shape
    for w in range(3):
        assert np.max(np.abs(mass_sq[w] - want[w])) <= 1e-13 * np.max(want[w])
    assert np.max(np.abs(l2_sq - want_l2)) <= 1e-13 * np.max(want_l2)


@pytest.mark.parametrize("k", range(7))
def test_parseval_closure_every_window(norms_traj, k):
    # the F_k masses of every window add up to its squared L^2(dt) norm
    centers, _ = window_centers(norms_traj, k, NORMS_T)
    mass_sq, l2_sq = _window_masses(norms_traj, k, centers)
    assert np.all(np.abs(mass_sq[0].sum(axis=1) - l2_sq) <= 1e-13 * l2_sq)


@pytest.mark.parametrize("k", range(7))
def test_one_window_view_is_a_table_column(norms_traj, k):
    # modulation_decompose at a grid centre is that centre's column of
    # window_table: bit for bit where the one window is zero-extended, and
    # within round-off where a batch pads its windows to the longest one
    centers, extended = window_centers(norms_traj, k, NORMS_T)
    table = window_table(norms_traj, k, NORMS_T)
    for c in range(0, len(centers), 3):
        mass_sq, _ = modulation_decompose(norms_traj, k, centers[c])
        if extended:
            assert np.array_equal(mass_sq, table[:, c])
        else:
            scale = table[:, c].max(axis=1, keepdims=True)
            assert np.all(np.abs(mass_sq - table[:, c]) <= 1e-13 * scale)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_smooth_window_masses_at_round_off_floor(k):
    # a linear wave's windowed spectrum falls below 1e-15 of its mass in the
    # top shells; a mass^2 there is round-off of the lag sums, so the mass
    # reads up to about 1e-8 of the window norm
    from oracles import window_masses_oracle

    traj = linear_wave_trajectory(k)
    t_k = traj.times[-1] / 2
    mass_sq, l2_sq = modulation_decompose(traj, k, t_k)
    want = np.sqrt(window_masses_oracle(traj, k, t_k)[0][0])
    assert want[-1] ** 2 < 1e-15 * l2_sq
    got = np.sqrt(mass_sq[0])
    assert np.max(np.abs(got - want)) <= 3e-8 * np.sqrt(l2_sq)


@pytest.mark.parametrize("which, k", [("norms", 6), ("odd", 2)])
def test_bins_converge_to_continuous_masses(norms_traj, odd_traj, which, k):
    # the L-bin surrogate padded 16x and 64x nears the continuous-tau masses
    # at first order in the bin spacing
    from oracles import window_bins_oracle

    traj = norms_traj if which == "norms" else odd_traj
    centers, _ = window_centers(traj, k, float(traj.times[-1]))
    t_k = centers[len(centers) // 2]
    mass_sq, total = modulation_decompose(traj, k, t_k)
    gaps = []
    for padding in (16, 64):
        bins = window_bins_oracle(traj, k, t_k, padding)
        assert sorted(bins) == list(range(mass_sq.shape[1]))
        gaps.append(max(abs(bins[j] ** 2 - mass_sq[0, j]) for j in bins) / total)
    assert 3.0 <= gaps[0] / gaps[1] <= 5.0


def test_fs_norm_memory_peak(norms_traj, peak_above):
    # the k = 0 window spans 267,602 samples around 670 records; only the
    # recorded band rows may be gathered (whole rows took 557 MiB)
    assert len(norms_traj) == 670
    traj = dataclasses.replace(norms_traj)  # no memoized tables
    peak = peak_above(fs_norm, traj, 1.0, NORMS_T)[0]
    assert peak < 96 * 2**20


def test_chunked_pass_working_sets(norms_traj, peak_above):
    # spectral.BATCH_ELEMENTS bounds all that a chunk holds at once, so each
    # chunked pass over the 670 records peaks at most 2 MiB (plus 0.25 MiB
    # of small arrays) above what it keeps: every window table (the first
    # keeps the shared lag kernels), the Hamiltonians and the gauge transform
    # (which keeps its twisted records)
    import mkdvlab.spectral as spectral
    from mkdvlab.invariants import drift_report
    from mkdvlab.transforms import gauge_forward

    budget = spectral.BATCH_ELEMENTS * 16
    assert budget == 2 * 2**20
    traj = dataclasses.replace(norms_traj)  # no memoized tables
    passes = {f"k={k}": (window_table, traj, k, NORMS_T) for k in range(7)}
    passes.update(drift_report=(drift_report, traj, 40.0), gauge_forward=(gauge_forward, traj))
    above = {}
    for name, (fn, *args) in passes.items():
        peak, kept, _ = peak_above(fn, *args)
        above[name] = peak - kept
    assert max(above.values()) <= budget + 2**18, above


def test_records_keep_half_spectra(norms_traj, peak_above):
    # a record is the half spectrum c[0..M] that evolve steps: the 670
    # records of evolve and of gauge_forward each keep at most records x
    # (M+1) complex entries, plus 64 KiB of small arrays
    from mkdvlab.transforms import gauge_forward

    tr = norms_traj
    bound = len(tr) * 65 * 16 + 2**16
    ctrl = StepControl(dt=norms_dt(64), record_stride=1)
    u0 = SpectralField(tr.grid, tr.states[0])
    _, kept, traj = peak_above(evolve, u0, NORMS_T, tr.params, "physical_5mkdv", ctrl)
    assert len(traj) == 670 and kept <= bound
    _, kept, gauged = peak_above(gauge_forward, traj)
    assert gauged.half.shape == (670, 65) and kept <= bound


@pytest.mark.parametrize("which", ["norms", "long window"])
def test_resolvent_kernels_match_per_band_oracle(norms_traj, which):
    # the one pass makes every band's resolvent kernel at its own R_k lags,
    # within 1e-15 of each shell's largest entry of the per-band kernels the
    # tables once made alone; the long window (M = 8, T = 1e-5, dt = 1e-8)
    # has 29 shells, and band 0 takes the series in the top 8
    from mkdvlab.integrate import Trajectory
    from mkdvlab.shorttime import _shared_lag_basis
    from oracles import lag_kernels_reference

    if which == "norms":
        traj = dataclasses.replace(norms_traj)
    else:
        traj = Trajectory(GridSpec(8), 1e-8 * np.arange(1001), np.zeros((1001, 9), complex),
                          EquationParams.constrained_family(40.0), "physical_5mkdv", 1e-8, 1)
    dt = traj.times[1] - traj.times[0]
    basis = _shared_lag_basis(traj, dt)
    assert sorted(basis.K1) == list(range(top_band(traj.grid.max_mode) + 1))
    for k, K1 in basis.K1.items():
        R = _band_lags(dt, k, len(traj))
        assert K1.shape == (len(_shell_edges(dt)) - 1, R)
        want = lag_kernels_reference(dt, 4.0**k, np.arange(R))
        for got, ref in zip((basis.K0[:, :R], K1), want):
            assert np.all(np.abs(got - ref) <= 1e-15 * np.max(np.abs(ref), axis=1, keepdims=True))


def test_lag_basis_built_once_per_trajectory(norms_traj, monkeypatch):
    # the seven tables of a `norms` run share one lag basis, and each equals
    # the table made from a basis of its own R lags bit for bit
    import mkdvlab.shorttime as st

    builds = []

    def counted(dt, count, bands):
        builds.append(count)
        return _lag_basis(dt, count, bands)

    monkeypatch.setattr(st, "_lag_basis", counted)
    traj = dataclasses.replace(norms_traj)
    for k in range(1, 7):
        fk_norm(traj, k, NORMS_T)
        nk_norm(traj, k, NORMS_T)
    fs_norm(traj, 1.0, NORMS_T)
    assert builds == [len(traj)]
    for k in range(7):
        centers, _ = window_centers(traj, k, NORMS_T)
        dt, m_lo, lengths = _window_starts(traj, k, centers)
        R = int(np.max(np.minimum(m_lo + lengths, len(traj)) - np.maximum(m_lo, 0)))
        alone = dataclasses.replace(norms_traj)
        alone.window_tables["lag basis"] = _lag_basis(dt, R, [k])
        assert np.array_equal(window_table(alone, k, NORMS_T), window_table(traj, k, NORMS_T))


@pytest.mark.parametrize("dt", [1e-5, 1e-6])
def test_zero_extended_table_memory_independent_of_dt(dt, peak_above):
    # 64 records at M = 16: the k = 0 window spans 4/dt = 4e5 or 4e6 samples
    # (whole-window transforms took 55 and 549 MiB)
    from mkdvlab.integrate import Trajectory

    rng = np.random.default_rng(7)
    times = dt * np.arange(64)
    half = rng.standard_normal((64, 17)) + 1j * rng.standard_normal((64, 17))
    half[:, 0] = half[:, 0].real  # records of real data
    traj = Trajectory(GridSpec(16), times, half, EquationParams.constrained_family(40.0),
                      "physical_5mkdv", dt, 1)
    peak, _, mass_sq = peak_above(window_table, traj, 0, float(times[-1]))
    assert mass_sq.shape == (3, 1, len(_shell_edges(dt)) - 1) and mass_sq.all()
    assert peak < 16 * 2**20
