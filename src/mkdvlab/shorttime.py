"""Weighted short-time norms X_k, F_k(T), F^s(T) and the resolvent N_k.

A trajectory sampled at uniform dt is windowed by eta0(2^{2k}(t - t_k))
(support width 4 * 2^{-2k}), demodulated by exp(-i t mu(n)) so the discrete
temporal frequency tau' equals the modulation tau - mu(n), transformed, and
binned into dyadic shells in |tau'|:

    j = 0 bin:  |tau'| <= 2,       bin j >= 1:  2^j < |tau'| <= 2^{j+1}

Shell masses are L^2(dt)-calibrated so that sum_j mass_j^2 equals the
squared L^2(dt) norm of the windowed data exactly (discrete Plancherel).
The X_k norm is sum_j 2^{j/2} beta_{j,k} mass_j with the weight

    beta_{j,0} = 1,   beta_{j,k} = 1 + 2^{gamma (j - 5k)}  (k >= 1),

gamma in (0, 1/4], default 1/4.  F_k(T) takes the sup over a t_k grid of
spacing 2^{-2k}/4; windows that do not fit inside the recorded span fall
back to a single centered window with the data zero-extended (the
trajectory acting as its own extension, which upper-bounds the infimum over
extensions; flagged in the result metadata).

Cost model: a window at level k has L ~ 4 * 4^{-k}/dt samples however few
records R it covers (L = 267,602 around R = 670 for k = 0 at the `norms`
defaults).  Only the recorded rows of the n >= 0 columns of the band I_k are
gathered and transformed: the trajectory must hold real data, whose -n
columns add what the n columns do (|G_{-n}(tau)|^2 = |G_n(-tau)|^2, and every
shell and weight is even in tau), so each n > 0 column counts twice.
Windows of one length share one batched FFT, chunked to at most
_BATCH_ELEMENTS complex entries per buffer (a window of more records runs
alone).  A zero-extended window is transformed in blocks of its L bins, each
block a chirp-z transform of its R rows against one kernel FFT shared by
every block.  The convolution length is set by the same budget but is at least 2R, so a block
holds more than R bins and the blocks cost at most about twice one
whole-window transform; columns that do not fit the budget at that length
are transformed a slice at a time.  Each block is binned as it is made, so
the memory depends on R, not on L (or dt).  One pass bins |G|^2
for F_k, N_k and the F^s block into a table of 3 x centres x shells masses
(centres <= records/4 + 1, so under records x shells), made once per
(trajectory, k, T) and memoized on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from .errors import ParameterError, ResolutionError
from .integrate import Trajectory, _linear_symbol
from .spectral import BATCH_ELEMENTS as _BATCH_ELEMENTS  # bound here, so tests can shrink it
from .spectral import chi, eta0

GAMMA_DEFAULT = 0.25
WINDOW_HALF_WIDTH = 2.0  # support of eta0 in scaled units
MIN_WINDOW_SAMPLES = 64


def beta_weight(j: int, k: int, gamma: float = GAMMA_DEFAULT) -> float:
    """Modulation weight beta_{j,k} = 1 (k=0) or 1 + 2^{gamma(j-5k)}."""
    if not 0.0 < gamma <= 0.25:
        raise ParameterError(f"gamma must lie in (0, 1/4], got {gamma}")
    if j < 0 or k < 0:
        raise ParameterError("dyadic indices must be nonnegative")
    if k == 0:
        return 1.0
    return 1.0 + 2.0 ** (gamma * (j - 5 * k))


@dataclass(frozen=True)
class WeightTable:
    """Weight parameters for the X_k sums: every modulation shell j of the
    discrete surrogate carries 2^{j/2} beta_{j,k}."""

    gamma: float = GAMMA_DEFAULT

    def __post_init__(self):
        if not 0.0 < self.gamma <= 0.25:
            raise ParameterError(f"gamma must lie in (0, 1/4], got {self.gamma}")

    def beta(self, j: int, k: int) -> float:
        return beta_weight(j, k, self.gamma)


@dataclass
class ModulationShellSet:
    """Dyadic shell masses of one windowed, demodulated snapshot."""

    k: int
    window_center: float
    shells: dict
    window_l2: float
    n_samples: int
    dt: float
    zero_extended: bool = False

    def total_mass_sq(self) -> float:
        return float(sum(m * m for m in self.shells.values()))


def _shell_index(abs_tau: np.ndarray) -> np.ndarray:
    """Sharp dyadic binning: 0 for |tau| <= 2, else j with 2^j < |tau| <= 2^{j+1}."""
    out = np.zeros(abs_tau.shape, dtype=int)
    big = abs_tau > 2.0
    out[big] = np.ceil(np.log2(abs_tau[big])).astype(int) - 1
    return np.maximum(out, 0)


def _window_starts(traj: Trajectory, k: int, centers: np.ndarray):
    """Validated record spacing, first sample index and length of each window."""
    times = traj.times
    if len(times) < 2:
        raise ResolutionError("trajectory must carry at least two records")
    dts = np.diff(times)
    dt = float(dts[0])
    if np.max(np.abs(dts - dt)) > 1e-9 * max(dt, 1e-300):
        raise ResolutionError("modulation decomposition needs uniform record spacing")
    half = WINDOW_HALF_WIDTH * 4.0 ** (-k)
    need = 2.0 * half / MIN_WINDOW_SAMPLES
    if dt > need * (1 + 1e-12):
        raise ResolutionError(
            f"record spacing {dt:.3e} too coarse for k={k}: need dt <= {need:.3e}"
        )
    m_lo = np.floor((centers - half - times[0]) / dt).astype(int)
    m_hi = np.ceil((centers + half - times[0]) / dt).astype(int)
    return dt, m_lo, m_hi - m_lo + 1


def _taus(L: int, dt: float, f0: int, n: int) -> np.ndarray:
    """2 pi sfft.fftfreq(L, dt)[f0:f0 + n], bit for bit, without the other bins."""
    f = np.arange(f0, f0 + n)
    f[f > (L - 1) // 2] -= L
    return 2.0 * np.pi * (f * (1.0 / (L * dt)))


def _dft_blocks(x: np.ndarray, L: int):
    """Yield (f0, s, X[:, f0:f0 + B, s]) of X = sfft.fft(x, n=L, axis=1) for x
    of shape (batch, R, columns) with R <= L rows, s a slice of the columns.

    R = L is one FFT of every column, which may overwrite x.  For R < L each
    block is a chirp-z transform, X[f0 + q] = w^{q^2/2} sum_p (x[p] w^{f0 p +
    p^2/2}) w^{-(q-p)^2/2} with w = e^{-2 pi i/L}: a circular convolution of
    length N >= B + R - 1 against one kernel FFT shared by every block.  N is
    the largest 5-smooth length with batch * N * columns <= _BATCH_ELEMENTS,
    but at least 2R, so B = N - R + 1 > R and the blocks cost at most about
    twice one whole-window transform.  Where 2R rows of every column exceed
    the budget, the columns are transformed in slices that fit it (one
    column at a time if need be), so the memory does not depend on L; each
    block is a view of its length-N buffer.  Phases are taken from the exact
    integers (2 f0 p + p^2) mod 2L and q^2 mod 2L.
    """
    batch, R, cols = x.shape
    if R == L:
        yield 0, slice(0, cols), sfft.fft(x, axis=1, overwrite_x=True)
        return
    N = max(sfft.prev_fast_len(max(_BATCH_ELEMENTS // (batch * cols), 1), True),
            sfft.next_fast_len(2 * R, True))
    N = min(N, sfft.next_fast_len(L + R - 1, True))
    width = max(1, min(cols, _BATCH_ELEMENTS // (batch * N)))
    B = min(L, N - R + 1)
    q = np.arange(B)
    chirp = np.exp(-1j * np.pi * ((q * q) % (2 * L)) / L)
    kernel = np.zeros(N, dtype=np.complex128)
    kernel[:B] = np.conj(chirp)
    kernel[N - R + 1:] = np.conj(chirp[1:R][::-1])  # lags -(R-1)..-1
    kernel = sfft.fft(kernel)[:, None]
    p = q[:R]
    for f0 in range(0, L, B):
        phase = (2 * ((f0 * p) % L) + p * p) % (2 * L)
        shift = np.exp(-1j * np.pi * phase / L)[:, None]
        n = min(B, L - f0)
        for a in range(0, cols, width):
            s = slice(a, min(a + width, cols))
            y = np.zeros((batch, N, s.stop - a), dtype=np.complex128)
            y[:, :R] = x[:, :, s] * shift
            Y = sfft.fft(y, axis=1, overwrite_x=True)
            Y *= kernel
            Y = sfft.ifft(Y, axis=1, overwrite_x=True)[:, :n]
            Y *= chirp[:n, None]
            yield f0, s, Y


def _window_masses(traj, k, centers, dt, m_lo, lengths):
    """Squared shell masses mass_sq[w, c, j] of every window centre at once,
    present[c, j] (some FFT bin of window c falls in shell j), and the
    squared window L^2(dt) norms.
    One transform G per window; P = |G|^2 summed over the band (w = 0, X_k),
    divided by tau^2 + 16^k (w = 1, the N_k resolvent) or weighted by
    chi_k(n)^2 (w = 2, the F^s block), binned block by block (and column
    slice by column slice) of _dft_blocks.
    Only the n >= 0 columns of the band are transformed: records of real
    data have g_{-n}(t) = conj(g_n(t)) (mu is odd), so |G_{-n}(tau)|^2 =
    |G_n(-tau)|^2, and every shell and weight is even in tau, so each n > 0
    column counts twice.  A zero-extended window transforms only its
    recorded rows: the shift to the first one is a phase of G."""
    traj.require_real("short-time window input")
    n_rec = len(traj.times)
    n_c = len(centers)
    M = traj.grid.max_mode
    chik = chi(k, traj.grid.modes[M:])
    band = np.nonzero(chik)[0]
    if band.size == 0:
        return np.zeros((3, n_c, 0)), np.zeros((n_c, 0), dtype=bool), np.zeros(n_c)
    twice = np.where(band > 0, 2.0, 1.0)  # column n > 0 stands for -n too
    mu = _linear_symbol(traj.grid, traj.params, traj.equation_tag)[M + band]
    chi_sq = twice * chik[band] ** 2
    t_rec = traj.times[0] + np.arange(n_rec) * dt
    demod = traj.states[:, M + band] * np.exp(-1j * np.outer(t_rec, mu))

    # |tau| is largest at the Nyquist bin L // 2
    n_shells = 1 + max(int(_shell_index(np.abs(_taus(L, dt, L // 2, 1)))[0])
                       for L in np.unique(lengths))
    mass_sq = np.zeros((3, n_c, n_shells))
    present = np.zeros((n_c, n_shells), dtype=bool)
    l2_sq = np.zeros(n_c)
    for L in np.unique(lengths):
        same = np.nonzero(lengths == L)[0]
        chunk = max(1, _BATCH_ELEMENTS // (L * band.size))
        for c in (same[i:i + chunk] for i in range(0, len(same), chunk)):
            first = np.maximum(m_lo[c], 0)
            count = np.minimum(m_lo[c] + L, n_rec) - first
            R = max(1, int(count.max()))
            # rows past a window's last record are read at the last one and
            # weighted by 0
            rows = np.minimum(first[:, None] + np.arange(R), n_rec - 1)
            inside = np.arange(R) < count[:, None]
            weight = np.where(inside, eta0(4.0**k * (t_rec[rows] - centers[c, None])), 0.0)
            g = demod[rows]
            g *= weight[..., None]
            l2_sq[c] = dt * (g.real**2 + g.imag**2).sum(axis=1) @ twice
            for f0, s, G in _dft_blocks(g, int(L)):
                if s.start == 0:  # the first column slice of a new block
                    taus = _taus(L, dt, f0, G.shape[1])
                    shell_of = _shell_index(np.abs(taus))
                    starts = np.flatnonzero(np.diff(shell_of, prepend=-1))  # runs of one shell
                    runs = shell_of[starts]
                    present[c[:, None], runs] = True
                P = G.real**2 + G.imag**2
                # L^2(dt) calibration: sum_j mass_j^2 = dt * sum |g|^2
                wf = (P @ twice[s]) * (dt / L)
                weighted = (wf, wf / (taus**2 + 16.0**k), (P @ chi_sq[s]) * (dt / L))
                for w, bins in enumerate(weighted):
                    # a shell may hold two runs (|tau| rises, then falls past Nyquist)
                    sums = np.add.reduceat(bins, starts, axis=-1)
                    np.add.at(mass_sq[w], (c[:, None], runs), sums)
    return mass_sq, present, l2_sq


def modulation_decompose(traj: Trajectory, k: int, t_k: float) -> ModulationShellSet:
    """Windowed space-time transform of the I_k band, binned in |tau - mu(n)|."""
    centers = np.array([float(t_k)])
    dt, m_lo, lengths = _window_starts(traj, k, centers)
    mass_sq, present, l2_sq = _window_masses(traj, k, centers, dt, m_lo, lengths)
    n = int(lengths[0])
    zero_extended = bool(m_lo[0] < 0 or m_lo[0] + n > len(traj.times))
    shells = {int(j): float(np.sqrt(mass_sq[0, 0, j])) for j in np.nonzero(present[0])[0]}
    return ModulationShellSet(k, t_k, shells, float(np.sqrt(l2_sq[0])), n, dt, zero_extended)


def xk_norm(shells: ModulationShellSet, wt: WeightTable | None = None) -> float:
    """sum_j 2^{j/2} beta_{j,k} * (shell mass)."""
    if wt is None:
        wt = WeightTable()
    return float(
        sum(
            2.0 ** (j / 2.0) * wt.beta(j, shells.k) * m
            for j, m in shells.shells.items()
        )
    )


def _tk_grid(traj: Trajectory, k: int, T: float):
    """Window centers: interior sliding grid of spacing 2^{-2k}/4, or a
    single centered window (zero-extended data) when none fits."""
    t0, t1 = traj.times[0], min(traj.times[-1], T)
    half = WINDOW_HALF_WIDTH * 4.0 ** (-k)
    lo, hi = t0 + half, t1 - half
    if hi >= lo:
        step = 4.0 ** (-k) / 4.0
        n = int(np.floor((hi - lo) / step)) + 1
        return lo + step * np.arange(n), False
    return np.array([0.5 * (t0 + t1)]), True


def _window_table(traj: Trajectory, k: int, T: float) -> tuple:
    """_window_masses' (mass_sq, present) of the t_k grid, memoized per (k, T)."""
    key = (k, float(T))
    if key not in traj.window_tables:
        centers, _ = _tk_grid(traj, k, T)
        dt, m_lo, lengths = _window_starts(traj, k, centers)
        traj.window_tables[key] = _window_masses(traj, k, centers, dt, m_lo, lengths)[:2]
    return traj.window_tables[key]


def _xk_sup(traj, k, T, wt, weighting) -> float:
    """sup over the t_k grid of the X_k sum of one weighting (0: F_k, 1: N_k,
    2: F^s block) of the window table."""
    mass_sq = _window_table(traj, k, T)[0][weighting]
    if wt is None:
        wt = WeightTable()
    coef = np.array([2.0 ** (j / 2.0) * wt.beta(j, k) for j in range(mass_sq.shape[1])])
    return max(0.0, float(np.max(np.sqrt(mass_sq) @ coef)))


def fk_norm(traj: Trajectory, k: int, T: float, wt: WeightTable | None = None) -> float:
    """sup over the t_k grid of the X_k norm of the windowed data."""
    return _xk_sup(traj, k, T, wt, 0)


def nk_norm(traj: Trajectory, k: int, T: float, wt: WeightTable | None = None) -> float:
    """Like fk_norm with the resolvent weight (tau - mu(n) + i 2^{2k})^{-1}."""
    return _xk_sup(traj, k, T, wt, 1)


def fs_norm(traj: Trajectory, s: float, T: float, wt: WeightTable | None = None) -> float:
    """(sum_k 2^{2sk} ||P_k traj||_{F_k(T)}^2)^{1/2} over the retained bands."""
    k_max = max(0, int(np.ceil(np.log2(max(traj.grid.max_mode, 2)))))
    total = 0.0
    for k in range(0, k_max + 1):
        if not np.any(traj.states[:, chi(k, traj.grid.modes) != 0]):
            continue
        fk = _xk_sup(traj, k, T, wt, 2)
        total += 4.0 ** (s * k) * fk * fk
    return float(np.sqrt(total))
