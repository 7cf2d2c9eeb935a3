"""Weighted short-time norms X_k, F_k(T), F^s(T) and the resolvent N_k.

A trajectory sampled at uniform dt is windowed by eta0(2^{2k}(t - t_k))
(support width 4 * 2^{-2k}) and demodulated by exp(-i t mu(n)), so the
temporal frequency tau of the windowed samples g_p is the modulation
tau - mu(n).  Their transform G(tau) = sum_p g_p e^{-i tau p dt} is split
into dyadic shells of continuous |tau|, as in the X_k spaces of Ionescu,
Kenig & Tataru (Invent. Math. 173 (2008)):

    j = 0:  |tau| <= 2,       j >= 1:  2^j < |tau| <= 2^{j+1},

every shell up to the Nyquist one J (2^J < pi/dt <= 2^{J+1}), cut at pi/dt.
With W = 1 (F_k), 1/(tau^2 + 16^k) (the N_k resolvent) or chi_k(n)^2 (the
F^s block), mass_j^2 = dt^2/(2 pi) int_{shell j} |G|^2 W dtau, so with W = 1
sum_j mass_j^2 is the squared L^2(dt) norm of the windowed data.  The X_k
norm is sum_j 2^{j/2} beta_{j,k} mass_j with the weight

    beta_{j,0} = 1,   beta_{j,k} = 1 + 2^{gamma (j - 5k)}  (k >= 1),

gamma in (0, 1/4], default 1/4.  F_k(T) takes the sup over a t_k grid of
spacing 2^{-2k}/4; windows that do not fit inside the recorded span fall
back to a single centered window with the data zero-extended (the
trajectory acting as its own extension, which upper-bounds the infimum over
extensions; flagged in the result metadata).

Computation: with r the lag autocorrelation of the window's R recorded rows
and K_j(m) = 2 int_a^b cos(tau m dt) W(tau) dtau over the shell (a, b],
mass_j^2 = dt^2/(2 pi) [r(0) K_j(0) + 2 sum_{m>=1} Re r(m) K_j(m)].  For
W = 1, K_j(m) = 2 (sin(b m dt) - sin(a m dt))/(m dt).  The resolvent kernel
is arctan-exact at m = 0, 20-point Gauss-Legendre where cos(tau m dt) turns
by at most 16 radians over the shell (or b <= 8 * 4^k), and elsewhere
2 (F(a) - F(b)) with F(x) = int_x^inf cos(tau s)/(tau^2 + c^2) dtau =
(1/x) Re sum_n (-(c/x)^2)^n E_{2n+2}(-i x s); there x s > 16, where the
even continued fraction of E_1 is within 3e-16 of scipy.special.exp1 at an
eighth of its cost.  Each mass^2 carries a round-off of about 1e-16 of the
window's total, so a shell holding less reads about 1e-8 of its L^2 norm.

Cost model: r is one FFT round trip of length next_fast_len(2R - 1) of the
recorded rows of the band's n >= 0 columns (see _window_masses), batched
over windows; the kernels are made once per table where they fit the budget
(else once per chunk of windows).  Time and memory grow with R and the
J + 1 shells, not with the 4 * 4^{-k}/dt samples a window spans, and every
buffer stays under _BATCH_ELEMENTS entries as long as one column of 2R rows
fits it.  The table of 3 x centres x shells masses is made once per
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
_GAUSS = np.polynomial.legendre.leggauss(20)  # nodes and weights on [-1, 1]
_SERIES_TERMS = 10  # of F(x) for x >= 8c: (1/8)^20 < 1e-18
_FRACTION_LEVELS = 20  # of E_1(-i y) for y >= 16: within 3e-16


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
    """Dyadic shell masses of one windowed, demodulated snapshot: the
    one-window view of the window table, every shell up to the Nyquist one;
    n_samples is the window's span in samples."""

    k: int
    window_center: float
    shells: dict
    window_l2: float
    n_samples: int
    dt: float
    zero_extended: bool = False

    def total_mass_sq(self) -> float:
        return float(sum(m * m for m in self.shells.values()))


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


def _shell_edges(dt: float) -> np.ndarray:
    """Shell edges 0, 2, 4, ..., 2^J, pi/dt times dt (the last is pi), with
    2^J < pi/dt <= 2^{J+1}."""
    J = int(np.ceil(np.log2(np.pi / dt))) - 1
    return np.concatenate(([0.0], 2.0 ** np.arange(1, J + 1) * dt, [np.pi]))


def _lag_kernels(dt: float, c: float, m: np.ndarray) -> np.ndarray:
    """K[w, j, i] = 2 int_a^b cos(tau m_i dt) W_w(tau) dtau over every shell
    (a, b] and ascending lags m_i >= 0, with W_0 = 1 and W_1 = 1/(tau^2 + c^2)."""
    theta = _shell_edges(dt)  # x dt for every edge x
    x = theta / dt
    a, b = x[:-1], x[1:]
    lag = np.maximum(m, 1)  # m = 0 is set last
    s = lag * dt
    K = np.empty((2, len(a), len(m)))
    sines = np.sin(np.outer(theta, lag))
    sines[-1] = 0.0  # sin(pi m)
    K[0] = 2.0 * np.diff(sines, axis=0) / s
    # Gauss-Legendre while cos(tau s) turns by at most 16 radians over the shell
    gauss = ((b - a)[:, None] * s <= 16.0) | (b <= 8.0 * c)[:, None]
    nodes, weights = _GAUSS
    for j, n in enumerate(gauss.sum(axis=1)):  # a prefix of the lags
        half = 0.5 * (b[j] - a[j])
        tau = half * nodes + (a[j] + half)
        K[1, j, :n] = (2.0 * half * weights / (tau * tau + c * c)) @ np.cos(np.outer(tau, s[:n]))
    series = ~gauss  # here a >= 8c and x s > 16 at both edges
    if series.any():
        at = np.zeros((len(x), len(m)), dtype=bool)
        at[:-1] |= series
        at[1:] |= series
        edge = np.broadcast_to(x[:, None], at.shape)[at]
        iy = 1j * np.outer(theta, lag)[at]  # i x s
        rot = np.exp(iy)
        # E_1(-i y) = e^{i y}/(1 - i y - 1/(3 - i y - 4/(5 - i y - ...)))
        frac = (2 * _FRACTION_LEVELS + 1) - iy
        for n in range(_FRACTION_LEVELS, 0, -1):
            frac = ((2 * n - 1) - iy) - n * n / frac
        e_p = rot / frac
        F = np.zeros(iy.shape)
        term = np.ones(iy.shape)  # (-(c/x)^2)^n
        minus_zeta_sq = -((c / edge) ** 2)
        for p in range(1, 2 * _SERIES_TERMS):
            e_p *= iy  # E_{p+1}(-i x s) = (e^{i x s} + i x s E_p)/p
            e_p += rot
            e_p /= p
            if p % 2:
                F += term * e_p.real
                term *= minus_zeta_sq
        edge_F = np.zeros(at.shape)
        edge_F[at] = F / edge
        K[1][series] = -2.0 * np.diff(edge_F, axis=0)[series]
    zero = m == 0
    K[0][:, zero] = 2.0 * (b - a)[:, None]
    K[1][:, zero] = (2.0 / c * np.arctan(c * (b - a) / (c * c + a * b)))[:, None]
    return K


def _window_masses(traj, k, centers, dt, m_lo, lengths):
    """Squared shell masses mass_sq[w, c, j] of every window centre (w = 0:
    F_k, 1: N_k, 2: F^s block) and the squared window L^2(dt) norms.
    Every window goes through one batched autocorrelation of R rows (R the
    most any window records) and one set of lag kernels.  Only the n >= 0
    columns of the band are gathered: records of real data have g_{-n}(t) =
    conj(g_n(t)) (mu is odd), so |G_{-n}(tau)|^2 = |G_n(-tau)|^2, and every
    shell and weight is even in tau, so each n > 0 column counts twice.  A
    zero-extended window gathers only its recorded rows."""
    traj.require_real("short-time window input")
    n_rec = len(traj.times)
    M = traj.grid.max_mode
    chik = chi(k, traj.grid.modes[M:])
    band = np.nonzero(chik)[0]
    mass_sq = np.zeros((3, len(centers), len(_shell_edges(dt)) - 1))
    l2_sq = np.zeros(len(centers))
    if band.size == 0:
        return mass_sq, l2_sq
    twice = np.where(band > 0, 2.0, 1.0)  # column n > 0 stands for -n too
    weights = np.stack([twice, twice * chik[band] ** 2], axis=1)  # F_k and N_k, F^s
    mu = _linear_symbol(traj.grid, traj.params, traj.equation_tag)[M + band]
    t_rec = traj.times[0] + np.arange(n_rec) * dt
    demod = traj.states[:, M + band].T * np.exp(-1j * np.outer(mu, t_rec))  # (columns, records)
    first = np.maximum(m_lo, 0)
    count = np.minimum(m_lo + lengths, n_rec) - first
    R = max(1, int(count.max()))
    N = sfft.next_fast_len(2 * R - 1, True)
    width = max(1, min(band.size, _BATCH_ELEMENTS // N))  # columns per transform
    chunk = max(1, _BATCH_ELEMENTS // (N * width))  # windows per transform
    # lag chunks whose kernel arrays (2 x edges or 20 nodes per lag) fit the
    # budget; a single chunk is kept for every window chunk
    step = max(1, _BATCH_ELEMENTS // max(2 * mass_sq.shape[2] + 2, len(_GAUSS[0])))
    lags = [np.arange(i, min(i + step, R)) for i in range(0, R, step)]
    kept = [_lag_kernels(dt, 4.0**k, lags[0])] if len(lags) == 1 else None
    for c in (np.arange(i, min(i + chunk, len(centers))) for i in range(0, len(centers), chunk)):
        # rows past a window's last record are read at the last one and weighted by 0
        rows = np.minimum(first[c, None] + np.arange(R), n_rec - 1)
        window = np.where(np.arange(R) < count[c, None],
                          eta0(4.0**k * (t_rec[rows] - centers[c, None])), 0.0)
        P = np.zeros((2, len(c), N))
        for s in (slice(i, i + width) for i in range(0, band.size, width)):
            G = sfft.fft(demod[s][:, rows] * window, n=N, axis=-1, overwrite_x=True)
            P += np.tensordot(weights[s].T, G.real**2 + G.imag**2, axes=1)
        # zero lag: sum_f P_f / N = sum_p |g_p|^2 (weighted)
        l2_sq[c] = dt * P[0].sum(axis=-1) / N
        r = sfft.ifft(P, axis=-1)[..., :R].real
        r[..., 1:] *= 2.0  # lags m and -m
        for m, K in zip(lags, kept or (_lag_kernels(dt, 4.0**k, m) for m in lags)):
            # (F_k, N_k, F^s) = (r_0 K_0, r_0 K_1, r_1 K_0) in one sum, so
            # equal r and K give equal bits in every weighting
            mass_sq[:, c] += np.einsum("wcm,wjm->wcj", r[[0, 0, 1]][..., m], K[[0, 1, 0]])
    mass_sq *= dt * dt / (2.0 * np.pi)
    return np.maximum(mass_sq, 0.0), l2_sq


def modulation_decompose(traj: Trajectory, k: int, t_k: float) -> ModulationShellSet:
    """Shell masses in |tau - mu(n)| of the I_k band in one window around t_k."""
    centers = np.array([float(t_k)])
    dt, m_lo, lengths = _window_starts(traj, k, centers)
    mass_sq, l2_sq = _window_masses(traj, k, centers, dt, m_lo, lengths)
    n = int(lengths[0])
    zero_extended = bool(m_lo[0] < 0 or m_lo[0] + n > len(traj.times))
    shells = {j: float(np.sqrt(m)) for j, m in enumerate(mass_sq[0, 0])}
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


def _window_table(traj: Trajectory, k: int, T: float) -> np.ndarray:
    """_window_masses' mass_sq of the t_k grid, memoized per (k, T)."""
    key = (k, float(T))
    if key not in traj.window_tables:
        centers, _ = _tk_grid(traj, k, T)
        dt, m_lo, lengths = _window_starts(traj, k, centers)
        traj.window_tables[key] = _window_masses(traj, k, centers, dt, m_lo, lengths)[0]
    return traj.window_tables[key]


def _xk_sup(traj, k, T, wt, weighting) -> float:
    """sup over the t_k grid of the X_k sum of one weighting (0: F_k, 1: N_k,
    2: F^s block) of the window table."""
    mass_sq = _window_table(traj, k, T)[weighting]
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
