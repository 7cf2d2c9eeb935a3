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
extensions; flagged by window_centers and in the `norms` manifest).

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

Cost model: r is one FFT round trip of length N = next_fast_len(2R - 1) of
the recorded rows of the band's n >= 0 columns (see _window_masses), batched
over windows.  The windowed rows go straight into one zero-padded buffer
that every chunk reuses and that is transformed in place, and |G|^2 is
formed in one float array.  _BATCH_ELEMENTS bounds a chunk's whole working
set: per bin, the buffer and |G|^2 of each column and, per window, the
weighted power, its inverse transform and the lag rows, after the arrays the
table holds throughout (the demodulated band, columns x records, its lag
kernels and numpy's buffers for the gather); columns go a slice at a time
and windows a chunk at a time, one at least, so this holds as long as one
column of 2R rows and the demodulated band fit it.  The lag kernels depend
only on dt, the lags and c = 4^k (_LagBasis): one pass per trajectory makes
them for every lag a window can have, the W = 1 kernels (shells x lags
floats) and every band's resolvent kernels at its own R_k lags (bands x
shells x lags floats, 0.5 MiB for 670 records, 7 bands and 18 shells), the
cosines at the Gauss-Legendre nodes and the E_p recurrence shared by all
bands; a table takes its band's kernels out of the basis.  Where the bands'
kernels do not fit the budget together, each table makes its own in the
same pass, a chunk of lags at a time.  Time and memory grow with R and
the J + 1 shells, not with the 4 * 4^{-k}/dt samples a window spans.  The
table of 3 x centres x shells masses is made once per (trajectory, k, T)
and memoized on it; modulation_decompose gives one window's column of it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.fft as sfft

from .errors import ConfigurationError
from .equations import linear_symbol
from .integrate import Trajectory
from .spectral import BATCH_ELEMENTS as _BATCH_ELEMENTS  # bound here, so tests can shrink it
from .spectral import chi, eta0, half_spectrum, top_band

GAMMA_DEFAULT = 0.25
WINDOW_HALF_WIDTH = 2.0  # support of eta0 in scaled units
MIN_WINDOW_SAMPLES = 64
_GAUSS = np.polynomial.legendre.leggauss(20)  # nodes and weights on [-1, 1]
_SERIES_TERMS = 10  # of F(x) for x >= 8c: (1/8)^20 < 1e-18
_FRACTION_LEVELS = 20  # of E_1(-i y) for y >= 16: within 3e-16


def beta_weight(j: int, k: int, gamma: float = GAMMA_DEFAULT) -> float:
    """Modulation weight beta_{j,k} = 1 (k=0) or 1 + 2^{gamma(j-5k)}."""
    if not 0.0 < gamma <= 0.25:
        raise ConfigurationError(f"gamma must lie in (0, 1/4], got {gamma}")
    if j < 0 or k < 0:
        raise ConfigurationError("dyadic indices must be nonnegative")
    if k == 0:
        return 1.0
    return 1.0 + 2.0 ** (gamma * (j - 5 * k))


def _xk_weights(k: int, shells: int, gamma: float) -> np.ndarray:
    """2^{j/2} beta_{j,k}, the X_k weight of modulation shell j, for
    j = 0..shells-1."""
    return np.array([2.0 ** (j / 2.0) * beta_weight(j, k, gamma) for j in range(shells)])


def max_record_spacing(k: int) -> float:
    """The coarsest record spacing that band k's windows accept: their span
    4 * 4^{-k} in MIN_WINDOW_SAMPLES intervals."""
    return 2.0 * WINDOW_HALF_WIDTH * 4.0 ** (-k) / MIN_WINDOW_SAMPLES


def _window_starts(traj: Trajectory, k: int, centers: np.ndarray):
    """Validated record spacing, first sample index and length of each window."""
    times = traj.times
    if len(times) < 2:
        raise ConfigurationError("trajectory must carry at least two records")
    dts = np.diff(times)
    dt = float(dts[0])
    if np.max(np.abs(dts - dt)) > 1e-9 * max(dt, 1e-300):
        raise ConfigurationError("modulation decomposition needs uniform record spacing")
    half = WINDOW_HALF_WIDTH * 4.0 ** (-k)
    need = max_record_spacing(k)
    if dt > need * (1 + 1e-12):
        raise ConfigurationError(
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


class _LagBasis(NamedTuple):
    """The lag kernels shared by the tables of one record spacing dt: K0[j, m],
    the W = 1 kernel of shell j at the lags m = 0..count-1, and K1[k][j, m],
    band k's resolvent kernel at its R_k lags, until band k's table takes it."""

    dt: float
    K0: np.ndarray
    K1: dict


def _band_lags(dt: float, k: int, count: int) -> int:
    """R_k: the most lags a band-k window has among count records."""
    return min(count, int(2.0 * WINDOW_HALF_WIDTH * 4.0 ** (-k) / dt) + 3)


def _lag_step(dt: float) -> int:
    """Lags per chunk of a kernel pass, whose 2 x edges or 20 nodes per lag fit the budget."""
    return max(1, _BATCH_ELEMENTS // max(2 * len(_shell_edges(dt)), len(_GAUSS[0])))


def _lag_basis(dt: float, count: int, bands) -> _LagBasis:
    """The _LagBasis of lags 0..count-1 and of the resolvent kernels of ``bands``."""
    theta = _shell_edges(dt)  # x dt for every edge x
    lag = np.maximum(np.arange(count), 1)  # m = 0 is set last
    sines = np.sin(np.outer(theta, lag))
    sines[-1] = 0.0  # sin(pi m)
    K0 = 2.0 * np.diff(sines, axis=0) / (lag * dt)
    K0[:, 0] = 2.0 * np.diff(theta / dt)
    return _LagBasis(dt, K0, _resolvent_kernels(dt, {k: _band_lags(dt, k, count) for k in bands}))


def _shared_lag_basis(traj: Trajectory, dt: float) -> _LagBasis:
    """_lag_basis of every lag a window of traj can have and of the bands
    0..k_max where their kernels fit the budget, made once per trajectory."""
    basis = traj.window_tables.get("lag basis")
    if basis is None:
        count = _band_lags(dt, 0, len(traj.times))
        bands = range(top_band(traj.grid.max_mode) + 1)
        if len(_shell_edges(dt)) * sum(_band_lags(dt, k, count) for k in bands) > 2 * _BATCH_ELEMENTS:
            bands = ()
        basis = traj.window_tables["lag basis"] = _lag_basis(dt, count, bands)
    return basis


def _resolvent_kernels(dt: float, lags: dict) -> dict:
    """K1[k][j, m] = 2 int_a^b cos(tau m dt)/(tau^2 + c^2) dtau, c = 4^k, of
    every shell (a, b] and band k at the lags m < lags[k], in one pass over
    chunks of lags: per shell one cos(tau m dt) block at the Gauss-Legendre
    nodes, contracted with each band's weights, and one E_p recurrence at the
    series' edges, contracted with every band's (-(c/x)^2)^n."""
    theta = _shell_edges(dt)  # x dt for every edge x
    x = theta / dt
    a, b = x[:-1], x[1:]
    counts = np.array(list(lags.values()), dtype=int)
    c = 4.0 ** np.array(list(lags), dtype=float)[:, None]
    K = [np.empty((len(a), n)) for n in counts]
    nodes, weights = _GAUSS
    step, total = _lag_step(dt), counts.max(initial=0)
    for start in range(0, total, step):
        lag = np.maximum(np.arange(start, min(start + step, total)), 1)  # m = 0 is set last
        s = lag * dt
        # Gauss-Legendre while cos(tau s) turns by at most 16 radians over the
        # shell (or b <= 8c): a prefix of each band's lags in every shell
        ends = np.clip(counts - start, 0, len(s))[:, None]
        gauss = np.where(b <= 8.0 * c, ends, np.minimum(((b - a)[:, None] * s <= 16.0).sum(1), ends))
        for j, n in enumerate(gauss.max(axis=0)):
            half = 0.5 * (b[j] - a[j])
            tau = half * nodes + (a[j] + half)
            cos = np.cos(np.outer(tau, s[:n]))
            for Kb, w, nb in zip(K, 2.0 * half * weights / (tau * tau + c * c), gauss[:, j]):
                Kb[j, start:start + nb] = w @ cos[:, :nb]
        i = np.arange(len(s))
        series = (i >= gauss[..., None]) & (i < ends[..., None])  # a >= 8c, x s > 16
        wide, at = series.any(axis=0), np.zeros((len(x), len(s)), dtype=bool)
        at[:-1] |= wide
        at[1:] |= wide
        pos = np.cumsum(at).reshape(at.shape) - 1  # of each edge and lag among the pairs at
        edge = np.broadcast_to(x[:, None], at.shape)[at]
        iy = 1j * np.outer(theta, lag)[at]  # i x s
        # E_1(-i y) = e^{i y}/(1 - i y - 1/(3 - i y - 4/(5 - i y - ...)))
        frac = (2 * _FRACTION_LEVELS + 1) - iy
        for n in range(_FRACTION_LEVELS, 0, -1):
            frac = ((2 * n - 1) - iy) - n * n / frac
        rot = np.exp(iy)
        e_p = rot / frac
        F = np.zeros((len(c), len(iy)))  # x F(x) of every band
        term = np.ones(F.shape)  # (-(c/x)^2)^n, capped at 1 where a band takes no series
        minus_zeta_sq = -np.minimum((c / edge) ** 2, 1.0)
        for p in range(1, 2 * _SERIES_TERMS):
            e_p *= iy  # E_{p+1}(-i x s) = (e^{i x s} + i x s E_p)/p
            e_p += rot
            e_p /= p
            if p % 2:
                F += term * e_p.real
                term *= minus_zeta_sq
        F /= edge
        for Kb, Fb, (j, i) in zip(K, F, (np.nonzero(sb) for sb in series)):
            Kb[j, start + i] = -2.0 * (Fb[pos[j + 1, i]] - Fb[pos[j, i]])
    for Kb, cb in zip(K, c):
        Kb[:, 0] = 2.0 / cb * np.arctan(cb * (b - a) / (cb * cb + a * b))
    return dict(zip(lags, K))


def _window_masses(traj, k, centers):
    """Squared shell masses mass_sq[w, c, j] of every window centre (w = 0:
    F_k, 1: N_k, 2: F^s block) and the squared window L^2(dt) norms.
    Every window goes through one batched autocorrelation of R rows (R the
    most any window records) and one set of lag kernels.  Only the n >= 0
    columns of the band are gathered: records of real data have g_{-n}(t) =
    conj(g_n(t)) (mu is odd), so |G_{-n}(tau)|^2 = |G_n(-tau)|^2, and every
    shell and weight is even in tau, so each n > 0 column counts twice.  A
    window past the records gathers only its recorded rows."""
    dt, m_lo, lengths = _window_starts(traj, k, centers)
    n_rec = len(traj.times)
    h = half_spectrum(traj.grid)
    chik = chi(k, h.n)
    band = np.nonzero(chik)[0]
    mass_sq = np.zeros((3, len(centers), len(_shell_edges(dt)) - 1))
    l2_sq = np.zeros(len(centers))
    twice = h.twice[band]
    weights = np.stack([twice, twice * chik[band] ** 2], axis=1)  # F_k and N_k, F^s
    mu = linear_symbol(band, traj.params, traj.equation_tag)  # column i is mode n = i
    t_rec = traj.times[0] + np.arange(n_rec) * dt
    demod = traj.half[:, band].T * np.exp(-1j * np.outer(mu, t_rec))  # (columns, records)
    first = np.maximum(m_lo, 0)
    count = np.minimum(m_lo + lengths, n_rec) - first
    R = max(1, int(count.max()))
    N = sfft.next_fast_len(2 * R - 1, True)
    # the lag sums go a kernel pass's chunk of lags at a time
    step = _lag_step(dt)
    lags = [np.arange(i, min(i + step, R)) for i in range(0, R, step)]
    basis = _shared_lag_basis(traj, dt)
    K1 = basis.K1.pop(k, None)  # a band's kernels leave the basis with its table
    if K1 is None or K1.shape[1] < R:  # a band past k_max, taken already, or not kept
        K1 = _resolvent_kernels(dt, {k: R})[k]
    K = np.stack([basis.K0[:, :R], K1[:, :R], basis.K0[:, :R]])  # of (F_k, N_k, F^s)
    # In float64 entries per window and bin, a chunk holds 3 a column (its
    # row of the padded buffer, complex, and |G|^2) and 8 more (the power P
    # of both weightings, its complex inverse transform and the lag rows).
    # Columns go a slice at a time within the budget, and windows a chunk at
    # a time within what the table's other arrays leave of it: the
    # demodulated band, the kernels, and the three buffers of up to
    # np.getbufsize() entries that numpy takes for a window's gather.
    width = max(1, min(band.size, (2 * _BATCH_ELEMENTS // N - 8) // 3))  # columns per transform
    held = 2 * demod.size + K.size + 6 * min(width * R, np.getbufsize())
    chunk = max(1, min(len(centers), (2 * _BATCH_ELEMENTS - held) // (N * (3 * width + 8))))
    padded = np.empty(width * chunk * N, dtype=complex)
    power = np.empty(width * chunk * N)
    for c in (np.arange(i, min(i + chunk, len(centers))) for i in range(0, len(centers), chunk)):
        # times past a window's last record are read at the last one and weighted by 0
        rows = np.minimum(first[c, None] + np.arange(R), n_rec - 1)
        window = np.where(np.arange(R) < count[c, None],
                          eta0(4.0**k * (t_rec[rows] - centers[c, None])), 0.0)
        P = np.zeros((2, len(c), N))
        for s in (slice(i, min(i + width, band.size)) for i in range(0, band.size, width)):
            size = (s.stop - s.start) * len(c) * N
            G = padded[:size].reshape(-1, len(c), N)
            for i, (f, n) in enumerate(zip(first[c], count[c])):
                np.multiply(demod[s, f:f + n], window[i, :n], out=G[:, i, :n])
                G[:, i, n:] = 0.0
            G = sfft.fft(G, axis=-1, overwrite_x=True)  # in place: G is the padded buffer
            G2 = np.square(G.real, out=power[:size].reshape(G.shape))
            G2 += np.square(G.imag, out=G.imag)
            P += np.tensordot(weights[s].T, G2, axes=1)
        # zero lag: sum_f P_f / N = sum_p |g_p|^2 (weighted)
        l2_sq[c] = dt * P[0].sum(axis=-1) / N
        r = sfft.ifft(P, axis=-1)[..., :R].real
        r[..., 1:] *= 2.0  # lags m and -m
        r = r[[0, 0, 1]]  # the rows of (F_k, N_k, F^s); frees the transform
        for m in lags:
            # (F_k, N_k, F^s) = (r_0 K_0, r_0 K_1, r_1 K_0) in one sum, so
            # equal r and K give equal bits in every weighting
            mass_sq[:, c] += np.einsum("wcm,wjm->wcj", r[..., m], K[..., m])
    mass_sq *= dt * dt / (2.0 * np.pi)
    return np.maximum(mass_sq, 0.0), l2_sq


def modulation_decompose(traj: Trajectory, k: int, t_k: float) -> tuple[np.ndarray, float]:
    """(mass_sq, l2_sq) of the one window around t_k: the squared shell
    masses mass_sq[w, j] in |tau - mu(n)| of the I_k band, laid out as a
    column of window_table (w = 0: F_k, 1: N_k, 2: F^s block), and the
    window's squared L^2(dt) norm.  Past the records the data are
    zero-extended, as in window_centers' single window."""
    mass_sq, l2_sq = _window_masses(traj, k, np.array([float(t_k)]))
    return mass_sq[:, 0], float(l2_sq[0])


def window_centers(traj: Trajectory, k: int, T: float):
    """(centers, zero_extended) of band k's windows: the interior sliding
    t_k grid of spacing 2^{-2k}/4, or a single centered window (zero-extended
    data, flagged True) when none fits."""
    t0, t1 = traj.times[0], min(traj.times[-1], T)
    half = WINDOW_HALF_WIDTH * 4.0 ** (-k)
    lo, hi = t0 + half, t1 - half
    if hi >= lo:
        step = 4.0 ** (-k) / 4.0
        n = int(np.floor((hi - lo) / step)) + 1
        return lo + step * np.arange(n), False
    return np.array([0.5 * (t0 + t1)]), True


def window_table(traj: Trajectory, k: int, T: float) -> np.ndarray:
    """Squared shell masses mass_sq[w, c, j] of every window centre c of
    window_centers (w = 0: F_k, 1: N_k, 2: F^s block), memoized per (k, T)."""
    key = (k, float(T))
    if key not in traj.window_tables:
        centers, _ = window_centers(traj, k, T)
        traj.window_tables[key] = _window_masses(traj, k, centers)[0]
    return traj.window_tables[key]


def _xk_sup(traj, k, T, gamma, weighting) -> float:
    """sup over the t_k grid of the X_k sum of one weighting (0: F_k, 1: N_k,
    2: F^s block) of the window table."""
    mass_sq = window_table(traj, k, T)[weighting]
    coef = _xk_weights(k, mass_sq.shape[1], gamma)
    return float(np.max(np.sqrt(mass_sq) @ coef))


def fk_norm(traj: Trajectory, k: int, T: float, gamma: float = GAMMA_DEFAULT) -> float:
    """sup over the t_k grid of the X_k norm of the windowed data."""
    return _xk_sup(traj, k, T, gamma, 0)


def nk_norm(traj: Trajectory, k: int, T: float, gamma: float = GAMMA_DEFAULT) -> float:
    """Like fk_norm with the resolvent weight (tau - mu(n) + i 2^{2k})^{-1}."""
    return _xk_sup(traj, k, T, gamma, 1)


def band_weight(k: int, s: float) -> float:
    """2^{2sk}, the weight of band k in F^s; ConfigurationError past float64."""
    try:
        return 4.0 ** (s * k)
    except OverflowError:
        raise ConfigurationError(
            f"s = {s:g}: the F^s weight 2^(2sk) passes float64 at band k = {k}") from None


def fs_norm(traj: Trajectory, s: float, T: float, gamma: float = GAMMA_DEFAULT) -> float:
    """(sum_k 2^{2sk} ||P_k traj||_{F_k(T)}^2)^{1/2} over the retained bands."""
    n = half_spectrum(traj.grid).n
    total = 0.0
    for k in range(0, top_band(traj.grid.max_mode) + 1):
        # a band without data adds 0 and builds no table, so records too
        # coarse for its windows are not rejected on its account
        if not np.any(traj.half[:, chi(k, n) != 0]):
            continue
        fk = _xk_sup(traj, k, T, gamma, 2)
        total += band_weight(k, s) * fk * fk
    return float(np.sqrt(total))
