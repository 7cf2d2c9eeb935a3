"""Independent brute-force oracles used across the test suite.

Everything here is written from the defining formulas with nested loops and
exact index bookkeeping, deliberately avoiding the FFT/inclusion-exclusion
paths used by the package. Only usable at small max_mode.
"""

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np


def dft_coefficients(samples):
    """Direct O(P^2) DFT returning coefficients of e^{inx} for |n| <= (P-1)//2."""
    P = len(samples)
    x = 2.0 * np.pi * np.arange(P) / P
    M = (P - 1) // 2
    out = {}
    for n in range(-M, M + 1):
        out[n] = np.sum(samples * np.exp(-1j * n * x)) / P
    return out


def synthesize_values(grid, coeff):
    """Pointwise values of sum_n coeff[n] e^{inx} on the collocation grid,
    for complex coefficients -M..M on the last axis: one full complex ifft
    per row, no Hermitian symmetry assumed."""
    import scipy.fft as sfft

    M, P = grid.max_mode, grid.phys_points
    buf = np.zeros(coeff.shape[:-1] + (P,), dtype=np.complex128)
    buf[..., : M + 1] = coeff[..., M:]
    buf[..., P - M:] = coeff[..., :M]
    return sfft.ifft(buf, axis=-1) * P


def analyze_complex(grid, values):
    """Coefficients -M..M of complex pointwise values: one full complex fft,
    no Hermitian symmetry assumed."""
    import scipy.fft as sfft

    M, P = grid.max_mode, grid.phys_points
    full = sfft.fft(np.asarray(values, dtype=np.complex128)) / P
    return np.concatenate([full[P - M:], full[: M + 1]])


def conv2(c, M, kernel):
    """sum_{n1+n2=n} kernel(n1,n2) c(n1) c(n2), dense loops."""
    out = np.zeros(2 * M + 1, dtype=complex)
    rng = range(-M, M + 1)
    for n1 in rng:
        for n2 in rng:
            n = n1 + n2
            if abs(n) <= M:
                out[n + M] += kernel(n1, n2) * c[n1 + M] * c[n2 + M]
    return out


def conv3(c, M, kernel):
    """sum_{n1+n2+n3=n} kernel(n1,n2,n3) c(n1) c(n2) c(n3), dense loops."""
    out = np.zeros(2 * M + 1, dtype=complex)
    rng = range(-M, M + 1)
    for n1 in rng:
        for n2 in rng:
            for n3 in rng:
                n = n1 + n2 + n3
                if abs(n) <= M:
                    out[n + M] += kernel(n1, n2, n3) * c[n1 + M] * c[n2 + M] * c[n3 + M]
    return out


def conv3_nonresonant(c, M, kernel):
    """Same but restricted to (n1+n2)(n1+n3)(n2+n3) != 0 (the defining set)."""
    out = np.zeros(2 * M + 1, dtype=complex)
    rng = range(-M, M + 1)
    for n1 in rng:
        for n2 in rng:
            for n3 in rng:
                if (n1 + n2) * (n1 + n3) * (n2 + n3) == 0:
                    continue
                n = n1 + n2 + n3
                if abs(n) <= M:
                    out[n + M] += kernel(n1, n2, n3) * c[n1 + M] * c[n2 + M] * c[n3 + M]
    return out


def conv5_gauged(c, M):
    """Quintic sum of the gauged flow: each 5-tuple weighted by
    1 - #{i : n_i = n}, so the tuples with one component equal to n drop out
    and those with two to four count 1 - q times."""
    out = np.zeros(2 * M + 1, dtype=complex)
    rng = range(-M, M + 1)
    for n1 in rng:
        for n2 in rng:
            for n3 in rng:
                for n4 in rng:
                    for n5 in rng:
                        tup = (n1, n2, n3, n4, n5)
                        n = sum(tup)
                        if abs(n) > M:
                            continue
                        weight = 1 - sum(m == n for m in tup)
                        if weight:
                            out[n + M] += weight * (
                                c[n1 + M] * c[n2 + M] * c[n3 + M] * c[n4 + M] * c[n5 + M]
                            )
    return out


def quintic_overlap_half(ch):
    """6i n [-10 c(n)^2 (c*c*c)(-n) + 10 c(n)^3 (c*c)(-2n) - 5 c(n)^4 c(-3n)]
    at n = 0..M of one half spectrum c[0..M] of a real field: the gauged
    quintic less the paper's A5(n) display, the tuples with two to four
    components equal to n.  Convolutions by direct sums (np.convolve)."""
    M = len(ch) - 1
    n = np.arange(M + 1)
    c = np.concatenate([np.conj(ch[:0:-1]), ch])  # -M..M
    sq = np.convolve(c, c)  # -2M..2M
    cube = np.convolve(sq, c)  # -3M..3M
    c_minus_3n = np.where(3 * n <= M, c[np.maximum(M - 3 * n, 0)], 0.0)
    return 6j * n * (-10.0 * ch**2 * cube[3 * M - n] + 10.0 * ch**3 * sq[2 * M - 2 * n]
                     - 5.0 * ch**4 * c_minus_3n)


def rhs_physical_oracle(c, M, c1, c2, c3, c4):
    """Full RHS of the generalized fifth-order flow by definition-level sums."""
    n_arr = np.arange(-M, M + 1, dtype=float)
    lin = (1j * n_arr) ** 5 * c
    t_uuxuxx = conv3(c, M, lambda a, b, d: (1j * b) * (1j * d) ** 2)
    t_u2uxxx = conv3(c, M, lambda a, b, d: (1j * d) ** 3)
    t_ux3 = conv3(c, M, lambda a, b, d: (1j * a) * (1j * b) * (1j * d))
    # quintic u^4 u_x
    out5 = np.zeros(2 * M + 1, dtype=complex)
    rng = range(-M, M + 1)
    for n1 in rng:
        for n2 in rng:
            for n3 in rng:
                for n4 in rng:
                    s4 = n1 + n2 + n3 + n4
                    p4 = c[n1 + M] * c[n2 + M] * c[n3 + M] * c[n4 + M]
                    for n5 in rng:
                        n = s4 + n5
                        if abs(n) <= M:
                            out5[n + M] += p4 * (1j * n5) * c[n5 + M]
    return lin - c1 * t_uuxuxx - c2 * t_u2uxxx - c3 * t_ux3 - c4 * out5


def rhs_fifth_kdv_oracle(c, M, a1, a2, a3):
    """u_xxxxx - a1 u_x u_xx - a2 u u_xxx - a3 u^2 u_x by definition-level sums."""
    n_arr = np.arange(-M, M + 1, dtype=float)
    lin = (1j * n_arr) ** 5 * c
    t1 = conv2(c, M, lambda a, b: (1j * a) * (1j * b) ** 2)
    t2 = conv2(c, M, lambda a, b: (1j * b) ** 3)
    t3 = conv3(c, M, lambda a, b, d: 1j * d)
    return lin - a1 * t1 - a2 * t2 - a3 * t3


def rhs_third_order_oracle(c, M, which):
    """-u_xxx + 6 u u_x (KdV) or -v_xxx + 6 v^2 v_x (defocusing mKdV)."""
    n_arr = np.arange(-M, M + 1, dtype=float)
    lin = -((1j * n_arr) ** 3) * c
    if which == "kdv":
        return lin + 6.0 * conv2(c, M, lambda a, b: 1j * b)
    return lin + 6.0 * conv3(c, M, lambda a, b, d: 1j * d)


def rhs_renormalized_oracle(c, M, d1, d2, resonant_cubic=True, cubic2=True, cubic3=True, quintic=True):
    """RHS of the renormalized flow by definition-level sums: cubics over
    A3(n), the quintic weighted as in conv5_gauged."""
    n_arr = np.arange(-M, M + 1, dtype=float)
    out = 1j * (n_arr**5 + d1 * n_arr**3 + d2 * n_arr) * c
    if resonant_cubic:
        out += -20j * n_arr**3 * np.abs(c) ** 2 * c
    if cubic2:
        out += 10j * n_arr * conv3_nonresonant(c, M, lambda a, b, d: d * d)
    if cubic3:
        out += 10j * n_arr * conv3_nonresonant(c, M, lambda a, b, d: b * d)
    if quintic:
        out += 6j * n_arr * conv5_gauged(c, M)
    return out


def random_real_coeffs(M, rng, decay=1.5, amplitude=1.0):
    """Random Hermitian-symmetric coefficient array with power-law decay."""
    c = np.zeros(2 * M + 1, dtype=complex)
    for n in range(1, M + 1):
        a = (rng.standard_normal() + 1j * rng.standard_normal()) / (1 + n) ** decay
        c[n + M] = a
        c[-n + M] = np.conj(a)
    c[M] = rng.standard_normal()
    return amplitude * c


def gauge_constants_oracle(c, M):
    """(sum |c(n)|^2, sum n^2 |c(n)|^2, sum_{n1+n2+n3+n4=0} c(n1)c(n2)c(n3)c(n4))
    of dense coefficients -M..M, by explicit loops over the modes."""
    l2 = h1 = 0.0
    for n in range(-M, M + 1):
        a = abs(c[n + M]) ** 2
        l2 += a
        h1 += n * n * a
    quartic = 0.0
    modes = range(-M, M + 1)
    for n1 in modes:
        for n2 in modes:
            for n3 in modes:
                n4 = -(n1 + n2 + n3)
                if abs(n4) <= M:
                    quartic += c[n1 + M] * c[n2 + M] * c[n3 + M] * c[n4 + M]
    return l2, h1, quartic


def mirror_defect(coeff):
    """max |c(-n) - conj(c(n))| of dense coefficients -M..M."""
    return float(np.max(np.abs(coeff[::-1] - np.conj(coeff))))


def random_smooth_oracle(M, seed, decay, amplitude):
    """The CLI's random_smooth preset drawn one mode at a time: for n = 1..M,
    c(n) = amplitude * (x + iy) / (1+n)^decay with x, y fresh standard
    normals, c(-n) = conj(c(n)), c(0) = 0."""
    rng = np.random.default_rng(seed)
    c = np.zeros(2 * M + 1, dtype=complex)
    for n in range(1, M + 1):
        a = (rng.standard_normal() + 1j * rng.standard_normal()) / (1 + n) ** decay
        c[n + M] = a
        c[-n + M] = np.conj(a)
    c *= amplitude
    return c


def miura_static_fields_oracle(M, seed, count=100):
    """miura-check's static (c, cdot) pairs drawn one mode at a time: per
    field and mode n = 1..M, c(n) then cdot(n), each (x + iy)/(1+n)^2, then
    real c(0) and cdot(0)."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        c = np.zeros(2 * M + 1, dtype=complex)
        cdot = np.zeros(2 * M + 1, dtype=complex)
        for n in range(1, M + 1):
            c[n + M] = (rng.standard_normal() + 1j * rng.standard_normal()) / (1 + n) ** 2
            c[-n + M] = np.conj(c[n + M])
            cdot[n + M] = (rng.standard_normal() + 1j * rng.standard_normal()) / (1 + n) ** 2
            cdot[-n + M] = np.conj(cdot[n + M])
        c[M] = rng.standard_normal()
        cdot[M] = rng.standard_normal()
        pairs.append((c, cdot))
    return pairs


def gauge_inverse(traj_v):
    """Inverse gauge transform, the round-trip reference of gauge_forward:
    every record twisted by exp(+20 i n Phi) in one table, with Phi
    accumulated from v itself, since l4(v) = l4(u) on every record; the
    result is tagged with the physical flow again."""
    from mkdvlab.transforms import GAUGE_PHASE_RATE, accumulate_phase

    n = np.arange(traj_v.grid.max_mode + 1)
    twist = np.exp(1j * GAUGE_PHASE_RATE * np.outer(accumulate_phase(traj_v), n))
    return replace(traj_v, half=twist * traj_v.half, equation_tag="physical_5mkdv")


# ---------------------------------------------------------------------------
# Short-time norms: one window at a time
# ---------------------------------------------------------------------------

def _window_samples(traj, k, t_k):
    """The windowed, demodulated band samples g (recorded rows x every column
    of the band I_k, both signs of n), dt, chi_k on those columns, the
    window's span in samples and whether it reaches past the records."""
    from mkdvlab.equations import linear_symbol
    from mkdvlab.spectral import chi, eta0

    times = traj.times
    dt = float(times[1] - times[0])
    half = 2.0 * 4.0 ** (-k)
    m_lo = int(np.floor((t_k - half - times[0]) / dt))
    m_hi = int(np.ceil((t_k + half - times[0]) / dt))
    idx = np.arange(max(m_lo, 0), min(m_hi, len(times) - 1) + 1)
    chik = chi(k, traj.grid.modes)
    band = np.nonzero(chik)[0]
    mu = linear_symbol(traj.grid.modes[band], traj.params, traj.equation_tag)
    t = times[0] + idx * dt
    g = traj.states[idx][:, band] * np.exp(-1j * np.outer(t, mu))
    g *= eta0(4.0**k * (t - t_k))[:, None]
    return g, dt, chik[band], m_hi - m_lo + 1, bool(m_lo < 0 or m_hi >= len(times))


_gauss_legendre = functools.lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)
_WINDOW_MEMO = {}  # id(traj) -> (traj, {(k, t_k): result}); holding traj keeps its id


def window_masses_oracle(traj, k, t_k):
    """Squared shell masses of one window by definition: Gauss-Legendre
    quadrature over each shell a < |tau| <= b (edges 0, 2, 4, ..., 2^J, pi/dt)
    of the directly evaluated transform G(tau) = sum_p g_p e^{-i tau p dt} of
    every band column, with 0.5 (b - a)(R - 1) dt + 20 nodes, times dt^2/(2 pi).

    Returns (mass_sq[3, shells] weighted by 1 (F_k), 1/(tau^2 + 16^k) (N_k)
    and chi_k(n)^2 (F^s), squared window L^2(dt) norm, n_samples,
    zero_extended).  No Hermitian symmetry is assumed.  Memoized per
    trajectory object (its arrays are read-only).
    """
    memo = _WINDOW_MEMO.setdefault(id(traj), (traj, {}))[1]
    if (k, t_k) not in memo:
        memo[k, t_k] = _window_masses_by_quadrature(traj, k, t_k)
    return memo[k, t_k]


def _window_masses_by_quadrature(traj, k, t_k):
    g, dt, chik, n_samples, zero_extended = _window_samples(traj, k, t_k)
    R = len(g)
    top = np.pi / dt
    J = int(np.ceil(np.log2(top))) - 1
    edges = [0.0] + [2.0**j for j in range(1, J + 1)] + [top]
    both = np.hstack([g, np.conj(g)])  # |G(-tau)|^2 = |sum_p conj(g_p) e^{-i tau p dt}|^2
    mass_sq = np.zeros((3, J + 1))
    for j, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        x, w = _gauss_legendre(int(0.5 * (b - a) * (R - 1) * dt) + 20)
        tau = 0.5 * (b - a) * x + 0.5 * (a + b)
        P = np.abs(np.exp(-1j * np.outer(tau, np.arange(R) * dt)) @ both) ** 2
        P = P[:, :g.shape[1]] + P[:, g.shape[1]:]
        w = w * 0.5 * (b - a) * dt * dt / (2.0 * np.pi)
        mass_sq[:, j] = [w @ P.sum(axis=1), (w / (tau**2 + 16.0**k)) @ P.sum(axis=1),
                         w @ (P @ chik**2)]
    return mass_sq, dt * np.sum(np.abs(g) ** 2), n_samples, zero_extended


def window_shells_oracle(traj, k, t_k):
    """(shells {j: mass} of the F_k weighting, window L^2(dt) norm,
    n_samples, zero_extended) from window_masses_oracle."""
    mass_sq, l2_sq, n, ext = window_masses_oracle(traj, k, t_k)
    return {j: float(np.sqrt(m)) for j, m in enumerate(mass_sq[0])}, float(np.sqrt(l2_sq)), n, ext


def window_bins_oracle(traj, k, t_k, padding=1):
    """The L-bin surrogate of one window: F_k shell masses {j: mass} from the
    FFT of the window's L samples zero-extended to padding * L bins, each bin
    |G|^2 * dt/(padding L) put in the shell of its |tau|.  Padding refines
    the bins towards the continuous-tau masses, at first order."""
    import scipy.fft as sfft

    g, dt, _, L, _ = _window_samples(traj, k, t_k)
    n = padding * L
    weights = (np.abs(sfft.fft(g, n=n, axis=0)) ** 2).sum(axis=1) * (dt / n)
    a = np.abs(2.0 * np.pi * sfft.fftfreq(n, d=dt))
    j = np.where(a <= 2.0, 0, np.ceil(np.log2(np.maximum(a, 2.0))) - 1).astype(int)
    return {int(i): float(np.sqrt(m)) for i, m in enumerate(np.bincount(j, weights))}


def window_masses_full_band_oracle(traj, k, centers):
    """window_masses_oracle for every window centre: (mass_sq[3, centres,
    shells], squared window L^2(dt) norms)."""
    rows = [window_masses_oracle(traj, k, t_k)[:2] for t_k in centers]
    return np.stack([m for m, _ in rows], axis=1), np.array([l2 for _, l2 in rows])


def window_centers_oracle(traj, k, T):
    """The t_k grid: spacing 4^{-k}/4 inside the span, else one centred window."""
    t0, t1 = traj.times[0], min(traj.times[-1], T)
    half = 2.0 * 4.0 ** (-k)
    if t1 - half < t0 + half:
        return [0.5 * (t0 + t1)]
    step = 4.0 ** (-k) / 4.0
    n = int(np.floor((t1 - half - (t0 + half)) / step)) + 1
    return [t0 + half + step * i for i in range(n)]


def xk_sup_oracle(traj, k, T, gamma=0.25, weighting=0):
    """sup over window centres of sum_j 2^{j/2} beta_{j,k} mass_j, one window
    at a time; weighting 0, 1, 2 picks F_k, N_k or the F^s block."""
    best = 0.0
    for t_k in window_centers_oracle(traj, k, T):
        mass_sq = window_masses_oracle(traj, k, t_k)[0][weighting]
        val = 0.0
        for j, m in enumerate(np.sqrt(mass_sq)):
            beta = 1.0 if k == 0 else 1.0 + 2.0 ** (gamma * (j - 5 * k))
            val += 2.0 ** (j / 2.0) * beta * m
        best = max(best, val)
    return best


def fs_oracle(traj, s, T, gamma=0.25):
    """(sum_k 4^{sk} F_k(P_k traj)^2)^{1/2} from the per-window oracle."""
    from mkdvlab.spectral import chi

    M = traj.grid.max_mode
    total = 0.0
    for k in range(0, int(np.ceil(np.log2(max(M, 2)))) + 1):
        if not np.any(traj.states[:, chi(k, traj.grid.modes) != 0]):
            continue
        fk = xk_sup_oracle(traj, k, T, gamma, weighting=2)
        total += 4.0 ** (s * k) * fk * fk
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# Localized modified energy E_k: the cubic correction term by term
# ---------------------------------------------------------------------------

def ek_correction_oracle(grid, v1c, v2c, w3c, wc, k, weight3):
    """sum over n1+n2+n3+n = 0, (n1+n2)(n1+n3)(n2+n3) != 0, n3 != 0, of
    v1(n1) v2(n2) weight3(n3)/n3 w3(n3) chi_k(n)/n w(n), dense coefficients
    -M..M, by a meshgrid over (n1, n2) for each n in supp chi_k.

    weight3 is a per-mode table over -M..M (psi_k or chi_k of grid.modes);
    w3 and w are separate slots, so the sum is linear in each factor."""
    from mkdvlab.spectral import chi

    M, modes = grid.max_mode, grid.modes
    chik = chi(k, modes)
    n1g, n2g = np.meshgrid(modes, modes, indexing="ij")
    prod12 = v1c[:, None] * v2c[None, :]
    out = 0.0 + 0.0j
    for i_n in np.nonzero(chik)[0]:
        n = modes[i_n]
        n3g = -n - n1g - n2g
        sel = ((np.abs(n3g) <= M) & (n3g != 0)
               & ((n1g + n2g) * (n1g + n3g) * (n2g + n3g) != 0))
        i3 = n3g[sel] + M
        term = prod12[sel] * (weight3[i3] / n3g[sel]) * w3c[i3]
        out += np.sum(term) * (chik[i_n] / n) * wc[i_n]
    return out


def modified_energy_ek_oracle(v1, v2, w, k):
    """E_k of dense fields from ek_correction_oracle: ||P_k w||^2 plus
    KAPPA and EPSILON times the psi_k and chi_k corrections over the pairs
    (v1, v1), (v1, v2), (v2, v2)."""
    from mkdvlab.invariants import EPSILON, KAPPA
    from mkdvlab.spectral import chi, psi

    grid = w.grid
    chik, psik = chi(k, grid.modes), psi(k, grid.modes)
    total = float(np.sum(np.abs(chik * w.coeff) ** 2))
    for a, b in ((v1, v1), (v1, v2), (v2, v2)):
        for weight, table in ((KAPPA, psik), (EPSILON, chik)):
            total += weight * ek_correction_oracle(
                grid, a.coeff, b.coeff, w.coeff, w.coeff, k, table).real
    return total


# ---------------------------------------------------------------------------
# Quintic normal-form terms: one QuinticTuple and one oscillatory call per
# tuple, summed into dicts in walk order (the per-tuple reference for the
# tuple table of mkdvlab.illposed)
# ---------------------------------------------------------------------------

def hs_norm_of_map(values: dict, s: float) -> float:
    """H^s norm of the coefficients {mode: value}, summed mode by mode."""
    return math.sqrt(sum((1.0 + n * n) ** s * abs(v) ** 2 for n, v in values.items()))


def _phi3(n, tup):
    return -(n**5) + sum(m**5 for m in tup)


def _a3_ok(n, tup) -> bool:
    return all(m != n for m in tup)


@dataclass
class QuinticTuple:
    """One (outer, slot, inner) contribution to the fifth delta-derivative,
    the outer term being the n3^2-kernel cubic unless kernel_x says else."""

    n: int
    outer: tuple
    slot: int
    inner: tuple
    y_term: str
    amp: complex        # product of the five data values
    kernel_x: int
    kernel_y: int
    phi_out: int
    phi_in: int


M0_SLOT = 2  # the resonant tuple m0 holds n_slot = N-1 in the third outer slot


def m0_tuple(spec):
    """The distinguished resonant tuple m0 = (N, 2, -1, -2, 1, N): outer legs
    (2, -1, N-1) in slot M0_SLOT over the inner triple (-2, 1, N)."""
    from mkdvlab.illposed import _CUBIC_KERNELS, counterexample_support

    support = counterexample_support(spec)
    N = spec.N
    inner, outer = (-2, 1, N), (2, -1, N - 1)
    amp = support[2] * support[-1] * support[-2] * support[1] * support[N]
    return QuinticTuple(
        N, outer, M0_SLOT, inner, "cubic2", amp,
        _CUBIC_KERNELS["cubic2"](*outer), _CUBIC_KERNELS["cubic2"](*inner),
        _phi3(N, outer), _phi3(N - 1, inner),
    )


def iter_quintic_tuples_oracle(support, inner_terms=("cubic2", "cubic3")):
    """Every (outer in A3(n), slot, inner in A3(n_slot)) tuple of the
    n3^2-kernel outer cubic, nested loops."""
    from mkdvlab.illposed import _CUBIC_KERNELS

    leaves = sorted(support)
    for m1 in leaves:
        for m2 in leaves:
            for m3 in leaves:
                inner = (m1, m2, m3)
                n_slot = m1 + m2 + m3
                if not _a3_ok(n_slot, inner):
                    continue
                phi_in = _phi3(n_slot, inner)
                amp_in = support[m1] * support[m2] * support[m3]
                for la in leaves:
                    for lb in leaves:
                        amp = amp_in * support[la] * support[lb]
                        for slot in range(3):
                            outer = [la, lb]
                            outer.insert(slot, n_slot)
                            outer = tuple(outer)
                            n = la + lb + n_slot
                            if not _a3_ok(n, outer):
                                continue
                            phi_out = _phi3(n, outer)
                            kx = _CUBIC_KERNELS["cubic2"](*outer)
                            for y in inner_terms:
                                ky = _CUBIC_KERNELS[y](*inner)
                                yield QuinticTuple(
                                    n, outer, slot, inner, y, amp, kx, ky, phi_out, phi_in,
                                )


def structure_value_oracle(tup, t):
    """Structure-only normal-form value of one tuple (10i factors dropped):
    (n * n_slot * K_X * K_Y / phi_out) * amp * E_t(phi_out + phi_in)."""
    from mkdvlab.illposed import osc_single

    if tup.phi_out == 0:
        raise ZeroDivisionError("outer phase vanishes; tuple not normal-formable")
    k = tup.n * tup.outer[tup.slot] * tup.kernel_x * tup.kernel_y / float(tup.phi_out)
    return k * tup.amp * osc_single(tup.phi_out + tup.phi_in, t)


def _physical_prefactor(tup):
    return (10j * tup.n) * (10j * tup.outer[tup.slot]) * tup.kernel_x * tup.kernel_y


def _exact(phases):
    """Exact-int phases as an object array: one E_t or I2 call over it gives
    each element's scalar call bit for bit (test_array_equals_scalar_calls)."""
    return np.array(list(phases), dtype=object)


def physical_values_oracle(tuples, t):
    """Exact delta^5 contribution of each tuple, without e^{i t mu(n)}."""
    from mkdvlab.illposed import osc_double

    i2 = osc_double(_exact(tup.phi_out for tup in tuples),
                    _exact(tup.phi_in for tup in tuples), t)
    return [_physical_prefactor(tup) * tup.amp * v for tup, v in zip(tuples, i2.tolist())]


def normal_form_values_oracle(tuples, t):
    """Boundary plus distributed piece of each tuple (phi_out != 0 on all)."""
    from mkdvlab.illposed import osc_single

    e_in = osc_single(_exact(tup.phi_in for tup in tuples), t).tolist()
    e_sum = osc_single(_exact(tup.phi_out + tup.phi_in for tup in tuples), t).tolist()
    out = []
    for tup, ei, es in zip(tuples, e_in, e_sum):
        a = float(tup.phi_out)
        c = _physical_prefactor(tup)
        boundary = c * tup.amp * np.exp(1j * a * t) * ei / (1j * a)
        out.append(boundary + -c * tup.amp * es / (1j * a))
    return out


def eval_d_full_oracle(spec):
    """The quintic D term (slot 3, n3^2 kernels outside and inside) over the
    C5 support, D0 and the other tuples' moduli at mode N, tuple by tuple."""
    from mkdvlab.illposed import counterexample_support

    support = counterexample_support(spec)
    field_vals, moduli_at_N = {}, 0.0
    m0 = m0_tuple(spec)
    d0 = structure_value_oracle(m0, spec.t)
    weight_N = (1.0 + spec.N**2) ** (spec.s / 2.0)
    for tup in iter_quintic_tuples_oracle(support, ("cubic2",)):
        if tup.slot != M0_SLOT:
            continue
        v = structure_value_oracle(tup, spec.t)
        field_vals[tup.n] = field_vals.get(tup.n, 0.0) + v
        if tup.n == spec.N and not (tup.outer == m0.outer and tup.inner == m0.inner):
            moduli_at_N += weight_N * abs(v)
    d0_hsnorm = weight_N * abs(d0)
    hs_norm = hs_norm_of_map(field_vals, spec.s)
    return {
        "field": field_vals, "hs_norm": hs_norm, "d0": d0, "d0_hsnorm": d0_hsnorm,
        "nonresonant_moduli": moduli_at_N,
        "cancellation_slack": max(0.0, d0_hsnorm - hs_norm),
    }


def eval_appendix_terms_oracle(spec):
    """eval_appendix_terms summed tuple by tuple."""
    from mkdvlab.illposed import NormalFormTermReport, counterexample_support

    support = counterexample_support(spec)
    # slot 1 repeats slot 0's remainder, and (2, "cubic2") is D, summed below
    keys = {(0, "cubic2"): "b1", (0, "cubic3"): "b2", (2, "cubic3"): "d1_norms"}
    acc = {name: {} for name in keys.values()}
    for tup in iter_quintic_tuples_oracle(support):
        if (tup.slot, tup.y_term) not in keys:
            continue
        d = acc[keys[(tup.slot, tup.y_term)]]
        d[tup.n] = d.get(tup.n, 0.0) + structure_value_oracle(tup, spec.t)
    dfull = eval_d_full_oracle(spec)
    return NormalFormTermReport(
        N=spec.N, s=spec.s, t=spec.t,
        d0_hsnorm=dfull["d0_hsnorm"], d_full_hsnorm=dfull["hs_norm"],
        **{name: hs_norm_of_map(d, spec.s) for name, d in acc.items()},
    )


def _with_linear_phase(out, spec):
    return {n: v * np.exp(1j * float(n**5) * spec.t)
            for n, v in out.items()}


def t2_duhamel_fifth_oracle(support, spec, inner_terms=("cubic2",), route="direct"):
    """t2_duhamel_fifth's field summed tuple by tuple.  route="direct" sums
    the exact I2 closed forms, "normal_form" the boundary + distributed split."""
    tuples = list(iter_quintic_tuples_oracle(support, tuple(inner_terms)))
    values = (physical_values_oracle if route == "direct" else normal_form_values_oracle)(
        tuples, spec.t)
    out = {}
    for tup, v in zip(tuples, values):
        out[tup.n] = out.get(tup.n, 0.0) + v
    return _with_linear_phase(out, spec)


def fifth_derivative_nonresonant_oracle(support, spec, cubics, quintic=False):
    """delta^5 coefficient, with e^{i t mu(n)}, of a flow holding only the
    given nonresonant cubics and, if quintic, the gauged quintic (each
    quintuple weighted as in conv5_gauged), summed tuple by tuple from exact
    I2 closed forms: cubic tuples, then quintuples."""
    from mkdvlab.illposed import _CUBIC_KERNELS, osc_single

    out = {}
    # each of cubics in place of the walk's n3^2-kernel outer term
    tuples = [replace(tup, kernel_x=_CUBIC_KERNELS[x](*tup.outer))
              for tup in iter_quintic_tuples_oracle(support, tuple(cubics)) for x in cubics]
    for tup, v in zip(tuples, physical_values_oracle(tuples, spec.t)):
        out[tup.n] = out.get(tup.n, 0.0) + v
    quintuples = []  # (n, amp, phi) in the order of five nested loops
    for tup in itertools.product(sorted(support) if quintic else [], repeat=5):
        n = sum(tup)
        weight = 1 - sum(m == n for m in tup)
        if not weight:
            continue
        phi = _phi3(n, tup)
        amp = float(weight)
        for m in tup:
            amp *= support[m]
        quintuples.append((n, amp, phi))
    e_t = osc_single(_exact(phi for _, _, phi in quintuples), spec.t).tolist()
    for (n, amp, _), e in zip(quintuples, e_t):
        out[n] = out.get(n, 0.0) + (6j * n) * amp * e
    return _with_linear_phase(out, spec)


def resonant_pieces_oracle(support, spec, cubics):
    """The delta^5 pieces with the resonant cubic -20i n^3 |v|^2 v, without
    e^{i t mu(n)}, summed tuple by tuple over support's insertion order:
    the (outer, self-sourced, resonant-inner) dicts."""
    from mkdvlab.illposed import _CUBIC_KERNELS, osc_double

    t = spec.t
    outer, self_sourced, resonant_inner = {}, {}, {}
    # the resonant cubic as the outer term over the nonresonant w3
    for m1 in support:
        for m2 in support:
            for m3 in support:
                inner = (m1, m2, m3)
                n = m1 + m2 + m3
                if not _a3_ok(n, inner) or n not in support:
                    continue
                phi_in = _phi3(n, inner)
                amp_in = support[m1] * support[m2] * support[m3]
                an = support[n]
                for y in cubics:
                    ky = _CUBIC_KERNELS[y](*inner)
                    g3 = (10j * n) * ky * amp_in * osc_double(0, phi_in, t)
                    outer[n] = outer.get(n, 0.0) + (-20j * n**3) * (
                        2.0 * an * np.conj(an) * g3 + an * an * np.conj(g3)
                    )
    # ... over itself (profile -20i n^3 a^2 conj(a) t')
    half_t2 = 0.5 * t * t
    for n in support:
        a = support[n]
        G = (-20j * n**3) * a * a * np.conj(a)
        self_sourced[n] = (-20j * n**3) * (
            2.0 * a * np.conj(a) * G + a * a * np.conj(G)
        ) * half_t2
    # the nonresonant cubics as the outer term over it as w3
    for n0 in support:
        a = support[n0]
        w3_amp = (-20j * n0**3) * a * a * np.conj(a)
        for la in support:
            for lb in support:
                for legs in ((n0, la, lb), (la, n0, lb), (la, lb, n0)):
                    n = la + lb + n0
                    if not _a3_ok(n, legs):
                        continue
                    phi_out = _phi3(n, legs)
                    for x in cubics:
                        kx = _CUBIC_KERNELS[x](*legs)
                        resonant_inner[n] = resonant_inner.get(n, 0.0) + (
                            10j * n
                        ) * kx * support[la] * support[lb] * w3_amp * osc_double(phi_out, 0, t)
    return outer, self_sourced, resonant_inner


def fifth_derivative_resonant_oracle(support, spec, cubics):
    """delta^5 coefficient, with e^{i t mu(n)}, of a flow holding the
    resonant cubic and the given nonresonant cubics, from exact closed forms
    summed tuple by tuple."""
    out = {}
    for piece in resonant_pieces_oracle(support, spec, cubics):
        _add_into(out, piece)
    out = _with_linear_phase(out, spec)
    _add_into(out, fifth_derivative_nonresonant_oracle(support, spec, cubics))
    return out


def eval_c3_cubic_oracle(spec):
    """eval_c3_cubic's field summed triple by triple (unrestricted, pure n^5)
    over the C3 data a_n = 1 at n in {-1, 1}, N^{-s} at n = N."""
    from mkdvlab.illposed import osc_single

    support = {-1: 1.0, 1: 1.0, spec.N: spec.N ** (-spec.s)}
    out = {}
    for m1 in support:
        for m2 in support:
            for m3 in support:
                n = m1 + m2 + m3
                phi = -(n**5) + m1**5 + m2**5 + m3**5
                amp = support[m1] * support[m2] * support[m3]
                out[n] = out.get(n, 0.0) + (m3**3) * amp * osc_single(phi, spec.t)
    return out


# ---------------------------------------------------------------------------
# delta^5 coefficient by quadrature of the Duhamel iterates (no closed-form
# time integrals): the reference for the resonant-cubic pieces
# ---------------------------------------------------------------------------

_RENORMALIZED_CUBIC_KERNELS = {"cubic2": lambda a, b, d: d * d, "cubic3": lambda a, b, d: b * d}


def _cubic_nonlinearity(x, y, z, cubics):
    """10i n sum_{m1+m2+m3=n, every m != n} K(m1, m2, m3) x(m1) y(m2) z(m3)
    over the given cubics' kernels, for dicts mode -> array of node values."""
    out = {}
    for m1, a in x.items():
        for m2, b in y.items():
            for m3, c in z.items():
                n = m1 + m2 + m3
                if n in (m1, m2, m3):
                    continue
                k = sum(_RENORMALIZED_CUBIC_KERNELS[name](m1, m2, m3) for name in cubics)
                if k:
                    out[n] = out.get(n, 0.0) + (10j * n * k) * a * b * c
    return out


def _add_into(out, terms):
    for n, v in terms.items():
        out[n] = out.get(n, 0.0) + v


def fifth_derivative_quadrature_oracle(support, spec, cubics, nodes=64):
    """delta^5 coefficient, with e^{i t mu(n)}, of the renormalized flow
    holding the resonant cubic -20i n^3 |v(n)|^2 v(n) and the given
    nonresonant cubics, from Gauss-Legendre quadrature of its Duhamel
    iterates.  With v = e^{i t mu} f, v1(s) = e^{i s mu} a and N3 the cubic
    nonlinearity,

        f3(s) = int_0^s e^{-i s' mu} N3(v1(s')) ds',
        f5(t) = int_0^t e^{-i s mu} DN3(v1(s))[e^{i s mu} f3(s)] ds,

    where DN3(v)[w] is the derivative of N3 at v in the direction w (the
    conjugate in |v|^2 differentiated as such).  Each outer node s carries
    its own rule of the same order on [0, s]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    t = spec.t
    s = 0.5 * t * (x + 1.0)
    ws = 0.5 * t * w
    inner_s = 0.5 * s[:, None] * (x + 1.0)
    inner_w = 0.5 * s[:, None] * w

    def mu(n):
        return float(n**5)

    def resonant(n, v):
        return -20j * n**3 * v * v * np.conj(v)

    # f3 at every outer node, from N3 at its inner nodes
    v1 = {m: np.exp(1j * mu(m) * inner_s) * a for m, a in support.items()}
    n3 = _cubic_nonlinearity(v1, v1, v1, cubics)
    _add_into(n3, {m: resonant(m, v) for m, v in v1.items()})
    f3 = {n: np.sum(inner_w * np.exp(-1j * mu(n) * inner_s) * v, axis=1) for n, v in n3.items()}

    # DN3(v1)[v3] at the outer nodes
    v1 = {m: np.exp(1j * mu(m) * s) * a for m, a in support.items()}
    v3 = {n: np.exp(1j * mu(n) * s) * f for n, f in f3.items()}
    d5 = {}
    for args in ((v3, v1, v1), (v1, v3, v1), (v1, v1, v3)):
        _add_into(d5, _cubic_nonlinearity(*args, cubics))
    for n, v in v1.items():
        if n in v3:
            d5[n] = d5.get(n, 0.0) - 20j * n**3 * (
                2.0 * v * np.conj(v) * v3[n] + v * v * np.conj(v3[n])
            )
    return {
        n: np.exp(1j * mu(n) * t) * np.sum(ws * np.exp(-1j * mu(n) * s) * v)
        for n, v in d5.items()
    }
