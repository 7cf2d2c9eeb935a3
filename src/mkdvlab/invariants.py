"""Conserved Hamiltonians, drift reporting, localized modified energies, E^s.

The three Hamiltonians of the constrained family (physical integrals over
[0, 2*pi]):

    H0 = int u^2/2
    H1 = int (u_x)^2/2 + (c1/80) u^4
    H2 = int (u_xx)^2/2 + (c1/8) u^2 u_x^2 + (c1^2/1600) u^6

All three are constant along the constrained flow; H2 generates it.  The
series over a trajectory come from stacked syntheses of u, u_x and u_xx, one
per chunk of records (:meth:`spectral.HalfSpectrum.synthesize_rows`), so the
memory does not grow with the record count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .integrate import Trajectory
from .spectral import GridSpec, SpectralField, chi, half_spectrum, psi, top_band

TWO_PI = 2.0 * np.pi


def _quad(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Collocation trapezoid integrals over [0, 2*pi] along the last axis,
    exact for trig polynomials below the Nyquist band."""
    return np.sum(values, axis=-1) * (TWO_PI / grid.phys_points)


def _hamiltonians(grid: GridSpec, half: np.ndarray, c1: float) -> np.ndarray:
    """[H0, H1, H2] of every row of 2-D half spectra, one stacked synthesis
    per chunk of rows; a chunk's syntheses, u^2 and the up to three partial
    products of one integrand fit spectral.BATCH_ELEMENTS together."""
    out = np.empty((3, len(half)))
    for rows, (U, Ux, Uxx) in half_spectrum(grid).synthesize_rows(half, range(3), 4):
        u2 = U * U
        out[0, rows] = 0.5 * _quad(grid, u2)
        out[1, rows] = _quad(grid, 0.5 * Ux * Ux + (c1 / 80.0) * u2 * u2)
        out[2, rows] = _quad(
            grid,
            0.5 * Uxx * Uxx + (c1 / 8.0) * u2 * Ux * Ux + (c1**2 / 1600.0) * u2 * u2 * u2,
        )
    return out


@dataclass
class HamiltonianReport:
    times: np.ndarray
    h0: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    relative_drift: tuple


def _rel_drift(series: np.ndarray) -> float:
    ref = series[0]
    scale = max(abs(ref), 1e-300)
    return float(np.max(np.abs(series - ref)) / scale)


def drift_report(traj: Trajectory, c1: float) -> HamiltonianReport:
    """Time series of H0, H1, H2 on the recorded states with max relative drift."""
    h0, h1, h2 = _hamiltonians(traj.grid, traj.half, c1)
    return HamiltonianReport(
        traj.times.copy(), h0, h1, h2, (_rel_drift(h0), _rel_drift(h1), _rel_drift(h2))
    )


# ---------------------------------------------------------------------------
# Localized modified energy E_k
# ---------------------------------------------------------------------------

#: The proof's weights of the psi_k and chi_k cubic corrections of E_k.
KAPPA = -4.0 / 3.0
EPSILON = -2.0 / 3.0


def modified_energy_ek(
    v1: SpectralField,
    v2: SpectralField,
    w: SpectralField,
    k: int,
) -> float:
    """||P_k w||^2 plus the KAPPA/psi and EPSILON/chi cubic corrections,
    summed over the (l, m) pairs (1,1), (1,2), (2,2) with equal weights:

        sum over n1+n2+n3+n = 0, (n1+n2)(n1+n3)(n2+n3) != 0, of
        v_l(n1) v_m(n2) (KAPPA psi_k + EPSILON chi_k)(n3)/n3 w(n3) chi_k(n)/n w(n).

    With the real fields g = d^-1((KAPPA psi_k + EPSILON chi_k) w) and
    q = d^-1(chi_k w), the sum over all n1+n2+n3+n = 0 is -mean(v_l v_m g q)
    on the grid, alias-free for quartic products.  The resonant planes
    A: n1+n2 = 0, B: n1+n3 = 0 and C: n2+n3 = 0 come off by
    inclusion-exclusion: each plane is a product of two pair sums, each two
    planes meet in one sum over n, and all three meet only at n3 = 0, where
    1/n3 drops the term.

    Defined for k >= 1 (the k = 0 block carries no correction)."""
    if k < 1:
        raise ConfigurationError("modified energy E_k is defined for k >= 1")
    h = half_spectrum(w.grid)
    wh = w.half("E_k w")
    chik = chi(k, h.n)
    inv_dx = np.divide(1.0, h.i_n, out=np.zeros_like(h.i_n), where=h.n > 0)
    g = inv_dx * (KAPPA * psi(k, h.n) + EPSILON * chik) * wh
    q = inv_dx * chik * wh
    fields = np.stack([v1.half("E_k v1"), v2.half("E_k v2"), g, q])
    V1, V2, G, Q = h.synthesize(fields, (0,))[0]
    total = h.twice @ np.abs(chik * wh) ** 2 - np.mean((V1 * V1 + V1 * V2 + V2 * V2) * G * Q)
    # g and q enter the sum as i g and i q, so each sum below carries
    # i*i = -1 and comes off with its sign flipped; pair[i, j] is the sum
    # over -M..M of f_i(n) f_j(-n)
    pair = ((fields * h.twice) @ fields.conj().T).real
    meet_ab_ac = 2.0 * (np.conj(g) * q).real
    meet_bc = np.conj(g * q)
    for a, b in ((0, 0), (0, 1), (1, 1)):
        total += pair[a, b] * pair[2, 3] + pair[a, 2] * pair[b, 3] + pair[a, 3] * pair[b, 2]
        total -= h.twice @ (fields[a] * (np.conj(fields[b]) * meet_ab_ac
                                         + fields[b] * meet_bc)).real
    return float(total)


# ---------------------------------------------------------------------------
# E^s energy on trajectories
# ---------------------------------------------------------------------------

def es_energy(traj: Trajectory, s: float) -> float:
    """||P_0 u(0)|| ^2 + sum_{k>=1} 2^{2sk} sup_t ||P_k u(t)||^2, square-rooted.

    The sup runs over the recorded time grid (recording stride bounds the
    gap to the continuous sup).  The records hold n >= 0, and chi_k is even,
    so each n > 0 counts twice.
    """
    h = half_spectrum(traj.grid)
    half, n, twice = traj.half, h.n, h.twice
    total = float(twice @ np.abs(chi(0, n) * half[0]) ** 2)
    for k in range(1, top_band(traj.grid.max_mode) + 1):
        masses = np.abs(half * chi(k, n)) ** 2 @ twice
        total += 2.0 ** (2 * s * k) * float(np.max(masses))
    return float(np.sqrt(total))
