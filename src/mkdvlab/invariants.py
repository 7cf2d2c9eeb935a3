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

from .errors import ParameterError
from .integrate import Trajectory
from .spectral import GridSpec, SpectralField, chi, half_spectrum, project_pk, psi, top_band

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


def _ek_correction(grid: GridSpec, v1c, v2c, wc, k: int, weight3: np.ndarray) -> complex:
    """sum over n1+n2+n3+n = 0 (pairwise sums of (n1,n2,n3) nonzero) of
    v1(n1) v2(n2) weight3(n3)/n3 * w(n3) chi_k(n)/n * w(n).

    weight3 is a per-mode table (psi_k or chi_k evaluated on grid.modes).
    Cost O(|supp chi_k| * M^2) by looping outputs over the chi_k band.
    """
    M = grid.max_mode
    modes = grid.modes
    chik = chi(k, modes)
    out = 0.0 + 0.0j
    idx_n = np.nonzero(chik)[0]
    n1g, n2g = np.meshgrid(modes, modes, indexing="ij")
    v1g = v1c[:, None]
    v2g = v2c[None, :]
    prod12 = v1g * v2g
    for i_n in idx_n:
        n = modes[i_n]
        if n == 0:
            continue
        n3g = -n - n1g - n2g
        valid = np.abs(n3g) <= M
        # nonresonance: (n1+n2)(n1+n3)(n2+n3) != 0 with n1+n2+n3 = -n
        nz = (n1g + n2g) * (n1g + n3g) * (n2g + n3g) != 0
        sel = valid & nz & (n3g != 0)
        if not np.any(sel):
            continue
        i3 = n3g[sel] + M
        w3 = weight3[i3]
        m = np.any(w3 != 0)
        if not m:
            continue
        term = prod12[sel] * (w3 / n3g[sel]) * wc[i3]
        out += np.sum(term) * (chik[i_n] / n) * wc[i_n]
    return out


def modified_energy_ek(
    v1: SpectralField,
    v2: SpectralField,
    w: SpectralField,
    k: int,
) -> float:
    """||P_k w||^2 plus the KAPPA/psi and EPSILON/chi cubic corrections,
    summed over the (l, m) pairs (1,1), (1,2), (2,2) with equal weights.

    Defined for k >= 1 (the k = 0 block carries no correction)."""
    if k < 1:
        raise ParameterError("modified energy E_k is defined for k >= 1")
    grid = w.grid
    w.half("modified energy w")
    pkw = project_pk(w, k)
    base = float(np.sum(np.abs(pkw.coeff) ** 2))
    psik = psi(k, grid.modes)
    chik = chi(k, grid.modes)
    total = base
    for a, b in ((v1.coeff, v1.coeff), (v1.coeff, v2.coeff), (v2.coeff, v2.coeff)):
        s_psi = _ek_correction(grid, a, b, w.coeff, k, psik)
        s_chi = _ek_correction(grid, a, b, w.coeff, k, chik)
        total += KAPPA * s_psi.real + EPSILON * s_chi.real
    return total


# ---------------------------------------------------------------------------
# E^s energy on trajectories
# ---------------------------------------------------------------------------

def es_energy(traj: Trajectory, s: float, T: float | None = None) -> float:
    """||P_0 u(0)|| ^2 + sum_{k>=1} 2^{2sk} sup_t ||P_k u(t)||^2, square-rooted.

    The sup runs over the recorded time grid (recording stride bounds the
    gap to the continuous sup).  The records hold n >= 0, and chi_k is even,
    so each n > 0 counts twice.
    """
    grid = traj.grid
    M = grid.max_mode
    mask = np.ones(len(traj), dtype=bool)
    if T is not None:
        mask = traj.times <= T + 1e-15
    half = traj.half[mask]
    h = half_spectrum(grid)
    n, twice = h.n, h.twice
    total = float(twice @ np.abs(chi(0, n) * half[0]) ** 2)
    for k in range(1, top_band(M) + 1):
        chik = chi(k, n)
        if not np.any(chik):
            continue
        masses = np.abs(half * chik) ** 2 @ twice
        total += 2.0 ** (2 * s * k) * float(np.max(masses))
    return float(np.sqrt(total))
