"""Gauge renormalization of trajectories, and the Miura map.

The gauge transform twists each Fourier mode by the accumulated quartic
phase:

    v(t, n) = exp(-i * 20 * n * Phi(t)) * u(t, n),
    Phi(t)  = int_0^t l4(u(s)) ds,
    l4(u)   = sum_{n1+n2+n3+n4=0} u(n1) u(n2) u(n3) u(n4),

so |v(t,n)| = |u(t,n)| pointwise and v(0) = u(0).  Phi is accumulated by
composite trapezoid on the recorded time grid.  The twist e^{-20 i n Phi}
translates u by 20*Phi in space, and l4 (the mean of u^4) does not change
under a translation, so l4(v) = l4(u) record by record: the inverse twist
e^{+20 i n Phi} (the tests' round-trip reference) reads Phi from v directly.

The Miura map u = v_x + v^2 takes defocusing mKdV solutions to KdV ones;
``miura-check`` compares :func:`miura` of an mKdV run with a KdV run, and
:func:`chain_identity_gap` checks the identity behind it for any (v, v_t).

Every real-data synthesis here is one stacked irfft of
:class:`spectral.HalfSpectrum` over all records and derivative orders.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .equations import half_l4_quartic
from .errors import ConfigurationError
from .integrate import Trajectory
from .spectral import GridSpec, half_spectrum, row_chunks

GAUGE_PHASE_RATE = 20.0


def accumulate_phase(traj: Trajectory) -> np.ndarray:
    """Cumulative quartic integral Phi on the recorded grid (Phi[0] = 0)."""
    if np.any(np.diff(traj.times) <= 0):
        raise ConfigurationError("trajectory times must be strictly increasing")
    l4 = half_l4_quartic(traj.grid, traj.half)
    phi = np.zeros_like(l4)
    phi[1:] = np.cumsum(0.5 * np.diff(traj.times) * (l4[1:] + l4[:-1]))
    return phi


def _apply_phase(traj: Trajectory, phi: np.ndarray) -> Trajectory:
    """traj with every record twisted by exp(-20 i n Phi), tagged with the
    renormalized flow it then solves; the phase table is made a chunk of
    records at a time, and a chunk's complex phases and their exponentials
    fit spectral.BATCH_ELEMENTS together.  The phase is odd in n, so the
    twisted records stay real and only n >= 0 is twisted.  The product is
    formed as twist * half, the same bits for any chunking."""
    n = half_spectrum(traj.grid).n
    half = np.empty(traj.half.shape, dtype=np.complex128)
    for rows in row_chunks(len(phi), 2 * len(n)):
        twist = np.exp(-1j * GAUGE_PHASE_RATE * np.outer(phi[rows], n))
        np.multiply(twist, traj.half[rows], out=half[rows])
    return replace(traj, times=traj.times.copy(), half=half, equation_tag="renormalized_5mkdv")


def gauge_forward(traj_u: Trajectory) -> Trajectory:
    """NT: u-trajectory -> v-trajectory (identity at t = 0) in the renormalized
    frame, whose tag makes the short-time norms demodulate by n^5 + d1 n^3 + d2 n.

    The phase accumulates on the recorded grid; for tight comparisons the
    recording spacing should satisfy stride*dt <= 1e-3 (the phase error
    scales like n * quadrature error, amplified by max_mode).
    """
    return _apply_phase(traj_u, accumulate_phase(traj_u))


# ---------------------------------------------------------------------------
# Miura transform
# ---------------------------------------------------------------------------

def miura(grid: GridSpec, v_half: np.ndarray) -> np.ndarray:
    """Half spectra of u = v_x + v^2 (dealiased quadratic) from half spectra
    c[0..M] of real v, any leading axes: one stacked irfft, one rfft."""
    h = half_spectrum(grid)
    V, Vx = h.synthesize(v_half, (0, 1))
    return h.analyze(Vx + V * V)


def chain_identity_gap(grid: GridSpec, v_half: np.ndarray, vdot_half: np.ndarray) -> float:
    """sup | KdV-residual(v_x+v^2) - (2v + d/dx) mKdV-residual(v) | relative
    to max(1, sup |KdV-residual|), for real v and vdot given by their half
    spectra, with u_t = (2v + d/dx) vdot and v_t = vdot.  With leading axes,
    the largest gap over the pairs, formed a chunk of pairs at a time.

    An algebraic identity in (v, vdot); zero to rounding for any fields.
    Every term (including the x-derivative of the residual) is expanded in
    closed form and evaluated pointwise, so no truncation enters.
    """
    h = half_spectrum(grid)
    v_half, vdot_half = (np.reshape(a, (-1, h.M + 1)) for a in (v_half, vdot_half))
    worst = 0.0
    # beside v's five orders, per pair: v_t's two syntheses and 12 more sample arrays
    for rows, (V, Vx, Vxx, Vxxx, Vxxxx) in h.synthesize_rows(v_half, range(5), 18):
        Vdot, Vdot_x = h.synthesize(vdot_half[rows], (0, 1))
        U = Vx + V * V
        Ux = Vxx + 2.0 * V * Vx
        u_t = 2.0 * V * Vdot + Vdot_x
        # u_xxx = v_xxxx + (v^2)_xxx = v_xxxx + 2(v v_xx + vx^2)_x
        u_xxx = Vxxxx + 2.0 * (V * Vxxx + 3.0 * Vx * Vxx)
        lhs = u_t + u_xxx - 6.0 * U * Ux
        res = Vdot + Vxxx - 6.0 * V * V * Vx
        # d/dx res = vdot_x + v_xxxx - 12 v vx^2 - 6 v^2 vxx, closed form
        res_x = Vdot_x + Vxxxx - 12.0 * V * Vx * Vx - 6.0 * V * V * Vxx
        rhs = 2.0 * V * res + res_x
        gap = np.max(np.abs(lhs - rhs), axis=-1) / np.maximum(1.0, np.max(np.abs(lhs), axis=-1))
        worst = max(worst, float(np.max(gap)))
    return worst
